"""A speed probe that turns measured seconds into seconds at reference speed.

The machine the benchmark was written on shares its CPUs.  Its pure-Python
speed switches between a fast and a slow state, about 1.8x apart, every few
seconds to minutes, in CPU time as much as in wall time.  So a median of raw
times from one 30 s run still moves by 20-30% between runs.  The probe is a
fixed piece of the benchmark's own code that does what the package's hot
loops do: a BFS over a 3000-vertex tree, 400 threshold cascades on a
16-vertex graph, parsing 4000 edge lines, and common-neighbour tests over
4000 neighbour sets.  It shares no code with the package, so a change to the
package cannot move it.  The benchmark runs it between passes, never inside
one, and scales each pass by the probe times on either side of it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import deque

SAMPLES = 5
# About what the probe takes in the fast state of the shared 2-vCPU VM the
# benchmark was written on (Python 3.11.7); reported times read as seconds
# on a machine where the probe takes this long.
REFERENCE_S = 0.012


class Probe:
    def __init__(self):
        rng = random.Random(7)
        tree: list[list[int]] = [[] for _ in range(3000)]
        for v in range(1, 3000):
            u = rng.randrange(v)
            tree[u].append(v)
            tree[v].append(u)
        self.tree = tuple(map(tuple, tree))
        self.small = tuple(
            tuple(sorted({(u + 1) % 16, (u - 1) % 16, (u + 5) % 16, (u - 5) % 16})) for u in range(16)
        )
        self.text = "\n".join(f"{i} {(i * 7919) % 5000}" for i in range(4000))
        self.sets: list[set[int]] = [set() for _ in range(4000)]
        self.edges = []
        for _ in range(4000):
            u, v = rng.randrange(4000), rng.randrange(4000)
            if u != v and v not in self.sets[u]:
                self.sets[u].add(v)
                self.sets[v].add(u)
                self.edges.append((u, v))
        self.samples: list[float] = []

    def _bfs(self) -> None:
        adj, n = self.tree, len(self.tree)
        for root in range(0, n, 400):
            dist = [-1] * n
            dist[root] = 0
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        queue.append(v)

    def _cascades(self) -> None:
        adj = self.small
        phi = [len(a) for a in adj]
        for s in range(400):
            active, count, rounds = bytearray(16), [0] * 16, {}
            for u in range(16):
                if (s >> (u % 9)) & 1:
                    active[u], rounds[u] = 1, 0
                    for v in adj[u]:
                        count[v] += 1
            wave = [u for u in range(16) if not active[u] and count[u] >= phi[u]]
            while wave:
                touched = []
                for u in wave:
                    active[u], rounds[u] = 1, 1
                for u in wave:
                    for v in adj[u]:
                        count[v] += 1
                        if not active[v]:
                            touched.append(v)
                wave = sorted({v for v in touched if not active[v] and count[v] >= phi[v]})
            frozenset(rounds)

    def _parse(self) -> None:
        seen = set()
        for line in self.text.splitlines():
            a, b = line.split()
            seen.add((int(a), int(b)))

    def _common_neighbours(self) -> None:
        sets = self.sets
        for u, v in self.edges:
            if not sets[u] & sets[v]:
                any(a in sets[u] for a in sets[v])

    def sample(self) -> float:
        """Median time of SAMPLES probes, run on a collected heap with the collector off."""
        gc.collect()
        gc.disable()
        try:
            times = []
            for _ in range(SAMPLES):
                t0 = time.perf_counter()
                self._bfs()
                self._cascades()
                self._parse()
                self._common_neighbours()
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.samples.extend(times)
        return statistics.median(times)


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """Scale each time by the mean of the probe medians taken just before and just after it."""
    return [t * 2 * REFERENCE_S / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]
