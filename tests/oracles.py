"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately naive (full rescans, exhaustive enumeration,
one rebuilt subtree per split) and shares no algorithm with the package
internals it checks, except ``DecrementingCascade``: the cascade engine as it
was before need 0 marked settled vertices, kept to pin the order of its waves.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import chain, combinations, permutations

from dynmono import Graph, InputFormatError, PreconditionError, from_edges
from dynmono.cascade import Cascade
from dynmono.generators import _gnp_edges
from dynmono.graphs import connected_components, induced_subgraph


def naive_hull(adj: list[list[int]], phi, seed) -> set[int]:
    """Fixpoint by repeated full scans."""
    active = set(seed)
    changed = True
    while changed:
        changed = False
        for u in range(len(adj)):
            if u in active:
                continue
            if sum(1 for v in adj[u] if v in active) >= phi[u]:
                active.add(u)
                changed = True
    return active


def naive_rounds(adj: list[list[int]], phi, seed) -> dict[int, int]:
    """Synchronous rounds by full rescans: seeds are round 0, and round r + 1 takes every inactive vertex
    with at least phi(u) neighbours active after round r (so an unseeded phi = 0 vertex is round 1)."""
    rounds = {u: 0 for u in seed}
    r = 0
    while True:
        r += 1
        joined = [u for u in range(len(adj)) if u not in rounds and sum(v in rounds for v in adj[u]) >= phi[u]]
        if not joined:
            return rounds
        for u in joined:
            rounds[u] = r


def hull_active_shuffled(g: Graph, phi, seed, rng: random.Random) -> frozenset[int]:
    """Active set of the hull under a randomized asynchronous processing order.

    Activates one eligible vertex at a time, chosen uniformly from the
    pending worklist.  Used to exercise confluence: the result must equal
    hull(...).active for every ordering.
    """
    n = g.n
    adj = g.adj
    active = bytearray(n)
    count = [0] * n
    for u in seed:
        active[u] = 1
    for u in set(seed):
        for v in adj[u]:
            count[v] += 1
    pending = [u for u in range(n) if not active[u] and count[u] >= phi[u]]
    out = set(seed)
    while pending:
        i = rng.randrange(len(pending))
        pending[i], pending[-1] = pending[-1], pending[i]
        u = pending.pop()
        if active[u]:
            continue
        active[u] = 1
        out.add(u)
        for v in adj[u]:
            count[v] += 1
            if not active[v] and count[v] >= phi[v]:
                pending.append(v)
    return frozenset(out)


def greedy_kernel_reference(g: Graph, rho: Fraction, delta: Fraction) -> tuple[int, ...]:
    """Greedy kernel by the restart loop: a full naive hull and a rescan from id 0 per pick.

    Picks the smallest-id high-degree vertex (deg >= 1/rho) outside the
    kernel with more than deg/(1+delta) low-degree neighbors outside the
    kernel hull, until none is left.  The input must have a high vertex.
    """
    adj = [list(nbrs) for nbrs in g.adj]
    phi = [-(-d * rho.numerator // rho.denominator) for d in g.degrees]
    high = [u for u in range(g.n) if g.degrees[u] * rho >= 1]
    kernel: list[int] = []
    while True:
        absorbed = naive_hull(adj, phi, kernel)
        for u in high:
            if u in kernel:
                continue
            outside = sum(1 for v in adj[u] if g.degrees[v] * rho < 1 and v not in absorbed)
            if outside > g.degrees[u] / (1 + delta):
                kernel.append(u)
                break
        else:
            return tuple(kernel)


def naive_is_monopoly(adj: list[list[int]], phi, seed) -> bool:
    return len(naive_hull(adj, phi, seed)) == len(adj)


def abw_seed_reference(g: Graph, phi, order) -> tuple[int, ...]:
    """The permutation rule vertex by vertex: seed u iff fewer than phi(u) neighbors come after u in ``order``."""
    pos = {u: i for i, u in enumerate(order)}
    return tuple(u for u in range(g.n) if sum(1 for v in g.adj[u] if pos[v] > pos[u]) < phi[u])


def naive_min_monopoly(adj: list[list[int]], phi) -> tuple[int, tuple[int, ...]]:
    n = len(adj)
    for k in range(n + 1):
        for cand in combinations(range(n), k):
            if naive_is_monopoly(adj, phi, cand):
                return k, cand
    raise AssertionError("unreachable")


def min_monopoly_exhaustive_reference(g: Graph, phi) -> tuple[int, tuple[int, ...], int]:
    """Exhaustive search for min_monopoly_exact's h, witness and nodes_explored: one fresh
    cascade per candidate in increasing size and lexicographic order, counting candidates."""
    explored = 0
    for k in range(g.n + 1):
        for cand in combinations(range(g.n), k):
            explored += 1
            state = Cascade(g, phi)
            state.add(cand)
            if state.size == g.n:
                return k, cand, explored
    raise AssertionError("unreachable")


class DecrementingCascade:
    """``Cascade`` as it was before the settled mark: every neighbour hit decrements need, an active or queued
    endpoint's too (its need goes negative).  Kept to pin the wave lists ``Cascade.add`` returns, order included."""

    def __init__(self, g: Graph, phi):
        self.adj, self.active, self.need, self.size = g.adj, bytearray(g.n), list(phi), 0
        self._zero = [u for u, t in enumerate(phi) if t <= 0]

    def add(self, seeds) -> list[list[int]]:
        adj, active, need = self.adj, self.active, self.need
        wave = []
        for u in seeds:
            if not active[u]:
                active[u] = 1
                need[u] = 0
                wave.append(u)
        ready, self._zero = [u for u in self._zero if not active[u]], []
        waves = []
        while True:
            waves.append(wave)
            self.size += len(wave)
            for u in wave:
                for v in adj[u]:
                    need[v] -= 1
                    if not need[v]:
                        ready.append(v)
            if not ready:
                return waves
            wave, ready = ready, []
            for u in wave:
                active[u] = 1


def girth_by_enumeration(n: int, edges) -> int | None:
    """Shortest cycle length by enumerating cyclic vertex orders; None if acyclic."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}

    def has_cycle_of_length(k: int) -> bool:
        for subset in combinations(range(n), k):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cyc = (first,) + rest
                ok = True
                for i in range(k):
                    a, b = cyc[i], cyc[(i + 1) % k]
                    if (min(a, b), max(a, b)) not in edge_set:
                        ok = False
                        break
                if ok:
                    return True
        return False

    for k in range(3, n + 1):
        if has_cycle_of_length(k):
            return k
    return None


def short_cycle_free_reference(g: Graph) -> bool:
    """Girth >= 5 by set disjointness: for each vertex u with a neighbour, the neighbour lists of u's neighbours
    may meet only in u and must miss u's neighbours.  A vertex met twice closes a 4-cycle through u, a neighbour
    of u met closes a triangle; with neither, the set built here holds N(u), u and the others met once, which is
    sum(deg) + 1 vertices, and with either at most sum(deg).  An isolated u (0 <= 0) is skipped."""
    adj = g.adj
    for u, nbrs in enumerate(adj):
        if nbrs and len(set(chain(nbrs, *map(adj.__getitem__, nbrs)))) <= sum(len(adj[v]) for v in nbrs):
            return False
    return True


def _tree_split(t: Graph, high: list[int]) -> tuple[int, list[int]]:
    """Choose the split vertex u and the branch of t - u to recurse into.

    u maximizes the order of the largest high-degree-containing component
    of t - u (ties: smallest id).  For that u the qualifying component is
    unique; the further tie-break on the component's smallest vertex id is
    defensive only.  Component orders come from one rooted subtree pass, so
    a split costs O(n).
    """
    n = t.n
    adj = t.adj
    parent = [-2] * n
    parent[0] = -1
    order = [0]
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if parent[v] == -2:
                parent[v] = u
                order.append(v)
                stack.append(v)
    is_high = bytearray(n)
    for u in high:
        is_high[u] = 1
    sub_size = [1] * n
    sub_high = [0] * n
    for u in reversed(order):
        sub_high[u] += is_high[u]
        p = parent[u]
        if p >= 0:
            sub_size[p] += sub_size[u]
            sub_high[p] += sub_high[u]
    total_high = len(high)

    def components_of(u: int) -> list[tuple[int, int, int]]:
        """(order, high count, anchor) for each component of t - u."""
        out = []
        for v in adj[u]:
            if v == parent[u]:
                out.append((n - sub_size[u], total_high - sub_high[u], v))
            else:
                out.append((sub_size[v], sub_high[v], v))
        return out

    best_u = -1
    best_order = -1
    for u in high:
        cand = max((size for size, hc, _ in components_of(u) if hc > 0), default=0)
        if cand > best_order:
            best_order = cand
            best_u = u
    anchors = [a for size, hc, a in components_of(best_u) if hc > 0 and size == best_order]
    branches = []
    for a in anchors:
        comp = [a]
        seen = {a, best_u}
        stack = [a]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        branches.append(comp)
    branch = min(branches, key=min)
    return best_u, branch


def tree_construct_reference(t: Graph, rho: Fraction) -> tuple[int, ...]:
    """Seed of the recursive tree splitter, recomputed from scratch on every branch.

    Each round rebuilds the current branch as a relabelled induced
    subgraph, recomputes degrees and the high-degree class (deg >= 1/rho),
    and splits at the vertex chosen by :func:`_tree_split`.  With one high
    vertex left it is seeded; with none, the smallest-id vertex of maximum
    degree is.  Returns the sorted seed; the input must be a tree of order
    at least 1/rho.
    """
    p, q = rho.numerator, rho.denominator
    seed: list[int] = []
    cur = t
    to_orig = list(range(t.n))
    while True:
        degs = cur.degrees
        high = [u for u in range(cur.n) if degs[u] * p >= q]
        if len(high) == 1:
            seed.append(to_orig[high[0]])
            break
        if not high:
            seed.append(to_orig[degs.index(max(degs))])
            break
        u, branch = _tree_split(cur, high)
        seed.append(to_orig[u])
        sub, idmap = induced_subgraph(cur, branch)
        to_orig = [to_orig[old] for old in sorted(idmap)]
        cur = sub
    return tuple(sorted(seed))


def prufer_decode_reference(seq: list[int], n: int) -> Graph:
    """The decode by a heap of leaves: each entry in turn joins the smallest current leaf, and the last two
    leaves join each other.  Takes a valid sequence (length n - 2, entries in 0..n-1) with n >= 2."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return from_edges(n, edges)


def random_girth5_reference(n: int, p: float, rng_seed: int = 0) -> Graph:
    """random_girth5 by the restart loop: remove the lexicographically smallest
    edge on a 3- or 4-cycle, then rescan from edge (0, *), until none is left.

    Draws the same G(n, p) edges and keeps the largest component (ties: the
    one with the smallest vertex id), relabelled in order.  An edge (u, v) is
    on a short cycle when some a in N(u) - v and b in N(v) - u are equal (a
    triangle) or adjacent (a 4-cycle).
    """
    nbr: list[set[int]] = [set() for _ in range(n)]
    for u, v in _gnp_edges(n, p, random.Random(rng_seed)):
        nbr[u].add(v)
        nbr[v].add(u)

    def on_short_cycle(u: int, v: int) -> bool:
        return any(a == b or b in nbr[a] for a in nbr[u] - {v} for b in nbr[v] - {u})

    while True:
        bad = next(((u, v) for u in range(n) for v in sorted(nbr[u]) if u < v and on_short_cycle(u, v)), None)
        if bad is None:
            break
        u, v = bad
        nbr[u].discard(v)
        nbr[v].discard(u)
    g = from_edges(n, ((u, v) for u in range(n) for v in nbr[u] if u < v))
    biggest = max(connected_components(g), key=len)
    return induced_subgraph(g, biggest)[0]


def from_edges_reference(n: int, edges) -> Graph:
    """The edge walk: one edge at a time, read lazily, the first bad edge named; ints only, bools refused."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise PreconditionError(f"vertex count must be a non-negative integer, got {n!r}")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (u, v)):
            raise PreconditionError(f"vertex ids must be integers, got edge ({u!r},{v!r})")
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"vertex id out of range 0..{n - 1} in edge ({u},{v})")
        if u == v:
            raise PreconditionError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise PreconditionError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, adj=tuple(tuple(sorted(nbrs)) for nbrs in adj))


def parse_graph_reference(text: str) -> Graph:
    """The line walk over an edge-list document: every line read in turn, the first error named with its line."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            lines.append((lineno, raw, parts))
    if not lines:
        raise InputFormatError("empty document: missing 'n m' header")
    lineno, raw, parts = lines[0]
    if len(parts) != 2:
        raise InputFormatError(f"line {lineno}: expected header 'n m', got {raw!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputFormatError(f"line {lineno}: header values must be integers") from None
    if n < 0 or m < 0:
        raise InputFormatError(f"line {lineno}: header values must be non-negative")

    def edges():
        nonlocal lineno
        for count, (lineno, raw, parts) in enumerate(lines[1:]):
            if count >= m:
                raise InputFormatError(f"line {lineno}: more than {m} edge lines")
            if len(parts) != 2:
                raise InputFormatError(f"line {lineno}: expected edge 'u v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputFormatError(f"line {lineno}: edge endpoints must be integers") from None
            yield u, v

    try:
        g = from_edges_reference(n, edges())
    except PreconditionError as exc:
        raise InputFormatError(f"line {lineno}: {exc}") from None
    if g.m != m:
        raise InputFormatError(f"expected {m} edges, found {g.m}")
    return g
