"""Instance generators: fixed families plus seeded random trees and girth-5 graphs."""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from .cascade import to_number
from .errors import PreconditionError
from .graphs import Graph, connected_components, from_edges, induced_subgraph


@dataclass(frozen=True)
class GeneratorSpec:
    """A named instance family and the parameters its FAMILIES entry reads; an unknown family is refused here.

    ``n`` is the vertex count, except for stars where it is the leaf count (star(4) is the 5-vertex star)."""

    family: str
    n: int | None = None
    p: float | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise PreconditionError(f"unknown family {self.family!r}; known: {', '.join(FAMILIES)}")

    def label(self) -> str:
        """The family and the fields it reads, joined by colons: the bench's ``family`` column and seed key."""
        _, *fields = FAMILIES[self.family]
        return ":".join([self.family, *(str(getattr(self, f)) for f in fields)])

    @classmethod
    def read(cls, entry: dict) -> GeneratorSpec:
        """A spec from raw values, a bench config entry or the ``gen`` flags: ``family``, and ``n``, ``p`` and
        ``seed`` read with ``cascade.to_number`` (an absent or None ``n`` or ``p`` is unset); other keys are ignored."""
        return cls(
            family=str(entry["family"]),
            n=None if entry.get("n") is None else to_number(entry["n"], "n"),
            p=None if entry.get("p") is None else to_number(entry["p"], "p", float),
            rng_seed=to_number(entry.get("seed", 0), "seed"),
        )


def star(leaves: int) -> Graph:
    """K_{1,leaves}, center vertex 0."""
    if leaves < 1:
        raise PreconditionError("star needs at least one leaf")
    return from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def path(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("path needs at least one vertex")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least three vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete graph needs at least one vertex")
    return from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def petersen() -> Graph:
    """The 10-vertex 3-regular girth-5 graph: outer 5-cycle, inner pentagram, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return from_edges(10, edges)


def prufer_decode(seq: list[int], n: int) -> Graph:
    """Decode a length n-2 sequence over 0..n-1 into its labeled tree.

    Every vertex ends with degree 1 + (its occurrence count in the sequence).
    """
    if n < 1:
        raise PreconditionError("tree needs at least one vertex")
    if n == 1:
        if seq:
            raise PreconditionError("sequence must be empty for n=1")
        return from_edges(1, [])
    if len(seq) != n - 2:
        raise PreconditionError(f"sequence length must be {n - 2}, got {len(seq)}")
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise PreconditionError(f"sequence entry {x} out of range")
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    leaves = [u for u in range(n) if degree[u] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    g = from_edges(n, edges)
    expected = [1] * n
    for x in seq:
        expected[x] += 1
    if list(g.degrees) != expected:
        raise AssertionError("decoded degrees disagree with the sequence")
    return g


def random_tree(n: int, rng_seed: int = 0) -> Graph:
    """Uniformly random labeled tree via a random decode sequence."""
    rng = random.Random(rng_seed)
    seq = [rng.randrange(n) for _ in range(max(0, n - 2))]
    return prufer_decode(seq, n)


def _gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    # geometric skipping over the n(n-1)/2 vertex pairs
    edges: list[tuple[int, int]] = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        r = rng.random()
        w += 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def _edge_on_short_cycle(nbr: list[set[int]], u: int, v: int) -> bool:
    """Does edge (u,v) lie on a cycle of length 3 or 4?"""
    others = nbr[u] - {v}
    for a in nbr[v]:
        if a != u and (a in others or not others.isdisjoint(nbr[a])):
            return True
    return False


def random_girth5(n: int, p: float | None, rng_seed: int = 0) -> Graph:
    """Seeded G(n, p) repaired to girth >= 5, restricted to its largest component.

    Repair visits the edges (u, v), u < v, once in lexicographic order and
    drops each one that still lies on a 3- or 4-cycle.  This removes the
    same edges as repeatedly removing the lexicographically smallest edge
    on a short cycle: removing an edge never creates a cycle, so an edge
    that passed the test keeps passing, and the smallest offending edge
    only moves forward.  Ties between equally large components go to the
    one containing the smallest vertex id.  The result can have fewer than
    n vertices; ids are relabeled to 0..n'-1 preserving order.
    """
    if p is None:
        raise PreconditionError("random_girth5 requires an edge probability p")
    if n < 1:
        raise PreconditionError("random_girth5 needs at least one vertex")
    if not 0.0 < p < 1.0:
        raise PreconditionError("edge probability must lie strictly between 0 and 1")
    rng = random.Random(rng_seed)
    nbr: list[set[int]] = [set() for _ in range(n)]
    for u, v in _gnp_edges(n, p, rng):
        nbr[u].add(v)
        nbr[v].add(u)
    for u in range(n):
        for v in sorted(nbr[u]):
            if v > u and _edge_on_short_cycle(nbr, u, v):
                nbr[u].discard(v)
                nbr[v].discard(u)
    g = from_edges(n, ((u, v) for u in range(n) for v in nbr[u] if u < v))
    blocks = connected_components(g)
    biggest = max(blocks, key=len)  # ties: earliest block, i.e. smallest min id
    sub, _ = induced_subgraph(g, biggest)
    return sub


# Family name -> (builder, *the GeneratorSpec fields it takes, in order): what generate calls and label names.
FAMILIES: dict[str, tuple] = {
    "star": (star, "n"),
    "path": (path, "n"),
    "cycle": (cycle, "n"),
    "complete": (complete, "n"),
    "petersen": (petersen,),
    "random_tree": (random_tree, "n", "rng_seed"),
    "random_girth5": (random_girth5, "n", "p", "rng_seed"),
}


def generate(spec: GeneratorSpec) -> Graph:
    """Materialize a GeneratorSpec.  Deterministic given the spec (seed included)."""
    build, *fields = FAMILIES[spec.family]
    if "n" in fields and spec.n is None:
        raise PreconditionError(f"family {spec.family!r} requires n")
    build = globals()[build.__name__]  # looked up at call time, so a wrapper on the module's name sees the call
    return build(*(getattr(spec, f) for f in fields))
