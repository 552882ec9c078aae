"""Immutable simple undirected graphs: parsing, serialization, structural queries.

Vertices are the integers 0..n-1.  Adjacency lists are kept sorted ascending so
that every iteration order in the package is deterministic.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise, repeat, starmap
from operator import add, lt, mul, not_
from typing import Iterable, Iterator, Sequence

from .errors import InputFormatError, PreconditionError

ACYCLIC = float("inf")
"""Distinguished girth value for graphs that contain no cycle.

Using +inf keeps comparisons like ``girth(g) >= 5`` meaningful for forests.
"""

MAX_VERTICES = 10**7
"""The largest header n that :func:`parse_graph` accepts."""

_SHAPE = str.maketrans("\t", " ", "0123456789")  # what is left of a line of two ids split by a space or a tab: " "
_COMMAS = str.maketrans(" \t\n", ",,,")


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with sorted adjacency lists.

    Invariants (enforced by :func:`from_edges` and :func:`parse_graph`):
    no self-loops, no duplicate neighbors, symmetric adjacency, and the edge
    count equals half the sum of the degrees.  Instances are immutable and
    safe to share read-only across concurrent workers.  Facts computed from
    the adjacency are cached on first use: ``degrees``, ``m``,
    ``girth_at_least_five`` (see :func:`_shortest_cycle`), ``is_connected``,
    one proportional threshold profile per rho and its threshold-1 quotient
    (see ``cascade``), and one greedy kernel state per (rho, delta) (see
    ``constructors``).
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adj))

    @cached_property
    def m(self) -> int:
        return sum(self.degrees) // 2

    girth_at_least_five = cached_property(lambda self: _shortest_cycle(self, 5) == 5)
    is_connected = cached_property(lambda self: len(connected_components(self)) <= 1)
    _profiles = cached_property(lambda self: {})  # rho -> proportional threshold profile, see cascade
    _girth5_prefixes = cached_property(lambda self: {})  # (rho, delta) -> greedy_kernel's state, see constructors
    _quotients = cached_property(lambda self: {})  # rho -> None after one check, then its quotient, see cascade

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in ascending lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def _simple_graph(n: int, us: list[int], vs: list[int]) -> Graph | None:
    """The graph on 0..n-1 with the edges (us[i], vs[i]) in :func:`serialize_graph` order, built with builtins.

    None unless 0 <= u < v < n for every edge and the keys u*n+v strictly
    increase: :func:`parse_graph` then walks the document, which reads any
    other order to the same graph or names the first error.  That order
    holds neither a self-loop nor a repeat in either orientation, and each
    row comes out sorted because it takes its lower neighbours first.
    """
    if us and not (min(us) >= 0 and max(vs) < n and all(map(lt, us, vs))
                   and all(starmap(lt, pairwise(map(add, map(mul, us, repeat(n)), vs))))):
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    deque(map(list.append, map(adj.__getitem__, vs), us), 0)
    deque(map(list.append, map(adj.__getitem__, us), vs), 0)
    return Graph(n=n, adj=tuple(map(tuple, adj)))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge collection, validating simplicity.

    Raises PreconditionError on an n or endpoint that is not an int (bools
    and floats included), n outside 0..``MAX_VERTICES`` (before any list is
    allocated), out-of-range endpoints, self-loops, or duplicate edges.
    """
    if type(n) is not int or n < 0:
        raise PreconditionError(f"vertex count must be a non-negative integer, got {n!r}")
    if n > MAX_VERTICES:  # what parse_graph could not read back is not built
        raise PreconditionError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
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


def _scan(text: str) -> list[int]:
    """The ids of a document in :func:`serialize_graph`'s layout, read by one JSON scan; [] for any other layout."""
    body = text[:-1] if text.endswith("\n") else text
    if body.translate(_SHAPE) != " \n" * body.count("\n") + " ":
        return []
    try:
        return json.loads("[" + body.translate(_COMMAS) + "]")
    except ValueError:  # an empty token, a leading zero, or more digits than int() reads
        return []


def parse_graph(text: str) -> Graph:
    """Parse the edge-list document format; a header n above ``MAX_VERTICES`` is refused before any list is allocated.

    Format: optional comment lines starting with '#' (and blank lines),
    a header line "n m", then exactly m lines "u v" with 0-based endpoints.
    The builtin path reads what :func:`serialize_graph` writes: lines of two
    unsigned decimal ids (no leading zero) split by one space or tab, each
    ended by a newline, the last one optionally.  :func:`_scan` checks that
    shape with one translate and reads the ids with one JSON scan, and
    :func:`_simple_graph` builds the graph from edges in that function's
    order (u < v, sorted).  Any other document, or one the
    builtin path refuses, goes to the line walk, which reads every valid
    layout to the same graph and feeds the edges lazily to
    :func:`from_edges`, so an out-of-range id, a self-loop or a duplicate
    edge is named with its line number.  Nothing is repaired; the first
    error wins.
    """
    nums = _scan(text)
    if len(nums) >= 2 and 0 <= nums[0] <= MAX_VERTICES and len(nums) == 2 * nums[1] + 2:
        g = _simple_graph(nums[0], nums[2::2], nums[3::2])
        if g is not None:
            return g
    lines = ((lineno, raw, raw.split("#", 1)[0].split()) for lineno, raw in enumerate(text.splitlines(), start=1))
    lines = (line for line in lines if line[2])
    lineno, raw, parts = next(lines, (0, "", None))
    if parts is None:
        raise InputFormatError("empty document: missing 'n m' header")
    if len(parts) != 2:
        raise InputFormatError(f"line {lineno}: expected header 'n m', got {raw!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputFormatError(f"line {lineno}: header values must be integers") from None
    if n < 0 or m < 0:
        raise InputFormatError(f"line {lineno}: header values must be non-negative")
    if n > MAX_VERTICES:
        raise InputFormatError(f"line {lineno}: vertex count {n} exceeds the limit {MAX_VERTICES}")

    def edges() -> Iterator[tuple[int, int]]:
        nonlocal lineno
        for count, (lineno, raw, parts) in enumerate(lines):
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
        g = from_edges(n, edges())
    except PreconditionError as exc:  # the edge from_edges refused is the one on the current line
        raise InputFormatError(f"line {lineno}: {exc}") from None
    if g.m != m:
        raise InputFormatError(f"expected {m} edges, found {g.m}")
    return g


def serialize_graph(g: Graph) -> str:
    """Serialize to the edge-list format; parse_graph(serialize_graph(g)) == g."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def connected_components(g: Graph, keep: Sequence[bool] | None = None) -> list[list[int]]:
    """Partition 0..n-1, or with a length-n mask the vertices u with ``keep[u]`` true, into the maximal connected
    blocks of the graph they induce, each sorted, ordered by smallest member."""
    seen = bytearray(g.n) if keep is None else bytearray(map(not_, keep))
    blocks: list[list[int]] = []
    for start in range(g.n):
        if not seen[start]:
            seen[start] = 1
            block = [start]
            for u in block:
                for v in g.adj[u]:
                    if not seen[v]:
                        seen[v] = 1
                        block.append(v)
            block.sort()
            blocks.append(block)
    return blocks


def is_tree(g: Graph) -> bool:
    """True iff g is connected and has exactly n-1 edges."""
    return g.n >= 1 and g.m == g.n - 1 and g.is_connected


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Extract the subgraph induced by ``keep``.

    Returns the new graph together with the order-preserving id map
    old -> new (ascending old ids map to 0..k-1).
    """
    kept = sorted(set(keep))
    if kept and (kept[0] < 0 or kept[-1] >= g.n):
        raise PreconditionError(f"keep set contains ids outside 0..{g.n - 1}")
    idmap = {old: new for new, old in enumerate(kept)}
    member = set(kept)
    adj = tuple(
        tuple(idmap[v] for v in g.adj[old] if v in member)
        for old in kept
    )
    return Graph(n=len(kept), adj=adj), idmap


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or ACYCLIC when g has none.  One search, :func:`_shortest_cycle`, serves this and
    the girth-5 test: each BFS root then leaves the 2-core, so a long cycle is walked once, in O(n)."""
    return _shortest_cycle(g, ACYCLIC)


def girth_at_least_five(g: Graph) -> bool:
    """Exact test for girth >= 5, cached on ``g``: :func:`_shortest_cycle` below 5, so each BFS stops at depth 2
    and the search at the first BFS that meets a 3- or 4-cycle."""
    return g.girth_at_least_five


def _shortest_cycle(g: Graph, below: int | float) -> int | float:
    """The girth for ``below`` = ACYCLIC, else the first cycle length under ``below`` that the search meets (not
    always the shortest), or ``below`` if none.  A BFS runs from each 2-core vertex (Itai and Rodeh, SIAM J. Comput.
    7(4), 1978), cut off once it cannot beat the best so far; none runs once that is 3, or under a finite ``below``.

    One peel routine keeps the 2-core, the only place a cycle can lie; a BFS ignores peeled vertices.  After its
    BFS a root leaves the core and the peel runs again: that BFS found a cycle no longer than the shortest one
    through the root, so no cycle through it can lower the best.  A long cycle is walked once, then peeled.
    An edge to a vertex at the same level or the next closes a cycle; one a level up closes the same cycle seen
    from its other end, or the cut-off has already proved a shorter one.
    """
    adj, deg = g.adj, list(g.degrees)  # the 2-core: vertices u with deg[u] > 1, counting their core neighbours

    def peel(stack: list[int]) -> None:
        while stack:
            for v in adj[stack.pop()]:
                if deg[v] > 1:
                    deg[v] -= 1
                    if deg[v] == 1:
                        stack.append(v)

    peel([u for u, d in enumerate(deg) if d <= 1])
    best = below
    dist = [-1] * g.n
    for root in (u for u in range(g.n) if deg[u] > 1):  # read lazily: a vertex peeled by then roots nothing
        if best == 3 or best < below < ACYCLIC:
            break
        touched = [root]
        dist[root] = 0
        for u in touched:  # the BFS queue: touched grows as it is walked
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            for v in adj[u]:
                if deg[v] < 2:
                    continue
                if dist[v] < 0:
                    dist[v] = du + 1
                    touched.append(v)
                elif dist[v] >= du:
                    best = min(best, du + dist[v] + 1)
        for u in touched:
            dist[u] = -1
        deg[root] = 0
        peel([root])
    return best
