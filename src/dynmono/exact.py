"""Exact minimum-monopoly solver and the permutation-expectation bound.

The solver returns the least seed size and, among seeds of that size, the
lexicographically least one.  It searches sizes upward and, within a size,
runs a depth-first search in ``itertools.combinations`` order, each prefix
carrying its own closed ``Cascade`` state.  Two sound rules cut the tree:

- a vertex in the prefix's hull H is never picked: a seed holding one stays
  a monopoly without it, so it is not minimum;
- a vertex u outside H still needs phi'(u) = phi(u) - count(u) neighbours
  activated before it, and an edge inside V - H serves only one endpoint, so
  the remaining picks must carry phi' summing to at least
  sum(phi') - m(V - H); a prefix whose later ids cannot is dropped.

``cascades`` counts the root state plus one per extended prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cascade import Cascade, Thresholds, check_thresholds
from .errors import SizeLimitError
from .graphs import Graph

DEFAULT_SIZE_LIMIT = 24


@dataclass(frozen=True)
class ExactResult:
    """``nodes_explored`` is the witness's 1-based position among all vertex subsets in (size, lex)
    order: the cascades an exhaustive search runs.  ``cascades`` counts those this search ran."""

    h: int
    witness: tuple[int, ...]
    nodes_explored: int
    cascades: int


def min_monopoly_exact(
    g: Graph,
    phi: Thresholds,
    limit: int = DEFAULT_SIZE_LIMIT,
    force: bool = False,
) -> ExactResult:
    """Minimum size of a monopoly, with a lexicographically-least witness.

    Refuses graphs larger than ``limit`` vertices unless ``force`` is set;
    the search may still run up to 2^n cascades.
    """
    check_thresholds(g, phi)
    if g.n > limit and not force:
        raise SizeLimitError(
            f"exact search on {g.n} vertices exceeds the limit {limit}; pass force=True to override"
        )
    n, degrees = g.n, g.degrees
    root = Cascade(g, phi)
    root.add(())
    cascades = 1

    def search(state: Cascade, last: int, r: int) -> tuple[int, ...] | None:
        nonlocal cascades
        active, count = state.active, state.count
        if r == 0:
            return () if len(state.rounds) == n else None
        # the bound above, doubled: 2 m(V - H) is the sum of deg(u) - count(u) over u outside H
        twice_need, later = 0, []
        for u in range(n):
            if not active[u]:
                twice_need += 2 * phi[u] - count[u] - degrees[u]
                if u > last:
                    later.append(phi[u] - count[u])
        later.sort(reverse=True)
        if len(later) < r or 2 * sum(later[:r]) < twice_need:
            return None
        for c in range(last + 1, n - r + 1):
            if not active[c]:
                child = state.fork()
                child.add((c,))
                cascades += 1
                rest = search(child, c, r - 1)
                if rest is not None:
                    return (c, *rest)
        return None

    for k in range(n + 1):
        w = search(root, -1, k)
        if w is not None:
            # subsets of size <= k, less the size-k ones after w in lex order (combinatorial number system)
            after = sum(math.comb(n - 1 - u, k - i) for i, u in enumerate(w))
            rank = sum(math.comb(n, j) for j in range(k + 1)) - after
            return ExactResult(h=k, witness=w, nodes_explored=rank, cascades=cascades)
    raise AssertionError("unreachable: the full vertex set is always a monopoly")


def abw_bound(g: Graph, phi: Thresholds) -> Fraction:
    """Exact value of sum over u of phi(u) / (deg(u) + 1).

    This is the expected seed size of the random-permutation rule in
    ``constructors.abw_construct``, hence an upper bound on the minimum
    monopoly size.  Note degree-1 vertices contribute phi/2, so on sparse
    graphs this can be much weaker than degree-proportional bounds.
    """
    check_thresholds(g, phi)
    total = Fraction(0)
    for t, d in zip(phi, g.degrees):
        total += Fraction(t, d + 1)
    return total
