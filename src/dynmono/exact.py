"""Exact minimum-monopoly solver and the permutation-expectation bound.

The solver returns the least seed size and, among seeds of that size, the
lexicographically least one.  It searches sizes upward and, within a size,
runs a depth-first search in ``itertools.combinations`` order on an explicit
stack, so a witness of any size fits; each prefix carries its own closed
``Cascade`` state.  Three sound rules cut the tree, for a prefix with hull H
and r picks still to make:

- a vertex in H is never picked: a seed holding one stays a monopoly
  without it, so it is not minimum;
- a vertex u outside H waits for phi'(u) = ``need[u]`` more active neighbours (phi(u)
  less those it has; need is positive exactly outside H, so the search and
  the cuts read ``need`` alone), and an edge inside V - H serves only one endpoint, so
  the remaining picks must carry phi' summing to at least
  sum(phi') - m(V - H); a prefix whose later ids cannot is dropped;
- if phi'(u) > r for every u outside H, the prefix is dropped: phi'(u) is at
  most u's neighbours outside H, so r picks T leave some outside vertex
  unpicked, and the first one of those to activate would see at most
  phi(u) - phi'(u) + r < phi(u) active neighbours.

``cascades`` counts the root state plus one per extended prefix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cascade import Cascade, Thresholds, check_thresholds
from .errors import SizeLimitError
from .graphs import Graph

DEFAULT_SIZE_LIMIT = 24


class ExactResult(NamedTuple):
    """``nodes_explored`` is the witness's 1-based position among all vertex subsets in (size, lex)
    order: the cascades an exhaustive search runs.  ``cascades`` counts those this search ran."""

    h: int
    witness: tuple[int, ...]
    nodes_explored: int
    cascades: int


def min_monopoly_exact(g: Graph, phi: Thresholds, limit: int | None = DEFAULT_SIZE_LIMIT) -> ExactResult:
    """Minimum size of a monopoly, with a lexicographically-least witness.

    Refuses graphs larger than ``limit`` vertices; ``limit=None`` searches any
    size, which may run up to 2^n cascades.
    """
    check_thresholds(g, phi)
    if limit is not None and g.n > limit:
        raise SizeLimitError(f"exact search on {g.n} vertices exceeds the limit {limit}; pass limit=None to override")
    n = g.n
    slack = [d - t for t, d in zip(phi, g.degrees)]
    root = Cascade(g, phi)
    root.add(())
    cascades = 1

    def viable(state: Cascade, last: int, r: int) -> bool:
        """False when the rules above prove that no r picks after id ``last`` complete ``state``."""
        if r == 0:
            return state.size == n
        # the edge bound, doubled: 2 m(V - H) is the sum of deg(u) - phi(u) + phi'(u) over u outside H,
        # so twice the need is the sum of 2 phi'(u) - (deg(u) - phi(u) + phi'(u)) = phi'(u) - (deg(u) - phi(u));
        # least is the smallest phi'(u) outside H, for the first-activation rule
        twice_need, later, least = 0, [], n
        for u, k in enumerate(state.need):
            if k:  # need is 0 exactly on the hull
                twice_need += k - slack[u]
                if k < least:
                    least = k
                if u > last:
                    later.append(k)
        if r < least or len(later) < r:
            return False
        later.sort(reverse=True)
        return 2 * sum(later[:r]) >= twice_need

    def search(k: int) -> tuple[int, ...] | None:
        """The lex-least monopoly of size k, or None: frames of (state, picks left, candidate ids, pick)."""
        nonlocal cascades
        if not viable(root, -1, k):
            return None
        if k == 0:
            return ()
        stack = [(root, k, iter(range(n - k + 1)), -1)]
        while stack:
            state, r, candidates, _ = stack[-1]
            need = state.need
            for c in candidates:
                if need[c] == 0:  # in the hull
                    continue
                child = state.fork()
                child.add((c,))
                cascades += 1
                if viable(child, c, r - 1):
                    if r == 1:
                        return (*(frame[3] for frame in stack[1:]), c)
                    stack.append((child, r - 1, iter(range(c + 1, n - r + 2)), c))
                    break
            else:
                stack.pop()
        return None

    for k in range(n + 1):
        w = search(k)
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
    # one Fraction per distinct degree: sum phi over the vertices sharing a denominator first
    by_denominator: dict[int, int] = {}
    for t, d in zip(phi, g.degrees):
        by_denominator[d + 1] = by_denominator.get(d + 1, 0) + t
    return sum((Fraction(t, q) for q, t in by_denominator.items()), Fraction(0))
