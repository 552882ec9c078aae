"""Exact minimum-monopoly oracle and the permutation-expectation bound.

The solver enumerates candidate seeds in increasing cardinality and, within
each cardinality, in lexicographic order, so witnesses are deterministic.
It is intentionally a plain exhaustive search: its job is to be trustworthy
ground truth for everything else in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cascade import Cascade, Thresholds, check_thresholds
from .errors import SizeLimitError
from .graphs import Graph

DEFAULT_SIZE_LIMIT = 24


@dataclass(frozen=True)
class ExactResult:
    h: int
    witness: tuple[int, ...]
    nodes_explored: int


def min_monopoly_exact(
    g: Graph,
    phi: Thresholds,
    limit: int = DEFAULT_SIZE_LIMIT,
    force: bool = False,
) -> ExactResult:
    """Minimum size of a monopoly, with a lexicographically-least witness.

    Refuses graphs larger than ``limit`` vertices unless ``force`` is set;
    the search runs up to 2^n cascades, which ``nodes_explored`` counts.
    """
    check_thresholds(g, phi)
    if g.n > limit and not force:
        raise SizeLimitError(
            f"exact search on {g.n} vertices exceeds the limit {limit}; pass force=True to override"
        )
    explored = 0
    for k in range(g.n + 1):
        for cand in itertools.combinations(range(g.n), k):
            explored += 1
            if Cascade(g, phi).add(cand) == g.n:
                return ExactResult(h=k, witness=cand, nodes_explored=explored)
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
