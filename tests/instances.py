"""Shared instance builders and the named fixture sets used across tests."""

from __future__ import annotations

import random
from fractions import Fraction

from dynmono import Graph, from_edges, generate, GeneratorSpec, random_girth5
from dynmono.generators import petersen


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def adj_lists(g: Graph) -> list[list[int]]:
    return [list(nbrs) for nbrs in g.adj]


def double_star() -> Graph:
    """Two adjacent centers (0, 1), each with two leaves."""
    return from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def star_with_tail() -> Graph:
    """Star center 0 with five leaves plus a pendant path 0-6-7."""
    return from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (6, 7)])


def caterpillar(legs: list[int]) -> Graph:
    """Spine path 0..k-1 where spine vertex i carries legs[i] leaves."""
    k = len(legs)
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i, count in enumerate(legs):
        for _ in range(count):
            edges.append((i, nxt))
            nxt += 1
    return from_edges(nxt, edges)


def spider(lengths: list[int]) -> Graph:
    """Center 0 with one path of each given length hanging off it."""
    edges = []
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edges(nxt, edges)


def girth5_instance(n: int, c: float, seed: int, min_max_degree: int = 2) -> Graph:
    """Connected girth-(>=5) test instance with max degree at least min_max_degree.

    Deterministically walks candidate seeds until the repaired largest
    component is big enough to be interesting.
    """
    attempt = 0
    while True:
        g = random_girth5(n, min(0.9, c / n), rng_seed=seed * 1000 + attempt)
        if max(g.degrees, default=0) >= min_max_degree and g.n >= min(n // 2, 8):
            return g
        attempt += 1


# (name, graph, rho) with n <= 6, for exhaustive-permutation checks
def small_fixtures() -> list[tuple[str, Graph, Fraction]]:
    return [
        ("k1", from_edges(1, []), Fraction(1)),
        ("k2", generate(GeneratorSpec("complete", 2)), Fraction(1)),
        ("p3", generate(GeneratorSpec("path", 3)), Fraction(1, 2)),
        ("c3", generate(GeneratorSpec("cycle", 3)), Fraction(1)),
        ("p4", generate(GeneratorSpec("path", 4)), Fraction(1)),
        ("c4", generate(GeneratorSpec("cycle", 4)), Fraction(1, 2)),
        ("k4", generate(GeneratorSpec("complete", 4)), Fraction(2, 3)),
        ("star4", generate(GeneratorSpec("star", 4)), Fraction(1, 5)),
        ("c5", generate(GeneratorSpec("cycle", 5)), Fraction(1)),
        ("c6", generate(GeneratorSpec("cycle", 6)), Fraction(1, 2)),
        ("bull", from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]), Fraction(1, 2)),
        ("two_triangles", from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), Fraction(1)),
    ]


# (name, graph, rho) with n <= 12, for oracle-dominance checks
def dominance_fixtures() -> list[tuple[str, Graph, Fraction]]:
    rng = random.Random(41)
    fixtures = [
        ("petersen", petersen(), Fraction(1, 3)),
        ("c5", generate(GeneratorSpec("cycle", 5)), Fraction(1, 2)),
        ("c9", generate(GeneratorSpec("cycle", 9)), Fraction(1, 2)),
        ("p10", generate(GeneratorSpec("path", 10)), Fraction(1, 2)),
        ("p12", generate(GeneratorSpec("path", 12)), Fraction(1, 3)),
        ("star5", generate(GeneratorSpec("star", 5)), Fraction(1, 6)),
        ("star9", generate(GeneratorSpec("star", 9)), Fraction(1, 10)),
        ("double_star", double_star(), Fraction(1, 3)),
        ("star_with_tail", star_with_tail(), Fraction(1, 6)),
        ("k6", generate(GeneratorSpec("complete", 6)), Fraction(1, 2)),
        ("tree11", generate(GeneratorSpec("random_tree", 11, rng_seed=3)), Fraction(1, 4)),
        ("tree12", generate(GeneratorSpec("random_tree", 12, rng_seed=9)), Fraction(1, 3)),
    ]
    for i in range(3):
        n = rng.randint(7, 12)
        fixtures.append((f"gnp{i}", gnp(n, 2.5 / n, rng), Fraction(1, 2)))
    return fixtures
