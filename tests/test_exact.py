from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dynmono import (
    GeneratorSpec,
    SizeLimitError,
    abw_bound,
    from_edges,
    generate,
    is_monopoly,
    min_monopoly_exact,
    proportional_thresholds,
)
from dynmono.graphs import connected_components
from instances import adj_lists, gnp
from oracles import min_monopoly_exhaustive_reference, naive_min_monopoly


def test_star_tight_case():
    star4 = generate(GeneratorSpec("star", 4))
    res = min_monopoly_exact(star4, proportional_thresholds(star4, "1/5"))
    assert res.h == 1


def test_cycle_rho_one():
    c5 = generate(GeneratorSpec("cycle", 5))
    res = min_monopoly_exact(c5, proportional_thresholds(c5, 1))
    # frozen from the independent enumeration oracle
    assert res.h == 3
    assert res.witness == (0, 1, 3)


def test_edgeless_graph():
    g = from_edges(4, [])
    res = min_monopoly_exact(g, proportional_thresholds(g, "1/2"))
    assert res.h == 0 and res.witness == ()
    assert res.nodes_explored == 1


def test_matches_naive_oracle():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = gnp(n, rng.uniform(0.2, 0.7), rng)
        phi = proportional_thresholds(g, Fraction(rng.randint(1, 3), 3))
        res = min_monopoly_exact(g, phi)
        h_naive, _ = naive_min_monopoly(adj_lists(g), phi)
        assert res.h == h_naive
        assert is_monopoly(g, phi, res.witness)


def test_minimality_spot_check():
    from itertools import combinations

    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(2, 8)
        g = gnp(n, 0.5, rng)
        phi = proportional_thresholds(g, "1/2")
        res = min_monopoly_exact(g, phi)
        if res.h > 0:
            for cand in combinations(range(n), res.h - 1):
                assert not is_monopoly(g, phi, cand)


def test_exact_matches_exhaustive_reference():
    import networkx as nx

    for atlas in nx.graph_atlas_g():
        g = from_edges(atlas.number_of_nodes(), atlas.edges())
        for rho in (1, Fraction(2, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 7)):
            phi = proportional_thresholds(g, rho)
            res = min_monopoly_exact(g, phi)
            assert (res.h, res.witness, res.nodes_explored) == min_monopoly_exhaustive_reference(g, phi)

    # arbitrary thresholds in [0, deg], not only proportional ones; on the dense graphs after the
    # first 1000 a prefix can leave every outside vertex needing more neighbours than picks remain
    rng = random.Random(41)
    seen = set()
    for lo, p_min in [(0, 0.0)] * 1000 + [(10, 0.7)] * 40:
        g = gnp(rng.randint(lo, 13), rng.uniform(p_min, 1.0), rng)
        phi = tuple(rng.randint(0, d) for d in g.degrees)
        res = min_monopoly_exact(g, phi)
        assert (res.h, res.witness, res.nodes_explored) == min_monopoly_exhaustive_reference(g, phi)
        cases = {
            "empty": g.n == 0,
            "isolated vertex": 0 in g.degrees,
            "phi = 0 below deg": any(t == 0 < d for t, d in zip(phi, g.degrees)),
            "disconnected": len(connected_components(g)) > 1,
        }
        seen.update(name for name, hit in cases.items() if hit)
    assert len(seen) == 4


@pytest.mark.parametrize(
    "family, n, rho, h, witness, nodes_explored, max_cascades",
    [
        ("cycle", 18, 1, 9, tuple(range(0, 18, 2)), 122284, 1000),
        ("path", 18, 1, 9, tuple(range(0, 18, 2)), 122284, 1000),
        ("complete", 14, 1, 13, tuple(range(13)), 16370, 14),
        ("complete", 18, "1/2", 9, tuple(range(9)), 106763, 20),
        ("petersen", None, 1, 6, (0, 1, 3, 7, 8, 9), 693, None),
    ],
)
def test_exact_pinned_solves(family, n, rho, h, witness, nodes_explored, max_cascades):
    # h, witness and nodes_explored recorded from the exhaustive solver; the
    # cascade ceilings fail a search that stops pruning
    g = generate(GeneratorSpec(family, n))
    res = min_monopoly_exact(g, proportional_thresholds(g, rho), limit=None)
    assert (res.h, res.witness, res.nodes_explored) == (h, witness, nodes_explored)
    assert max_cascades is None or res.cascades <= max_cascades


def test_deep_witness_needs_no_recursion():
    # P400 at rho = 1 needs 200 picks, more than the lowered limit leaves frames for
    import inspect
    import sys

    p400 = generate(GeneratorSpec("path", 400))
    phi = proportional_thresholds(p400, 1)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        res = min_monopoly_exact(p400, phi, limit=None)
    finally:
        sys.setrecursionlimit(saved)
    assert (res.h, res.witness) == (200, tuple(range(0, 400, 2)))


def test_size_limit():
    p30 = generate(GeneratorSpec("path", 30))
    phi = proportional_thresholds(p30, "1/2")
    with pytest.raises(SizeLimitError, match="exceeds the limit 24; pass limit=None to override"):
        min_monopoly_exact(p30, phi)
    with pytest.raises(SizeLimitError, match="exceeds the limit 29"):
        min_monopoly_exact(p30, phi, limit=29)
    assert min_monopoly_exact(p30, phi, limit=30).h == 1
    assert min_monopoly_exact(p30, phi, limit=None).h == 1


def test_abw_bound_values():
    c5 = generate(GeneratorSpec("cycle", 5))
    assert abw_bound(c5, proportional_thresholds(c5, 1)) == Fraction(10, 3)

    star4 = generate(GeneratorSpec("star", 4))
    # 1/5 + 4 * (1/2): degree-1 vertices each contribute one half
    assert abw_bound(star4, proportional_thresholds(star4, "1/5")) == Fraction(11, 5)

    g = from_edges(6, [])
    assert abw_bound(g, proportional_thresholds(g, "1/3")) == 0


def test_bound_dominates_exact_small():
    import networkx as nx

    graphs = []
    for n in range(2, 8):
        for t in nx.nonisomorphic_trees(n):
            graphs.append(from_edges(n, t.edges()))
    for n in range(3, 8):
        graphs.append(generate(GeneratorSpec("cycle", n)))
        graphs.append(generate(GeneratorSpec("path", n)))
    for rho in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        for g in graphs:
            phi = proportional_thresholds(g, rho)
            assert min_monopoly_exact(g, phi).h <= abw_bound(g, phi)
