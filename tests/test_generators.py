from __future__ import annotations

import hashlib
import random

import pytest

from dynmono import (
    GeneratorSpec,
    PreconditionError,
    connected_components,
    generate,
    girth,
    girth_at_least_five,
    is_tree,
    prufer_decode,
    random_girth5,
    random_tree,
    serialize_graph,
)
from dynmono import generators
from oracles import random_girth5_reference


def test_fixed_families():
    star4 = generate(GeneratorSpec("star", 4))
    assert star4.degrees == (4, 1, 1, 1, 1)

    p5 = generate(GeneratorSpec("path", 5))
    assert p5.degrees == (1, 2, 2, 2, 1)

    c6 = generate(GeneratorSpec("cycle", 6))
    assert c6.degrees == (2,) * 6 and girth(c6) == 6

    k4 = generate(GeneratorSpec("complete", 4))
    assert k4.m == 6


def test_petersen_properties():
    pet = generate(GeneratorSpec("petersen"))
    assert pet.n == 10 and pet.m == 15
    assert set(pet.degrees) == {3}
    assert girth(pet) == 5


def test_generate_validation():
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec("mystery", 4))
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec("path"))
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec("cycle", 2))
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec("random_girth5", 10))
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec("random_girth5", 10, p=1.5))
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec("star", 0))


def test_generate_calls_builders_by_name(monkeypatch):
    # a wrapper on a builder's module name (perfbench's tracer) sees the calls generate makes
    calls = []
    monkeypatch.setattr(generators, "random_tree", lambda n, rng_seed: calls.append((n, rng_seed)) or generators.path(n))
    assert generate(GeneratorSpec("random_tree", 6, rng_seed=2)).degrees == (1, 2, 2, 2, 2, 1)
    assert calls == [(6, 2)]


def test_prufer_decode_degree_property():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 30)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        t = prufer_decode(seq, n)
        assert is_tree(t)
        for v in range(n):
            assert t.degrees[v] == 1 + seq.count(v)


def test_prufer_decode_small():
    assert prufer_decode([], 2).m == 1
    assert prufer_decode([], 1).n == 1
    with pytest.raises(PreconditionError):
        prufer_decode([0], 2)
    with pytest.raises(PreconditionError):
        prufer_decode([5], 3)


def test_random_tree_is_tree_and_deterministic():
    for n in (1, 2, 3, 9, 25, 60):
        t = random_tree(n, rng_seed=7)
        assert is_tree(t)
        assert t.n == n and t.m == n - 1 if n > 1 else t.m == 0
        assert t == random_tree(n, rng_seed=7)
    assert random_tree(9, rng_seed=7) != random_tree(9, rng_seed=8)


def test_random_girth5_output_contract():
    for seed in range(8):
        g = random_girth5(60, 0.06, rng_seed=seed)
        assert len(connected_components(g)) <= 1
        assert girth(g) >= 5  # ACYCLIC compares greater than any finite girth
        assert girth_at_least_five(g)
        assert g == random_girth5(60, 0.06, rng_seed=seed)


def test_random_girth5_repair_removes_short_cycles():
    # dense enough that raw G(n, p) surely has triangles
    g = random_girth5(30, 0.3, rng_seed=1)
    assert girth(g) >= 5
    assert g.n >= 1


def test_random_girth5_matches_restart_loop():
    # 72 instances from near-empty to dense (20, 0.5); the restart loop is quadratic, so n stays <= 400
    grid = ((16, 0.3), (20, 0.5), (30, 0.3), (50, 0.15), (80, 0.06), (150, 0.03), (250, 0.015), (400, 0.008),
            (400, 0.012))
    for n, p in grid:
        for seed in range(8):
            assert random_girth5(n, p, rng_seed=seed) == random_girth5_reference(n, p, rng_seed=seed), (n, p, seed)


def test_random_girth5_sweep_instances_pinned():
    # the two random girth5-sweep instances of the benchmark at workload seed 0; digests of the restart loop's output
    for n, p, seed, digest in (
        (1000, 0.006, 1587103499, "4dec0a1b5afd7272a2b798ea9aa842458816264bacb87303f5c26ba0b7921f27"),
        (2000, 0.003, 703810986, "a094db4a86fb7e965fe7dd9904cee1e77afbd3621611effc359478fea8b947a2"),
    ):
        text = serialize_graph(random_girth5(n, p, rng_seed=seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_spec_labels():
    # the label is the bench's family column and part of every cell's seed key: it names the fields a family reads
    for spec, label in (
        (GeneratorSpec("petersen"), "petersen"),
        (GeneratorSpec("petersen", 3, p=0.1, rng_seed=4), "petersen"),
        (GeneratorSpec("star", 4), "star:4"),
        (GeneratorSpec("star"), "star:None"),
        (GeneratorSpec("path", 5, p=0.3, rng_seed=9), "path:5"),
        (GeneratorSpec("cycle", 7), "cycle:7"),
        (GeneratorSpec("complete", None), "complete:None"),
        (GeneratorSpec("random_tree", 9, rng_seed=7), "random_tree:9:7"),
        (GeneratorSpec("random_tree", None), "random_tree:None:0"),
        (GeneratorSpec("random_girth5", 50, p=0.05, rng_seed=3), "random_girth5:50:0.05:3"),
        (GeneratorSpec("random_girth5", 50), "random_girth5:50:None:0"),
        (GeneratorSpec("random_girth5", None, None, 2), "random_girth5:None:None:2"),
    ):
        assert spec.label() == label
