from __future__ import annotations

import hashlib
import itertools
import random
import tracemalloc

import pytest

from dynmono import GeneratorSpec, PreconditionError, generate, girth, random_girth5, random_tree, serialize_graph
from dynmono import abw_construct, girth5_construct, proportional_thresholds
from dynmono import generators, graphs
from dynmono.generators import petersen, prufer_decode
from dynmono.graphs import connected_components, girth_at_least_five, is_tree
from oracles import prufer_decode_reference, random_girth5_reference


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
    for build, message in ((lambda: generators.complete(0), "complete graph needs at least one vertex"),
                           (lambda: prufer_decode([], 0), "tree needs at least one vertex"),
                           (lambda: prufer_decode([1], 1), "sequence must be empty for n=1"),
                           (lambda: random_girth5(0, 0.5), "random_girth5 needs at least one vertex")):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            build()


def test_generate_calls_builders_by_name(monkeypatch):
    # a wrapper on a builder's module name (perfbench's tracer) sees the calls generate makes
    calls = []
    monkeypatch.setattr(generators, "random_tree", lambda n, rng_seed: calls.append((n, rng_seed)) or generators.path(n))
    assert generate(GeneratorSpec("random_tree", 6, rng_seed=2)).degrees == (1, 2, 2, 2, 2, 1)
    assert calls == [(6, 2)]


def test_generate_refuses_sizes_above_the_vertex_limit(monkeypatch):
    # with the limit lowered to 10, no builder runs for a graph of 11 vertices, a complete graph of 15 edges or a
    # random_girth5 spec that expects 22.5 edges; a p random_girth5 refuses itself reaches the builder
    monkeypatch.setattr(graphs, "MAX_VERTICES", 10)
    built = []
    for name in ("path", "star", "complete", "random_girth5"):
        monkeypatch.setattr(generators, name, lambda *args, name=name: built.append(name))
    for spec, message in (
        (GeneratorSpec("path", 11), "path with n=11 has 11 vertices, above the limit 10"),
        (GeneratorSpec("star", 10), "star with n=10 has 11 vertices, above the limit 10"),
        (GeneratorSpec("random_girth5", 11, p=0.5), "random_girth5 with n=11 has 11 vertices, above the limit 10"),
        (GeneratorSpec("complete", 6), "complete with n=6 has 15 edges, above the limit 10"),
        (GeneratorSpec("random_girth5", 10, p=0.5),
         "random_girth5 with n=10, p=0.5 expects 22.5 edges, above the limit 10"),
    ):
        with pytest.raises(PreconditionError) as info:
            generate(spec)
        assert str(info.value) == message
    assert built == []
    for spec in (GeneratorSpec("path", 10), GeneratorSpec("star", 9), GeneratorSpec("complete", 5),
                 GeneratorSpec("complete", -3), GeneratorSpec("random_girth5", 5, p=0.5),
                 GeneratorSpec("random_girth5", 10, p=1.5), GeneratorSpec("random_girth5", 10)):
        generate(spec)
    assert built == ["path", "star", "complete", "complete", "random_girth5", "random_girth5", "random_girth5"]
    assert generate(GeneratorSpec("petersen", 10**9)).n == 10  # petersen reads no n


def test_prufer_decode_degree_property():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 30)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        t = prufer_decode(seq, n)
        assert is_tree(t)
        for v in range(n):
            assert t.degrees[v] == 1 + seq.count(v)


def test_prufer_decode_matches_the_heap_decode():
    # every sequence for n <= 7, then seeded sequences up to 10^4 vertices
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            assert prufer_decode(list(seq), n) == prufer_decode_reference(list(seq), n)
    rng = random.Random(11)
    for n in (*(rng.randint(8, 300) for _ in range(200)), 1000, 10**4):
        seq = [rng.randrange(n) for _ in range(n - 2)]
        assert prufer_decode(seq, n) == prufer_decode_reference(seq, n)
    for n in (50, 10**4):  # a path and a star: the leaf pointer's two extremes
        for seq in (list(range(1, n - 1)), [0] * (n - 2)):
            assert prufer_decode(seq, n) == prufer_decode_reference(seq, n)


def test_prufer_decode_small():
    assert prufer_decode([], 2).m == 1
    assert prufer_decode([], 1).n == 1
    with pytest.raises(PreconditionError):
        prufer_decode([0], 2)
    with pytest.raises(PreconditionError, match=r"^sequence entry 5 is not a vertex id in 0\.\.2$"):
        prufer_decode([5], 3)
    # a float or a bool is refused as an entry, not indexed or joined as an edge
    with pytest.raises(PreconditionError, match=r"^sequence entry 1\.0 is not a vertex id in 0\.\.3$"):
        prufer_decode([1.0, 0], 4)
    with pytest.raises(PreconditionError, match=r"^sequence entry True is not a vertex id in 0\.\.3$"):
        prufer_decode([True, 0], 4)


def test_random_tree_is_tree_and_deterministic():
    for n in (1, 2, 3, 9, 25, 60):
        t = random_tree(n, rng_seed=7)
        assert is_tree(t)
        assert t.n == n and t.m == n - 1 if n > 1 else t.m == 0
        assert t == random_tree(n, rng_seed=7)
    assert random_tree(9, rng_seed=7) != random_tree(9, rng_seed=8)


def test_negative_rng_seeds_are_refused():
    # CPython seeds random.Random(-7) as random.Random(7), so a negative seed would silently repeat 7's output
    pet = petersen()
    for build in (lambda: random_tree(30, -7), lambda: random_girth5(30, 0.1, -7),
                  lambda: abw_construct(pet, proportional_thresholds(pet, "1/3"), rng_seed=-7)):
        with pytest.raises(PreconditionError, match="^rng_seed must be non-negative, got -7$"):
            build()
    with pytest.raises(PreconditionError, match="^rng_seed must be non-negative, got -7$"):
        generate(GeneratorSpec("random_tree", 30, rng_seed=-7))


def test_every_rng_seed_is_read_as_a_count():
    # one rule, check_count's, for every seed the library takes: an exact float is its integer, anything else that
    # is not a non-negative int is refused by name, and a run records the int it was seeded with
    pet = petersen()
    phi = proportional_thresholds(pet, "1/3")
    builds = (lambda seed: random_tree(30, seed), lambda seed: random_girth5(30, 0.1, seed),
              lambda seed: abw_construct(pet, phi, rng_seed=seed),
              lambda seed: girth5_construct(pet, "1/3", rng_seed=seed))
    for build in builds:
        for bad, message in ((-1, "non-negative, got -1"), ("abc", "an integer, got abc"), (2.5, "an integer, got 2.5"),
                             (True, "an integer, got True"), (None, "an integer, got None")):
            with pytest.raises(PreconditionError, match=f"^rng_seed must be {message}$"):
                build(bad)
        assert build(4.0) == build(4)
    for build in builds[2:]:
        assert type(build(4.0).params["rng_seed"]) is int


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
    # 96 instances from near-empty to dense; the restart loop is quadratic, so n stays <= 400.  Edge cases of the
    # assembly: (5, 0.01) keeps one vertex at every seed, (13, 0.12) ties two largest components that relabel to
    # different graphs at seeds 1 and 5, and (12, 0.9) repairs a dense draw
    grid = ((16, 0.3), (20, 0.5), (30, 0.3), (50, 0.15), (80, 0.06), (150, 0.03), (250, 0.015), (400, 0.008),
            (400, 0.012), (5, 0.01), (13, 0.12), (12, 0.9))
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


def test_gnp_stream_pinned():
    # the G(n, p) draw the oracle shares, pinned by the pairs it drew when it returned a list: n = 1, both outcomes
    # at n = 2, p near 1, and the sweep's 1,000-vertex draw
    for n, p, seed, pairs in ((1, 0.5, 0, []), (2, 0.5, 0, []), (2, 0.5, 1, [(0, 1)]), (2, 0.999, 1, [(0, 1)])):
        assert list(generators._gnp_edges(n, p, random.Random(seed))) == pairs
    for n, p, seed, count, digest in (
        (40, 0.999, 2, 779, "47745607babd7dcdb01a9aeb6cb2c812b01aeef558fc90a6a00b634e443a1070"),
        (60, 0.5, 4, 843, "950d99ff5181b749460fd026e2a2bd34bce50c74f0ef2cf9d7d7365e007337db"),
        (300, 0.02, 5, 907, "515a82f17b8189c00a22eb1e1fd7cdcc71236626f4958392ad0d4f7d8e26c34c"),
        (1000, 0.006, 1587103499, 3049, "a5c0f417d99884f15b126bd188fb4d14ee930e31cfc5a93059c75d5479606dfa"),
        (5000, 0.0004, 11, 5034, "a1200b814d9c7568602a1a44ce9da375212132322df8889382e6df5b59309816"),
    ):
        pairs = list(generators._gnp_edges(n, p, random.Random(seed)))
        assert len(pairs) == count and hashlib.sha256(repr(pairs).encode()).hexdigest() == digest, (n, p, seed)


def test_random_girth5_holds_one_copy_of_its_graph():
    # tracemalloc's peak over the sweep's 2,000-vertex instance: 0.59 MiB with one adjacency list per vertex, and
    # 1.89 MiB when the edge list, a set per vertex and an unrelabeled Graph were all live at once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        random_girth5(2000, 0.003, rng_seed=703810986)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20, peak


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
