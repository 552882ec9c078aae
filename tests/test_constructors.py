from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import re
import statistics
import weakref
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from dynmono import constructors as constructors_mod
from dynmono import (
    GeneratorSpec,
    PreconditionError,
    abw_construct,
    from_edges,
    generate,
    girth5_construct,
    girth5_params,
    hull,
    is_monopoly,
    proportional_thresholds,
    tree_construct,
    v2_baseline,
)
from dynmono.cascade import check_thresholds
from dynmono.constructors import (
    DELTA_CAP,
    activation_probability,
    default_round_count,
    greedy_kernel,
    growth_constant,
    rho_upper_bound,
)
from dynmono.generators import petersen
from dynmono.seeding import shuffled_range
from instances import adj_lists, caterpillar, double_star, girth5_instance, gnp, spider, star_with_tail
from oracles import abw_seed_reference, greedy_kernel_reference, naive_is_monopoly, tree_construct_reference


# ---------------------------------------------------------------- abw


def test_abw_rule_full_thresholds():
    # phi = deg: u qualifies iff it has at least one earlier neighbor, so on
    # K2 exactly the later vertex is seeded (size 1 = sum phi/(d+1))
    k2 = generate(GeneratorSpec("complete", 2))
    phi = (1, 1)
    assert abw_seed_reference(k2, phi, (0, 1)) == (1,)
    assert abw_seed_reference(k2, phi, (1, 0)) == (0,)

    for rng_seed in range(10):
        g = petersen()
        phi = g.degrees
        order = list(range(g.n))
        random.Random(rng_seed).shuffle(order)
        pos = {u: i for i, u in enumerate(order)}
        expected = tuple(
            u for u in range(g.n) if any(pos[v] < pos[u] for v in g.adj[u])
        )
        assert abw_seed_reference(g, phi, order) == abw_construct(g, phi, rng_seed).seed == expected
        assert naive_is_monopoly(adj_lists(g), phi, expected) and is_monopoly(g, phi, expected)


@st.composite
def graphs_with_thresholds(draw):
    """A G(n, p) graph on 1..25 vertices, with thresholds anywhere in [0, deg]."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = gnp(draw(st.integers(1, 25)), draw(st.sampled_from((0.1, 0.3, 0.6))), rng)
    return g, tuple(rng.randint(0, d) for d in g.degrees)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs_with_thresholds(), st.integers(0, 2**64 - 1))
def test_abw_construct_matches_per_vertex_reference(case, rng_seed):
    # the backward walk seeds what the per-vertex rule seeds on the order abw_construct's stream shuffles
    g, phi = case
    order = list(range(g.n))
    random.Random(rng_seed).shuffle(order)
    assert abw_construct(g, phi, rng_seed).seed == abw_seed_reference(g, phi, order)


def test_abw_order_is_random_shuffle():
    # the inlined Fisher-Yates draws what random.Random.shuffle draws, around every power of two included
    seeds = [*range(16), 2**31 - 1, 2**32, 2**64 - 1, 12345678901234567890123]
    for n in [*range(65), 1000, 2047, 2048, 2049, 10**4]:
        for rng_seed in seeds:
            order = list(range(n))
            random.Random(rng_seed).shuffle(order)
            assert shuffled_range(n, rng_seed) == order, (n, rng_seed)


def test_abw_construct_refuses_bad_profile():
    # abw_construct checks its profile once, with check_thresholds' message
    p3 = generate(GeneratorSpec("path", 3))
    for phi, message in (
        ((1, 1), "threshold profile has length 2, graph has 3 vertices"),
        ((0, -1, 0), "threshold of vertex 1 is negative"),
        ((1, 3, 1), "threshold of vertex 1 exceeds its degree (3 > 2)"),
        ((1.0, 1, 1), "threshold of vertex 0 is not an integer: 1.0"),
        ((1, True, 1), "threshold of vertex 1 is not an integer: True"),
    ):
        for refuse in (check_thresholds, abw_construct):
            with pytest.raises(PreconditionError) as refused:
                refuse(p3, phi)
            assert str(refused.value) == message


def test_abw_rule_zero_thresholds():
    c4 = generate(GeneratorSpec("cycle", 4))
    assert abw_construct(c4, (0, 0, 0, 0)).seed == ()


def test_abw_every_permutation_is_monopoly_c4():
    c4 = generate(GeneratorSpec("cycle", 4))
    phi = proportional_thresholds(c4, 1)
    for order in permutations(range(4)):
        seed = abw_seed_reference(c4, phi, order)
        assert naive_is_monopoly(adj_lists(c4), phi, seed) and is_monopoly(c4, phi, seed)


def test_abw_construct_verified_and_deterministic():
    pet = petersen()
    phi = proportional_thresholds(pet, "2/3")
    a = abw_construct(pet, phi, rng_seed=12)
    b = abw_construct(pet, phi, rng_seed=12)
    c = abw_construct(pet, phi, rng_seed=13)
    assert a == b
    assert a.verified and c.verified
    assert a.params == {"rng_seed": 12}


def test_abw_monte_carlo_sanity():
    c5 = generate(GeneratorSpec("cycle", 5))
    phi = proportional_thresholds(c5, 1)
    sizes = [abw_construct(c5, phi, rng_seed=100 + i).size for i in range(1500)]
    mean = statistics.fmean(sizes)
    se = statistics.stdev(sizes) / math.sqrt(len(sizes))
    assert abs(mean - 10 / 3) <= 5 * se


# ---------------------------------------------------------------- parameter calculus


def test_params_bisection_fixture():
    params = girth5_params(0.568)
    # growth((1.1)) = 1.21 + 1.1/0.81 = 2.568024..., so the root sits just below 0.1
    assert abs(params.delta - 0.1) < 1e-3
    assert growth_constant(params.delta) <= 2.568 + 1e-6
    assert params.delta <= DELTA_CAP
    assert 2.70e-5 < params.rho_max < 2.76e-5


def test_params_formulas_match_direct_evaluation():
    # independent evaluation at delta = 0.1
    expected_rho = (0.1 / 1.1) * (1.0 - math.exp(-0.01 / 1.8)) / (8.0 * math.log(10.0))
    assert abs(rho_upper_bound(0.1) - expected_rho) <= 1e-6 * expected_rho
    expected_p2 = 1.0 - math.exp(-0.01 / 1.8)
    assert abs(activation_probability(0.1) - expected_p2) <= 1e-12


def test_params_cap_and_limits():
    assert girth5_params(10.0).delta == DELTA_CAP == 0.5
    small = girth5_params(1e-6)
    assert 0 < small.delta < 1e-3
    assert small.rho_max < 1e-8
    with pytest.raises(PreconditionError):
        girth5_params(0.0)
    with pytest.raises(PreconditionError):
        girth5_params(float("nan"))  # NaN > 0 is false, but so was NaN <= 0


def test_default_round_count_minimal():
    for delta in (0.1, 0.3, 0.5):
        for n in (1, 2, 10, 100, 2000, 10**6):
            k = default_round_count(n, delta)
            assert delta**k * n + 1.0 / (1.0 + delta) < 1.0
            if k > 1:
                assert delta ** (k - 1) * n + 1.0 / (1.0 + delta) >= 1.0
    # the domain is check_delta's (0, 1/2]: a delta near 1, which would count for seconds, is refused at once
    with pytest.raises(PreconditionError, match=r"delta must lie in \(0, 1/2\]"):
        default_round_count(10**6, 0.999999)
    with pytest.raises(PreconditionError, match="^round count needs n >= 1$"):
        default_round_count(0, 0.5)


# ---------------------------------------------------------------- greedy kernel


def test_kernel_empty_when_no_low_degree_vertices():
    assert greedy_kernel(petersen(), "1/3", "1/2") == ()


def test_kernel_star_with_tail():
    # center 0 has degree 6 >= 1/rho = 5; its 6 low-degree inactive
    # neighbors exceed 6/1.5 = 4, so it joins the kernel and absorbs everything
    g = star_with_tail()
    assert greedy_kernel(g, "1/5", "1/2") == (0,)


def test_kernel_two_adjacent_hubs():
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, 7)]
    edges += [(1, v) for v in range(7, 12)]
    g = from_edges(12, edges)
    # rho = 1/3 gives the hubs threshold 2, so hub 0 does not absorb hub 1;
    # each hub has 5 low-degree leaves > 6/1.5 and both join the kernel
    assert greedy_kernel(g, "1/3", "1/2") == (0, 1)
    # at rho = 1/6 the hubs have threshold 1: hub 0's hull floods everything
    assert greedy_kernel(g, "1/6", "1/2") == (0,)


KERNEL_RHOS = tuple(Fraction(1, k) for k in (1, 2, 3, 4, 7))
KERNEL_DELTAS = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2))


def _kernel_graphs():
    rng = random.Random(2024)
    yield star_with_tail()
    yield from_edges(12, [(0, 1)] + [(0, v) for v in range(2, 7)] + [(1, v) for v in range(7, 12)])
    yield _spider()
    yield _spider(hubs=4, leaves=5, path_len=2)
    for _ in range(30):
        yield spider([rng.randint(1, 4) for _ in range(rng.randint(2, 9))])
        yield caterpillar([rng.randint(0, 6) for _ in range(rng.randint(1, 8))])
    for _ in range(60):
        yield generate(GeneratorSpec("random_tree", rng.randint(2, 60), rng_seed=rng.randrange(10**6)))
    for idx in range(60):
        yield girth5_instance(rng.randint(10, 60), rng.uniform(2.0, 4.0), seed=idx)


def test_greedy_kernel_matches_restart_loop():
    # the forward pass on one Cascade must pick what the restart loop over
    # from-scratch naive hulls picks
    triples = 0
    for g in _kernel_graphs():
        for rho in KERNEL_RHOS:
            for delta in KERNEL_DELTAS:
                if max(g.degrees, default=0) * rho < 1:
                    with pytest.raises(PreconditionError):
                        greedy_kernel(g, rho, delta)
                    continue
                assert greedy_kernel(g, rho, delta) == greedy_kernel_reference(g, rho, delta), (g, rho, delta)
                triples += 1
    assert triples > 2000


def test_kernel_precondition_errors():
    p3 = generate(GeneratorSpec("path", 3))
    with pytest.raises(PreconditionError):
        greedy_kernel(p3, "1/10", "1/2")  # no vertex of degree >= 10
    with pytest.raises(PreconditionError):
        greedy_kernel(petersen(), "1/3", "0.6")  # delta above 1/2
    with pytest.raises(PreconditionError):
        greedy_kernel(petersen(), "1/3", 0)
    for bad in ("abc", float("nan"), True, None):
        with pytest.raises(PreconditionError, match="delta"):
            greedy_kernel(petersen(), "1/3", bad)


def test_kernel_exit_conditions_exact():
    for idx in range(12):
        g = girth5_instance(60, 2.5, seed=idx)
        rho = Fraction(1, max(g.degrees, default=0))
        for delta in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
            kernel = greedy_kernel(g, rho, delta)
            phi = proportional_thresholds(g, rho)
            absorbed = hull(g, phi, kernel).active
            low = {u for u, d in enumerate(g.degrees) if d * rho < 1}
            for u in set(range(g.n)) - low:
                if u in kernel:
                    continue
                cnt = sum(1 for v in g.adj[u] if v in low and v not in absorbed)
                assert cnt * (1 + delta) <= g.degrees[u]
            assert len(kernel) <= (1 + delta) * rho * g.n


# ---------------------------------------------------------------- girth5 construction


def test_girth5_petersen_fixed_seed():
    ms = girth5_construct(petersen(), "1/3", delta="1/2", rng_seed=1, max_rounds=10)
    assert ms.verified
    assert ms.trace is not None
    assert ms.trace.kernel == ()
    sizes = [r.hull_size for r in ms.trace.rounds]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 10
    phi = proportional_thresholds(petersen(), "1/3")
    assert is_monopoly(petersen(), phi, ms.seed)


def test_girth5_zero_rounds_when_kernel_suffices():
    g = star_with_tail()
    ms = girth5_construct(g, "1/5", delta="1/2", rng_seed=3)
    assert ms.seed == (0,)
    assert ms.trace.rounds == ()
    assert not ms.trace.fallback_used


def test_girth5_fallback_with_zero_rounds():
    pet = petersen()
    ms = girth5_construct(pet, "1/3", delta="1/2", rng_seed=5, max_rounds=0)
    assert ms.trace.fallback_used
    assert ms.seed == tuple(range(10))  # kernel empty, all vertices added
    assert ms.verified


def test_girth5_trace_invariants_recomputed():
    for idx in range(6):
        g = girth5_instance(80, 2.5, seed=100 + idx)
        # at rho = 1/max_degree the kernel alone floods these graphs; 1/3 leaves rounds to run
        for rho in (Fraction(1, max(g.degrees, default=0)), Fraction(1, 3)):
            ms = girth5_construct(g, rho, delta="1/2", rng_seed=idx, max_restarts=1)
            phi = proportional_thresholds(g, rho)
            trace = ms.trace
            running = list(trace.kernel)
            prev_active = hull(g, phi, running).active
            assert len(prev_active) == trace.kernel_hull_size
            prev_size = len(prev_active)
            seen: set[int] = set()
            for rec in trace.rounds:
                assert not (set(rec.added) & prev_active)  # new additions were not absorbed
                assert not (set(rec.added) & seen)
                seen |= set(rec.added)
                running.extend(rec.added)
                prev_active = hull(g, phi, running).active
                assert len(prev_active) == rec.hull_size
                assert rec.hull_size >= prev_size
                prev_size = rec.hull_size
            if not trace.fallback_used:
                assert len(prev_active) == g.n
                assert set(ms.seed) == set(running)


def _spider(hubs=8, leaves=8, path_len=3):
    """Hubs with private leaves, chained by paths: hub thresholds stall the cascade."""
    edges = []
    nid = 0
    hub_ids = []
    for _ in range(hubs):
        hub = nid
        nid += 1
        hub_ids.append(hub)
        for _ in range(leaves):
            edges.append((hub, nid))
            nid += 1
    for a, b in zip(hub_ids, hub_ids[1:]):
        prev = a
        for _ in range(path_len - 1):
            edges.append((prev, nid))
            prev = nid
            nid += 1
        edges.append((prev, b))
    return from_edges(nid, edges)


def test_girth5_multi_round_on_spider():
    # leaves are reachable only through their hub (threshold 2), so the hull
    # stalls until samples hit the remaining hubs: real multi-round traces
    g = _spider()
    ms = girth5_construct(g, "1/5", delta="1/10", rng_seed=0)
    trace = ms.trace
    assert len(trace.kernel) == 4
    assert len(trace.rounds) == 2
    assert trace.rounds[0].added == ()  # an unlucky round may add nothing
    assert trace.rounds[1].hull_size == g.n
    assert not trace.fallback_used
    assert ms.verified

    # cutting the round budget forces the fallback completion mid-run
    ms = girth5_construct(g, "1/5", delta="1/10", rng_seed=0, max_rounds=1)
    assert ms.trace.fallback_used
    assert ms.verified
    phi = proportional_thresholds(g, "1/5")
    assert is_monopoly(g, phi, ms.seed)


def test_girth5_determinism():
    g = girth5_instance(70, 2.5, seed=55)
    max_degree = max(g.degrees, default=0)
    # rho = 1/max_degree ends with zero rounds; rho = 1/3 runs one sampling round to a 39-vertex seed
    for rho, rounds, digest in (
        (Fraction(1, max_degree), 0, "2a84948a2021892f3304706a54cc19d78abf4712d85bb2d35c745a3907bd6016"),
        (Fraction(1, 3), 1, "0781ddfd52012debbf3864ec912650604ccd57f6bec315ec3d9a0c7aa15d5f49"),
    ):
        a = girth5_construct(g, rho, delta="1/2", rng_seed=9, max_restarts=2)
        b = girth5_construct(g, rho, delta="1/2", rng_seed=9, max_restarts=2)
        assert a == b
        assert len(a.trace.rounds) == rounds
        record = json.dumps(a.to_json_dict(), sort_keys=True).encode("utf-8")
        assert hashlib.sha256(record).hexdigest() == digest
        c = girth5_construct(g, rho, delta="1/2", rng_seed=10, max_restarts=2)
        assert c.verified


def test_girth5_restart_accounting():
    g = girth5_instance(80, 2.5, seed=77)
    rho = Fraction(1, max(g.degrees, default=0))
    ms = girth5_construct(g, rho, delta="1/2", rng_seed=4, max_restarts=3)
    assert 0 <= ms.trace.restarts <= 3
    assert ms.params["restarts"] == ms.trace.restarts
    assert ms.params["rounds_used"] == len(ms.trace.rounds)


def test_girth5_restarts_exhausted_when_target_unreachable():
    # a zero-round budget forces the fallback seed (all 10 vertices), which
    # exceeds the ~8.56 first-moment target at delta = 1/10, so every retry
    # runs and the best attempt is kept
    ms = girth5_construct(petersen(), "1/3", delta="1/10", rng_seed=3, max_rounds=0, max_restarts=2)
    assert ms.size == 10
    assert ms.trace.fallback_used
    assert ms.trace.restarts == 2
    assert ms.size > ms.params["size_target"]


def test_girth5_each_attempt_starts_from_the_kernel_hull():
    # the first two attempts add samples and still miss the ~8.2 size target, so the kept third attempt
    # must start from the kernel's hull again, not from where the last attempt left off
    ms = girth5_construct(petersen(), "2/5", delta="1/100", rng_seed=2, max_rounds=1, max_restarts=3)
    assert ms.trace.restarts == 2 and ms.trace.rounds[0].added
    record = json.dumps(ms.to_json_dict(), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(record).hexdigest() == "bb6aad305d9872a1b6cb3eaf00849335819ef3c049160170799e637f18bf5c91"


def test_every_builder_checks_its_seed_through_is_monopoly(monkeypatch):
    # each method checks the seed it returns once, on the profile cached for rho, and a refused seed raises
    pet, rho = petersen(), Fraction(1, 3)
    cases = {"abw": pet, "girth5": pet, "tree": generate(GeneratorSpec("random_tree", 40, rng_seed=5)), "v2": pet}
    assert cases.keys() == constructors_mod.BUILDERS.keys()
    monkeypatch.setattr(constructors_mod, "is_monopoly", lambda g, phi, seed: False)
    for method, g in cases.items():
        with pytest.raises(AssertionError, match=f"^{method} produced a non-monopoly seed$"):
            constructors_mod.BUILDERS[method](g, rho, 0)
    checks = []
    monkeypatch.setattr(constructors_mod, "is_monopoly", lambda *args: checks.append(args) or True)
    for method, g in cases.items():
        checks.clear()
        result = constructors_mod.BUILDERS[method](g, rho, 0)
        assert len(checks) == 1, method
        (checked_g, phi, seed), = checks
        assert checked_g is g and phi is proportional_thresholds(g, rho) and seed == result.seed, method


def test_girth5_kernel_cache_matches_fresh_graphs(monkeypatch):
    # the prefix is cached on the graph per (rho, delta): interleaved calls on two live graphs must give the
    # records of calls on fresh equal graphs, each of which starts with no cache and builds its own prefix
    sources = [girth5_instance(70, 2.5, seed=55), girth5_instance(80, 2.5, seed=77)]
    calls = [(i, rho, delta, s) for s in (1, 2) for delta in ("1/2", "1/5") for rho in ("1/3", "1/4") for i in (0, 1)]

    def fresh(i):
        g = from_edges(sources[i].n, sources[i].edges())
        assert "_girth5_prefixes" not in vars(g)
        return g

    def run(graph, rho, delta, s):
        return girth5_construct(graph, rho, delta=delta, rng_seed=s, max_restarts=1)

    expected = [run(fresh(i), rho, delta, s) for i, rho, delta, s in calls]
    builds = []
    kernel = constructors_mod.greedy_kernel
    monkeypatch.setattr(constructors_mod, "greedy_kernel",
                        lambda g, r, d: builds.append((g.n, r, d)) or kernel(g, r, d))
    graphs = [fresh(0), fresh(1)]
    got = [run(graphs[i], rho, delta, s) for i, rho, delta, s in calls]
    assert got == expected
    assert any(ms.trace.rounds for ms in got)  # the sampling rounds ran on the cached state, not only the kernel
    assert len(builds) == len(set(builds)) == 8  # one kernel per (graph, rho, delta), each asked for twice



def test_girth5_kernel_cache_lives_on_its_graph(monkeypatch):
    g = girth5_instance(65, 2.5, seed=93)
    twin = from_edges(g.n, g.edges())
    assert twin == g and twin is not g
    builds = []
    kernel = constructors_mod.greedy_kernel
    monkeypatch.setattr(constructors_mod, "greedy_kernel", lambda g, r, d: builds.append(g) or kernel(g, r, d))
    first = girth5_construct(g, "1/3", delta="1/2", rng_seed=1)
    assert list(vars(g)["_girth5_prefixes"]) == [(Fraction(1, 3), Fraction(1, 2))]
    assert "_girth5_prefixes" not in vars(twin)  # an equal graph shares no cache: it builds its own kernel
    assert girth5_construct(twin, "1/3", delta="1/2", rng_seed=1) == first
    assert girth5_construct(g, "1/3", delta="1/2", rng_seed=1) == first
    assert len(builds) == 2 and builds[0] is g and builds[1] is twin


def test_girth5_reads_the_state_greedy_kernel_closed(monkeypatch):
    # greedy_kernel leaves its closed Cascade on the graph: girth5 builds no second kernel and no second kernel state
    g = girth5_instance(70, 2.5, seed=55)
    isolated = from_edges(3, [(0, 1)])  # an empty kernel, and a phi = 0 vertex in its hull
    for graph, rho, delta in ((g, "1/3", "1/2"), (g, "1/4", "1/5"), (isolated, "1", "1/2")):
        kernel = greedy_kernel(graph, rho, delta)
        cached, state, pool = vars(graph)["_girth5_prefixes"][Fraction(rho), Fraction(delta)]
        phi = proportional_thresholds(graph, rho)
        active = hull(graph, phi, kernel).active
        assert cached == kernel and state.phi is phi and active
        assert {u for u, k in enumerate(state.need) if k == 0} == active and state.size == len(active)
        assert pool == tuple(u for u in range(graph.n) if u not in active)
    entries = dict(vars(g)["_girth5_prefixes"])
    expected = girth5_construct(from_edges(g.n, g.edges()), "1/3", delta="1/2", rng_seed=1)
    builds = []
    monkeypatch.setattr(constructors_mod, "greedy_kernel", lambda *args: builds.append(args))
    assert girth5_construct(g, "1/3", delta="1/2", rng_seed=1) == expected and expected.trace.rounds
    assert builds == [] and all(vars(g)["_girth5_prefixes"][key] is entry for key, entry in entries.items())


def test_girth5_kernel_cache_drops_its_graph():
    g = girth5_instance(60, 2.5, seed=91)
    girth5_construct(g, "1/3", delta="1/2", rng_seed=1)
    assert (Fraction(1, 3), Fraction(1, 2)) in vars(g)["_girth5_prefixes"]
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None  # nothing outside the graph, such as a module-level table, keeps it alive


def test_girth5_preconditions():
    c4 = generate(GeneratorSpec("cycle", 4))
    with pytest.raises(PreconditionError, match=re.escape("cycle of length 3 or 4")):
        girth5_construct(c4, "1/2", delta="1/2", rng_seed=0)
    ms = girth5_construct(c4, "1/2", delta="1/2", rng_seed=0, allow_low_girth=True)
    assert ms.verified

    two_parts = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError, match=re.escape("connected")):
        girth5_construct(two_parts, "1/2", delta="1/2")

    with pytest.raises(PreconditionError, match=re.escape("sampling probability")):
        girth5_construct(petersen(), "2/3", delta="1/2")  # sampling probability above 1

    p3 = generate(GeneratorSpec("path", 3))
    with pytest.raises(PreconditionError, match=re.escape("degree >= 1/rho")):
        girth5_construct(p3, "1/10", delta="1/2")  # max degree below 1/rho

    # each case names why it is refused, so a case refused for another reason fails here
    for kwargs, message in (
        ({"rho": float("nan")}, "cannot interpret rho"),
        ({"rho": "inf"}, "cannot interpret rho"),
        ({"delta": "3/2"}, "delta must lie in"),
        ({"epsilon": float("nan")}, "epsilon must be a number"),
        ({"max_restarts": -1}, "max_restarts must be non-negative"),
        ({"delta": "1/5", "epsilon": -3}, "epsilon must be a finite number above 0"),
        ({"delta": "1/5", "epsilon": float("nan")}, "epsilon must be a number"),
        ({"epsilon": float("inf")}, "epsilon must be a finite number above 0"),
        ({"max_rounds": 2.5}, "max_rounds must be an integer"),
        ({"max_restarts": True}, "max_restarts must be an integer"),
        ({"delta": "1e-400"}, "rounds to 0 as a float"),
        ({"delta": "1e-400", "max_rounds": 3}, "rounds to 0 as a float"),
    ):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            girth5_construct(petersen(), **{"rho": "1/3", **kwargs})


def test_girth5_delta_rule():
    # delta, else girth5_params(epsilon).delta, else 1/2; an epsilon next to a delta only sets the theory flag
    assert girth5_construct(petersen(), "1/3").params["delta"] == "1/2"
    derived = girth5_construct(petersen(), "1/3", epsilon=0.568).params["delta"]
    assert Fraction(derived) == Fraction(repr(girth5_params(0.568).delta)) and abs(Fraction(derived) - Fraction(1, 10)) < 1e-3
    assert girth5_construct(petersen(), "1/3", delta="1/5", epsilon=0.568).params["delta"] == "1/5"


def test_girth5_theory_flags():
    ms = girth5_construct(petersen(), "1/3", delta="1/2", rng_seed=2, epsilon=7.0)
    theory = ms.params["theory"]
    assert theory["delta_within_cap"] is True
    assert theory["rho_within_proven_range"] is False  # 1/3 is far above ~e-5
    assert theory["growth_within_budget"] is True  # growth(0.5) = 8.25 <= 9


# ---------------------------------------------------------------- tree construction


def test_tree_star_base_case():
    star4 = generate(GeneratorSpec("star", 4))
    ms = tree_construct(star4, "1/5")
    assert ms.seed == (0,)
    assert ms.verified


def test_tree_double_star_recursion():
    # split at center 0, recurse into the star of center 1: seed {0, 1}
    ms = tree_construct(double_star(), "1/3")
    assert ms.seed == (0, 1)
    assert ms.size <= 2  # floor(rho * n) = 2


def test_tree_path_no_high_degree():
    p20 = generate(GeneratorSpec("path", 20))
    ms = tree_construct(p20, "1/10")
    assert ms.seed == (1,)  # smallest id of maximum degree


def test_tree_preconditions():
    c5 = generate(GeneratorSpec("cycle", 5))
    with pytest.raises(PreconditionError):
        tree_construct(c5, "1/2")
    p3 = generate(GeneratorSpec("path", 3))
    with pytest.raises(PreconditionError):
        tree_construct(p3, "1/4")  # order 3 below 1/rho = 4


def test_tree_bound_on_random_trees():
    rng = random.Random(71)
    for _ in range(60):
        rho = Fraction(1, rng.choice([1, 2, 3, 4, 7]))
        n = rng.randint(int(1 / rho), 60)
        t = generate(GeneratorSpec("random_tree", n, rng_seed=rng.randrange(10**6)))
        ms = tree_construct(t, rho)
        assert ms.size <= (n * rho.numerator) // rho.denominator
        assert is_monopoly(t, proportional_thresholds(t, rho), ms.seed)


def test_tree_long_path_rho_one():
    # rho = 1 keeps every internal vertex high-degree: deep recursion
    p200 = generate(GeneratorSpec("path", 200))
    ms = tree_construct(p200, 1)
    assert ms.size <= 200
    assert is_monopoly(p200, proportional_thresholds(p200, 1), ms.seed)


TREE_RHOS = [Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1, 3), Fraction(1, 4), Fraction(1, 7)]


def _reference_trees():
    import networkx as nx

    for n in range(2, 11):  # every tree shape up to 10 vertices: 200 trees
        for t in nx.nonisomorphic_trees(n):
            yield from_edges(n, t.edges())
    rng = random.Random(808)
    for n in range(1, 16):
        yield generate(GeneratorSpec("star", n))
        yield generate(GeneratorSpec("path", n))
    for _ in range(60):
        yield caterpillar([rng.choice([0, 0, 1, 2, 3, 6]) for _ in range(rng.randint(1, 14))])
        yield spider([rng.randint(1, 6) for _ in range(rng.randint(1, 8))])
    for _ in range(300):
        n = rng.randint(1, 60)
        yield generate(GeneratorSpec("random_tree", n, rng_seed=rng.randrange(10**6)))


def test_tree_construct_matches_reference_splitter():
    pairs = 0
    for t in _reference_trees():
        for rho in TREE_RHOS:
            if t.n * rho.numerator < rho.denominator:
                continue
            assert tree_construct(t, rho).seed == tree_construct_reference(t, rho), (t, rho)
            pairs += 1
    assert pairs > 2000


def test_tree_construct_large_random_tree():
    # the Steiner-leaf pass on 2*10^4 vertices, checked against the bound and the hull
    t = generate(GeneratorSpec("random_tree", 20000, rng_seed=5))
    rho = Fraction(1, 3)
    ms = tree_construct(t, rho)
    assert ms.size <= 20000 // 3
    assert is_monopoly(t, proportional_thresholds(t, rho), ms.seed)


# ---------------------------------------------------------------- v2 baseline


def test_v2_baseline_cases():
    # the class is deg >= 1/rho, exactly: deg * rho = 1 is in, anything below is out (then vertex 0 alone)
    assert v2_baseline(petersen(), "1/3").seed == tuple(range(10))
    assert v2_baseline(petersen(), "2/7").seed == (0,)
    p20 = generate(GeneratorSpec("path", 20))
    assert v2_baseline(p20, "1/10").seed == (0,)
    assert v2_baseline(p20, "1/2").seed == tuple(range(1, 19))
    assert v2_baseline(p20, "2/5").seed == (0,)
    star5 = generate(GeneratorSpec("star", 5))
    assert v2_baseline(star5, "1/5").seed == (0,)
    star = from_edges(6, [(5, leaf) for leaf in range(5)])  # the centre, of degree 5, is the last vertex
    assert v2_baseline(star, "1/5").seed == (5,)
    assert v2_baseline(star, "1/6").seed == (0,)
    assert v2_baseline(star, 1).seed == tuple(range(6))
    assert v2_baseline(from_edges(1, []), 1).seed == (0,)


def test_v2_baseline_requires_connected():
    g = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError):
        v2_baseline(g, "1/2")
    with pytest.raises(PreconditionError):
        v2_baseline(from_edges(0, []), "1/2")
