from __future__ import annotations

import copy
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynmono import (
    GeneratorSpec,
    InputFormatError,
    PreconditionError,
    from_edges,
    generate,
    hull,
    is_monopoly,
    parse_rho,
    proportional_thresholds,
    random_girth5,
    to_fraction,
    v2_baseline,
)
from dynmono import cascade as cascade_mod
from dynmono.cascade import Cascade, _quotient, check_thresholds, parse_seed_set
from dynmono.constructors import greedy_kernel
from dynmono.generators import petersen
from dynmono.graphs import connected_components
from instances import adj_lists, gnp
from oracles import DecrementingCascade, hull_active_shuffled, naive_hull, naive_rounds


def test_parse_rho():
    assert parse_rho("1/3") == Fraction(1, 3)
    assert parse_rho("0.3") == Fraction(3, 10)
    assert parse_rho("1") == Fraction(1)
    assert parse_rho("1e-3") == Fraction(1, 1000)
    # an exponent beyond the int-string digit limit is refused before Fraction builds 10**5000
    for bad in ("0", "5/3", "abc", "-1/2", "1/0", "nan", "inf", "", "1e-5000"):
        with pytest.raises(InputFormatError):
            parse_rho(bad)


def test_to_fraction_exact_and_named():
    assert to_fraction(0.1) == Fraction(1, 10)  # the shortest repr, not the binary value
    assert to_fraction(" 2/6 ") == Fraction(1, 3)
    assert to_fraction(1) == 1 and to_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert to_fraction("3/5", "delta", Fraction(3, 5)) == Fraction(3, 5)
    with pytest.raises(PreconditionError, match=r"delta must lie in \(0, 1/2\], got 3/5"):
        to_fraction("3/5", "delta", Fraction(1, 2))
    # library callers get PreconditionError naming rho, never a raw ValueError; True is not rho = 1
    pet = petersen()
    for bad in (float("nan"), float("inf"), "nan", "-inf", True, None, [1], 0, "5/3"):
        with pytest.raises(PreconditionError, match="rho"):
            proportional_thresholds(pet, bad)
    # an unreadable value is echoed up to 50 characters, and named by its length past that
    for bad, shown in (("1" * 49 + "x", repr("1" * 49 + "x")), ("1" * 50 + "x", "written in 51 characters"),
                       ("1" * 5000 + "x", "written in 5001 characters"), ([1] * 20, "written in 60 characters")):
        with pytest.raises(PreconditionError, match=f"^cannot interpret rho {re.escape(shown)} as a rational$"):
            to_fraction(bad)


def test_to_fraction_without_the_digit_limit_function(monkeypatch):
    # Python 3.10 before 3.10.7 has no sys.get_int_max_str_digits: CPython's default limit, 4300, applies
    # for the exponent; str() keeps this interpreter's limit, so 1e-4299 at the default one is the deepest value taken
    digits = sys.get_int_max_str_digits()
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    with pytest.raises(PreconditionError, match="cannot interpret rho '1e-5000' as a rational"):
        to_fraction("1e-5000")
    assert to_fraction("1e-1") == Fraction(1, 10)
    assert to_fraction(f"1e-{digits - 1}") == Fraction(1, 10 ** (digits - 1))


def test_to_fraction_refuses_what_it_cannot_print():
    # the reduced numerator and denominator may have as many digits as the interpreter's limit, and no more
    digits = sys.get_int_max_str_digits()
    assert to_fraction(f"1e-{digits - 1}") == Fraction(1, 10 ** (digits - 1))
    assert to_fraction(f"2e-{digits}") == Fraction(1, 5 * 10 ** (digits - 1))  # reduced, it has `digits` digits
    with pytest.raises(PreconditionError, match="rho must lie in"):
        to_fraction(f"1e{digits - 1}")  # too large, but printable
    for bad in (f"1e-{digits}", f"1e{digits}", f"12e{digits - 1}", f"1.5e{digits}", f"1/{10 ** digits // 9}0"):
        shown = repr(bad) if len(bad) <= 50 else f"written in {len(bad)} characters"
        with pytest.raises(PreconditionError, match=re.escape(f"cannot interpret rho {shown} as a rational")):
            to_fraction(bad)
    for bad in (10**digits, Fraction(1, 10**digits)):
        with pytest.raises(PreconditionError, match=f"cannot interpret delta of more than {digits} digits"):
            to_fraction(bad, "delta")


def test_proportional_thresholds_exact_ceilings():
    c5 = generate(GeneratorSpec("cycle", 5))
    assert proportional_thresholds(c5, 1) == (2, 2, 2, 2, 2)

    star4 = generate(GeneratorSpec("star", 4))
    assert proportional_thresholds(star4, "1/5") == (1, 1, 1, 1, 1)

    # ceil(27/10) = 3: the tight case float ceilings get wrong
    star9 = generate(GeneratorSpec("star", 9))
    phi = proportional_thresholds(star9, "3/10")
    assert phi[0] == 3
    assert phi[1:] == (1,) * 9

    petersen_phi = proportional_thresholds(petersen(), "1/3")
    assert petersen_phi == (1,) * 10


def test_threshold_zero_iff_isolated():
    g = from_edges(4, [(0, 1)])
    phi = proportional_thresholds(g, "1/2")
    assert phi == (1, 1, 0, 0)


def test_check_thresholds():
    g = generate(GeneratorSpec("path", 3))  # degrees 1, 2, 1
    assert proportional_thresholds(g, 1) == (1, 2, 1)  # a graph with cached profiles refuses the same way
    check_thresholds(g, (1, 2, 1))
    check_thresholds(g, [0, 0, 0])
    for phi, message in (
        ((1, 2), "threshold profile has length 2, graph has 3 vertices"),
        ((1, 2.0, 1), "threshold of vertex 1 is not an integer: 2.0"),
        ((1, 1, True), "threshold of vertex 2 is not an integer: True"),
        ((-1, 0, 0), "threshold of vertex 0 is negative"),
        ((1, 3, 1), "threshold of vertex 1 exceeds its degree (3 > 2)"),
        # the first bad vertex is named, whatever a later one fails
        ((1, 3, -1), "threshold of vertex 1 exceeds its degree (3 > 2)"),
        ((0, -1, "1"), "threshold of vertex 1 is negative"),
    ):
        with pytest.raises(PreconditionError) as info:
            check_thresholds(g, phi)
        assert str(info.value) == message


def test_proportional_profiles_are_cached_per_graph():
    g = petersen()
    phi = proportional_thresholds(g, "1/2")
    assert phi is proportional_thresholds(g, Fraction(1, 2)) is proportional_thresholds(g, 0.5)
    assert phi is not proportional_thresholds(petersen(), "1/2")  # an equal graph keeps its own cache
    assert proportional_thresholds(g, "1/3") is not phi


class _WalkedList(list):
    """A list that records each iteration over it."""

    walks = 0

    def __iter__(self):
        _WalkedList.walks += 1
        return super().__iter__()


def test_check_thresholds_passes_only_the_graphs_own_profiles_unwalked():
    rng = random.Random(6)
    for _ in range(60):
        g = gnp(rng.randint(0, 30), rng.random(), rng)
        for rho in (Fraction(1), Fraction(1, 3), Fraction(rng.randint(1, 50), 50)):
            phi = proportional_thresholds(g, rho)
            check_thresholds(g, list(phi))  # every cached profile also passes the full check
            before = _WalkedList.walks
            check_thresholds(g, phi)
            check_thresholds(g, _WalkedList(phi))  # equal values, another object: walked
            assert _WalkedList.walks > before
    # a profile cached for another graph of the same order is walked, and refused where it is bad
    path, triangle = generate(GeneratorSpec("path", 3)), generate(GeneratorSpec("complete", 3))
    proportional_thresholds(path, 1)
    with pytest.raises(PreconditionError) as info:
        check_thresholds(path, proportional_thresholds(triangle, 1))
    assert str(info.value) == "threshold of vertex 0 exceeds its degree (2 > 1)"


def test_effective_rho_same_thresholds():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 15)
        g = gnp(n, 0.4, rng)
        max_degree = max(g.degrees, default=0)
        if max_degree == 0:
            continue
        rho = Fraction(1, rng.randint(max_degree, 3 * max_degree))
        eff = max(rho, Fraction(1, max_degree))  # thresholds are constant in rho on (0, 1/max_degree]
        assert proportional_thresholds(g, rho) == proportional_thresholds(g, eff)


def test_hull_star_example():
    star4 = generate(GeneratorSpec("star", 4))
    phi = proportional_thresholds(star4, "1/5")
    res = hull(star4, phi, [0])
    assert res.is_monopoly
    assert res.rounds == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}


def test_hull_empty_seed_and_full_seed():
    c5 = generate(GeneratorSpec("cycle", 5))
    phi = proportional_thresholds(c5, 1)
    assert hull(c5, phi, []).active == frozenset()
    res = hull(c5, phi, range(5))
    assert res.is_monopoly and set(res.rounds.values()) == {0}


def test_hull_isolated_vertices_self_activate():
    g = from_edges(3, [(0, 1)])
    phi = proportional_thresholds(g, "1/2")
    res = hull(g, phi, [])
    assert res.active == frozenset({2})
    assert res.rounds[2] == 1
    res = hull(g, phi, [2])
    assert res.rounds[2] == 0


def test_hull_input_validation():
    g = generate(GeneratorSpec("path", 3))
    with pytest.raises(PreconditionError):
        hull(g, (1, 3, 1), [0])
    with pytest.raises(PreconditionError):
        hull(g, proportional_thresholds(g, 1), [5])


def test_hull_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 20)
        g = gnp(n, rng.uniform(0.1, 0.5), rng)
        phi = proportional_thresholds(g, Fraction(rng.randint(1, 3), 3))
        seed = [u for u in range(n) if rng.random() < 0.25]
        assert hull(g, phi, seed).active == frozenset(naive_hull(adj_lists(g), phi, seed))


def test_hull_closure_laws_quick():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 24)
        g = gnp(n, 0.3, rng)
        phi = proportional_thresholds(g, "1/2")
        a = {u for u in range(n) if rng.random() < 0.2}
        b = a | {u for u in range(n) if rng.random() < 0.2}
        ra, rb = hull(g, phi, a), hull(g, phi, b)
        assert a <= ra.active
        assert ra.active <= rb.active
        again = hull(g, phi, ra.active)
        assert again.active == ra.active
        assert set(again.rounds.values()) <= {0}
        for _ in range(5):
            assert hull_active_shuffled(g, phi, a, rng) == ra.active
        # one incremental state fed b in random chunks ends on the hull of b
        order = sorted(b, key=lambda _: rng.random())
        cuts = sorted(rng.randint(0, len(order)) for _ in range(3))
        state = Cascade(g, phi)
        for lo, hi in zip([0, *cuts], [*cuts, len(order)]):
            state.add(order[lo:hi])
        assert _settled(state) == rb.active


def test_hull_fixed_point_characterization():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 18)
        g = gnp(n, 0.35, rng)
        phi = proportional_thresholds(g, Fraction(rng.randint(1, 2), 2))
        seed = {u for u in range(n) if rng.random() < 0.3}
        res = hull(g, phi, seed)
        for u in range(n):
            active_nbrs = sum(1 for v in g.adj[u] if v in res.active)
            if u not in res.active:
                assert active_nbrs < phi[u]
            elif res.rounds[u] > 0:
                earlier = sum(
                    1 for v in g.adj[u] if v in res.active and res.rounds[v] < res.rounds[u]
                )
                assert earlier >= phi[u]



def _random_case(rng: random.Random, max_n: int = 20):
    """A G(n, p) graph with thresholds anywhere in [0, deg] (isolated vertices and some others at 0)."""
    g = gnp(rng.randint(0, max_n), rng.choice((0.15, 0.3, 0.5)), rng)
    return g, [rng.randint(0, d) for d in g.degrees]


def test_hull_rounds_match_synchronous_reference():
    rng = random.Random(29)
    for _ in range(300):
        g, phi = _random_case(rng)
        seed = [u for u in range(g.n) if rng.random() < 0.2]
        res = hull(g, phi, seed)
        assert res.rounds == naive_rounds(adj_lists(g), phi, seed)
        assert list(res.rounds.values()) == sorted(res.rounds.values())  # seeds first, then wave by wave
    # a seeded zero-threshold vertex is round 0, an unseeded one round 1, and each starts a chain
    p3 = generate(GeneratorSpec("path", 3))
    assert hull(p3, (0, 1, 1), [0]).rounds == {0: 0, 1: 1, 2: 2}
    assert hull(p3, (0, 1, 1), []).rounds == {0: 1, 1: 2, 2: 3}
    assert hull(p3, (0, 2, 1), [2]).rounds == {2: 0, 0: 1, 1: 2}


def _settled(state: Cascade) -> set[int]:
    """The vertices with need 0: seeded, queued or active."""
    return {u for u, k in enumerate(state.need) if k == 0}


def _assert_settled(g, phi, state: Cascade, seeds) -> None:
    """Once an add returns, need is 0 exactly on the naive hull of every seed added so far (phi = 0 vertices and
    repeated seeds included)."""
    assert _settled(state) == naive_hull(adj_lists(g), phi, seeds)


def _chunk(rng: random.Random, n: int) -> list[int]:
    """Up to three random ids, with an id repeated one time in four."""
    chunk = [rng.randrange(n) for _ in range(rng.randint(0, 3))] if n else []
    return chunk + chunk[:1] if rng.random() < 0.25 else chunk


def test_cascade_invariants_over_chunked_adds():
    rng = random.Random(31)
    for _ in range(200):
        g, phi = _random_case(rng)
        adj, state, before, seeds = adj_lists(g), Cascade(g, phi), set(), []
        assert all(state.need)  # before the first add nothing is settled, phi = 0 vertices included
        for _ in range(rng.randint(1, 4)):
            chunk = _chunk(rng, g.n)
            waves = state.add(chunk)
            seeds += chunk
            _assert_settled(g, phi, state, seeds)
            # an add returns its own waves, round r at index r: the synchronous rounds from the old hull plus the chunk
            assert waves and all(waves[1:])
            joined = {u: r for u, r in naive_rounds(adj, phi, before | set(chunk)).items() if u not in before}
            assert {u: r for r, wave in enumerate(waves) for u in wave} == joined
            active = _settled(state)
            assert active == before | joined.keys()
            assert state.size == len(active) == len(before) + sum(map(len, waves))
            for u in set(range(g.n)) - active:
                assert state.need[u] == phi[u] - sum(v in active for v in adj[u])
            before = active


def test_fork_and_parent_stay_apart():
    def snapshot(state: Cascade):
        return list(state.need), state.size

    rng = random.Random(37)
    for _ in range(150):
        g, phi = _random_case(rng)
        if not g.n:
            continue
        picks = [_chunk(rng, g.n) for _ in range(3)]
        parent = Cascade(g, phi)
        parent.add(picks[0])
        kept = snapshot(parent)
        twin = parent.fork()
        twin.add(picks[1])
        _assert_settled(g, phi, twin, picks[0] + picks[1])
        twin.add(picks[2])
        _assert_settled(g, phi, twin, picks[0] + picks[1] + picks[2])
        assert snapshot(parent) == kept
        _assert_settled(g, phi, parent, picks[0])
        fresh = Cascade(g, phi)
        for chunk in picks:
            fresh.add(chunk)
        assert snapshot(twin) == snapshot(fresh)
        parent.add(picks[2])
        _assert_settled(g, phi, parent, picks[0] + picks[2])
        assert snapshot(twin) == snapshot(fresh)
        # a fork taken before the first add still activates the phi = 0 vertices on its own first add
        early = Cascade(g, phi).fork()
        assert all(early.need)
        early.add(())
        _assert_settled(g, phi, early, [])


def test_waves_match_the_decrementing_engine_order_included():
    rng = random.Random(47)
    cases = [_random_case(rng, 40) for _ in range(300)]
    g5 = random_girth5(300, 0.012, 3)
    cases += [(g5, proportional_thresholds(g5, rho)) for rho in ("1/2", "1/4", "1/8")]
    for g, phi in cases:
        state, reference = Cascade(g, phi), DecrementingCascade(g, phi)
        for _ in range(rng.randint(1, 5)):
            chunk = [rng.randrange(g.n) for _ in range(rng.randint(0, max(1, g.n // 8)))] if g.n else []
            assert state.add(chunk) == reference.add(chunk)
            assert state.size == reference.size and _settled(state) == {u for u, a in enumerate(reference.active) if a}
            if rng.random() < 0.3:
                state, reference = state.fork(), copy.deepcopy(reference)


def test_is_monopoly_checks_as_hull_does():
    g = generate(GeneratorSpec("path", 3))  # degrees 1, 2, 1
    for phi, seed, message in (
        ((1, 2), [0], "threshold profile has length 2, graph has 3 vertices"),
        ((1, 2.0, 1), [0], "threshold of vertex 1 is not an integer: 2.0"),
        ((1, 1, True), [0], "threshold of vertex 2 is not an integer: True"),
        ((-1, 0, 0), [0], "threshold of vertex 0 is negative"),
        ((1, 3, 1), [5], "threshold of vertex 1 exceeds its degree (3 > 2)"),
        ((1, 1, 1), [3], "seed contains ids outside 0..2"),
        ((1, 1, 1), [0, -1], "seed contains ids outside 0..2"),
        ((1, 1, 1), [True, 2], "seed id True is not an integer"),
        ((1, 1, 1), [1, True], "seed id True is not an integer"),
        ((1, 1, 1), [1.5], "seed id 1.5 is not an integer"),
        ((1, 1, 1), [2.0, 9], "seed id 2.0 is not an integer"),
        ((1, 1, 1), [1, "1"], "seed id '1' is not an integer"),
    ):
        for run in (hull, is_monopoly):
            with pytest.raises(PreconditionError) as info:
                run(g, phi, seed)
            assert str(info.value) == message
    rng = random.Random(41)
    for _ in range(300):
        g, phi = _random_case(rng)
        seed = [u for u in range(g.n) if rng.random() < rng.choice((0.1, 0.3, 0.6))]
        assert is_monopoly(g, phi, seed) == hull(g, phi, seed).is_monopoly
        assert is_monopoly(g, phi, iter(seed)) == (len(naive_hull(adj_lists(g), phi, seed)) == g.n)
        # the ids go on as given: reversed, or with an id repeated, they give the sorted seed's rounds and answer,
        # on a plain profile and on a cached one (its first check plain, the second and third on its quotient)
        rounds, covered = hull(g, phi, seed).rounds, is_monopoly(g, phi, seed)
        cached = proportional_thresholds(g, Fraction(1, rng.randint(1, 4)))
        cached_covered = len(naive_hull(adj_lists(g), cached, seed)) == g.n
        for other in (seed[::-1], seed + seed[:1]):
            assert hull(g, phi, other).rounds == rounds == naive_rounds(adj_lists(g), phi, other)
            assert is_monopoly(g, phi, other) == covered
            assert [is_monopoly(g, cached, other) for _ in range(3)] == [cached_covered] * 3


def test_high_degree_superset_is_monopoly_on_connected():
    rng = random.Random(23)
    found = 0
    while found < 25:
        n = rng.randint(2, 20)
        g = gnp(n, 3.0 / n, rng)
        if len(connected_components(g)) != 1 or g.m == 0:
            continue
        found += 1
        rho = Fraction(1, rng.randint(1, max(g.degrees, default=0) + 2))
        seed = {u for u, d in enumerate(g.degrees) if d * rho >= 1} | {rng.randrange(n)}
        assert is_monopoly(g, proportional_thresholds(g, rho), seed)


def test_degree_partition_examples():
    # deg >= 1/rho splits the vertices; v2_baseline seeds the high class and greedy_kernel picks inside it
    def partition(g, rho):
        r = to_fraction(rho)
        low = tuple(u for u, d in enumerate(g.degrees) if d * r < 1)
        return low, tuple(u for u in range(g.n) if u not in low)

    pet = petersen()
    low, high = partition(pet, "1/3")
    assert low == () and high == tuple(range(10))
    assert v2_baseline(pet, "1/3").seed == high
    assert set(greedy_kernel(pet, "1/3", "1/2")) <= set(high)

    p20 = generate(GeneratorSpec("path", 20))
    assert partition(p20, "1/10")[1] == ()
    with pytest.raises(PreconditionError, match="1/rho"):
        greedy_kernel(p20, "1/10", "1/2")

    star5 = generate(GeneratorSpec("star", 5))
    low, high = partition(star5, "1/5")
    assert high == (0,)
    assert low == (1, 2, 3, 4, 5)
    assert v2_baseline(star5, "1/5").seed == high
    assert greedy_kernel(star5, "1/5", "1/2") == high
    assert [proportional_thresholds(star5, "1/5")[u] for u in low] == [1] * 5  # low and not isolated: threshold 1

    for bad in (float("nan"), "-inf", 0, "5/3"):
        with pytest.raises(PreconditionError, match="rho"):
            v2_baseline(pet, bad)


def test_is_monopoly_cycle_cases():
    c5 = generate(GeneratorSpec("cycle", 5))
    phi = proportional_thresholds(c5, 1)
    assert is_monopoly(c5, phi, [0, 1, 3])
    assert not is_monopoly(c5, phi, [0, 1])
    assert is_monopoly(c5, phi, range(5))


@st.composite
def profiles_with_seeds(draw):
    """A G(n, p) graph on 1..14 vertices (isolated vertices and several components included), its cached
    proportional profile (phi = deg everywhere at rho 1, and at any rho on degree-1 vertices), and 3 to 5 seeds."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = gnp(draw(st.integers(1, 14)), draw(st.sampled_from((0.1, 0.2, 0.35, 0.6))), rng)
    phi = proportional_thresholds(g, draw(st.sampled_from(("1", "3/4", "1/2", "1/3", "1/4", "1/8"))))
    return g, phi, draw(st.lists(st.sets(st.integers(0, g.n - 1)), min_size=3, max_size=5))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(profiles_with_seeds())
def test_quotient_coverage_matches_plain_cascade(case):
    # the first check of a cached profile runs plain, the second builds its threshold-1 quotient, later ones reuse
    # it: every answer is the plain cascade's
    g, phi, seeds = case
    for seed in seeds:
        plain = Cascade(g, phi)
        plain.add(seed)
        assert is_monopoly(g, phi, seed) == (plain.size == g.n)
    assert len(g._quotients) == 1 and None not in g._quotients.values()  # the quotient was built and used


def test_quotient_keeps_one_entry_per_edge():
    # at rho 1/3 vertex 0 (degree 4) needs 2 hits: the class {1, 2, 3} gives it two, one per edge, each leaf one;
    # the classes come first (by smallest member), then the other vertices, and a class's inner edges are dropped
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5)])
    phi = proportional_thresholds(g, "1/3")
    assert phi == (2, 1, 1, 1, 1, 1)
    q = _quotient(g, phi)
    assert (q.n, q.phi, q.node, q.adj) == (4, [1, 1, 1, 2], [3, 0, 0, 0, 1, 2], ((3, 3), (3,), (3,), (0, 0, 1, 2)))
    for _ in range(3):
        assert is_monopoly(g, phi, [2]) and is_monopoly(g, phi, [4, 5]) and not is_monopoly(g, phi, [4])
    cycle = generate(GeneratorSpec("cycle", 40))  # one class: one node with no entries
    q = _quotient(cycle, proportional_thresholds(cycle, "1/2"))
    assert (q.n, q.phi, set(q.node), q.adj) == (1, [1], {0}, ((),))
    g = from_edges(3, [(0, 1)])  # an isolated vertex has threshold 0: a node of its own with no entries
    q = _quotient(g, proportional_thresholds(g, "1/2"))
    assert (q.n, q.phi, q.node, q.adj) == (2, [1, 0], [0, 0, 1], ((), ()))


def test_quotient_check_allocates_per_node(monkeypatch):
    # every vertex of cycle 2000 has threshold 1 at each rho: after the first (plain) check, each check runs a
    # one-node Cascade on the quotient, not an n-sized one
    cycle = generate(GeneratorSpec("cycle", 2000))
    phi = proportional_thresholds(cycle, "1/8")
    sizes, engine = [], cascade_mod.Cascade
    monkeypatch.setattr(cascade_mod, "Cascade", lambda net, phi: sizes.append(net.n) or engine(net, phi))
    assert [is_monopoly(cycle, phi, seed) for seed in ([5], [7], [], [0, 1999])] == [True, True, False, True]
    assert sizes == [2000, 1, 1, 1]


def test_parse_seed_set():
    assert parse_seed_set("0 2\n# comment\n4 2", 5) == (0, 2, 4)
    assert parse_seed_set("", 5) == ()
    with pytest.raises(InputFormatError) as excinfo:
        parse_seed_set("0\n9", 5)
    assert "line 2" in str(excinfo.value)
    with pytest.raises(InputFormatError):
        parse_seed_set("zero", 5)


def _seed_outcome(text: str, n: int, parse) -> str:
    try:
        return repr(parse(text, n))
    except InputFormatError as exc:
        return f"InputFormatError: {exc}"


def test_parse_seed_set_matches_the_line_walk_on_fuzzed_documents():
    # each token is written with the value int() reads from it, None where int() refuses it; the expected outcome
    # is the first bad or out-of-range token's message with its line number, else the sorted distinct ids
    rng = random.Random(77)
    spellings = [
        lambda u: (str(u), u),
        lambda u: (f"+{u}", u if u >= 0 else None),  # "+-1" is no int
        lambda u: (f"0{u}", u if u >= 0 else None),  # nor is "0-1"
        lambda u: (f"{u}_0", 10 * u),  # an underscore between digits is read
        lambda u: (f"{u}.0", None),
    ]
    padding = [("", []), ("# 9", []), ("  ", []), ("x", [("x", None)])]
    accepted = 0
    for _ in range(2000):
        n = rng.randint(0, 8)
        ids = [rng.randint(-1, n) if rng.random() < 0.05 else rng.randrange(max(n, 1))
               for _ in range(rng.randint(0, 6))]
        tokens = [rng.choice(spellings)(u) if rng.random() < 0.1 else (str(u), u) for u in ids]
        pairs = [tokens[i:i + 2] for i in range(0, len(tokens), 2)]
        lines = [(" ".join(text for text, _ in pair), pair) for pair in pairs]
        if rng.random() < 0.2:
            lines.insert(rng.randint(0, len(lines)), rng.choice(padding))
        text = rng.choice(["\n", "\r\n", "\r"]).join(line for line, _ in lines)
        problems = (f"InputFormatError: line {lineno}: bad vertex id {token!r}" if u is None else
                    f"InputFormatError: line {lineno}: vertex id {u} out of range 0..{n - 1}"
                    for lineno, (_, written) in enumerate(lines, start=1) for token, u in written
                    if u is None or not 0 <= u < n)
        expected = next(problems, None) or repr(tuple(sorted({u for _, written in lines for _, u in written})))
        assert _seed_outcome(text, n, parse_seed_set) == expected, (text, n)
        accepted += expected.startswith("(")
    assert 500 < accepted < 1900


def test_proportional_thresholds_match_the_per_vertex_ceiling():
    rng = random.Random(4)
    rhos = [Fraction(1), Fraction(1, 3), Fraction(999999, 1000000), Fraction(1, 1000000)]
    for _ in range(300):
        g = gnp(rng.randint(0, 40), rng.random(), rng)
        q = rng.randint(1, 1000000)
        for rho in rhos + [Fraction(rng.randint(1, q), q)]:
            assert proportional_thresholds(g, rho) == tuple(math.ceil(rho * d) for d in g.degrees)
