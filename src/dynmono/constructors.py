"""Seed-set constructors for dynamic monopolies.

Four methods, named by their CLI tags:

``abw``
    Random-permutation rule: draw a uniform order pi of the vertices and
    seed every u with fewer than phi(u) neighbors after u in pi.  The seed
    is a monopoly for *every* permutation (activate the rest in decreasing
    pi order), with expected size sum phi(u)/(deg(u)+1).

``girth5``
    Two-phase randomized construction for connected graphs of girth >= 5
    with max degree >= 1/rho.  Phase one deterministically grows a greedy
    kernel of high-degree vertices until every remaining high-degree vertex
    has at most deg/(1+delta) low-degree neighbors outside the kernel's
    hull.  Phase two repeatedly samples vertices outside that hull with
    probability rho/(1-delta) and keeps the samples not already absorbed,
    until the hull covers the graph.  For small enough rho the expected
    total is ((1+delta) + 1/(1-delta)^2) * rho * n; a rejection loop (bounded
    restarts) targets (1+delta) times that, growth_constant(delta) * rho * n.

``tree``
    Recursive splitter for trees of order >= 1/rho: pick the high-degree
    vertex whose removal leaves the largest high-degree-containing branch,
    seed it, recurse into that branch with thresholds recomputed from the
    branch degrees.  Output size is at most floor(rho * n); the split
    vertex is always a Steiner leaf of the high-degree class, which keeps
    the whole run at O(n log n).

``v2``
    Baseline for connected graphs: seed every vertex of degree >= 1/rho
    (all others have threshold 1, so the cascade floods); one vertex when
    none qualifies.

Every constructor hull-verifies its output on a fresh ``Cascade`` before
returning; a failed verification raises, it is never an unverified seed.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .cascade import Cascade, Thresholds, _covers, check_thresholds, proportional_thresholds, to_fraction, to_number
from .errors import PreconditionError
from .graphs import Graph, girth_at_least_five, is_tree
from .seeding import shuffled_range, stable_seed

DELTA_CAP = min(math.exp(-0.25), 0.5)
"""Upper limit for the slack parameter delta (equals 0.5), and its value when no epsilon is given."""
EMPTY: Mapping = MappingProxyType({})  # the read-only default of MonopolySeed.params and bench.MethodSpec.options


def check_delta(delta: Fraction | int | str | float) -> Fraction:
    """The slack parameter as an exact Fraction in (0, DELTA_CAP]; PreconditionError otherwise."""
    return to_fraction(delta, "delta", Fraction(DELTA_CAP))


def check_epsilon(epsilon: float | int | str) -> float:
    """The size budget epsilon as a finite float above 0; PreconditionError otherwise."""
    e = to_number(epsilon, "epsilon", float)
    if not 0 < e < math.inf:
        raise PreconditionError(f"epsilon must be a finite number above 0, got {e}")
    return e


def check_count(value: object, name: str) -> int:
    """A count as a non-negative int; PreconditionError naming ``name`` otherwise."""
    if (count := to_number(value, name)) < 0:
        raise PreconditionError(f"{name} must be non-negative, got {count}")
    return count


def _flag(value: object, name: str) -> bool:
    if not isinstance(value, bool):
        raise PreconditionError(f"{name} must be a boolean, got {value}")
    return value


# The girth5 options, name -> (default, check), read through girth5_options by girth5_construct, the CLI
# and the bench.  A None delta is derived from epsilon, a None max_rounds is default_round_count(n, delta).
GIRTH5_OPTIONS: dict[str, tuple[object, Callable[[object], object]]] = {
    "delta": (None, check_delta),
    "epsilon": (None, check_epsilon),
    "max_rounds": (None, lambda value: check_count(value, "max_rounds")),
    "max_restarts": (0, lambda value: check_count(value, "max_restarts")),
    "allow_low_girth": (False, lambda value: _flag(value, "allow_low_girth")),
}


def girth5_options(values: dict) -> dict:
    """Each girth5 option in ``values`` checked, or its default when absent or None; other keys are ignored."""
    return {
        name: default if values.get(name) is None else check(values[name])
        for name, (default, check) in GIRTH5_OPTIONS.items()
    }


def growth_constant(delta: Fraction | float) -> Fraction | float:
    """Seed-size inflation factor (1+d)^2 + (1+d)/(1-d)^2; equals 2 at d = 0, exact for a Fraction d."""
    return (1 + delta) ** 2 + (1 + delta) / (1 - delta) ** 2


def rho_upper_bound(delta: float) -> float:
    """Largest rho for which the girth5 size guarantee is proven at this delta."""
    p2 = activation_probability(delta)
    return delta / (1.0 + delta) * p2 / (8.0 * math.log(1.0 / delta))


def activation_probability(delta: float) -> float:
    """Per-round lower bound 1 - exp(-delta^2 / (2(1-delta))) on absorbing a holdout neighbor."""
    return 1.0 - math.exp(-delta * delta / (2.0 * (1.0 - delta)))


def default_round_count(n: int, delta: float) -> int:
    """Smallest k with delta^k * n + 1/(1+delta) < 1, counting up from k = 1, for n >= 1 and delta in (0, 1/2].

    With per-round survival delta, after k such rounds the expected number
    of inactive vertices plus the rejection mass drops below 1, which is
    what the first-moment acceptance test needs.  The domain is check_delta's,
    so the count takes at most log2(n) + 2 steps.
    """
    if n < 1:
        raise PreconditionError("round count needs n >= 1")
    check_delta(delta)
    threshold = delta / (1.0 + delta)
    k = 1
    while delta**k * n >= threshold:
        k += 1
    return k


class Girth5Params(NamedTuple):
    """Derived parameters of the girth5 construction for a target overhead 2+epsilon.

    ``delta`` is the largest slack value (capped at DELTA_CAP) whose growth
    constant stays within 2+epsilon; ``rho_max`` is the proven validity
    range for rho at that delta; ``p2`` the per-round absorption bound.
    """

    epsilon: float
    delta: float
    rho_max: float
    p2: float


def girth5_params(epsilon: float) -> Girth5Params:
    """Resolve epsilon -> (delta, rho_max, p2) by bisecting the growth constant.

    The growth constant is strictly increasing in delta, so the unique root
    of growth(delta) = 2+epsilon is bracketed on (0, DELTA_CAP] and bisected
    to absolute tolerance 1e-9; if even DELTA_CAP satisfies the budget, the
    cap itself is used.  epsilon is read with the GIRTH5_OPTIONS check.
    """
    epsilon = check_epsilon(epsilon)
    target = 2.0 + epsilon
    if growth_constant(DELTA_CAP) <= target:
        delta = DELTA_CAP
    else:
        lo, hi = 0.0, DELTA_CAP
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if growth_constant(mid) <= target:
                lo = mid
            else:
                hi = mid
        delta = 0.5 * (lo + hi)
    return Girth5Params(epsilon, delta, rho_upper_bound(delta), activation_probability(delta))


class RoundRecord(NamedTuple):
    """One sampling round: how many vertices were drawn, which ones were new, hull size after."""

    sampled: int
    added: tuple[int, ...]
    hull_size: int


class Girth5Trace(NamedTuple):
    """Round-by-round record of a girth5 construction run."""

    kernel: tuple[int, ...]
    kernel_hull_size: int
    rounds: tuple[RoundRecord, ...]
    fallback_used: bool
    restarts: int

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "rounds": [r._asdict() for r in self.rounds]}


class MonopolySeed(NamedTuple):
    """A constructed seed with provenance; ``verified`` is set only after a hull check (``_verified``), and
    ``params`` records ``rng_seed`` exactly when the method draws random bits (abw, girth5)."""

    method: str
    seed: tuple[int, ...]
    params: Mapping = EMPTY
    verified: bool = False
    trace: Girth5Trace | None = None

    @property
    def size(self) -> int:
        return len(self.seed)

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method,
            "params": dict(self.params),
            "seed": list(self.seed),
            "size": self.size,
            "verified": self.verified,
        }
        if self.trace is not None:
            out["trace"] = self.trace.to_json_dict()
        return out


def _verified(g: Graph, phi: Thresholds, method: str, seed: tuple[int, ...], params: dict,
              trace: Girth5Trace | None = None) -> MonopolySeed:
    """The seed's record, marked verified once a fresh Cascade from the seed covers the graph (``cascade._covers``:
    from a cached profile's second check on, the cascade runs on its threshold-1 quotient)."""
    if not _covers(g, phi, seed):
        raise AssertionError(f"{method} produced a non-monopoly seed")
    return MonopolySeed(method=method, seed=seed, params=params, verified=True, trace=trace)


def abw_construct(g: Graph, phi: Thresholds, rng_seed: int = 0) -> MonopolySeed:
    """Random-permutation seed: shuffle the vertices and seed u iff fewer than phi(u) neighbors come after u.

    The order is exactly ``random.Random(rng_seed).shuffle``'s, from ``shuffled_range``.

    Activating the other vertices in reverse order witnesses a monopoly for
    every order: each has at least phi(u) neighbors later in the order, all
    already active.  The expected size is exact.abw_bound(g, phi).
    """
    check_thresholds(g, phi)
    adj, need, seed = g.adj, list(phi), []
    for u in reversed(shuffled_range(g.n, rng_seed)):  # need[u]: phi(u) less the neighbors walked (after u), >= 0
        if need[u]:
            seed.append(u)
            need[u] = 0
        for v in adj[u]:
            k = need[v]
            if k:  # a walked or satisfied neighbor (need 0) costs this one read
                need[v] = k - 1
    return _verified(g, phi, "abw", tuple(sorted(seed)), {"rng_seed": rng_seed})


def greedy_kernel(
    g: Graph,
    rho: Fraction | int | str | float,
    delta: Fraction | int | str | float,
) -> tuple[int, ...]:
    """Deterministic greedy start set of high-degree vertices.

    Repeatedly add the smallest-id high-degree vertex u (deg >= 1/rho) that
    still has more than deg(u)/(1+delta) low-degree neighbors outside the
    current kernel hull.  Each addition absorbs more than 1/((1+delta)rho)
    new vertices into the hull, so at termination the kernel has at most
    (1+delta) * rho * n vertices and every remaining high-degree vertex has
    at most deg/(1+delta) unabsorbed low-degree neighbors.  Both exit
    properties are asserted; comparisons are exact rational arithmetic.

    The kernel hull only grows, so a vertex that fails the test once fails
    it for good and each pick has a larger id than the last: one forward
    pass over the high-degree vertices, extending one ``Cascade`` per pick,
    chooses the same kernel in O(n + m).
    """
    r = to_fraction(rho)
    d = check_delta(delta)
    degrees, p, q = g.degrees, r.numerator, r.denominator
    high = [u for u, deg in enumerate(degrees) if deg * p >= q]  # deg >= 1/rho, exactly
    if not high:
        raise PreconditionError("no vertex of degree >= 1/rho: greedy kernel undefined")
    dp, dq = d.numerator, d.denominator  # count > deg/(1+d)  <=>  count*(dp+dq) > deg*dq
    low = bytearray(deg * p < q for deg in degrees)  # the complement of high, as a mask
    state = Cascade(g, proportional_thresholds(g, r))  # its phi = 0 vertices are isolated: no one's neighbors
    absorbed = state.active

    def holds_out(u: int) -> bool:
        cnt = sum(1 for v in g.adj[u] if low[v] and not absorbed[v])
        return cnt * (dp + dq) > degrees[u] * dq

    kernel: list[int] = []
    for u in high:
        if holds_out(u):
            kernel.append(u)
            state.add((u,))
    if any(map(holds_out, high)):  # kernel vertices pass: their low neighbors are absorbed
        raise AssertionError("kernel terminated non-maximally")
    if len(kernel) > (1 + d) * r * g.n:
        raise AssertionError("kernel exceeded (1+delta)*rho*n")
    return tuple(kernel)


def _girth5_prefix(g: Graph, r: Fraction, d: Fraction) -> tuple[tuple[int, ...], Thresholds, Cascade, tuple[int, ...]]:
    """girth5's deterministic prefix, cached on ``g`` per (rho, delta): the kernel, phi, the kernel's closed Cascade
    and the vertices outside its hull.  Nothing adds to the cached Cascade: every attempt extends a fork of it."""
    prefixes = g._girth5_prefixes
    if (r, d) not in prefixes:
        kernel = greedy_kernel(g, r, d)  # also checks max degree >= 1/rho; a refusal caches nothing
        phi = proportional_thresholds(g, r)
        base = Cascade(g, phi)
        base.add(kernel)
        pool = tuple(u for u in range(g.n) if not base.active[u])  # every round samples from outside the kernel's hull
        prefixes[r, d] = (kernel, phi, base, pool)
    return prefixes[r, d]


def _sampling_rounds(
    g: Graph,
    base: Cascade,
    kernel: tuple[int, ...],
    pool: tuple[int, ...],
    p1: float,
    max_rounds: int,
    rng: random.Random,
) -> tuple[tuple[int, ...], tuple[RoundRecord, ...], bool]:
    """One full run of the random rounds, extending a fork of ``base``, the kernel's closed cascade."""
    state = base.fork()
    seed, raw = list(kernel), list(kernel)
    records: list[RoundRecord] = []
    while state.size < g.n and len(records) < max_rounds:
        xi = [u for u in pool if rng.random() < p1]
        yi = tuple(u for u in xi if not state.active[u])
        seed.extend(yi)
        raw.extend(xi)
        state.add(yi)
        # discarded samples are exactly the absorbed ones: a from-scratch hull of kernel + raw samples must agree
        check = Cascade(g, state.phi)
        check.add(raw)
        if check.active != state.active:
            raise AssertionError("raw-sample hull diverged from seed hull")
        records.append(RoundRecord(sampled=len(xi), added=yi, hull_size=state.size))
    fallback = state.size < g.n  # then every vertex still inactive is added
    if fallback:
        seed.extend(u for u in range(g.n) if not state.active[u])
    return tuple(sorted(seed)), tuple(records), fallback


def girth5_construct(
    g: Graph,
    rho: Fraction | int | str | float,
    delta: Fraction | int | str | float | None = None,
    rng_seed: int = 0,
    max_rounds: int | None = None,
    max_restarts: int | None = None,
    *,
    allow_low_girth: bool | None = None,
    epsilon: float | None = None,
) -> MonopolySeed:
    """Greedy kernel plus independent sampling rounds; always returns a verified monopoly.

    Preconditions: connected, max degree >= 1/rho, girth >= 5 (bypass with
    ``allow_low_girth``; the procedure stays well-defined, only the proven
    size bound needs the girth), and rho <= 1-delta so the sampling
    probability is a probability.

    The options (``delta``, ``epsilon``, ``max_rounds``, ``max_restarts``,
    ``allow_low_girth``) are read through GIRTH5_OPTIONS, as the CLI and the
    bench read theirs: None means the default, and a bad value raises
    PreconditionError naming it, whether or not the option is used (an
    epsilon next to a delta is checked too).  ``delta`` defaults to
    girth5_params(epsilon).delta, else (no epsilon) to DELTA_CAP = 1/2.
    ``max_rounds`` defaults to the smallest k with delta^k * n + 1/(1+delta) < 1.
    If the rounds are exhausted before the hull covers the graph, all
    remaining inactive vertices are added (``fallback_used``).  When
    ``max_restarts`` > 0 and the seed exceeds the first-moment size target
    growth_constant(delta) * rho * n, the sampling phase is re-run on a
    fresh stream, keeping the best attempt.

    The deterministic prefix (the greedy kernel, phi, the kernel's closed
    Cascade and the vertices outside its hull) is cached on the graph per
    (rho, delta), so repeated calls on one graph object, such as a bench
    cell's trials, build the kernel once and only the sampling rounds draw
    per call; an equal but distinct graph builds its own.  The
    preconditions are checked on every call, in the same order.

    The theoretical validity flags (delta within cap, rho within the proven
    range, growth constant within 2+epsilon) are reported in ``params``;
    they are never hard gates because desk-scale instances sit far outside
    the proven rho range.
    """
    r = to_fraction(rho)
    options = girth5_options(dict(delta=delta, epsilon=epsilon, max_rounds=max_rounds, max_restarts=max_restarts,
                                  allow_low_girth=allow_low_girth))
    epsilon, max_restarts = options["epsilon"], options["max_restarts"]
    d = options["delta"] or check_delta(girth5_params(epsilon).delta if epsilon is not None else DELTA_CAP)
    if g.n < 1 or not g.is_connected:
        raise PreconditionError("girth5 construction requires a connected, nonempty graph")
    if r > 1 - d:
        raise PreconditionError(f"sampling probability rho/(1-delta) exceeds 1 for rho={r}, delta={d}")
    if not options["allow_low_girth"] and not girth_at_least_five(g):
        raise PreconditionError("graph has a cycle of length 3 or 4; pass allow_low_girth to proceed")
    kernel, phi, base, pool = _girth5_prefix(g, r, d)
    fd = float(d)
    p1 = float(r) / (1.0 - fd)
    rounds_cap = default_round_count(g.n, fd) if options["max_rounds"] is None else options["max_rounds"]
    size_target = growth_constant(d) * r * g.n
    best: tuple[tuple[int, ...], tuple[RoundRecord, ...], bool] | None = None
    for restarts in range(max_restarts + 1):  # max_restarts >= 0, so restarts is bound after the loop
        rng = random.Random(stable_seed(rng_seed, "attempt", restarts))
        result = _sampling_rounds(g, base, kernel, pool, p1, rounds_cap, rng)
        if best is None or len(result[0]) < len(best[0]):
            best = result
        if len(result[0]) <= size_target:
            break
    assert best is not None
    seed, records, fallback = best
    trace = Girth5Trace(kernel, base.size, records, fallback, restarts)
    params = {
        "rho": str(r),
        "delta": str(d),
        "rng_seed": rng_seed,
        "max_rounds": rounds_cap,
        "max_restarts": max_restarts,
        "rounds_used": len(records),
        "fallback_used": fallback,
        "restarts": restarts,
        "p1": p1,
        "p2": activation_probability(fd),
        "size_target": float(size_target),
        "theory": {
            "delta_within_cap": fd <= DELTA_CAP + 1e-12,
            "rho_within_proven_range": float(r) <= rho_upper_bound(fd),
            "epsilon": epsilon,
            "growth_within_budget": (
                growth_constant(fd) <= 2.0 + epsilon + 1e-9 if epsilon is not None else None
            ),
        },
    }
    return _verified(g, phi, "girth5", seed, params, trace)


def tree_construct(t: Graph, rho: Fraction | int | str | float) -> MonopolySeed:
    """Recursive tree seed of size at most floor(rho * n) for trees of order >= 1/rho.

    With zero or one high-degree vertices the answer is a single vertex
    (the high-degree one, else the smallest-id vertex of maximum degree);
    otherwise seed the high-degree vertex u whose removal leaves the
    largest high-degree-containing branch (ties: smallest id), and recurse
    into that branch with thresholds recomputed from the branch degrees.
    The removed side keeps at least 1/rho vertices, which pays for the
    seeded vertex in the size bound.

    That u is always a leaf of the Steiner tree spanning the high-degree
    vertices: for an inner Steiner vertex, a Steiner leaf on a side other
    than its largest branch leaves a strictly larger branch.  The branch
    left by a Steiner leaf is everything but the leaf and the low-degree
    part hanging off it (its pendant mass), so the rule is "the Steiner
    leaf of smallest pendant mass, then smallest id".  The Steiner tree is
    built once by peeling low-degree leaves onto their neighbors.  A split
    drops the chosen leaf u and its pendant mass, which is what is left of
    u's side of the edge to its one Steiner neighbor x (all peeled onto u;
    earlier seeds took the rest), lowers the degree of x and peels on.
    With the leaves in a (mass, id) heap the whole run costs O(n log n), on
    the original vertex ids; with no high-degree vertex left, the branch is
    x's component of T minus the seeds, walked once.
    """
    r = to_fraction(rho)
    if not is_tree(t):
        raise PreconditionError("tree construction requires a tree")
    p, q = r.numerator, r.denominator
    if t.n * p < q:
        raise PreconditionError(f"tree order {t.n} is below 1/rho = {q}/{p}")
    n = t.n
    adj = t.adj
    deg = list(t.degrees)  # degree in the current branch
    high = bytearray(1 if d * p >= q else 0 for d in deg)
    n_high = sum(high)
    n_alive = n
    in_steiner = bytearray(b"\x01") * n
    steiner_deg = deg[:]
    mass = [1] * n

    def peel(v: int) -> int:
        """Peel low Steiner leaves from v onward; return where the peeling stopped."""
        while not high[v] and steiner_deg[v] == 1:
            for y in adj[v]:
                if in_steiner[y]:
                    break
            in_steiner[v] = 0
            mass[y] += mass[v]
            steiner_deg[y] -= 1
            v = y
        return v

    for v in range(n):
        if in_steiner[v]:
            peel(v)
    leaves = [(mass[v], v) for v in range(n) if in_steiner[v] and steiner_deg[v] == 1]
    heapq.heapify(leaves)
    seed: list[int] = []
    x = 0  # a vertex of the current branch
    while True:
        if n_high == 1:
            seed.append(high.index(1))
            break
        if n_high == 0:  # the branch is x's component of t minus the seeds: every cut was made at a seed
            branch, seeds = [(x, x)], set(seed)  # (vertex, its walk parent): in a tree no other vertex repeats
            for a, parent in branch:
                branch += [(b, a) for b in adj[a] if b != parent and b not in seeds]
            seed.append(min((-deg[v], v) for v, _ in branch)[1])  # largest degree, then smallest id
            break
        _, u = heapq.heappop(leaves)
        seed.append(u)
        # u is a Steiner leaf: x is its one Steiner neighbor, and the rest
        # of u's side of the edge u-x (its pendant part) leaves with it
        for x in adj[u]:
            if in_steiner[x]:
                break
        in_steiner[u] = 0
        high[u] = 0
        n_high -= 1
        n_alive -= mass[u]
        # x is the only survivor that lost a neighbor, so only x can turn low
        deg[x] -= 1
        steiner_deg[x] -= 1
        if high[x] and deg[x] * p < q:
            high[x] = 0
            n_high -= 1
        if n_alive * p < q:
            raise AssertionError("branch dropped below 1/rho")
        x = peel(x)
        if high[x] and steiner_deg[x] == 1:
            heapq.heappush(leaves, (mass[x], x))
    seed_t = tuple(sorted(seed))
    if len(seed_t) * q > t.n * p:
        raise AssertionError("tree seed exceeded floor(rho*n)")
    return _verified(t, proportional_thresholds(t, r), "tree", seed_t, {"rho": str(r)})


def v2_baseline(g: Graph, rho: Fraction | int | str | float) -> MonopolySeed:
    """Seed the whole high-degree class (degree >= 1/rho), or one vertex if it is empty.

    On a connected graph every vertex outside the class has threshold 1, so
    any nonempty superset of the class floods the graph.
    """
    r = to_fraction(rho)
    if g.n < 1 or not g.is_connected:
        raise PreconditionError("high-degree baseline requires a connected, nonempty graph")
    p, q = r.numerator, r.denominator
    high = tuple(u for u, d in enumerate(g.degrees) if d * p >= q)  # deg >= 1/rho, exactly
    return _verified(g, proportional_thresholds(g, r), "v2", high or (0,), {"rho": str(r)})


# Method name -> builder(g, rho, rng_seed, **options), the one dispatch of the CLI and the bench.
# Only girth5 reads the options (girth5_construct's keywords).  Builders look constructors up at
# call time, so wrappers on those names see every call.
BUILDERS: dict[str, Callable[..., MonopolySeed]] = {
    "abw": lambda g, rho, rng_seed, **_: abw_construct(g, proportional_thresholds(g, rho), rng_seed=rng_seed),
    "girth5": lambda g, rho, rng_seed, **options: girth5_construct(g, rho, rng_seed=rng_seed, **options),
    "tree": lambda g, rho, rng_seed, **_: tree_construct(g, rho),
    "v2": lambda g, rho, rng_seed, **_: v2_baseline(g, rho),
}
