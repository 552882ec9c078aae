"""Degree-proportional thresholds and the activation hull operator.

The dynamics: every vertex u carries an integer threshold phi(u); starting
from a seed set, a vertex becomes active as soon as at least phi(u) of its
neighbors are active, and never deactivates.  The hull of a seed is the
unique smallest closed superset, i.e. the final active set.  A seed whose
hull is the whole vertex set is a dynamic monopoly (perfect target set).

All propagation runs on one incremental engine, ``Cascade``: ``add(T)`` on
a state closed at hull(S) leaves hull(S | T), since every closed superset of
S | T contains hull(S) | T.  A state keeps residual needs and the active count alone; each add returns its own
activation waves.  A need of 0 marks a settled vertex (seeded, queued or active), so a closed state's hull is its
zero needs; a relaxation counts down only a waiting vertex, a hit on a settled one costs one read, and an add costs
the degrees of the vertices it activates.  ``hull``, the checked entry, is one add on a fresh state, and
``is_monopoly``, the one seed check (the constructors' too), runs its checks and asks only for coverage, with no record.
The package runs states unchecked only in the greedy kernel and the forks for girth5 attempts and exact-search prefixes.

Coverage checks by ``is_monopoly`` that come back to one profile cached by
``proportional_thresholds`` run on its threshold-1 quotient, a compact graph on nodes 0..k-1 with its own profile:
each connected class of threshold-1 vertices is one node of threshold 1, every other vertex one node of its own
threshold, and each edge between different nodes keeps one adjacency entry, so a node may list another twice.  It is
exact: a closed set holding one member of a class holds the whole class, so hull(D) is V exactly when the cascade
from D's image covers every node.  The first check runs plain, the second builds the quotient and caches it on the
graph, later ones reuse it, each in O(k + m') for its m' entries; any other profile always runs plain.

Thresholds of the proportional family are phi(u) = ceil(rho * deg(u)) for a
rational rho in (0, 1].  All threshold arithmetic is exact: rho is a
`fractions.Fraction`, and the ceiling is computed in integer arithmetic, so
the tight cases (rho * deg integral) are never corrupted by float rounding.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from .errors import InputFormatError, PreconditionError
from .graphs import Graph, connected_components

Thresholds = Sequence[int]
T = TypeVar("T")


def to_fraction(value: Fraction | int | str | float, name: str = "rho", upper: Fraction = Fraction(1)) -> Fraction:
    """The one way a rational enters the package: ``value`` as an exact Fraction in (0, upper].

    Takes a Fraction, an int, a "P/Q" or decimal string ("0.3" is exactly
    3/10) or a float, read through its shortest repr (0.1 is 1/10).  Anything
    else, booleans, NaN and infinities included, raises PreconditionError
    naming ``name``, as does a value whose reduced numerator or denominator has more digits than str() prints, the
    limit sys.get_int_max_str_digits(); a decimal exponent above it (4300, CPython's default, on a 3.10 older than
    3.10.7, which lacks the function) is refused before Fraction builds 10**exponent.  A value out of range whose
    text runs past 50 characters is named by its side of the range and its length, an unreadable one by its length.
    """
    exact = type(value) in (Fraction, int)  # bools take the str path
    digits = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    try:
        _, e, exponent = ("" if exact else str(value).lower()).rpartition("e")
        if e and 0 < digits < abs(int(exponent)):
            raise ValueError("decimal exponent too large")
        r = Fraction(value) if exact else Fraction(str(value))
        text = str(r)  # a ValueError past the digit limit
    except (ValueError, ZeroDivisionError):
        size = 0 if exact else len(str(value))
        shown = (f"of more than {digits} digits" if exact  # an exact value fails only on its digits
                 else repr(value) if size <= 50 else f"written in {size} characters")
        raise PreconditionError(f"cannot interpret {name} {shown} as a rational") from None
    if not 0 < r <= upper:
        side = "below 0" if r < 0 else f"above {upper}"
        shown = text if len(text) <= 50 else f"a value {side} written in {len(text)} characters"
        raise PreconditionError(f"{name} must lie in (0, {upper}], got {shown}")
    return r


def to_number(value: object, name: str, kind: type = int) -> int | float:
    """The one number rule: ``value`` as an int, or a float with ``kind=float``; PreconditionError naming ``name``
    otherwise.  A float is an integer only when exact (4.0 is 4, 2.5 is refused); booleans and NaN are refused."""
    try:
        number = kind(value)
        if isinstance(value, bool) or number != number or isinstance(value, float) and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise PreconditionError(f"{name} must be {what}, got {value}") from None


def check_count(value: object, name: str) -> int:
    """A count as a non-negative int; PreconditionError naming ``name`` otherwise."""
    if (count := to_number(value, name)) < 0:
        raise PreconditionError(f"{name} must be non-negative, got {count}")
    return count


def from_input(convert: Callable[[object], T], value: object) -> T:
    """Apply a converter to a value read from a file or a command line: a bad one is an InputFormatError."""
    try:
        return convert(value)
    except PreconditionError as exc:
        raise InputFormatError(str(exc)) from None


def from_file(path: str | Path, what: str, parse: Callable[[str], T]) -> T:
    """Read a UTF-8 text file and parse it; a failed read or decode, or a ``parse`` InputFormatError, names ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return parse(text)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def parse_rho(text: str) -> Fraction:
    """Read a rho argument ("P/Q" or decimal) with ``to_fraction``; a bad one is an InputFormatError."""
    return from_input(to_fraction, text)


def proportional_thresholds(g: Graph, rho: Fraction | int | str | float) -> tuple[int, ...]:
    """phi(u) = ceil(rho * deg(u)), computed as (p*d + q - 1) // q in exact integers, once per distinct degree.
    Cached on ``g`` per exact rho: equal rhos ("1/2", 0.5, Fraction(1, 2)) return the same tuple."""
    r = to_fraction(rho)
    profiles = g._profiles
    if r not in profiles:
        p, q = r.numerator, r.denominator
        ceiling = {d: (p * d + q - 1) // q for d in set(g.degrees)}
        profiles[r] = tuple(map(ceiling.__getitem__, g.degrees))
    return profiles[r]


def check_thresholds(g: Graph, phi: Thresholds) -> None:
    """Reject threshold profiles outside the supported domain.

    Profiles with phi(u) > deg(u) are rejected rather than given ad-hoc
    semantics: such a vertex could never activate by cascade.  A profile that
    ``proportional_thresholds`` cached on g, the same object, passes unwalked;
    any other is walked, and the first bad vertex is named.
    """
    if any(phi is t for t in g._profiles.values()):  # ceil(rho * d) lies in [0, d]
        return
    if len(phi) != g.n:
        raise PreconditionError(f"threshold profile has length {len(phi)}, graph has {g.n} vertices")
    for u, (t, d) in enumerate(zip(phi, g.degrees)):
        if not isinstance(t, int) or isinstance(t, bool):
            raise PreconditionError(f"threshold of vertex {u} is not an integer: {t!r}")
        if t < 0:
            raise PreconditionError(f"threshold of vertex {u} is negative")
        if t > d:
            raise PreconditionError(f"threshold of vertex {u} exceeds its degree ({t} > {d})")


class CascadeResult(NamedTuple):
    """Final active set with per-vertex activation rounds.

    Rounds are synchronous generations: seeds are round 0, and round r+1
    activates every vertex with enough active neighbors after round r.  The
    rounds are diagnostic only; the active set itself is order-independent.
    """

    active: frozenset[int]
    rounds: dict[int, int]
    is_monopoly: bool

    def to_json_dict(self) -> dict:
        return {
            "active": sorted(self.active),
            "rounds": {str(u): r for u, r in sorted(self.rounds.items())},
            "is_monopoly": self.is_monopoly,
        }


class Cascade:
    """Residual needs and active count on one graph and threshold profile.

    ``need[u]`` is phi(u) less u's active neighbours while u waits, and 0 exactly when u is settled (seeded, queued
    or active): u is queued once, on the hit that brings it to 0, and no later hit moves it.  A phi <= 0 vertex
    starts at need 1 and waits for the first add, which readies it at round 1 unless that add seeds it (round 0).
    So after an add the hull is the set of zero needs, and two closed states have equal needs iff equal hulls;
    ``size`` counts the active.  Each add costs the degrees of the vertices it activates and ends on the hull of
    all seeds so far.  Ids and thresholds go unchecked.
    """

    def __init__(self, g: Graph, phi: Thresholds):
        self.adj = g.adj
        self.phi = phi
        self._zero = [u for u, t in enumerate(phi) if t <= 0] if min(phi, default=1) <= 0 else None
        self.need = [max(t, 1) for t in phi] if self._zero else list(phi)  # phi <= 0 waits for the first add
        self.size = 0

    def fork(self) -> Cascade:
        """An independent copy of this state: adds to either leave the other as it was."""
        twin = Cascade.__new__(Cascade)
        twin.adj, twin.phi, twin._zero, twin.size, twin.need = self.adj, self.phi, self._zero, self.size, self.need[:]
        return twin

    def add(self, seeds: Iterable[int]) -> list[list[int]]:
        """Activate ``seeds``, close under the thresholds and return this add's waves, round r at index r.

        Rounds count the synchronous waves of this add: new seeds are round
        0, and vertices with phi <= 0 join at round 1 of the first add.  A
        neighbour hit reads need[v] and counts it down only while v waits.
        """
        adj, need = self.adj, self.need
        wave = []
        for u in seeds:
            if need[u]:
                need[u] = 0
                wave.append(u)
        # a vertex is ready once: phi <= 0 ones here, zeroed before any relaxation, the rest when their need reaches 0
        ready = [u for u in self._zero if need[u]] if self._zero else []
        for u in ready:
            need[u] = 0
        self._zero = None
        waves = []
        while True:
            waves.append(wave)
            self.size += len(wave)
            for u in wave:
                for v in adj[u]:
                    k = need[v]
                    if k:  # waiting: count down; a settled vertex (need 0) costs this one read
                        need[v] = k - 1
                        if k == 1:
                            ready.append(v)
            if not ready:
                return waves
            wave, ready = ready, []  # the order within a wave changes no vertex's round


def _quotient(g: Graph, phi: Thresholds) -> SimpleNamespace:
    """The threshold-1 quotient as a compact graph with its own profile: nodes 0..k-1 are the connected classes of
    threshold-1 vertices (``connected_components`` order), then every other vertex, ascending.  ``node`` maps a
    vertex to its node, ``phi`` is 1 on a class and the vertex's own threshold elsewhere, and a node's row lists
    ``node[v]`` for each edge (u, v) that leaves it, so a row may repeat a node; ``Cascade`` reads ``adj``, and
    ``is_monopoly`` ``n``, as a Graph's."""
    blocks = connected_components(g, [t == 1 for t in phi]) + [[u] for u, t in enumerate(phi) if t != 1]
    node, adj = [0] * g.n, g.adj
    for k, block in enumerate(blocks):
        for u in block:
            node[u] = k
    rows = tuple([tuple([node[v] for u in block for v in adj[u] if node[v] != k]) for k, block in enumerate(blocks)])
    return SimpleNamespace(n=len(blocks), adj=rows, phi=[phi[block[0]] for block in blocks], node=node)


def _checked(g: Graph, phi: Thresholds, seed: Iterable[int]) -> tuple[int, ...]:
    """``seed`` as a tuple of the caller's ids, in the caller's order, after ``hull``'s checks of thresholds and ids."""
    check_thresholds(g, phi)
    ids = tuple(seed)
    if not set(map(type, ids)) <= {int}:  # bools and floats included: name the first such id
        bad = next(u for u in ids if type(u) is not int)
        raise PreconditionError(f"seed id {bad!r} is not an integer")
    if ids and (min(ids) < 0 or max(ids) >= g.n):
        raise PreconditionError(f"seed contains ids outside 0..{g.n - 1}")
    return ids


def hull(g: Graph, phi: Thresholds, seed: Iterable[int]) -> CascadeResult:
    """The activation hull of ``seed``, thresholds and ids checked: one ``Cascade.add`` on a fresh state.
    Vertices with phi = 0 are in every hull and join at round 1 unless seeded."""
    rounds = {u: r for r, wave in enumerate(Cascade(g, phi).add(_checked(g, phi, seed))) for u in wave}
    return CascadeResult(active=frozenset(rounds), rounds=rounds, is_monopoly=len(rounds) == g.n)


def is_monopoly(g: Graph, phi: Thresholds, seed: Iterable[int]) -> bool:
    """True iff the hull of ``seed`` covers every vertex, with no record: ``hull``'s checks, then a fresh Cascade
    from the seed, plain or, from the second check of a profile cached on g, on its quotient (module docstring)."""
    quotients, net, image = g._quotients, g, _checked(g, phi, seed)
    rho = next((r for r, t in g._profiles.items() if t is phi), None)
    if rho in quotients:
        net = quotients[rho] = quotients[rho] or _quotient(g, phi)
        phi, image = net.phi, map(net.node.__getitem__, image)
    elif rho is not None:
        quotients[rho] = None
    state = Cascade(net, phi)
    state.add(image)
    return state.size == net.n


def parse_seed_set(text: str, n: int) -> tuple[int, ...]:
    """Parse a seed-set document: whitespace-separated 0-based ids, '#' comments; the first bad id is named with
    its line number."""
    ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for token in line.split():
            try:
                u = int(token)
            except ValueError:
                raise InputFormatError(f"line {lineno}: bad vertex id {token!r}") from None
            if not 0 <= u < n:
                raise InputFormatError(f"line {lineno}: vertex id {u} out of range 0..{n - 1}")
            ids.add(u)
    return tuple(sorted(ids))
