"""Degree-proportional thresholds and the activation hull operator.

The dynamics: every vertex u carries an integer threshold phi(u); starting
from a seed set, a vertex becomes active as soon as at least phi(u) of its
neighbors are active, and never deactivates.  The hull of a seed is the
unique smallest closed superset, i.e. the final active set.  A seed whose
hull is the whole vertex set is a dynamic monopoly (perfect target set).

All propagation runs on one incremental engine, ``Cascade``: ``add(T)`` on
a state closed at hull(S) leaves hull(S | T), since every closed superset of
S | T contains hull(S) | T.  ``hull``, the checked entry, is one add on a fresh
state.  The package runs states unchecked: constructor self-checks, the greedy
kernel, girth5 attempts (forks of the kernel's), exact-search prefixes (forks).

Thresholds of the proportional family are phi(u) = ceil(rho * deg(u)) for a
rational rho in (0, 1].  All threshold arithmetic is exact: rho is a
`fractions.Fraction`, and the ceiling is computed in integer arithmetic, so
the tight cases (rho * deg integral) are never corrupted by float rounding.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import InputFormatError, PreconditionError
from .graphs import Graph

Thresholds = Sequence[int]
T = TypeVar("T")


def to_fraction(value: Fraction | int | str | float, name: str = "rho", upper: Fraction = Fraction(1)) -> Fraction:
    """The one way a rational enters the package: ``value`` as an exact Fraction in (0, upper].

    Takes a Fraction, an int, a "P/Q" or decimal string ("0.3" is exactly
    3/10) or a float, read through its shortest repr (0.1 is 1/10).  Anything
    else, booleans, NaN and infinities included, raises PreconditionError
    naming ``name``, as does a decimal exponent above sys.get_int_max_str_digits()
    (the limit a "P/Q" hits in int()), for which Fraction would build 10**exponent.
    """
    exact = type(value) in (Fraction, int)  # bools take the str path
    try:
        _, e, exponent = ("" if exact else str(value).lower()).rpartition("e")
        if e and 0 < sys.get_int_max_str_digits() < abs(int(exponent)):
            raise ValueError("decimal exponent too large")
        r = Fraction(value) if exact else Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"cannot interpret {name} {value!r} as a rational") from None
    if not 0 < r <= upper:
        raise PreconditionError(f"{name} must lie in (0, {upper}], got {r}")
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
    """phi(u) = ceil(rho * deg(u)), computed as (p*d + q - 1) // q in exact integers."""
    r = to_fraction(rho)
    p, q = r.numerator, r.denominator
    return tuple((p * d + q - 1) // q for d in g.degrees)


def check_thresholds(g: Graph, phi: Thresholds) -> None:
    """Reject threshold profiles outside the supported domain.

    Profiles with phi(u) > deg(u) are rejected rather than given ad-hoc
    semantics: such a vertex could never activate by cascade.
    """
    if len(phi) != g.n:
        raise PreconditionError(f"threshold profile has length {len(phi)}, graph has {g.n} vertices")
    for u, (t, d) in enumerate(zip(phi, g.degrees)):
        if not isinstance(t, int) or isinstance(t, bool):
            raise PreconditionError(f"threshold of vertex {u} is not an integer: {t!r}")
        if t < 0:
            raise PreconditionError(f"threshold of vertex {u} is negative")
        if t > d:
            raise PreconditionError(f"threshold of vertex {u} exceeds its degree ({t} > {d})")


@dataclass(frozen=True)
class CascadeResult:
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
    """Active set, active-neighbor counters and rounds on one graph and threshold profile.

    A run of adds ends on the hull of every seed added so far, each add costing
    the degrees of the vertices it activates.  A fresh state is closed after its
    first add.  Neither ids nor thresholds are checked (``hull`` checks both).
    """

    def __init__(self, g: Graph, phi: Thresholds):
        self.adj = g.adj
        self.phi = phi
        self.active = bytearray(g.n)
        self.count = [0] * g.n
        self.rounds: dict[int, int] = {}
        self._zero = [u for u, t in enumerate(phi) if t <= 0]

    def fork(self) -> Cascade:
        """An independent copy of this state: adds to either leave the other as it was."""
        twin = Cascade.__new__(Cascade)
        twin.adj, twin.phi, twin._zero = self.adj, self.phi, self._zero
        twin.active, twin.count, twin.rounds = self.active[:], self.count[:], dict(self.rounds)
        return twin

    def add(self, seeds: Iterable[int]) -> int:
        """Activate ``seeds``, close under the thresholds and return the active count.

        Rounds count the synchronous waves of this add: new seeds are round
        0, and vertices with phi = 0 join at round 1 of the first add.
        """
        adj, phi, active, count, rounds = self.adj, self.phi, self.active, self.count, self.rounds
        wave = []
        for u in seeds:
            if not active[u]:
                active[u] = 1
                rounds[u] = 0
                wave.append(u)
        # a vertex is ready once: phi = 0 ones here, the rest when their count reaches phi
        ready = [u for u in self._zero if not active[u]] if self._zero else []
        self._zero = None
        generation = 0
        while True:
            for u in wave:
                for v in adj[u]:
                    c = count[v] + 1
                    count[v] = c
                    if c == phi[v] and not active[v]:
                        ready.append(v)
            if not ready:
                return len(rounds)
            wave, ready = ready, []  # the order within a wave changes no vertex's round
            generation += 1
            for u in wave:
                active[u] = 1
                rounds[u] = generation


def hull(g: Graph, phi: Thresholds, seed: Iterable[int]) -> CascadeResult:
    """The activation hull of ``seed``, thresholds and ids checked: one ``Cascade.add`` on a fresh state.

    Vertices with phi = 0 are in every hull and join at round 1 unless seeded.
    """
    check_thresholds(g, phi)
    seed_list = sorted(set(seed))
    if seed_list and (seed_list[0] < 0 or seed_list[-1] >= g.n):
        raise PreconditionError(f"seed contains ids outside 0..{g.n - 1}")
    state = Cascade(g, phi)
    size = state.add(seed_list)
    return CascadeResult(active=frozenset(state.rounds), rounds=state.rounds, is_monopoly=size == g.n)


def is_monopoly(g: Graph, phi: Thresholds, seed: Iterable[int]) -> bool:
    """True iff the hull of ``seed`` covers every vertex."""
    return hull(g, phi, seed).is_monopoly


@dataclass(frozen=True)
class DegreePartition:
    """Split of the vertex set by degree against 1/rho.

    ``low`` holds vertices with deg < 1/rho (their proportional threshold is
    1 whenever they have a neighbor); ``high`` holds deg >= 1/rho.  The
    membership test is exact: deg * p >= q for rho = p/q.
    """

    low: tuple[int, ...]
    high: tuple[int, ...]


def degree_partition(g: Graph, rho: Fraction | int | str | float) -> DegreePartition:
    r = to_fraction(rho)
    p, q = r.numerator, r.denominator
    low: list[int] = []
    high: list[int] = []
    for u, d in enumerate(g.degrees):
        (high if d * p >= q else low).append(u)
    return DegreePartition(low=tuple(low), high=tuple(high))


def parse_seed_set(text: str, n: int) -> tuple[int, ...]:
    """Parse a seed-set document: whitespace-separated 0-based ids, '#' comments."""
    ids: set[int] = set()
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
