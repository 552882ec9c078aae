"""Degree-proportional thresholds and the activation hull operator.

The dynamics: every vertex u carries an integer threshold phi(u); starting
from a seed set, a vertex becomes active as soon as at least phi(u) of its
neighbors are active, and never deactivates.  The hull of a seed is the
unique smallest closed superset, i.e. the final active set.  A seed whose
hull is the whole vertex set is a dynamic monopoly (perfect target set).

All propagation runs on one incremental engine, ``Cascade``: ``add(T)`` on
a state closed at hull(S) leaves hull(S | T), since every closed superset of
S | T contains hull(S) | T.  A state keeps the active set, residual needs and the active count; each add returns
its own activation waves.  A need of 0 marks a settled vertex (seeded, queued or active): a relaxation reads it and
counts down only a waiting vertex, so a hit on a settled vertex costs one read, and an add costs the degrees of the
vertices it activates.  ``hull``, the checked entry, is one add on a fresh state, and ``is_monopoly`` runs its
checks and asks only for coverage, without building a record.  The package runs states unchecked: constructor
self-checks, the greedy kernel, and forks for girth5 attempts and exact-search prefixes.

Coverage checks (``is_monopoly`` and the constructors' self-checks) that come back to one profile cached by
``proportional_thresholds`` run on its threshold-1 quotient: each connected class of threshold-1 vertices is one node
of threshold 1, named by its smallest member, and each edge between different nodes keeps one adjacency entry, so a
node may list another twice.  It is exact: a closed set holding one member of a class holds the whole class, so
hull(D) is V exactly when the cascade from D's image covers every node.  The first check runs plain, the second
builds the quotient and caches it on the graph, later ones reuse it; any other profile always runs plain.

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
from .graphs import Graph

Thresholds = Sequence[int]
T = TypeVar("T")


def to_fraction(value: Fraction | int | str | float, name: str = "rho", upper: Fraction = Fraction(1)) -> Fraction:
    """The one way a rational enters the package: ``value`` as an exact Fraction in (0, upper].

    Takes a Fraction, an int, a "P/Q" or decimal string ("0.3" is exactly
    3/10) or a float, read through its shortest repr (0.1 is 1/10).  Anything
    else, booleans, NaN and infinities included, raises PreconditionError
    naming ``name``, as does a decimal exponent above sys.get_int_max_str_digits(), the limit a "P/Q" hits in int()
    (4300, CPython's default, on a 3.10 older than 3.10.7, which lacks it): Fraction would build 10**exponent.
    """
    exact = type(value) in (Fraction, int)  # bools take the str path
    try:
        _, e, exponent = ("" if exact else str(value).lower()).rpartition("e")
        if e and 0 < getattr(sys, "get_int_max_str_digits", lambda: 4300)() < abs(int(exponent)):
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
    """Active set, residual needs and active count on one graph and threshold profile.

    ``need[u]`` is phi(u) less u's active neighbours while u waits, and 0 once u is settled (seeded, queued or
    active; phi = 0 starts settled): u is queued once, on the hit that brings it to 0, and no later hit moves it.
    For thresholds in [0, deg], once an add returns, ``need[u] == 0`` iff ``active[u]``; ``size`` counts the active.
    Each add costs the degrees of the vertices it activates and ends on the hull of all seeds so far.  Ids and
    thresholds go unchecked, so a caller that reads ``need`` checks the profile first (a phi < 0 vertex is active
    with a nonzero need).
    """

    def __init__(self, g: Graph, phi: Thresholds):
        self.adj = g.adj
        self.phi = phi
        self.active = bytearray(g.n)
        self.need = list(phi)
        self.size = 0
        self._zero = [u for u, t in enumerate(phi) if t <= 0] if min(phi, default=1) <= 0 else None

    def fork(self) -> Cascade:
        """An independent copy of this state: adds to either leave the other as it was."""
        twin = Cascade.__new__(Cascade)
        twin.adj, twin.phi, twin._zero, twin.size = self.adj, self.phi, self._zero, self.size
        twin.active, twin.need = self.active[:], self.need[:]
        return twin

    def add(self, seeds: Iterable[int]) -> list[list[int]]:
        """Activate ``seeds``, close under the thresholds and return this add's waves, round r at index r.

        Rounds count the synchronous waves of this add: new seeds are round
        0, and vertices with phi = 0 join at round 1 of the first add.  A
        neighbour hit reads need[v] and counts it down only while v waits.
        """
        adj, active, need = self.adj, self.active, self.need
        wave = []
        for u in seeds:
            if not active[u]:
                active[u] = 1
                need[u] = 0
                wave.append(u)
        # a vertex is ready once: phi = 0 ones here, the rest when their need reaches 0
        ready = [u for u in self._zero if not active[u]] if self._zero else []
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
            for u in wave:
                active[u] = 1


def _quotient(g: Graph, phi: Thresholds) -> SimpleNamespace:
    """Contract each connected class of threshold-1 vertices into its smallest member, keeping one entry per edge
    that leaves the class: ``Cascade`` reads ``n`` and ``adj`` as a Graph's (but a row may repeat a node), ``rep``
    maps a vertex to its node and ``nodes`` counts them.  Rows are g's own except at a class's smallest member and
    at its outside neighbours."""
    adj, rep, rows, nodes, moved = g.adj, list(range(g.n)), list(g.adj), g.n, set()
    for u in range(g.n):
        if phi[u] != 1 or rep[u] != u:
            continue
        members = [u]
        for a in members:  # u is the smallest: a threshold-1 b != u with rep[b] == b is unvisited
            for b in adj[a]:
                if b != u and rep[b] == b and phi[b] == 1:
                    rep[b] = u
                    members.append(b)
        if len(members) > 1:  # the other members' rows stay unread: they are nobody's neighbour and no image
            nodes -= len(members) - 1
            rows[u] = tuple(v for a in members for v in adj[a] if phi[v] != 1)
            moved.update(v for a in members[1:] for v in adj[a] if phi[v] != 1)
    for w in moved:
        rows[w] = tuple(map(rep.__getitem__, adj[w]))
    return SimpleNamespace(n=g.n, adj=tuple(rows), rep=rep, nodes=nodes)


def _covers(g: Graph, phi: Thresholds, seed: Iterable[int]) -> bool:
    """True iff a fresh Cascade from ``seed`` (valid ids) covers g: plain, or from the second check of a profile
    cached on g, on its quotient, built by that check (see the module docstring)."""
    quotients, net, image, nodes = g._quotients, g, seed, g.n
    rho = next((r for r, t in g._profiles.items() if t is phi), None)
    if rho in quotients:
        net = quotients[rho] = quotients[rho] or _quotient(g, phi)
        image, nodes = map(net.rep.__getitem__, seed), net.nodes
    elif rho is not None:
        quotients[rho] = None
    state = Cascade(net, phi)
    state.add(image)
    return state.size == nodes


def _checked(g: Graph, phi: Thresholds, seed: Iterable[int]) -> list[int]:
    """``seed`` as sorted distinct ids, after ``hull``'s checks of thresholds and ids."""
    check_thresholds(g, phi)
    ids = tuple(seed)
    if not set(map(type, ids)) <= {int}:  # bools and floats included: name the first such id
        bad = next(u for u in ids if type(u) is not int)
        raise PreconditionError(f"seed id {bad!r} is not an integer")
    seed_list = sorted(set(ids))
    if seed_list and (seed_list[0] < 0 or seed_list[-1] >= g.n):
        raise PreconditionError(f"seed contains ids outside 0..{g.n - 1}")
    return seed_list


def hull(g: Graph, phi: Thresholds, seed: Iterable[int]) -> CascadeResult:
    """The activation hull of ``seed``, thresholds and ids checked: one ``Cascade.add`` on a fresh state.
    Vertices with phi = 0 are in every hull and join at round 1 unless seeded."""
    rounds = {u: r for r, wave in enumerate(Cascade(g, phi).add(_checked(g, phi, seed))) for u in wave}
    return CascadeResult(active=frozenset(rounds), rounds=rounds, is_monopoly=len(rounds) == g.n)


def is_monopoly(g: Graph, phi: Thresholds, seed: Iterable[int]) -> bool:
    """True iff the hull of ``seed`` covers every vertex: ``hull``'s checks, then ``_covers``, with no record."""
    return _covers(g, phi, _checked(g, phi, seed))


def parse_seed_set(text: str, n: int) -> tuple[int, ...]:
    """Parse a seed-set document: whitespace-separated 0-based ids, '#' comments.

    A valid document without '#' is accepted with builtins; any other goes to
    the line walk, which names the first bad id with its line number.
    """
    if "#" not in text:
        try:
            ids = set(map(int, text.split()))
        except ValueError:
            pass
        else:
            if not ids or min(ids) >= 0 and max(ids) < n:
                return tuple(sorted(ids))
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
