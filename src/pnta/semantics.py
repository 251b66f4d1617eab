"""Concrete operational semantics over finite timed-word prefixes.

A run consumes a timed word event by event: time elapses by the gap
between consecutive timestamps, then one enabled transition fires.  The
first event may happen at time 0; after that timestamps must strictly
increase.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .core import Automaton, Transition, brief, eval_constraint
from .errors import GuardViolated, MalformedWord, NonPositiveDelay, WrongSource

ParamValuation = Mapping[str, Fraction]


@dataclass(frozen=True)
class Valuation:
    """Total map clock -> nonnegative rational, stored sorted for hashing."""

    items: tuple[tuple[str, Fraction], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, object] | Iterable[tuple[str, object]]) -> "Valuation":
        pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
        norm = tuple(sorted((str(k), Fraction(v)) for k, v in pairs))
        return cls(norm)

    def __getitem__(self, clock: str) -> Fraction:
        for k, val in self.items:
            if k == clock:
                return val
        raise KeyError(clock)

    def __contains__(self, clock: str) -> bool:
        return any(k == clock for k, _ in self.items)

    def get(self, clock: str, default=None):
        for k, val in self.items:
            if k == clock:
                return val
        return default

    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.items)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for _, v in self.items)

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.items)


def zero_valuation(clocks: Iterable[str]) -> Valuation:
    return Valuation.of({z: Fraction(0) for z in clocks})


@dataclass(frozen=True)
class Configuration:
    state: str
    valuation: Valuation


@dataclass(frozen=True)
class TimedWord:
    """Finite prefix of a timed word: (letter, timestamp) pairs.

    Timestamps are strictly increasing; the first may be 0 (the word
    starts at the time origin).
    """

    events: tuple[tuple[str, Fraction], ...]

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, object]]) -> "TimedWord":
        """The word of pairs; a Fraction timestamp is kept as it is, any other converted."""
        events = tuple((str(letter), ts if ts.__class__ is Fraction else Fraction(ts))
                       for letter, ts in pairs)
        prev = None
        for idx, (_, ts) in enumerate(events):
            if ts < 0:
                raise MalformedWord(f"negative timestamp {brief(ts)} at position {idx + 1}")
            if prev is not None and ts <= prev:
                raise MalformedWord(f"timestamps must strictly increase: {brief(prev)} "
                                    f"then {brief(ts)} at position {idx + 1}")
            prev = ts
        return cls(events)

    def letters(self) -> tuple[str, ...]:
        return tuple(letter for letter, _ in self.events)

    def timestamps(self) -> tuple[Fraction, ...]:
        return tuple(ts for _, ts in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def elapse(v: Valuation, t: Fraction) -> Valuation:
    """v + t pointwise; t must be nonnegative."""
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"cannot elapse negative time {t}")
    return Valuation(tuple((k, val + t) for k, val in v.items))


def reset_apply(v: Valuation, resets: Iterable[str]) -> Valuation:
    rs = frozenset(resets)
    return Valuation(tuple((k, Fraction(0) if k in rs else val) for k, val in v.items))


def step(
    c: Configuration,
    t: Transition,
    delta: Fraction,
    i: ParamValuation | None = None,
    first: bool = False,
) -> Configuration:
    """Fire t from c after delta time units.

    delta must be positive, except for the very first event of a word
    where 0 is allowed.
    """
    delta = Fraction(delta)
    if t.source != c.state:
        raise WrongSource(f"transition leaves {t.source!r}, configuration is at {c.state!r}")
    if delta < 0 or (delta == 0 and not first):
        raise NonPositiveDelay(f"delay {brief(delta)} not allowed here")
    moved = elapse(c.valuation, delta)
    if not eval_constraint(t.guard, moved, i):
        raise GuardViolated(f"guard fails after delay {brief(delta)}")
    return Configuration(t.target, reset_apply(moved, t.resets))


def run_frontiers(
    a: Automaton, w: TimedWord, i: ParamValuation | None = None
) -> list[frozenset[Configuration]]:
    """Reachable configuration sets after each prefix of w.

    Element 0 is the initial singleton; element j the set after the
    first j events.  An empty set means no run reads that prefix.
    """
    by_source: dict[str, list[Transition]] = {}
    for t in a.transitions:
        by_source.setdefault(t.source, []).append(t)
    frontier: frozenset[Configuration] = frozenset(
        {Configuration(a.initial, zero_valuation(a.clocks))}
    )
    out = [frontier]
    prev_ts = Fraction(0)
    for j, (letter, ts) in enumerate(w.events):
        delta = ts - prev_ts
        nxt: set[Configuration] = set()
        for c in frontier:
            for t in by_source.get(c.state, ()):
                if t.letter != letter:
                    continue
                try:
                    nxt.add(step(c, t, delta, i, first=(j == 0)))
                except GuardViolated:
                    continue
        frontier = frozenset(nxt)
        out.append(frontier)
        prev_ts = ts
    return out


def v_oplus(v: Valuation, delta: Fraction) -> frozenset[Valuation]:
    """All valuations obtained from v+delta by resetting any clock subset."""
    delta = Fraction(delta)
    if delta <= 0:
        raise NonPositiveDelay(f"delay must be positive, got {delta}")
    moved = elapse(v, delta)
    clocks = moved.keys()
    out = set()
    for mask in range(1 << len(clocks)):
        subset = frozenset(z for b, z in enumerate(clocks) if mask >> b & 1)
        out.add(reset_apply(moved, subset))
    return frozenset(out)
