"""Parametric emptiness decision by finite candidate enumeration.

For an automaton with one parameter, maximum constant C and state count
|Q|, the language is nonempty for some real parameter value iff it is
nonempty for one of finitely many rational candidates: the half-integers
k/2 up to 2C, the representatives n/2 + alpha of the open half-integer
gaps, and one large representative Xi beyond every constant.  Each
candidate reduces to a parameter-free emptiness check after scaling
away denominators.

An Empty verdict would pay for all 8C + 2 checks, so after the least
candidate, 0, comes back Empty the sweep checks the automaton relaxed to
the whole range [0, Xi] once: each parameter literal becomes its hull
over the range, which leaves no parameter, and the relaxed language
contains the language at every value in the range (an over-approximation
in the spirit of Hune, Romijn, Stoelinga & Vaandrager, JLAP 2002).  When
that is Empty, so is every candidate, and the verdict is Empty; otherwise
the exact checks go on from the second candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from .core import Atom, Automaton, Transition, brief, is_nrtta, map_atoms
from .errors import (
    NotOneParameter,
    PreconditionViolated,
    RegionBudgetExceeded,
    UnsupportedAutomaton,
)
from .regions import DEFAULT_REGION_BUDGET
from .semantics import TimedWord
from .translate import ta_to_nrtta
from .zones import (
    Compiled,
    Scaled,
    ZoneLasso,
    compile_automaton,
    earliest_ticks,
    zone_lasso,
    zone_nonempty,
)

Rational = Union[int, Fraction]

HALF_INTEGER = "HalfInteger"
FRACTIONAL_REP = "FractionalRep"
LARGE_REP = "LargeRep"

MAX_WITNESS_EVENTS = 10**6  # a word's events and ticks are held in lists


@dataclass(frozen=True)
class Candidate:
    value: Fraction
    origin: str  # HALF_INTEGER | FRACTIONAL_REP | LARGE_REP
    index: int  # k for k/2, n for n/2 + alpha, 0 for the large representative


@dataclass(frozen=True)
class CandidateSet:
    candidates: tuple[Candidate, ...]
    c: int
    n_states: int
    a_bound: int
    alpha: Fraction
    xi: Fraction
    denom: int

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(cand.value for cand in self.candidates)


@dataclass(frozen=True)
class Verdict:
    nonempty: bool
    witness_mu: Optional[Fraction]
    candidates_checked: int
    zone_nodes: int
    zone_lasso: Optional[ZoneLasso] = None
    # the scaled automaton that the search found zone_lasso in, which the witness word reads;
    # an internal Scaled record, not frozen, outside the verdict's equality and hash
    scaled: Optional[Scaled] = field(default=None, compare=False, repr=False)
    # the interval (lo, hi) whose relaxed check settled an Empty verdict, else None
    relaxed: Optional[tuple[Fraction, Fraction]] = None


def _candidates(c: int, n_states: int):
    """Yield the candidates for constant c and n_states states in ascending order.

    That is k/2, k/2 + alpha for each k < 4C, then 2C and Xi.
    """
    alpha = Fraction(1, 8 * (1 + c * max(n_states, 4 * c)))
    for k in range(4 * c):
        half = Fraction(k, 2)
        yield Candidate(half, HALF_INTEGER, k)
        yield Candidate(half + alpha, FRACTIONAL_REP, k)
    yield Candidate(Fraction(2 * c), HALF_INTEGER, 4 * c)
    yield Candidate(Fraction(_xi(c, n_states)), LARGE_REP, 0)


def _xi(c: int, n_states: int) -> int:
    """The large representative Xi = 2 + C(1 + |Q|), the last and largest candidate."""
    return 2 + c * (1 + n_states)


def candidate_parameters(a: Automaton) -> CandidateSet:
    """The finite candidate list that decides parametric emptiness.

    Contains every half-integer up to 2C, one representative n/2 + alpha
    inside each gap between consecutive half-integers below 2C, and one
    representative Xi larger than every constant; 8C + 2 values total.
    C and |Q| are those of the automaton the sweep searches, so for
    one-clock input that tests and resets a clock they are those of its
    translation, and the list is the one the sweep checks.  Constants
    must be natural numbers.
    """
    if len(a.params) != 1:
        raise NotOneParameter(f"exactly one parameter required, got {len(a.params)}")
    compiled = _natural(a)
    c, q = compiled.c, compiled.n_states
    cands = tuple(_candidates(c, q))
    alpha, xi = cands[1].value, cands[-1].value
    denom = alpha.denominator
    assert len(cands) == 8 * c + 2
    assert len({cand.value for cand in cands}) == len(cands)
    assert all((cand.value * denom).denominator == 1 for cand in cands)
    assert all(x.value < y.value for x, y in zip(cands, cands[1:]))
    return CandidateSet(cands, c, q, max(q, 4 * c), alpha, xi, denom)


def prepare_fixed(a: Automaton, mu: Optional[Rational]) -> tuple[Automaton, int, int]:
    """(scaled parameter-free automaton, region bound M, scale factor d) at mu.

    The region engine's input, built in one pass: d, M and the scaled
    value come from `Compiled.scaling`, which refuses a missing or
    negative value and a second parameter, and each constant c becomes
    the int c * d.  An undeclared parameter is kept, for the region
    engine to refuse.  A check reads only the compiled form.
    """
    d, m, low, _ = compile_automaton(a).scaling(mu)

    def scale(atom: Atom) -> Atom:
        if isinstance(atom.bound, str):
            return Atom(atom.clock, atom.op, low) if a.params else atom
        return Atom(atom.clock, atom.op, int(atom.bound * d))

    ts = [Transition(t.source, t.target, t.letter, map_atoms(t.guard, scale), t.resets)
          for t in a.transitions]
    return Automaton(a.name, a.alphabet, a.states, a.clocks, (), a.initial, a.accepting, ts), m, d


def _searched(a: Automaton) -> Automaton:
    """The automaton a check searches: one-clock test-and-reset input is translated."""
    if len(a.clocks) == 1 and not is_nrtta(a):
        return ta_to_nrtta(a)
    return a


def _compiled(a: Automaton) -> Compiled:
    """The compiled form of the automaton a check searches, derived once and kept on a.

    It is set with object.__setattr__ as an attribute outside the dataclass
    fields, so a's equality, hash and repr do not see it; what depends on
    the parameter value is built per check.
    """
    try:
        return a._compiled
    except AttributeError:
        compiled = compile_automaton(_searched(a))
        object.__setattr__(a, "_compiled", compiled)
        return compiled


def _natural(a: Automaton) -> Compiled:
    """The compiled form, refused for a rational constant: the candidates assume naturals."""
    compiled = _compiled(a)
    if compiled.denom != 1:
        raise UnsupportedAutomaton("the candidate sweep needs natural guard constants")
    return compiled


def emptiness_fixed(
    a: Automaton,
    mu: Optional[Rational] = None,
    max_nodes: int = DEFAULT_REGION_BUDGET,
    include_lasso: bool = True,
) -> Verdict:
    """Emptiness at one fixed parameter value (or of a parameter-free automaton).

    The verdict comes from the zone engine, on the translation of one-clock
    test-and-reset input; when the language is nonempty and include_lasso is
    set, the zone graph that search built also yields a zone lasso, and the
    verdict carries it with the scaled automaton it was found in.  A
    nonempty verdict names mu as its witness only when the automaton has a
    parameter.  The first check of an automaton compiles it and keeps the
    compiled form on it, so a check at one more value scales, searches and
    takes its lasso only.
    """
    compiled = _compiled(a)
    s = compiled.at(mu)
    if include_lasso:
        zl, explored = zone_lasso(s, max_nodes)
        nonempty = zl is not None
    else:
        zl = None
        nonempty, explored = zone_nonempty(s, max_nodes)
    witness = None
    if nonempty and compiled.n_params:
        witness = mu if isinstance(mu, Fraction) else Fraction(mu)
    if zl is None:
        return Verdict(nonempty, witness, 1, explored)
    return Verdict(True, witness, 1, explored, zl, s)


def parametric_emptiness(a: Automaton, max_nodes: int = DEFAULT_REGION_BUDGET) -> Verdict:
    """Does any real parameter value give the automaton a nonempty language?

    Compiles the searched automaton once, or reads the compiled form an
    earlier check kept on it, and checks each value of the finite
    candidate list in ascending order through emptiness_fixed, reporting
    the first nonempty value as witness, with the candidates and zone
    nodes of the whole sweep.  When the least candidate is Empty, one
    check of the automaton relaxed to [0, Xi] comes next; if it is Empty
    the verdict is Empty, and says so in `relaxed`.  Its nodes count in
    zone_nodes but it is not a candidate, and one that exceeds max_nodes
    settles nothing.  Candidates are generated and checked one at a time,
    so the sweep stops at the first nonempty one.  One-clock automata that
    test and reset the same clock are translated first; two-clock automata
    that do so are rejected, as are automata with more than two clocks,
    more than one parameter or a rational constant.  A parameter-free
    automaton is decided as by emptiness_fixed, with any number of clocks.
    """
    if not a.params:
        return emptiness_fixed(a, None, max_nodes)
    if len(a.params) > 1:
        raise UnsupportedAutomaton(f"at most one parameter supported, got {len(a.params)}")
    if len(a.clocks) != 1 and not is_nrtta(a):  # one-clock automata are translated
        raise UnsupportedAutomaton(
            "guard-and-reset of the same clock is only supported for one-clock automata"
        )
    compiled = _natural(a)
    if len(compiled.clocks) > 2:
        raise UnsupportedAutomaton(f"at most two clocks supported, got {len(compiled.clocks)}")
    xi = Fraction(_xi(compiled.c, compiled.n_states))
    nodes = 0
    for checked, cand in enumerate(_candidates(compiled.c, compiled.n_states), 1):
        v = emptiness_fixed(a, cand.value, max_nodes)
        nodes += v.zone_nodes
        if v.nonempty:
            return replace(v, candidates_checked=checked, zone_nodes=nodes)
        if checked == 1:
            try:
                relaxed_nonempty, relaxed_nodes = zone_nonempty(compiled.at(0, xi), max_nodes)
            except RegionBudgetExceeded:
                relaxed_nonempty, relaxed_nodes = True, 0  # settles nothing
            nodes += relaxed_nodes
            if not relaxed_nonempty:
                return Verdict(False, None, checked, nodes, relaxed=(Fraction(0), xi))
    return Verdict(False, None, checked, nodes)


def witness_word(a: Automaton, verdict: Verdict, unrollings: int = 1) -> TimedWord:
    """Concrete timed word (in the original time unit) realizing a Nonempty verdict.

    Solves for the earliest run along the stem and `unrollings` laps of the
    verdict's zone lasso on the scaled automaton, in integer ticks, and
    divides each by the ticks of one original time unit, so the word is
    accepted by the input automaton at the witness parameter value.  The
    verdict carries the scaled automaton its zone lasso was found in, so a
    is read only to check that the verdict is its own: the scaled steps,
    initial state and accepting states must be those a compiles to.  A
    word of more than MAX_WITNESS_EVENTS events is refused before any is built.
    """
    if not verdict.nonempty or verdict.zone_lasso is None or verdict.scaled is None:
        raise PreconditionViolated("a Nonempty verdict with a lasso is required")
    if unrollings < 1:
        raise PreconditionViolated("unrollings must be at least 1")
    lasso = verdict.zone_lasso
    events = len(lasso.stem) + unrollings * len(lasso.cycle)
    if events > MAX_WITNESS_EVENTS:
        raise PreconditionViolated(
            f"a witness word of {brief(events)} events is longer than {MAX_WITNESS_EVENTS:,}")
    s, c = verdict.scaled, _compiled(a)
    if (s.out, s.initial, s.accepting) != (c.out, c.initial, c.accepting):
        raise PreconditionViolated("the verdict was found on another automaton")
    steps = lasso.stem + lasso.cycle * unrollings
    ticks, q = earliest_ticks(s, steps)
    unit = q * s.d  # ticks per original time unit
    return TimedWord.of((step[2], Fraction(k, unit)) for step, k in zip(steps, ticks))
