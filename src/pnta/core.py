"""Automaton data model, guard grammar, and syntactic checks.

Guards are trees over four atom shapes (clock < nat, clock = nat,
clock < parameter, clock = parameter) closed under negation and
conjunction, plus the literal TRUE.  Derived comparisons (<=, >, >=, !=)
are accepted by helper constructors and desugared into that grammar, so
everything downstream (evaluation, regions, translation) handles exactly
five node kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import UnboundSymbol

# A bound is an int (natural constant), a Fraction (rational constant, from
# code: the text format writes naturals only) or a str naming a parameter.
Bound = Union[int, Fraction, str]


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', decimal, or integer text into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def brief(v) -> str:
    """A rational as text, with each part of more than 40 digits given by its digit count.

    str() of an int with more than 4,300 digits raises, and a message
    quoting a 100-digit number is unreadable anyway.
    """
    parts = []
    for part in Fraction(v).as_integer_ratio():
        size = abs(part)
        if size < 10 ** 40:
            parts.append(str(part))
        else:
            digits = int((size.bit_length() - 1) * math.log10(2)) + 1
            digits += (size >= 10 ** digits) - (size < 10 ** (digits - 1))  # float rounding
            parts.append(f"{'-' if part < 0 else ''}<{digits} digits>")
    return parts[0] if parts[1] == "1" else "/".join(parts)


# ---------------------------------------------------------------------------
# Guard grammar


@dataclass(frozen=True)
class TrueGuard:
    def __repr__(self) -> str:
        return "TRUE"


TRUE = TrueGuard()


@dataclass(frozen=True)
class Atom:
    """clock OP bound, with OP one of '<' '='."""

    clock: str
    op: str
    bound: Bound

    def __post_init__(self) -> None:
        if self.op not in ("<", "="):
            raise ValueError(f"atom operator must be '<' or '=', got {self.op!r}")


@dataclass(frozen=True)
class Not:
    arg: "Guard"


@dataclass(frozen=True)
class And:
    left: "Guard"
    right: "Guard"


Guard = Union[TrueGuard, Atom, Not, And]


def lt(clock: str, bound: Bound) -> Guard:
    return Atom(clock, "<", bound)


def eq(clock: str, bound: Bound) -> Guard:
    return Atom(clock, "=", bound)


def le(clock: str, bound: Bound) -> Guard:
    # x <= b  ==  not (x > b)
    return Not(gt(clock, bound))


def gt(clock: str, bound: Bound) -> Guard:
    # x > b  ==  not (x < b) and not (x = b)
    return And(Not(Atom(clock, "<", bound)), Not(Atom(clock, "=", bound)))


def ge(clock: str, bound: Bound) -> Guard:
    return Not(Atom(clock, "<", bound))


def ne(clock: str, bound: Bound) -> Guard:
    return Not(Atom(clock, "=", bound))


def conj(*guards: Guard) -> Guard:
    """Right-nested conjunction; empty conjunction is TRUE."""
    gs = [g for g in guards if not isinstance(g, TrueGuard)]
    if not gs:
        return TRUE
    out = gs[-1]
    for g in reversed(gs[:-1]):
        out = And(g, out)
    return out


def atoms(g: Guard) -> Iterator[Atom]:
    stack = [g]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Atom):
            yield cur
        elif isinstance(cur, Not):
            stack.append(cur.arg)
        elif isinstance(cur, And):
            stack.append(cur.right)
            stack.append(cur.left)


def guard_clocks(g: Guard) -> frozenset[str]:
    """The set X(g) of clocks tested anywhere in g."""
    return frozenset(a.clock for a in atoms(g))


def guard_params(g: Guard) -> frozenset[str]:
    return frozenset(a.bound for a in atoms(g) if isinstance(a.bound, str))


def guard_constants(g: Guard) -> frozenset[Union[int, Fraction]]:
    return frozenset(a.bound for a in atoms(g) if not isinstance(a.bound, str))


def map_atoms(g: Guard, f) -> Guard:
    """Rebuild g with every atom replaced by f(atom)."""
    if isinstance(g, TrueGuard):
        return g
    if isinstance(g, Atom):
        return f(g)
    if isinstance(g, Not):
        return Not(map_atoms(g.arg, f))
    if isinstance(g, And):
        return And(map_atoms(g.left, f), map_atoms(g.right, f))
    raise TypeError(f"not a guard: {g!r}")


def eval_constraint(
    g: Guard,
    v: Mapping[str, Fraction],
    i: Mapping[str, Fraction] | None = None,
) -> bool:
    """Standard satisfaction: v, i |= g.

    v maps clocks to values, i maps parameters to values.  Raises
    UnboundSymbol when g mentions a clock or parameter missing from them.
    """
    if isinstance(g, TrueGuard):
        return True
    if isinstance(g, Atom):
        try:
            val = v[g.clock]
        except KeyError:
            raise UnboundSymbol(f"clock {g.clock!r} not bound") from None
        bound = g.bound
        if isinstance(bound, str):
            if i is None or bound not in i:
                raise UnboundSymbol(f"parameter {bound!r} not bound")
            bound = i[bound]
        return val < bound if g.op == "<" else val == bound
    if isinstance(g, Not):
        return not eval_constraint(g.arg, v, i)
    if isinstance(g, And):
        return eval_constraint(g.left, v, i) and eval_constraint(g.right, v, i)
    raise TypeError(f"not a guard: {g!r}")


# ---------------------------------------------------------------------------
# Automata


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    letter: str
    guard: Guard
    resets: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "resets", frozenset(self.resets))


@dataclass(frozen=True)
class Automaton:
    """A timed automaton over named clocks and parameters.

    Immutable.  The first check of an automaton keeps its compiled form
    on it as an attribute outside the fields (`parametric._compiled`), so
    equality, hash, repr and pickling are those of the fields alone.
    """

    name: str
    alphabet: frozenset[str]
    states: frozenset[str]
    clocks: frozenset[str]
    params: frozenset[str]
    initial: str
    accepting: frozenset[str]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        for name in ("alphabet", "states", "clocks", "params", "accepting"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        object.__setattr__(self, "transitions", tuple(self.transitions))

    def __getstate__(self):
        """The fields alone: an unpickled automaton compiles again on its next check."""
        state = self.__dict__.copy()
        state.pop("_compiled", None)
        return state


@dataclass(frozen=True)
class ValidationError:
    kind: str  # "MixedGuard" | "DanglingRef" | "Malformed"
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate(a: Automaton) -> list[ValidationError]:
    """Structural checks plus the mixed-guard restriction.

    Empty result means the automaton is well formed.  A guard may use
    constants or the parameter, never both (parameter occurrence forbids
    constants in the same guard).  Each error is listed once, in the order
    first met: `x > c` is two atoms.
    """
    errs: list[ValidationError] = []

    def dangling(name: str, what: str) -> None:
        errs.append(ValidationError("DanglingRef", f"{what} {name!r} not declared"))

    if a.initial not in a.states:
        dangling(a.initial, "initial state")
    for q in a.accepting:
        if q not in a.states:
            dangling(q, "accepting state")
    for idx, t in enumerate(a.transitions):
        where = f"transition #{idx} ({t.source} -> {t.target})"
        if t.source not in a.states:
            dangling(t.source, "source state")
        if t.target not in a.states:
            dangling(t.target, "target state")
        if t.letter not in a.alphabet:
            dangling(t.letter, "letter")
        for z in t.resets:
            if z not in a.clocks:
                dangling(z, "reset clock")
        has_const = False
        has_param = False
        for atom in atoms(t.guard):
            if atom.clock not in a.clocks:
                dangling(atom.clock, "guard clock")
            if isinstance(atom.bound, str):
                if atom.bound not in a.params:
                    dangling(atom.bound, "guard parameter")
                has_param = True
            else:
                has_const = True
                ok_int = isinstance(atom.bound, int) or (
                    isinstance(atom.bound, Fraction) and atom.bound.denominator == 1
                )
                if not ok_int or atom.bound < 0:
                    errs.append(ValidationError(
                        "Malformed",
                        f"guard constant {atom.bound} in {where} is not a natural number",
                    ))
        if has_const and has_param:
            errs.append(ValidationError(
                "MixedGuard", f"{where} mixes a constant and the parameter"))
    return list(dict.fromkeys(errs))


def is_nrtta(a: Automaton) -> bool:
    """True iff no transition both tests and resets the same clock."""
    return all(not (guard_clocks(t.guard) & t.resets) for t in a.transitions)


def max_constant(a: Automaton) -> int:
    """Largest integer guard constant, clamped below by 1."""
    best = 1
    for t in a.transitions:
        for c in guard_constants(t.guard):
            if int(c) == c:
                best = max(best, int(c))
    return best
