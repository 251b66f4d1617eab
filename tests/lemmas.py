"""Executable fractional-part lemmas behind the candidate-set theorems.

Everything here works on exact rationals: the polarity of a parameter
value, the six-way classification of fractional parts against ell =
min(frac(mu), 1-frac(mu)), depth counts inside the distinguished
intervals, the agreement relations between valuations under two
parameter values, the critical-valuation case lists, the fractional
decomposition of a one-delay step, agreement transport along one-reset
sequences, pin compression of region-level paths, the region lasso
that a zone lasso's earliest run follows, and the concretization of a
region lasso into a timed word.

The decision procedure calls none of it; the tests check the lemmas on
examples and on seeded random inputs.  A trial function (`_suite_*`)
draws one input from its rng and returns None or a failure note; each
suite draws from `_suite_rng(2026, name)`.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Optional, Sequence, Union

from pnta.core import Automaton
from pnta.errors import PntaError, PreconditionViolated
from pnta.regions import (
    RANode,
    Region,
    RegionAutomaton,
    SymbolicLasso,
    _delay_fan,
    region_reset,
    region_sat,
    region_str,
    zero_region,
)
from pnta.semantics import TimedWord, Valuation, elapse, reset_apply, zero_valuation
from pnta.zones import Scaled, ZoneLasso, earliest_ticks


class DegenerateParameter(PntaError):
    """Parameter value is a multiple of 1/2; the fractional machinery is
    undefined there (such values are handled by direct instantiation)."""


class NotInSZ(PntaError):
    """Fractional value lies outside the polarity's distinguished intervals."""


class ChiTooLarge(PntaError):
    """Bracket width chi does not fit inside the interval."""


class PolarityMismatch(PntaError):
    """The two parameter values have different polarity."""


class FloorMismatch(PntaError):
    """The two parameter values have different integer parts."""


class NotCompleteAgreement(PntaError):
    """Starting valuations are not in complete agreement."""


class Disconnected(PntaError):
    """Consecutive path nodes are not connected in the region automaton."""


class Infeasible(PntaError):
    """No concrete choice fits: `concretize_lasso` found no delay or firing
    region that keeps to its symbolic lasso, or agreement transport found
    an empty feasible interval.  Neither happens when the preconditions
    hold; raising it signals a genuine counterexample."""


Rational = Union[int, Fraction]

NEGATIVE = "Negative"
POSITIVE = "Positive"

SAME = "Same"
PLUS_ONE = "PlusOne"


def _frac(x: Rational) -> Fraction:
    x = Fraction(x)
    return x - math.floor(x)


class IntervalClass(IntEnum):
    """The six-way split of a fractional part against ell and 1 - ell.

    Z and L and LH are the point classes {0}, {ell}, {1-ell}; ZL, LLH,
    LH1 are the open intervals between them.  The integer order is the
    left-to-right order of the pieces inside [0, 1).
    """

    Z = 0
    ZL = 1
    L = 2
    LLH = 3
    LH = 4
    LH1 = 5


@dataclass(frozen=True)
class PolarityContext:
    """Derived quantities of one non-degenerate parameter value."""

    mu: Fraction
    m: int
    ell: Fraction
    polarity: str  # NEGATIVE | POSITIVE
    chi: Fraction
    s_z: frozenset[IntervalClass]
    w_z: Fraction


def polarity_ctx(mu: Rational) -> PolarityContext:
    """Polarity, ell, chi, S_Z and w_Z for a parameter value.

    Negative polarity means frac(mu) < 1/2; multiples of 1/2 have no
    polarity and are rejected (they are handled by direct instantiation,
    not by this machinery).
    """
    mu = Fraction(mu)
    if mu < 0:
        raise PreconditionViolated(f"parameter value must be nonnegative, got {mu}")
    f = _frac(mu)
    if f == 0 or f == Fraction(1, 2):
        raise DegenerateParameter(f"{mu} is a multiple of 1/2")
    ell = min(f, 1 - f)
    if f < Fraction(1, 2):
        return PolarityContext(
            mu, math.floor(mu), ell, NEGATIVE, ell,
            frozenset({IntervalClass.LLH}), 1 - 2 * ell,
        )
    return PolarityContext(
        mu, math.floor(mu), ell, POSITIVE, Fraction(1, 2) - ell,
        frozenset({IntervalClass.ZL, IntervalClass.LH1}), (1 - 2 * ell) / 2,
    )


def interval_bounds(cls: IntervalClass, ctx: PolarityContext) -> tuple[Fraction, Fraction]:
    """(left, right) endpoints of the class inside [0, 1); points have left == right."""
    ell = ctx.ell
    return {
        IntervalClass.Z: (Fraction(0), Fraction(0)),
        IntervalClass.ZL: (Fraction(0), ell),
        IntervalClass.L: (ell, ell),
        IntervalClass.LLH: (ell, 1 - ell),
        IntervalClass.LH: (1 - ell, 1 - ell),
        IntervalClass.LH1: (1 - ell, Fraction(1)),
    }[cls]


def interval_class(fracval: Rational, ctx: PolarityContext) -> IntervalClass:
    f = Fraction(fracval)
    if not 0 <= f < 1:
        raise PreconditionViolated(f"fractional value must lie in [0, 1), got {f}")
    if f == 0:
        return IntervalClass.Z
    if f < ctx.ell:
        return IntervalClass.ZL
    if f == ctx.ell:
        return IntervalClass.L
    if f < 1 - ctx.ell:
        return IntervalClass.LLH
    if f == 1 - ctx.ell:
        return IntervalClass.LH
    return IntervalClass.LH1


def low_k(fracval: Rational, ctx: PolarityContext) -> int:
    """Depth of fracval inside its S_Z interval, counted in chi steps from the right.

    Bracket rule: right - k*chi <= fracval < right - (k-1)*chi, with the
    deepest bracket extended to the interval's left endpoint when chi
    does not divide the width.
    """
    f = Fraction(fracval)
    cls = interval_class(f, ctx)
    if cls not in ctx.s_z:
        raise NotInSZ(f"{f} lies in {cls.name}, not in S_Z")
    lo, hi = interval_bounds(cls, ctx)
    if not ctx.chi < hi - lo:
        raise ChiTooLarge(f"chi {ctx.chi} is not below the interval width {hi - lo}")
    k = math.ceil(Fraction(hi - f, ctx.chi))
    assert k >= 1 and hi - k * ctx.chi <= f < hi - (k - 1) * ctx.chi
    return k


# ---------------------------------------------------------------------------
# Agreement relations


def in_agreement(
    v: Valuation, vh: Valuation, mu: Rational, muh: Rational, c: int
) -> bool:
    """Same truth value for every atom z ~ k (k <= 2c) and z ~ parameter."""
    if set(v.keys()) != set(vh.keys()):
        raise PreconditionViolated("valuations must share the clock domain")
    mu = Fraction(mu)
    muh = Fraction(muh)
    for z in v.keys():
        x, y = v[z], vh[z]
        for k in range(2 * c + 1):
            if (x < k) != (y < k) or (x == k) != (y == k):
                return False
        if (x < mu) != (y < muh) or (x == mu) != (y == muh):
            return False
    return True


def in_complete_agreement(
    v: Valuation, vh: Valuation, mu: Rational, muh: Rational, c: int
) -> bool:
    """Agreement, all values at most 2c, and equal interval class per clock."""
    ctx = polarity_ctx(mu)
    ctxh = polarity_ctx(muh)
    if not in_agreement(v, vh, mu, muh, c):
        return False
    for z in v.keys():
        if v[z] > 2 * c or vh[z] > 2 * c:
            return False
        if interval_class(_frac(v[z]), ctx) != interval_class(_frac(vh[z]), ctxh):
            return False
    return True


def is_critical(v: Valuation, mu: Rational) -> bool:
    """Some clock lies strictly between floor(mu) and floor(mu) + 1."""
    m = math.floor(Fraction(mu))
    return any(m < v[z] < m + 1 for z in v.keys())


# ---------------------------------------------------------------------------
# One-delay steps from a one-reset start


def _split_clocks(v0: Valuation) -> tuple[str, str]:
    """(zero clock, other clock) of a two-clock valuation with exactly one zero."""
    keys = sorted(v0.keys())
    if len(keys) != 2:
        raise PreconditionViolated(f"two clocks required, got {len(keys)}")
    zeros = [z for z in keys if v0[z] == 0]
    if len(zeros) != 1:
        raise PreconditionViolated("exactly one clock must be 0")
    z1 = zeros[0]
    z2 = keys[1] if z1 == keys[0] else keys[0]
    return z1, z2


def critval_cases(
    v0: Valuation, delta: Rational, mu: Rational
) -> set[tuple[int, int]]:
    """All (case id, constant) pairs satisfied by v0 + delta.

    Odd cases pin the reset clock against c = floor(mu) - floor(v0(z2)),
    even cases pin the other clock against c = floor(mu) + floor(v0(z2)) + 1;
    ids 1/2 are equalities, 3/4 approach c from below, 5/6 leave it from
    above.  Nonempty whenever v0 + delta is critical.
    """
    delta = Fraction(delta)
    mu = Fraction(mu)
    if delta <= 0:
        raise PreconditionViolated(f"delay must be positive, got {delta}")
    z1, z2 = _split_clocks(v0)
    z20 = math.floor(v0[z2])
    if v0[z2] == z20:
        raise PreconditionViolated(f"{z2} must lie strictly between integers, got {v0[z2]}")
    m = math.floor(mu)
    v1p = delta
    v2p = v0[z2] + delta
    out: set[tuple[int, int]] = set()
    c = m - z20
    if c >= 0:
        if v1p == c:
            out.add((1, c))
        if c - 1 < v1p < c:
            out.add((3, c))
        if c < v1p < c + 1:
            out.add((5, c))
    c2 = m + z20 + 1
    if v2p == c2:
        out.add((2, c2))
    if c2 - 1 < v2p < c2:
        out.add((4, c2))
    if c2 < v2p < c2 + 1:
        out.add((6, c2))
    return out


def _one_step(v1: Valuation, v2: Valuation) -> tuple[str, str, Fraction]:
    """(z1, z2, delta) for v2 = v1 + delta from a one-reset start."""
    if set(v1.keys()) != set(v2.keys()):
        raise PreconditionViolated("valuations must share the clock domain")
    z1, z2 = _split_clocks(v1)
    delta = v2[z1]
    if delta <= 0:
        raise PreconditionViolated("positive delay required")
    if v2[z2] - v1[z2] != delta:
        raise PreconditionViolated("v2 must be v1 plus a single delay")
    return z1, z2, delta


def pr2_shape(v1: Valuation, v2: Valuation) -> str:
    """Whether floor(v2(z2)) equals floor(v1(z2)) + floor(v2(z1)) or exceeds it by one."""
    z1, z2, _ = _one_step(v1, v2)
    if _frac(v2[z1]) == 0 or _frac(v2[z2]) == 0:
        raise PreconditionViolated("both clocks of v2 must have nonzero fractional part")
    z20 = math.floor(v1[z2])
    c1 = math.floor(v2[z1])
    c2 = math.floor(v2[z2])
    if c2 == z20 + c1:
        return SAME
    assert c2 == z20 + c1 + 1
    return PLUS_ONE


_Z2_CASES = frozenset({"1", "2", "3a", "3b", "4ai", "4aii", "4b"})
_Z1_CASES = frozenset({"5", "6", "7a", "7b", "8ai", "8aii", "8b"})


def _case_bound(case_id: str, b: Fraction, fm: Fraction) -> Fraction:
    """The exclusive upper bound on epsilon stated by each decomposition case."""
    return {
        "1": 1 - b,
        "2": b,
        "3a": 1 - (b + fm),
        "3b": fm,
        "4ai": 1 - fm,
        "4aii": b - (1 - fm),
        "4b": b,
        "5": b,
        "6": 1 - b,
        "7a": b - fm,
        "7b": fm,
        "8ai": 1 - fm,
        "8aii": fm - b,
        "8b": 1 - b,
    }[case_id]


def fracvalue_case(
    v1: Valuation, v2: Valuation, mu: Rational
) -> set[tuple[str, Fraction, Fraction]]:
    """Decompositions frac = kappa + eps of both clocks of v2 after one delay.

    Cases 1-4 decompose the non-reset clock, cases 5-8 the reset clock;
    the a/b splits depend on whether the clock whose floor equals
    floor(mu) sits at or above the parameter value.  Every emitted eps
    satisfies its case's range bound; one case from each family always
    applies.
    """
    mu = Fraction(mu)
    fm = _frac(mu)
    if fm == 0 or fm == Fraction(1, 2):
        raise DegenerateParameter(f"{mu} is a multiple of 1/2")
    z1, z2, _ = _one_step(v1, v2)
    if _frac(v2[z1]) == 0 or _frac(v2[z2]) == 0:
        raise PreconditionViolated("both clocks of v2 must have nonzero fractional part")
    m = math.floor(mu)
    b = _frac(v1[z2])
    f1 = _frac(v2[z1])
    f2 = _frac(v2[z2])
    z20 = math.floor(v1[z2])
    c1 = math.floor(v2[z1])
    c2 = math.floor(v2[z2])
    same = c2 == z20 + c1

    out: set[tuple[str, Fraction, Fraction]] = set()

    def emit(case_id: str, kappa: Fraction, eps: Fraction) -> None:
        assert 0 <= eps < _case_bound(case_id, b, fm), case_id
        out.add((case_id, kappa, eps))

    if c1 != m:
        if same:
            emit("1", b, f2 - b)
        else:
            emit("2", Fraction(0), f2)
    else:
        if same:
            if v2[z1] >= mu:
                emit("3a", b + fm, f2 - (b + fm))
            else:
                emit("3b", b, f2 - b)
        elif 1 - b < fm:
            if v2[z1] >= mu:
                emit("4ai", b - (1 - fm), f2 - (b - (1 - fm)))
            else:
                emit("4aii", Fraction(0), f2)
        else:
            emit("4b", Fraction(0), f2)

    if c2 != m:
        if same:
            emit("6", Fraction(0), f1)
        else:
            emit("5", 1 - b, f1 - (1 - b))
    else:
        if not same:
            if v2[z2] >= mu:
                emit("7a", 1 - b + fm, f1 - (1 - b + fm))
            else:
                emit("7b", 1 - b, f1 - (1 - b))
        elif b < fm:
            if v2[z2] >= mu:
                emit("8ai", fm - b, f1 - (fm - b))
            else:
                emit("8aii", Fraction(0), f1)
        else:
            emit("8b", Fraction(0), f1)
    return out


# ---------------------------------------------------------------------------
# One-reset sequences and agreement transport


@dataclass(frozen=True)
class OneResetSeq:
    """Valuations v0, v1, ... where v0(z1) = 0 and each step adds one positive delay."""

    z1: str
    z2: str
    valuations: tuple[Valuation, ...]

    @classmethod
    def of(cls, z1: str, z2: str, valuations: Sequence[Valuation]) -> "OneResetSeq":
        vals = tuple(valuations)
        if z1 == z2:
            raise PreconditionViolated("the two clocks must differ")
        if not vals:
            raise PreconditionViolated("at least one valuation required")
        for v in vals:
            if set(v.keys()) != {z1, z2}:
                raise PreconditionViolated("every valuation must bind exactly the two clocks")
        if vals[0][z1] != 0:
            raise PreconditionViolated(f"the reset clock must start at 0, got {vals[0][z1]}")
        for i in range(1, len(vals)):
            d = vals[i][z1] - vals[i - 1][z1]
            if d <= 0:
                raise PreconditionViolated(f"delay {i} must be positive, got {d}")
            if vals[i][z2] - vals[i - 1][z2] != d:
                raise PreconditionViolated(f"step {i} is not a single shared delay")
        return cls(z1, z2, vals)

    @property
    def v0(self) -> Valuation:
        return self.valuations[0]

    def deltas(self) -> tuple[Fraction, ...]:
        return tuple(
            self.valuations[i][self.z1] - self.valuations[i - 1][self.z1]
            for i in range(1, len(self.valuations))
        )


# An interval of admissible values: (lo, lo_open, hi, hi_open), hi None = unbounded.
_Iv = tuple[Fraction, bool, Optional[Fraction], bool]


def _marks(mu: Fraction, c: int) -> list[Fraction]:
    marks = [Fraction(k) for k in range(2 * c + 1)]
    marks.append(mu)
    return sorted(marks)


def _cell(value: Fraction, marks: list[Fraction], marks_to: list[Fraction]) -> _Iv:
    """Map value's position among marks to the matching span of marks_to.

    Both mark lists have identical length and identical relative order of
    the parameter mark (equal floors), so matching by index is exact.
    """
    for i, mk in enumerate(marks):
        if value == mk:
            t = marks_to[i]
            return (t, False, t, False)
        if value < mk:
            return (marks_to[i - 1], True, marks_to[i], True)
    return (marks_to[-1], True, None, True)


def _isect(a: _Iv, b: _Iv) -> Optional[_Iv]:
    lo, lo_o = max((a[0], a[1]), (b[0], b[1]))
    his = [(x[2], x[3]) for x in (a, b) if x[2] is not None]
    if not his:
        hi, hi_o = None, True
    else:
        # smaller bound wins; on a tie the open (strict) bound is tighter
        hi, hi_o = min(his, key=lambda p: (p[0], not p[1]))
    if hi is not None and (lo > hi or (lo == hi and (lo_o or hi_o))):
        return None
    return (lo, lo_o, hi, hi_o)


def _shift(iv: _Iv, off: Fraction) -> _Iv:
    return (iv[0] + off, iv[1], None if iv[2] is None else iv[2] + off, iv[3])


def agreement_transport(
    xi: OneResetSeq, mu: Rational, muh: Rational, vh0: Valuation, c: int
) -> OneResetSeq:
    """Rebuild xi over the parameter value muh, preserving atom-level agreement.

    At step i the admissible total elapsed time is an interval cut out by
    the cells of both clocks; equality pins force a point, otherwise a
    midpoint is taken, with upper caps propagated backward so a choice
    never paints later steps into a corner.  Infeasible here means the
    transported system has no solution at all.
    """
    mu = Fraction(mu)
    muh = Fraction(muh)
    ctx = polarity_ctx(mu)
    ctxh = polarity_ctx(muh)
    if ctx.m != ctxh.m:
        raise FloorMismatch(f"floor {ctx.m} vs {ctxh.m}")
    if ctx.polarity != ctxh.polarity:
        raise PolarityMismatch(f"{ctx.polarity} vs {ctxh.polarity}")
    if not in_complete_agreement(xi.v0, vh0, mu, muh, c):
        raise NotCompleteAgreement("starting valuations are not in complete agreement")

    n = len(xi.valuations) - 1
    if n == 0:
        return OneResetSeq.of(xi.z1, xi.z2, (vh0,))
    marks = _marks(mu, c)
    marks_hat = _marks(muh, c)
    base2 = vh0[xi.z2]

    windows: list[_Iv] = []
    for i in range(1, n + 1):
        vi = xi.valuations[i]
        i1 = _cell(vi[xi.z1], marks, marks_hat)
        i2 = _shift(_cell(vi[xi.z2], marks, marks_hat), -base2)
        w = _isect(i1, i2)
        if w is None:
            raise Infeasible(f"step {i}: clock cells exclude each other")
        windows.append(w)

    # Upper caps folded backward: a choice at step i must leave room for i+1.
    caps: list[tuple[Optional[Fraction], bool]] = [(None, True)] * n
    caps[n - 1] = (windows[n - 1][2], windows[n - 1][3])
    for i in range(n - 2, -1, -1):
        hi, hi_o = windows[i][2], windows[i][3]
        nxt = caps[i + 1][0]
        if nxt is not None and (hi is None or nxt < hi or (nxt == hi and not hi_o)):
            hi, hi_o = nxt, True
        caps[i] = (hi, hi_o)

    out = [vh0]
    prev = Fraction(0)
    for i in range(n):
        lo, lo_o = windows[i][0], windows[i][1]
        if prev > lo or (prev == lo and not lo_o):
            lo, lo_o = prev, True
        hi, hi_o = caps[i]
        if hi is None:
            total = lo + 1
        elif lo < hi:
            total = (lo + hi) / 2
        elif lo == hi and not lo_o and not hi_o:
            total = lo
        else:
            raise Infeasible(f"step {i + 1}: no admissible elapsed total")
        assert total > prev
        v = Valuation.of({xi.z1: total, xi.z2: base2 + total})
        assert in_agreement(xi.valuations[i + 1], v, mu, muh, c)
        out.append(v)
        prev = total
    return OneResetSeq.of(xi.z1, xi.z2, out)


def classify_critical_sequence(
    prev_start: Valuation, cur_start: Valuation, ctx: PolarityContext
) -> bool:
    """Whether the one-reset sequence starting at cur_start counts as critical.

    The only non-critical pattern: both starts reset the same clock, the
    other clock is nonzero with class in S_Z, and class and floor agree
    across the two starts.
    """
    if set(prev_start.keys()) != set(cur_start.keys()) or len(prev_start) != 2:
        raise PreconditionViolated("two matching clocks required")
    for name, val in (("prev_start", prev_start), ("cur_start", cur_start)):
        if not any(val[z] == 0 for z in val.keys()):
            raise PreconditionViolated(f"{name} must have a zero clock")
    if all(cur_start[z] == 0 for z in cur_start.keys()):
        return True
    if all(prev_start[z] == 0 for z in prev_start.keys()):
        return True
    (pz,) = [z for z in prev_start.keys() if prev_start[z] == 0]
    (cz,) = [z for z in cur_start.keys() if cur_start[z] == 0]
    if pz != cz:
        return True
    (z2,) = set(prev_start.keys()) - {pz}
    cls_prev = interval_class(_frac(prev_start[z2]), ctx)
    if cls_prev not in ctx.s_z:
        return True
    cls_cur = interval_class(_frac(cur_start[z2]), ctx)
    if cls_prev == cls_cur and math.floor(prev_start[z2]) == math.floor(cur_start[z2]):
        return False
    return True


def compress_region_lasso(
    path: Sequence, q_bound: int, ra: Optional[RegionAutomaton] = None
) -> list:
    """Excise loops so no (state, Region) value occurs more than q_bound times.

    Each splice keeps the first occurrence and the last q_bound - 1, so
    endpoints survive.  With a region automaton supplied, connectivity of
    the input and of the result is verified edge by edge.
    """
    if q_bound < 1:
        raise PreconditionViolated(f"q_bound must be at least 1, got {q_bound}")
    nodes = list(path)

    def check_connected(ns: list) -> None:
        if ra is None:
            return
        index = {node: i for i, node in enumerate(ra.nodes)}
        for u, w in zip(ns, ns[1:]):
            try:
                i = index[u]
                j = index[w]
            except KeyError as exc:
                raise Disconnected(f"{exc.args[0]} is not a region-automaton node") from None
            if all(jj != j for _, jj in ra.edges[i]):
                raise Disconnected(f"no edge between consecutive path nodes {i} and {j}")

    check_connected(nodes)
    while True:
        occ: dict = {}
        for idx, nd in enumerate(nodes):
            occ.setdefault(nd, []).append(idx)
        pinch = next((o for o in occ.values() if len(o) > q_bound), None)
        if pinch is None:
            break
        nodes = nodes[: pinch[0] + 1] + nodes[pinch[len(pinch) - q_bound] + 1 :]
    check_connected(nodes)
    return nodes


# ---------------------------------------------------------------------------
# Region lassos: the projection of a zone lasso, and concretization


def region_at(names: Sequence[str], ticks: Sequence[int], q: int, m: int) -> Region:
    """Canonical region, bound m, of the clock values ticks[i] / q of the sorted names.

    A value above m * q ticks is above m; any other has integer part and
    fractional ticks divmod(t, q), and clocks with equal fractional ticks
    share a group of the order.
    """
    cap = m * q
    above: list[str] = []
    floors: list[tuple[str, int]] = []
    zero: list[str] = []
    frac_groups: dict[int, list[str]] = {}
    for z, t in zip(names, ticks):
        if t > cap:
            above.append(z)
            continue
        k, f = divmod(t, q)
        floors.append((z, k))
        if f:
            frac_groups.setdefault(f, []).append(z)
        else:
            zero.append(z)
    order = tuple(tuple(frac_groups[f]) for f in sorted(frac_groups))
    return Region(m, frozenset(above), tuple(floors), frozenset(zero), order)


def region_of(v: Valuation, m: int) -> Region:
    """Canonical region of v with boundary constant m >= 1."""
    if m < 1:
        raise PreconditionViolated(f"region bound must be at least 1, got {m}")
    q = math.lcm(*[val.denominator for val in v.values()])
    return region_at(v.keys(), [val.numerator * (q // val.denominator) for val in v.values()], q, m)


def region_lasso(s: Scaled, lasso: ZoneLasso, m: int) -> SymbolicLasso:
    """The region lasso, bound m, that the earliest concrete run along a zone lasso follows.

    Solves the stem plus k laps for k = 1, 2, 4, ... with `earliest_ticks`,
    gives each event's clock values as a Valuation of Fractions and its
    region by region_of, and cuts the run at the first lap boundary whose
    (state, region) node recurs.  There are finitely many such nodes, so
    by the pigeonhole principle some k does, and the lasso is an infinite
    run, not only k laps of one.
    """
    stem_len, cycle_len = len(lasso.stem), len(lasso.cycle)
    laps = 1
    while True:
        steps = lasso.stem + lasso.cycle * laps
        ticks, q = earliest_ticks(s, steps)
        reset_at = [Fraction(0)] * len(s.caps)
        nodes = [(s.initial, zero_region(s.clocks, m))]
        for (_, target, _, resets, _), now in zip(steps, [Fraction(k, q) for k in ticks]):
            for x in resets:
                reset_at[x] = now
            v = Valuation.of({z: now - reset_at[x] for x, z in enumerate(s.clocks, 1)})
            nodes.append((target, region_of(v, m)))
        first_at: dict = {}
        for j in range(stem_len, len(nodes), cycle_len):
            i = first_at.setdefault(nodes[j], j)
            if i != j:
                edges = tuple(step[0] for step in steps)
                return SymbolicLasso(
                    tuple(nodes[: i + 1]), edges[:i], tuple(nodes[i:j]), edges[i:j]
                )
        laps *= 2


def positive_delay_successors(r: Region) -> tuple[Region, ...]:
    """Every region reachable by some delta > 0, in chain order.

    Includes r itself exactly when r is time-open.
    """
    return tuple(_delay_fan(r))


def _pick_delay(v: Valuation, fire: Region, m: int, allow_zero: bool) -> Fraction:
    """An exact delay moving v into the region fire."""
    pin: Optional[Fraction] = None
    lo = Fraction(0)
    hi: Optional[Fraction] = None
    floors = dict(fire.floors)
    for z in v.keys():
        val = v[z]
        if z in fire.above:
            b = Fraction(m) - val
            if b > lo:
                lo = b
        elif z in fire.zero:
            d = Fraction(floors[z]) - val
            if pin is not None and pin != d:
                raise Infeasible("conflicting exact-integer requirements on the delay")
            pin = d
        else:
            b_lo = Fraction(floors[z]) - val
            b_hi = Fraction(floors[z] + 1) - val
            if b_lo > lo:
                lo = b_lo
            if hi is None or b_hi < hi:
                hi = b_hi
    if pin is not None:
        delta = pin
        if delta < 0 or (delta == 0 and not allow_zero):
            raise Infeasible(f"required delay {delta} is not allowed here")
    elif hi is None:
        delta = lo + 1
    else:
        if hi <= lo:
            raise Infeasible("empty delay window")
        delta = (lo + hi) / 2
    return delta


def concretize_lasso(
    a: Automaton, m: int, lasso: SymbolicLasso, unrollings: int = 1
) -> TimedWord:
    """A finite timed word following the stem plus `unrollings` cycle laps.

    Deterministic: the word for unrollings+1 extends the word for
    unrollings.  Timestamps are exact rationals chosen inside each fire
    region (pinned when a clock must hit an integer, midpoint otherwise).
    """
    if unrollings < 1:
        raise PreconditionViolated("unrollings must be at least 1")
    pairs: list[tuple[int, RANode]] = list(zip(lasso.stem_edges, lasso.stem_nodes[1:]))
    kc = len(lasso.cycle_nodes)
    for _ in range(unrollings):
        for i in range(kc):
            pairs.append((lasso.cycle_edges[i], lasso.cycle_nodes[(i + 1) % kc]))

    v = zero_valuation(a.clocks)
    now = Fraction(0)
    events: list[tuple[str, Fraction]] = []
    cur_region = lasso.stem_nodes[0][1]
    for j, (t_idx, target) in enumerate(pairs):
        t = a.transitions[t_idx]
        candidates: list[Region] = []
        if j == 0:
            candidates.append(cur_region)
        candidates.extend(positive_delay_successors(cur_region))
        fire = None
        for rr in candidates:
            if region_sat(rr, t.guard) and region_reset(rr, t.resets) == target[1]:
                fire = rr
                break
        if fire is None:
            raise Infeasible(f"edge {t_idx} cannot fire from region {region_str(cur_region)}")
        delta = _pick_delay(v, fire, m, allow_zero=(j == 0))
        now += delta
        events.append((t.letter, now))
        v = reset_apply(elapse(v, delta), t.resets)
        cur_region = target[1]
        if region_of(v, m) != cur_region:
            raise Infeasible("concretized valuation left the symbolic path")
    return TimedWord.of(events)


# ---------------------------------------------------------------------------
# Randomized trials


_DENS = (2, 3, 4, 5, 6, 7, 8, 10, 12, 16)


def _rand_frac01(rng: random.Random, nonzero: bool = False) -> Fraction:
    den = rng.choice(_DENS)
    num = rng.randrange(1 if nonzero else 0, den)
    return Fraction(num, den)


def _rand_mu(rng: random.Random, max_floor: int = 3) -> Fraction:
    while True:
        f = _rand_frac01(rng, nonzero=True)
        if f != Fraction(1, 2):
            return rng.randrange(max_floor + 1) + f


def _rand_delta(rng: random.Random) -> Fraction:
    den = rng.choice(_DENS)
    return Fraction(rng.randrange(1, 4 * den), den)


def _suite_rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _suite_prop1(rng: random.Random) -> Optional[str]:
    z20 = rng.randrange(3)
    v0 = Valuation.of({"x": 0, "y": z20 + _rand_frac01(rng, nonzero=True)})
    mu = _rand_mu(rng)
    m = math.floor(mu)
    if rng.random() < 0.5:
        delta = _rand_delta(rng)
    else:
        # aim a clock into the open unit interval above floor(mu)
        target = m + _rand_frac01(rng, nonzero=True)
        delta = target if rng.random() < 0.5 else target - v0["y"]
        if delta <= 0:
            delta = target
    cases = critval_cases(v0, delta, mu)
    if is_critical(elapse(v0, delta), mu) and not cases:
        return f"critical but no case: v0={v0.as_dict()}, delta={delta}, mu={mu}"
    return None


def _rand_step(rng: random.Random) -> tuple[Valuation, Valuation]:
    while True:
        z20 = rng.randrange(3)
        b = _rand_frac01(rng)
        y0 = z20 + b
        if y0 == 0:
            continue
        delta = _rand_delta(rng)
        if _frac(delta) == 0 or _frac(y0 + delta) == 0:
            continue
        v1 = Valuation.of({"x": 0, "y": y0})
        return v1, elapse(v1, delta)


def _suite_prop2(rng: random.Random) -> Optional[str]:
    v1, v2 = _rand_step(rng)
    shape = pr2_shape(v1, v2)
    z20 = math.floor(v1["y"])
    c1 = math.floor(v2["x"])
    c2 = math.floor(v2["y"])
    expect = SAME if c2 == z20 + c1 else PLUS_ONE
    if shape != expect:
        return f"shape {shape} vs {expect} at v1={v1.as_dict()}"
    return None


def _suite_lemma4(rng: random.Random) -> Optional[str]:
    v1, v2 = _rand_step(rng)
    mu = _rand_mu(rng)
    cases = fracvalue_case(v1, v2, mu)
    ids = {cid for cid, _, _ in cases}
    if not ids & _Z2_CASES or not ids & _Z1_CASES:
        return f"family missing in {ids}"
    b = _frac(v1["y"])
    fm = _frac(mu)
    for cid, kappa, eps in cases:
        f = _frac(v2["x"]) if cid in _Z1_CASES else _frac(v2["y"])
        if not (0 <= eps < _case_bound(cid, b, fm)) or kappa + eps != f:
            return f"case {cid} bound broken at v1={v1.as_dict()}, mu={mu}"
    return None


def _sample_in_class(rng: random.Random, cls: IntervalClass, ctx: PolarityContext) -> Fraction:
    lo, hi = interval_bounds(cls, ctx)
    if lo == hi:
        return lo
    den = rng.choice(_DENS)
    span = hi - lo
    return lo + span * Fraction(rng.randrange(1, 2 * den), 2 * den)


def _matched_start(
    rng: random.Random,
) -> tuple[Fraction, Fraction, int, Valuation, Valuation]:
    mu = _rand_mu(rng, max_floor=2)
    m = math.floor(mu)
    while True:
        f = _rand_frac01(rng, nonzero=True)
        if f != Fraction(1, 2) and (f < Fraction(1, 2)) == (_frac(mu) < Fraction(1, 2)):
            muh = m + f
            break
    c = max(1, m + 1)
    ctx = polarity_ctx(mu)
    ctxh = polarity_ctx(muh)
    cls = rng.choice(list(IntervalClass))
    floor2 = rng.randrange(2 * c)
    b = _sample_in_class(rng, cls, ctx)
    bh = _sample_in_class(rng, cls, ctxh)
    if floor2 + max(b, bh) > 2 * c:
        floor2 = 0
    v0 = Valuation.of({"x": 0, "y": floor2 + b})
    vh0 = Valuation.of({"x": 0, "y": floor2 + bh})
    return mu, muh, c, v0, vh0


def _suite_lemma3(rng: random.Random) -> Optional[str]:
    mu, muh, c, v0, vh0 = _matched_start(rng)
    if not in_complete_agreement(v0, vh0, mu, muh, c):
        return f"sampler broke agreement: mu={mu}, muh={muh}"
    vals = [v0]
    for _ in range(rng.randrange(1, 9)):
        vals.append(elapse(vals[-1], _rand_delta(rng)))
    xi = OneResetSeq.of("x", "y", vals)
    try:
        hat = agreement_transport(xi, mu, muh, vh0, c)
    except (PntaError, AssertionError) as exc:
        return f"transport failed: {exc}; mu={mu}, muh={muh}, v0={v0.as_dict()}"
    ok = len(hat.valuations) == len(xi.valuations) and hat.v0 == vh0 and all(
        in_agreement(xi.valuations[i], hat.valuations[i], mu, muh, c)
        for i in range(1, len(vals))
    )
    if not ok:
        return f"postcondition broken: mu={mu}, muh={muh}"
    return None


def _suite_classes(rng: random.Random) -> Optional[str]:
    ctx = polarity_ctx(_rand_mu(rng))
    f = _rand_frac01(rng)
    members = []
    for cls in IntervalClass:
        lo, hi = interval_bounds(cls, ctx)
        inside = f == lo if lo == hi else lo < f < hi
        if inside:
            members.append(cls)
    if len(members) != 1 or interval_class(f, ctx) != members[0]:
        return f"partition broken at f={f}, mu={ctx.mu}"
    return None


def _suite_low_k(rng: random.Random) -> Optional[str]:
    ctx = polarity_ctx(_rand_mu(rng))
    cls = rng.choice(sorted(ctx.s_z))
    lo, hi = interval_bounds(cls, ctx)
    f = _sample_in_class(rng, cls, ctx)
    try:
        k = low_k(f, ctx)
    except ChiTooLarge:
        if ctx.chi < hi - lo:
            return f"spurious ChiTooLarge at mu={ctx.mu}"
        return None
    if not (hi - k * ctx.chi <= f < hi - (k - 1) * ctx.chi):
        return f"bracket broken at f={f}, mu={ctx.mu}"
    return None
