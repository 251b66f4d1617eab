"""Zone-graph emptiness against the region-based search."""

import gc
import os
import random
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pnta import (
    TRUE,
    And,
    Automaton,
    Not,
    PreconditionViolated,
    RegionBudgetExceeded,
    TimedWord,
    Transition,
    emptiness_fixed,
    eq,
    eval_constraint,
    find_lasso,
    ge,
    gt,
    le,
    lt,
    ne,
    parse_automaton,
    prepare_fixed,
    witness_word,
    zone_lasso,
    zone_nonempty,
)
from pnta import regions, zones
from pnta.regions import _search_lasso
from pnta.zones import (
    _LE0,
    INF,
    Scaled,
    _bnd,
    _canonical,
    _frame,
    _gather,
    _kept_frame,
    _limits,
    _union,
    _zone_graph,
    compile_automaton,
    earliest_ticks,
)
from lemmas import concretize_lasso, region_lasso
from randgen import dnf, rand_nrtta, rand_ta, reaches_acceptance

WINDOW_FIXED = """
automaton wf
clocks x
alphabet a
init q0
accept q2
trans q0 q1 a ( x = 2 ) { }
trans q1 q2 a ( x = 3 ) { }
trans q2 q2 a ( true ) { }
"""


def _at(a, mu=None):
    """The Scaled form of a at mu, as a check builds it."""
    return compile_automaton(a).at(mu)


def test_zone_nonempty_on_fixed_window():
    a = parse_automaton(WINDOW_FIXED)
    nonempty, nodes = zone_nonempty(_at(a))
    assert nonempty
    assert nodes >= 1


def test_zone_rejects_parametric_input():
    a = parse_automaton(
        "automaton p\nclocks x\nparams mu\ninit q0\naccept q0\n"
        "trans q0 q0 a ( x = mu ) { }\n"
    )
    with pytest.raises(PreconditionViolated):
        zone_nonempty(_at(a))


def test_zone_budget():
    a = parse_automaton(WINDOW_FIXED)
    with pytest.raises(RegionBudgetExceeded):
        zone_nonempty(_at(a), max_nodes=1)


def test_zone_first_event_at_zero():
    a = parse_automaton(
        "automaton z\nclocks x\ninit q0\naccept q1\n"
        "trans q0 q1 a ( x = 0 ) { }\n"
        "trans q1 q1 a ( true ) { }\n"
    )
    assert zone_nonempty(_at(a))[0]


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_zone_matches_region_verdict(seed, nrt):
    """Both engines must return the same emptiness verdict."""
    rng = random.Random(seed)
    a = rand_nrtta(rng, cmax=3) if nrt else rand_ta(rng, max_states=3, cmax=2)
    scaled, m, _ = prepare_fixed(a, None)
    zone_verdict = zone_nonempty(_at(a))[0]
    region_verdict = find_lasso(scaled, m) is not None
    assert zone_verdict == region_verdict


_FINITE = st.builds(_bnd, st.integers(-6, 6), st.booleans())
_BOUNDS = st.one_of(st.just(INF), _FINITE)


@st.composite
def canonical_dbms(draw):
    """(d, n): a random nonempty flat DBM over n - 1 clocks, closed by _canonical.

    d is the n x n matrix row by row: d[i * n + j] bounds clock i minus clock j.
    """
    n = draw(st.integers(1, 4))
    d = [_bnd(0, True) if i == j else draw(_BOUNDS) for i in range(n) for j in range(n)]
    assume(_canonical(d, n))
    return d, n


def _closed(d, n):
    """(nonempty, matrix) of a full closure of a copy of d."""
    c = d[:]
    return _canonical(c, n), c


# a-a-a reaches the accepting loop first in depth-first order, and b reaches the same
# delayed zone at q2, so the shortest stem is b; the dead-end c chain makes the whole
# graph larger than the early-exit search
BRANCHES = """
automaton br
clocks x
init q0
accept q2
trans q0 q1 a ( true ) { }
trans q1 q3 a ( true ) { }
trans q3 q2 a ( true ) { }
trans q2 q2 a ( true ) { }
trans q0 q2 b ( x < 1 ) { }
trans q0 p1 c ( true ) { }
trans p1 p2 c ( true ) { }
trans p2 p3 c ( true ) { }
"""


def _lasso_word(s, lasso, laps):
    """The earliest word along lasso's stem and laps, in s's scaled time unit."""
    steps = lasso.stem + lasso.cycle * laps
    ticks, q = earliest_ticks(s, steps)
    return TimedWord.of((step[2], Fraction(k, q)) for step, k in zip(steps, ticks))


def test_zone_lasso_does_not_depend_on_the_budget():
    a = parse_automaton(BRANCHES)
    s = _at(a)
    assert s.d == 1
    assert zone_nonempty(s, max_nodes=4) == (True, 4)
    for lasso, nodes in (zone_lasso(s), zone_lasso(s, max_nodes=4)):
        assert nodes == 4
        assert _lasso_word(s, lasso, 1).letters() == ("b", "a")
        assert reaches_acceptance(a, _lasso_word(s, lasso, 3))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_lasso_recovery_expands_nothing(seed, nrt):
    """A budget of exactly the deciding search's nodes gives the same lasso and count."""
    rng = random.Random(seed)
    a = rand_nrtta(rng, cmax=3) if nrt else rand_ta(rng, max_states=3, cmax=2)
    s = _at(a)
    n = zone_nonempty(s)[1]
    assert zone_lasso(s, n) == zone_lasso(s)
    assert zone_lasso(s, n)[1] == n


def test_zone_lasso_absent_on_empty_language():
    a = parse_automaton(
        "automaton e\nclocks x\ninit q0\naccept q1\ntrans q0 q1 a ( x < 1 ) { }\n"
    )
    assert zone_lasso(_at(a))[0] is None


def test_run_timestamps_are_earliest_and_exact():
    s = _at(parse_automaton(WINDOW_FIXED))
    lasso, _ = zone_lasso(s)
    ticks, q = earliest_ticks(s, lasso.stem + lasso.cycle * 2)
    times = [Fraction(k, q) for k in ticks]
    assert times[:2] == [2, 3]  # x = 2 and x = 3 pin the stem
    assert all(3 < t < 4 for t in times[2:])  # the loop needs only strictly later events


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_zone_lasso_runs_and_projects_onto_regions(seed, nrt):
    """A nonempty verdict's zone lasso has a concrete run that the region engine replays."""
    rng = random.Random(seed)
    a = rand_nrtta(rng, cmax=3) if nrt else rand_ta(rng, max_states=3, cmax=2)
    s = _at(a)
    scaled, m, _ = prepare_fixed(a, None)
    lasso, _ = zone_lasso(s)
    assert (lasso is not None) == zone_nonempty(s)[0]
    if lasso is None:
        return
    for laps in (1, 2):
        assert reaches_acceptance(scaled, _lasso_word(s, lasso, laps))
    projected = region_lasso(s, lasso, m)
    assert projected.stem_nodes[-1] == projected.cycle_nodes[0]
    assert reaches_acceptance(scaled, concretize_lasso(scaled, m, projected, 2))


def _intervals(literals):
    """Per clock, the (lower, upper) that a conjunction of literals (clock, op, c) leaves.

    A lower bound reads (c, 1 if strict else 0), from (0, 0), "z >= 0",
    and an upper (c, 0 if strict else 1), from None, no bound: each
    compares as its bound tightens, up for a lower one, down for an upper.
    """
    out = {}
    for z, op, c in literals:
        lo, hi = out.get(z, ((0, 0), None))
        if op in (">", ">=", "="):
            lo = max(lo, (c, int(op == ">")))
        if op in ("<", "<=", "="):
            hi = min(hi, (c, int(op != "<"))) if hi else (c, int(op != "<"))
        out[z] = (lo, hi)
    return out


def _step_literals(s, step):
    """The literals (clock, op, c) of a step's box, read from its bounds."""
    out = []
    for x, y, b in s.bounds(step):
        if y == 0:
            out.append((s.clocks[x - 1], "<=" if b & 1 else "<", b >> 1))
        else:
            out.append((s.clocks[y - 1], ">=" if b & 1 else ">", -(b >> 1)))
    return out


def _inside(ivs, box):
    """Whether the _intervals ivs are nonempty and lie inside box's, clock by clock."""
    if not all(hi is None or lo[0] < hi[0] or lo == (hi[0], 0) and hi[1]
               for lo, hi in ivs.values()):
        return False
    for z, (box_lo, box_hi) in box.items():
        lo, hi = ivs.get(z, ((0, 0), None))
        if lo < box_lo or box_hi is not None and (hi is None or hi > box_hi):
            return False
    return True


def _literal_timestamps(a, s, steps):
    """Earliest timestamps as read from guards before the compiled form: literals of dnf.

    a is a scaled parameter-free automaton and s the Scaled the steps are
    from.  A step's box is the union of the nonempty dnf disjuncts of its
    guard that lie inside it, so per clock z the loosest of their lower
    and of their upper bounds bound tau_i - tau_r, r the last event that
    reset z.
    """
    lower = []
    last_reset = dict.fromkeys(a.clocks, 0)
    for i, step in enumerate(steps, 1):
        t = a.transitions[step[0]]
        box = _intervals(_step_literals(s, step))
        inside = [ivs for ivs in map(_intervals, dnf(t.guard)) if _inside(ivs, box)]
        assert inside, (t.guard, step)
        lower.append((i, i - 1, 0, 0 if i == 1 else 1))
        for z in sorted({z for ivs in inside for z in ivs}):
            r = last_reset[z]
            los = [ivs.get(z, ((0, 0), None))[0] for ivs in inside]
            his = [ivs.get(z, ((0, 0), None))[1] for ivs in inside]
            c, strict = min(los)
            lower.append((i, r, c, strict))
            if None not in his:
                c, weak = max(his)
                lower.append((r, i, -c, 1 - weak))
        for z in t.resets:
            last_reset[z] = i
    tau = [(0, 0)] * (len(steps) + 1)
    for _ in range(len(tau) + 1):
        changed = False
        for u, v, c, e in lower:
            bound = (tau[v][0] + c, tau[v][1] + e)
            if bound > tau[u]:
                tau[u] = bound
                changed = True
        if not changed:
            break
    else:
        raise AssertionError("no concrete run")
    eps = Fraction(1, max(e for _, e in tau) + 1)
    return [c + e * eps for c, e in tau[1:]]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["nrt", "param", "ta"]), st.integers(1, 3))
def test_run_timestamps_match_the_literal_constraints(seed, kind, laps):
    """Bounds of the compiled form give the timestamps that guard literals give.

    Parametric draws are checked at 3/7, where constants scale by 7.
    """
    rng = random.Random(seed)
    if kind == "ta":
        a, mu = rand_ta(rng, max_states=3, cmax=2), None
    else:
        a = rand_nrtta(rng, cmax=3, param="p" if kind == "param" else None)
        mu = Fraction(3, 7) if a.params else None
    s = _at(a, mu)
    lasso, _ = zone_lasso(s)
    if lasso is None:
        return
    steps = lasso.stem + lasso.cycle * laps
    scaled, _, d = prepare_fixed(a, mu)
    assert d == s.d
    ticks, q = earliest_ticks(s, steps)
    assert [Fraction(k, q) for k in ticks] == _literal_timestamps(scaled, s, steps)


_GUARD_C = 2  # the largest constant a drawn guard compares a clock with


def _guards():
    """Guards over clocks x and y: comparisons with 0.._GUARD_C or the parameter p, under ! and &.

    Built through the API, so one guard may mix constants and the parameter.
    """
    leaves = st.one_of(
        st.just(TRUE),
        st.builds(lambda op, z, b: op(z, b), st.sampled_from([lt, eq, le, gt, ge, ne]),
                  st.sampled_from(["x", "y"]), st.one_of(st.integers(0, _GUARD_C), st.just("p"))))
    return st.recursive(leaves, lambda g: st.one_of(st.builds(Not, g), st.builds(And, g, g)),
                        max_leaves=8)


def _box(step):
    """Per slot (clock index, by the parameter), the interval (lower, upper) of a step's templates.

    A lower bound reads (c, 1 if strict else 0), an upper (c, 0 if strict
    else 1), a parameter's at c = 0; None is no bound.  A constant lower
    bound starts at (0, 0), "x >= 0".
    """
    out = {}
    for x, y, coef, p, w in step[4]:
        slot = (x or y, p != 0)
        lo, hi = out.get(slot, (None if p else (0, 0), None))
        c = 0 if p else Fraction(coef, 2) * (1 if y == 0 else -1)
        if y == 0:
            assert hi is None
            hi = (c, int(w))
        else:
            assert lo in (None, (0, 0))
            lo = (c, 1 - w)
        out[slot] = (lo, hi)
    return out


def _reaches(a, b):
    """Whether interval a's upper end reaches interval b's lower end, with no gap between."""
    (_, hi), (lo, _) = a, b
    return hi is None or lo is None or hi[0] > lo[0] or hi[0] == lo[0] and (hi[1] or not lo[1])


@settings(max_examples=100, deadline=None)
@given(_guards())
@example(And(le("x", 2), gt("x", "p")))
@example(And(ne("x", "p"), And(ge("y", 1), lt("y", "p"))))
@example(Not(And(Not(And(lt("x", 1), lt("y", 1))), Not(And(ge("x", 1), lt("y", 2))))))
@example(Not(And(And(le("x", 1), ge("x", 1)), lt("y", 1))))  # x < 1 or x > 1 or y >= 1
@example(Not(And(Not(And(lt("x", 1), lt("y", 1))),  # merges twice: on y, then on x
                 And(Not(And(lt("x", 1), ge("y", 1))), lt("x", 1)))))
def test_a_transitions_steps_accept_exactly_what_its_guard_accepts(g):
    """The steps of one transition are maximal boxes whose union is its guard.

    At p = k/2 up to 2C + 1 clock values k/2 apart, or k/4 when p is not
    whole, meet every interval the constants and p bound.  No box is empty
    on a slot, and no two merge: they differ on more than one slot, or on
    one with intervals there that neither touch nor overlap.
    """
    a = Automaton("g", {"a"}, {"q"}, {"x", "y"}, {"p"}, "q", {"q"},
                  [Transition("q", "q", "a", g)])
    compiled = compile_automaton(a)
    steps = compiled.out.get("q", ())
    boxes = [_box(step) for step in steps]
    slots = {slot for box in boxes for slot in box}
    unbounded = {slot: (None if slot[1] else (0, 0), None) for slot in slots}
    boxes = [{**unbounded, **box} for box in boxes]
    for box in boxes:
        assert all(lo is None or hi is None or lo[0] < hi[0] or lo == (hi[0], 0) and hi[1]
                   for lo, hi in box.values()), (g, box)
    for i, one in enumerate(boxes):
        for other in boxes[:i]:
            differ = [slot for slot in slots if one[slot] != other[slot]]
            assert differ, g
            if len(differ) == 1:
                i1, i2 = one[differ[0]], other[differ[0]]
                assert not (_reaches(i1, i2) and _reaches(i2, i1)), g
    for k in range(2 * _GUARD_C + 3):
        mu = Fraction(k, 2)
        s = compiled.at(mu)
        step_bounds = [s.bounds(step) for step in steps]
        grain = 2 if k % 2 == 0 else 4
        values = [Fraction(j, grain) for j in range(grain * (2 * _GUARD_C + 1) + 1)]
        for vx in values:
            for vy in values:
                v = (0, vx * s.d, vy * s.d)
                got = any(all(v[x] - v[y] <= b >> 1 if b & 1 else v[x] - v[y] < b >> 1
                              for x, y, b in bounds) for bounds in step_bounds)
                assert got == eval_constraint(g, {"x": vx, "y": vy}, {"p": mu}), (g, mu, vx, vy)


# The codes `_boxes` gives a slot's bounds: per constant slot "x >= 0" (open), "x > 0",
# "x >= 1", ... "x > 2" and no upper bound (open), "x < 0", "x <= 0", ... "x <= 2"; per
# parameter slot, whose code reads the parameter as 1, no bound (open), "x > p", "x >= p"
# and no bound, "x < p", "x <= p".
_LOWS = {None: (_LE0, 0, -1, -2, -3, -4), "p": (INF, -2, -1)}
_HIGHS = {None: (INF, 0, 1, 2, 3, 4, 5), "p": (INF, 2, 3)}
_X, _Y, _XP, _YP = ("x", None), ("y", None), ("x", "p"), ("y", "p")


def _open(slot):
    return _LOWS[slot[1]][0], INF


@st.composite
def _union_inputs(draw):
    """2 to 8 boxes over two or three slots, one of them the parameter's in most draws.

    Each box of a pool of 1 to 4 is an earlier one with one slot redrawn,
    so that boxes differ on one slot often, and the input draws from the
    pool, so that it repeats boxes.
    """
    slots = draw(st.sampled_from([(_X, _Y), (_X, _XP), (_X, _Y, _YP)]))

    def interval(slot):
        return draw(st.sampled_from([(lo, hi) for lo in _LOWS[slot[1]] for hi in _HIGHS[slot[1]]
                                     if lo + hi > 1]))

    pool = [{s: interval(s) for s in slots}]
    for _ in range(draw(st.integers(0, 3))):
        box = dict(draw(st.sampled_from(pool)))
        s = draw(st.sampled_from(slots))
        box[s] = interval(s)
        pool.append(box)
    pool = [{s: iv for s, iv in box.items() if iv != _open(s)} for box in pool]
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=8))]


def _holds(box, v):
    """Whether doubled clock values v, with v["p"] the doubled parameter, lie in a box."""
    for (clock, param), (lo, hi) in box.items():
        unit = v["p"] if param else 2  # what a code's value counts
        for e, b in ((v[clock], hi), (-v[clock], lo)):
            if b < INF and not (e <= (b >> 1) * unit if b & 1 else e < (b >> 1) * unit):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(_union_inputs())
@example([{_X: (_LE0, 2), _Y: (_LE0, 2)}, {_X: (_LE0, 2), _Y: (-1, INF)},  # on y, then on x
          {_X: (-1, INF)}])
@example([{_X: (_LE0, 2)}, {_X: (-1, 4)}, {_X: (-3, INF)}, {_X: (_LE0, 2)}])  # one run of three
@example([{_XP: (INF, 2)}, {_XP: (-1, 3)}, {_X: (_LE0, 2)}])  # "x < p" and "x = p": "x <= p"
@example([{}, {}])
def test_union_keeps_the_points_of_its_boxes_in_boxes_no_two_of_which_merge(boxes):
    """The union accepts what its input does, in boxes no two of which merge.

    A half-integer grid meets every end a code can set and a point between
    each two.  No output box stores an open interval, and no two differ on
    one slot only, with intervals there that touch or overlap, or on none.
    """
    before = [dict(box) for box in boxes]
    got = _union(boxes)
    assert boxes == before
    grid = range(7)  # 0, 1/2, ..., 3, doubled
    for x in grid:
        for y in grid:
            for p in grid:
                v = {"x": x, "y": y, "p": p}
                assert any(_holds(b, v) for b in got) == any(_holds(b, v) for b in boxes), v
    assert all(iv != _open(s) for box in got for s, iv in box.items())
    slots = {s for box in boxes for s in box}
    for i, one in enumerate(got):
        for other in got[:i]:
            differ = [s for s in slots if one.get(s, _open(s)) != other.get(s, _open(s))]
            assert differ, got
            if len(differ) == 1:
                (lo1, hi1), (lo2, hi2) = (b.get(differ[0], _open(differ[0])) for b in (one, other))
                assert hi1 + lo2 <= 0 or hi2 + lo1 <= 0, got


# Guards with unions of three or more boxes, over two clocks and a parameter slot:
# negated equalities, the L shapes of the guard test above, and two L shapes of three
# boxes whose two maximal boxes depend on the slot a union sweeps first.  On CPython
# 3.11 a set of their slots iterates in two orders under hash seeds 0 and 1.
_UNIONS = "".join(f"trans q0 q0 a ( {g} ) {{ }}\n" for g in (
    "!(x = 1 & y = 1)",
    "!(x = 1) & !(x = 2) & !(y = 1) & !(y = mu)",
    "!( !(x < 1 & y < 1) & !(x >= 1 & y < 2) )",
    "!( !(x < 1 & y < 1) & !(!(x < 1 & y >= 1) & x < 1) )",
    "!( !(x < mu & y <= 1) & !(x >= 1 & y > mu) & !(x = 2) )",
    "!( !(u < 1 & v < 1) & !(u < 1 & v >= 1) & !(u >= 1 & v < 1) )",
    "!( !(y < 1 & y < mu) & !(y < 1 & y >= mu) & !(y >= 1 & y < mu) )"))
_UNIONS = f"automaton unions\nclocks u v x y\nparams mu\ninit q0\naccept q0\n{_UNIONS}"


def test_compiled_steps_do_not_depend_on_string_hashing():
    """The unions' slots are swept in the order first met, so the steps are one list under any hash seed."""
    steps = compile_automaton(parse_automaton(_UNIONS)).out["q0"]
    assert [sum(step[0] == i for step in steps) for i in range(7)] == [4, 12, 2, 1, 3, 2, 2]
    probe = ("from pnta import parse_automaton\nfrom pnta.zones import compile_automaton\n"
             f"print(repr(compile_automaton(parse_automaton({_UNIONS!r})).out))")
    outputs = set()
    for seed in "01":
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed), timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9),
       st.sampled_from([("nrt", None), ("param", Fraction(3, 7)), ("param", Fraction(1, 40)),
                        ("ta", None)]))
def test_integer_ticks_project_as_fractions_do(seed, draw):
    """The witness words are the earliest run's integer ticks over ticks per time unit."""
    kind, mu = draw
    rng = random.Random(seed)
    if kind == "ta":
        a = rand_ta(rng, max_states=3, cmax=2)
    else:
        a = rand_nrtta(rng, cmax=3, param="p" if kind == "param" else None)
    v = emptiness_fixed(a, mu if a.params else None)
    if not v.nonempty:
        return
    s, lasso = v.scaled, v.zone_lasso
    for laps in (1, 2, 3):
        steps = lasso.stem + lasso.cycle * laps
        ticks, q = earliest_ticks(s, steps)
        assert witness_word(a, v, laps) == TimedWord.of(
            (step[2], Fraction(k, q * s.d)) for step, k in zip(steps, ticks))


# The successor's steps one by one, as the zone graph took them before its one-pass
# successor and its one-pass meet of a step's box: the reference both are checked against.
def _tighten(d, n, x, y, b):
    """Add d[x][y] <= b to a canonical DBM in O(n^2); False when that empties it.

    A new shortest path i -> j is an old one to x, the new edge and an old
    one from y, so one pass keeps the DBM canonical.
    """
    dyx = d[y * n + x]
    if dyx < INF and dyx + b - ((dyx | b) & 1) < _LE0:
        return False
    if b >= d[x * n + y]:
        return True
    dy = d[y * n:y * n + n]
    for i in range(0, n * n, n):
        dix = d[i + x]
        if dix >= INF:
            continue
        s = dix + b - ((dix | b) & 1)
        for j, dyj in enumerate(dy, i):
            if dyj < INF:
                v = s + dyj - ((s | dyj) & 1)
                if v < d[j]:
                    d[j] = v
    return True


def _up(d, n, strict):
    """Delay: drop upper bounds; with strict=True also require delta > 0."""
    d[n::n] = [INF] * (n - 1)
    if strict:
        for j in range(1, n):
            b = d[j]
            if b < INF and b & 1:
                d[j] = b - 1


def _reset(d, n, idxs):
    """Set the clocks idxs to 0: each one's row and column copy the zero clock's."""
    for x in idxs:
        d[x * n:x * n + n] = d[:n]
        d[x::n] = d[::n]
        d[x * n + x] = _LE0


def _extrapolate(d, n, caps):
    """Extra_M with a bound per clock; True when some bound changed.

    caps[i] is clock i's cap, 0 for the zero clock.  A bound d[i][j] above
    the row clock's cap is dropped, and one below minus the column clock's
    cap is raised to it, made strict.  d is canonical and nonempty, so its
    diagonal bounds "<= 0" are neither.
    """
    changed = False
    for i, ci in enumerate(caps):
        hi = 2 * ci + 1  # _bnd(ci, True)
        for k, cj in enumerate(caps, i * n):
            b = d[k]
            if hi < b < INF:
                d[k] = INF
                changed = True
            elif b < -2 * cj:  # below _bnd(-cj, False)
                d[k] = -2 * cj
                changed = True
    return changed


@settings(max_examples=300, deadline=None)
@given(canonical_dbms(), st.booleans(), st.data())
def test_up_and_reset_keep_a_dbm_canonical(dbm, strict, data):
    d, n = dbm
    _up(d, n, strict)
    assert _closed(d, n) == (True, d)
    idxs = tuple(sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else ()))
    _reset(d, n, idxs)
    assert _closed(d, n) == (True, d)


@settings(max_examples=300, deadline=None)
@given(canonical_dbms(), st.data())
def test_extrapolate_keeps_a_dbm_canonical_unless_it_widens_it(dbm, data):
    d, n = dbm
    caps = [0] + [data.draw(st.integers(0, 6)) for _ in range(n - 1)]
    if _extrapolate(d, n, caps):
        assert _canonical(d, n)  # widening never empties a zone
    else:
        assert _closed(d, n) == (True, d)


@settings(max_examples=400, deadline=None)
@given(canonical_dbms(), st.data(), _FINITE)
def test_tighten_matches_a_full_closure(dbm, data, b):
    d, n = dbm
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    ref = d[:]
    ref[x * n + y] = min(ref[x * n + y], b)
    nonempty, ref = _closed(ref, n)
    assert _tighten(d, n, x, y, b) == nonempty
    if nonempty:
        assert d == ref


def test_a_clock_no_guard_tests_has_cap_0():
    a = parse_automaton(
        "automaton u\nclocks x y\ninit q0\naccept q0\ntrans q0 q0 a ( x < 3 ) { y }\n"
    )
    caps = compile_automaton(a).at(None).caps
    assert caps == (0, 3, 0)
    # x = 5 and y = 2: y keeps only y > 0, x only x > 3, and x - y = 3 stays
    d = [_bnd(0, True), _bnd(-5, True), _bnd(-2, True),
         _bnd(5, True), _bnd(0, True), _bnd(3, True),
         _bnd(2, True), _bnd(-3, True), _bnd(0, True)]
    assert _extrapolate(d, 3, caps)
    assert d == [_bnd(0, True), _bnd(-3, False), _bnd(0, False),
                 INF, _bnd(0, True), _bnd(3, True),
                 INF, _bnd(-3, True), _bnd(0, True)]


def _successor(key, n, caps, bounds, resets):
    """The key a step with these bounds and resets takes key to, or None when its box empties key.

    Each bound is added by `_tighten`, then come the reset, the strict
    delay and Extra_M, and the closure when Extra_M widened the zone.
    """
    z = list(key)
    for x, y, b in bounds:
        if not _tighten(z, n, x, y, b):
            return None
    _reset(z, n, resets)
    _up(z, n, strict=True)
    if _extrapolate(z, n, caps):
        _canonical(z, n)
    return tuple(z)


_CONST = st.integers(0, 6).map(lambda c: 2 * c)


@st.composite
def successor_cases(draw):
    """(d, n, templates, scale, resets, caps): a key, a step's box and resets, and the caps.

    d is a canonical DBM delayed as a key of the graph is: every upper
    bound is INF and every lower bound at most "<= 0", strict or not.  The
    box holds 0 to 4 templates, each a bound on one clock by a constant or
    by the parameter, read at a relaxed scale (k, low, high), low < high.
    caps holds a cap per DBM index.
    """
    d, n = draw(canonical_dbms())
    d[n::n] = [INF] * (n - 1)
    d[1:n] = [min(b, _LE0) for b in d[1:n]]  # 0 - x <= 0
    if draw(st.booleans()):
        _up(d, n, strict=True)
    assume(_canonical(d, n))
    templates = ()
    if n > 1:
        x, w = st.integers(1, n - 1), st.integers(0, 1)
        templates = tuple(draw(st.lists(st.one_of(
            st.tuples(x, st.just(0), _CONST, st.just(0), w),  # x <= c or x < c
            st.tuples(st.just(0), x, _CONST.map(int.__neg__), st.just(0), w),  # x >= c or x > c
            st.tuples(x, st.just(0), st.just(2), st.just(2), w),  # x <= p or x < p
            st.tuples(st.just(0), x, st.just(-2), st.just(1), w),  # x >= p or x > p
        ), max_size=4)))
    low = draw(st.integers(0, 6))
    scale = (draw(st.integers(1, 3)), low, draw(st.integers(low + 1, 8)))
    resets = tuple(sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ()))
    caps = (0,) + tuple(draw(st.integers(0, 6)) for _ in range(n - 1))
    return d, n, templates, scale, resets, caps


# x1 = x2 > 0, the key of both clocks after one event at some time t > 0
_EQUAL = [_LE0, 0, 0, INF, _LE0, _LE0, INF, _LE0, _LE0]


@settings(max_examples=600, deadline=None)
@given(successor_cases())
# x1 > 1, x2 > 3 and x1 - x2 < -2: Extra_M raises x2 > 3 to x2 > 2, and the closure
# lowers it again, though no clock difference changed
@example(([_LE0, -2, -6, INF, _LE0, -4, INF, INF, _LE0], 3, (), (1, 0, 0), (), (0, 1, 2)))
# x1 - x2 <= 1 and x2 - x3 <= 4 give x1 - x3 <= 5: Extra_M drops it, as cap_1 is 3, and the
# closure restores it
@example(([_LE0] * 4 + [INF, _LE0, 3, 11] + [INF, INF, _LE0, 9] + [INF] * 3 + [_LE0], 4, (),
          (1, 0, 0), (), (0, 3, 4, 0)))
# x1 = mu { x2 } at mu = 1: x2's reset column reads x1 <= 1 through d[1][0], so d[1][2]
# is "<= 1"
@example((_EQUAL, 3, ((1, 0, 2, 2, 1), (0, 1, -2, 1, 1)), (1, 1, 1), (2,), (0, 1, 0)))
# x2 >= 3 and x1 <= 2 each meet x1 = x2 > 0, and together they empty it
@example((_EQUAL, 3, ((1, 0, 4, 0, 1), (0, 2, -6, 0, 1)), (1, 0, 1), (), (0, 2, 3)))
# x2 <= 2 { x2 }: the bound leaves only x1 < 3 through x1 - x2 < 1
@example(([_LE0, 0, 0, INF, _LE0, 2, INF, _LE0, _LE0], 3, ((2, 0, 4, 0, 1),), (1, 0, 1), (2,),
          (0, 3, 2)))
def test_one_pass_successor_matches_reset_delay_and_extrapolation(case):
    """The zone graph's successor is the box's bounds, reset, strict delay and Extra_M, in turn.

    The graph meets the whole box with a key in one pass, and for a node
    other than the root it keeps the key when the step resets nothing and
    the meet changes no bound the delay keeps.  So it is checked twice: at
    the root with the drawn key, and at a second node with the key of a
    successor, the drawn key delayed and extrapolated.
    """
    d, n, templates, scale, resets, caps = case
    clocks = tuple(f"x{i}" for i in range(1, n))
    step = (0, "q1", "a", resets, templates)
    root, plan = _frame(n)
    s = Scaled("q0", frozenset(), clocks, {"q0": (step,)}, {resets: _gather(n, resets)},
               scale, caps, 1, root, *_limits(caps, plan))
    successors, nodes = _zone_graph(s)
    nodes[0] = ("q0", tuple(d))
    nodes.append(("q0", _successor(d, n, caps, (), ())))
    for i in (0, 1):
        want = _successor(nodes[i][1], n, caps, s.bounds(step), resets)
        assert [nodes[j] for _, j in successors(i)] == ([] if want is None else [("q1", want)])


def test_a_process_keeps_the_frames_of_few_small_clock_counts():
    """Checks keep the root key and Extra_M plan of at most 8 clock counts, of 16 clocks or fewer.

    Above 16 clocks a check builds its own frame, of O(n^2) entries, and
    keeps nothing; either way the Scaled reads the frame `_frame` builds.
    """
    def at(k):
        clocks = " ".join(f"x{i}" for i in range(k))
        return compile_automaton(parse_automaton(
            f"automaton o\nclocks {clocks}\ninit q0\naccept q0\n"
            "trans q0 q0 a ( x0 < 1 ) { }\n")).at(None)

    _kept_frame.cache_clear()
    for k in (16, 17, 16, 17, *range(1, 10)):
        s = at(k)
        root, plan = _frame(k + 1)
        assert (s.root, s.lows, s.diffs) == (root, *_limits(s.caps, plan))
    info = _kept_frame.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 10, 8)


def _eager_zone_graph(s):
    """_zone_graph as it was before successors were built on demand: the reference.

    Each successors(i) call builds and interns every child of node i, each
    step by step with `_successor`.  Each step's bounds come from
    Scaled.bounds, so agreement with the lazy graph also checks the bounds
    it evaluates inline.
    """
    caps = s.caps
    n = len(caps)
    root = [_LE0] * (n * n)
    _up(root, n, strict=False)
    nodes = [(s.initial, tuple(root))]
    ids = {nodes[0]: 0}

    def successors(i):
        q, key = nodes[i]
        out = []
        for step in s.out.get(q, ()):
            z = _successor(key, n, caps, s.bounds(step), step[3])
            if z is not None:
                node = (step[1], z)
                j = ids.get(node)
                if j is None:
                    j = ids[node] = len(nodes)
                    nodes.append(node)
                out.append((step, j))
        return out

    return successors, nodes


def _searched_graph(graph, s):
    """(nodes, found) of the deciding search over graph(s), which asks each node once, in order."""
    successors, nodes = graph(s)
    asked = []

    def once(i):
        asked.append(i)
        return successors(i)

    found = _search_lasso(0, once, lambda i: nodes[i][0] in s.accepting)
    assert asked == list(found[1])
    return nodes, found


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9),
       st.sampled_from([("nrt", None), ("param", Fraction(3, 7)), ("param", Fraction(1, 40)),
                        ("ta", None)]))
def test_lazy_successors_decide_as_the_eager_expansion(seed, draw):
    """Same verdict, count and zone lasso, and the search builds no node it does not reach."""
    kind, mu = draw
    rng = random.Random(seed)
    if kind == "ta":
        a = rand_ta(rng, max_states=3, cmax=2)
    else:
        a = rand_nrtta(rng, cmax=3, param="p" if kind == "param" else None)
    s = _at(a, mu if a.params else None)
    with patch.object(zones, "_zone_graph", _eager_zone_graph):
        want = zone_lasso(s), zone_nonempty(s)
    assert (zone_lasso(s), zone_nonempty(s)) == want
    nodes, (_, graph, _) = _searched_graph(_zone_graph, s)
    assert len(nodes) == len(graph)


def test_lazy_successors_intern_fewer_zones_on_drift(data_dir):
    """At the off-candidate value 5/4 the search closes its cycle before it reads 4 zones."""
    s = _at(parse_automaton((data_dir / "drift.ta").read_text()), Fraction(5, 4))
    lazy_nodes, (lazy_members, lazy_graph, _) = _searched_graph(_zone_graph, s)
    eager_nodes, (eager_members, eager_graph, _) = _searched_graph(_eager_zone_graph, s)
    assert lazy_members is not None and eager_members is not None
    assert len(lazy_graph) == len(eager_graph) == 7
    assert (len(lazy_nodes), len(eager_nodes)) == (7, 11)


# the parameter values the six-state population checks its parametric draws at
SIX_STATE_MUS = (Fraction(1, 9), Fraction(3, 7), Fraction(1, 2), Fraction(1), Fraction(5, 3))


def test_zone_graph_agrees_with_the_region_oracle_on_six_states():
    """1,000 draws with up to 6 states, half of them parametric: same verdict, replayed witness."""
    rng = random.Random(621)
    nonempty = 0
    for i in range(1000):
        a = rand_nrtta(rng, max_states=6, cmax=3, param="p" if i % 2 else None)
        mu = rng.choice(SIX_STATE_MUS) if a.params else None
        v = emptiness_fixed(a, mu)
        scaled, m, _ = prepare_fixed(a, mu)
        assert v.nonempty == (find_lasso(scaled, m) is not None), (i, mu)
        if v.nonempty:
            nonempty += 1
            assert reaches_acceptance(a, witness_word(a, v), {p: mu for p in a.params})
    assert 0 < nonempty < 1000


def _whole_graph(s, graph=_zone_graph):
    """(nodes, successors) of graph(s), every reachable node expanded."""
    successors, nodes = graph(s)
    todo, seen = [0], {0}
    while todo:
        for _, j in successors(todo.pop()):
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return nodes, successors


def test_the_graph_is_the_eager_graph_node_for_node():
    """300 draws at values and over intervals: the reference's nodes, in order, and successor lists.

    A child whose step resets nothing and whose meet changes no bound the
    delay keeps is its parent's key, built without the reset getter: that
    happens on these draws, and each such child is the reference's.
    """
    rng = random.Random(33)
    kept = 0
    for i in range(300):
        param = "p" if i % 4 else None
        if i % 2:
            a = rand_ta(rng, max_states=4, cmax=2, param=param)
        else:
            a = rand_nrtta(rng, max_states=4, max_clocks=3, cmax=2, param=param)
        mus = sorted(rng.sample(SIX_STATE_MUS, 2)) if a.params else [None]
        s = compile_automaton(a).at(*mus[:1 + i % 4 // 2])
        gathered = []

        def counted(g):
            def gather(z):
                gathered.append(z)
                return g(z)
            return gather

        s = replace(s, gathers={r: counted(g) for r, g in s.gathers.items()})
        nodes, successors = _whole_graph(s)
        eager_nodes, eager = _whole_graph(s, _eager_zone_graph)
        assert nodes == eager_nodes, i
        for k in range(len(nodes)):
            before = len(gathered)
            pairs = list(successors(k))
            assert pairs == eager(k), (i, k)
            kept += len(pairs) - (len(gathered) - before)
    assert kept > 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["nrt", "param", "ta"]))
def test_every_node_stores_its_zone_after_the_delay(seed, kind):
    """The root is the zero zone delayed with delay 0 allowed, every other key a strict delay."""
    rng = random.Random(seed)
    if kind == "ta":
        a = rand_ta(rng, max_states=6, cmax=2)
    else:
        a = rand_nrtta(rng, max_states=6, cmax=3, param="p" if kind == "param" else None)
    s = _at(a, rng.choice(SIX_STATE_MUS) if a.params else None)
    nodes, _ = _whole_graph(s)
    n = len(s.caps)
    root = [_LE0] * (n * n)
    _up(root, n, strict=False)
    assert nodes[0] == (s.initial, tuple(root))
    for _, key in nodes[1:]:
        z = list(key)
        _up(z, n, strict=True)
        assert tuple(z) == key


def _spied_check(check, s):
    """(nodes, refs, read) of check(s) over _zone_graph(s).

    refs are weak references to every successor generator the search
    takes, and read holds each (node, list of pairs) that `_lasso_at`
    walks, each pair recorded as the walk reads it.
    """
    graphs, refs, read = [], [], []
    shortest_path = regions._shortest_path

    def graph(s):
        successors, nodes = _zone_graph(s)
        graphs.append(nodes)

        def tracked(i):
            it = successors(i)
            refs.append(weakref.ref(it))
            return it

        return tracked, nodes

    def reading_path(start, successors, allowed, is_goal):
        def reading(i):
            pairs = []
            read.append((i, pairs))
            for pair in successors(i):
                pairs.append(pair)
                yield pair

        return shortest_path(start, reading, allowed, is_goal)

    with patch.object(zones, "_zone_graph", graph), \
            patch.object(regions, "_shortest_path", reading_path):
        check(s)
    return graphs[0], refs, read


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_the_graph_keeps_only_the_iterators_a_search_left_unfinished(seed, nrt):
    """Every successor generator is freed, without the collector, when a check returns.

    Each list `_lasso_at` walks is a prefix, in order, of the node's list
    in the eager graph, also for a node whose generator the search left
    unfinished.
    """
    rng = random.Random(seed)
    a = rand_nrtta(rng, max_states=6, cmax=3) if nrt else rand_ta(rng, max_states=6, cmax=2)
    s = _at(a)
    eager_nodes, eager = _whole_graph(s, _eager_zone_graph)
    index = {node: k for k, node in enumerate(eager_nodes)}
    gc.disable()
    try:
        for check in (zone_lasso, zone_nonempty):
            nodes, refs, read = _spied_check(check, s)
            assert refs and all(r() is None for r in refs)
            assert bool(read) == (check is zone_lasso and zone_nonempty(s)[0])
            for i, out in read:
                full = [(label, eager_nodes[j]) for label, j in eager(index[nodes[i]])]
                assert [(label, nodes[j]) for label, j in out] == full[:len(out)]
    finally:
        gc.enable()
