"""Difference-bound-matrix zone graph for fast emptiness verdicts.

The region construction in `regions` is the reference semantics.  This
engine answers the same Büchi emptiness question but its state count
tracks guard structure rather than the numeric magnitude of constants,
which matters after scaling (a candidate parameter with denominator d
multiplies every constant by d; region counts grow quadratically with
that, zone counts do not).  Verdict agreement between the two engines is
fuzz-checked in the test suite.

Bounds are encoded as integers 2v+1 for "<= v" and 2v for "< v", with a
large sentinel INF for infinity; `Compiled.at` refuses a value whose
scaled constants could make a bound or a closure sum reach it.  A DBM
over n - 1 clocks is one flat list of n * n bounds, row by row,
d[i * n + j] bounding clock i minus clock j, so one slice copies it;
row/column 0 is the constant zero clock.  Strict
monotonicity of timestamps is realized by a delay operation that makes
every lower bound strict; the initial node alone uses the non-strict
delay so that the first event of a word may happen at time 0.  A node
stores its zone after the delay, as the textbook zone graph does
(Bengtsson & Yi, LNCS 3098, 2004): a successor is the guard, the reset
and the strict delay applied to its parent's zone, then extrapolated.
The successors of a zone depend only on its delayed form, so zones that
differ only in bounds the delay drops, such as upper bounds, are one
node.

Every zone stored as a graph key, one flat tuple, is canonical, a form
unique to each nonempty zone, and its upper bounds d[i][0] are INF, as
the delay leaves them.  Delay and reset keep a DBM canonical, and the
full closure `_canonical` runs only after an extrapolation that changed
a bound.  A step's guard is one box, lower bounds 0 - y <= a_y and upper
bounds x - 0 <= b_x, and a successor meets it with its parent's key in
one pass (Bengtsson & Yi, LNCS 3098, 2004).  No finite bound of the key
enters the zero clock, so every shortest path the box shortens goes
through it: the lower bounds become l_j = min(d[0][j], a_y + d[y][j])
over the a_y; the meet is empty when l_x + b_x < "<= 0" for some b_x;
and each clock i gets the upper bound u_i = min(d[i][x] + b_x) over the
b_x, and d[i][j] = min(d[i][j], u_i + l_j).  Then one getter per reset
tuple, compiled with the automaton, reads the reset zone with its upper
bounds dropped again: a reset clock's row is read from row 0, and its
column from the u_i.  One loop makes each of the n - 1 lower bounds strict
and applies Extra_M to it, and one applies Extra_M to the (n - 1)(n - 2)
clock differences.  No other bound can change: the diagonal stays
"<= 0" and the upper bounds are infinite.

A step that resets nothing, from a node other than the root, whose meet
changes no bound the delay keeps, leads to the node's own key, and the
graph builds nothing for it.  Such a key is K = C(E(U)), where U is a
zone after the strict delay, E is Extra_M, monotone, idempotent and
widening, and C the closure, monotone and reductive.  So E(K) <= E(E(U))
= E(U), and K = C(K) <= C(E(K)) <= C(E(U)) = K; the meet's strict delay
is K again, since the closure of a strict delay keeps its lower bounds
strict.

Extrapolation is Extra_M with a bound per clock (Behrmann, Bouyer,
Larsen, Pelánek, STTT 8(3), 2006): a clock's cap is the largest scaled
constant a step compares it with, 0 if no step tests it, so a zone
forgets what no guard can tell apart; it stays sound for Büchi emptiness
(Tripakis 2009), also over the graph of delayed zones (Herbreteau,
Srivathsan & Walukiewicz, FMSD 2012).  The cap is usually well below the
global region bound m of the region oracle.

A check compiles its automaton once, `compile_automaton`: one pass over
the atoms each `Transition` holds gives the common denominator of the
constants, and one walk of each guard, `_boxes`, gives one step per
maximal box, an edge of the zone graph that holds its transition's
index, target, letter and resets and the templates of the bounds its box
adds (`Compiled`).  A conjunction of single-clock constraints is one
interval per clock (Alur & Dill, TCS 126(2), 1994; Bengtsson & Yi, LNCS
3098, 2004), so a box holds at most one lower and one upper literal for
each clock it bounds; a conjunction meets the boxes of its sides and a
union merges boxes that touch (`_union`), so "x <= c" is one step, not
the two of "x < c" and "x = c", and n negated equalities on a clock make
n + 1 steps at most, not 2^n.  The checks of `parametric` keep the
compiled form on the automaton, so a later check of it starts from
`Compiled.at`, which gives the `Scaled` form at one value, or relaxed to
an interval with each literal its hull over it, and builds nothing per
step.  What the zone graph reads that depends on the clock count alone
is `_frame`, which a process keeps for a few small clock counts.  Each
bound is one integer multiply-add, evaluated where it is read: inline as
the zone graph expands a node, and by `Scaled.bounds` for the steps of a
lasso.  `prepare_fixed` takes the scale factor and the region bound m
from `Compiled.scaling`, which `at` calls too for its range check.

The zone graph interns each node once as an integer, so the searches
hash only integers.  `zone_nonempty` and `zone_lasso` decide with the
search the region oracle runs too, `regions._search_lasso`: depth-first,
with Couvreur's on-the-fly strongly connected components, it stops at
the first accepting cycle it closes, before the component around it is
complete.  The graph builds a node's successor zones one at a time, as
the search reads them, so the successors it has not read when it stops
are never built.  The search records the successors it reads, and for
a nonempty automaton `zone_lasso` takes its lasso from that graph
(`regions._lasso_at`) with two calls of one breadth-first routine,
`regions._shortest_path`: a stem to the nearest accepting member of the
closed component and a shortest cycle through it there.  The walk
goes on with a node's unfinished list only as far as it reads.
Every path of the extrapolated graph is taken by some concrete run
(Tripakis, ACM TOCL 10(3), 2009), and `earliest_ticks` solves for the
earliest one: each guard bound x - y <= b along the lasso is a
difference constraint between the timestamps of the events that last
reset x and y.  It gives every timestamp as an integer count of ticks of
one common length 1/q, and `witness_word` builds one Fraction per event,
of the original time unit.  `check` explains a verdict with the zone
lasso's steps, the symbolic run that this solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import chain, permutations
from operator import itemgetter
from typing import Optional, Sequence

from .core import And, Atom, Automaton, Guard, Not, TrueGuard, brief
from .errors import NotOneParameter, PreconditionViolated
from .regions import DEFAULT_REGION_BUDGET, _lasso_at, _search_lasso

INF = 1 << 62


def _bnd(value: int, weak: bool) -> int:
    return 2 * value + (1 if weak else 0)


_LE0 = _bnd(0, True)


def _canonical(d: list[int], n: int) -> bool:
    """Floyd-Warshall closure of a flat n x n DBM; False when the zone is empty."""
    rng = range(n)
    for k in rng:
        kn = k * n
        for i in range(0, n * n, n):
            dik = d[i + k]
            if dik >= INF:
                continue
            for j in rng:
                dkj = d[kn + j]
                if dkj < INF:
                    b = dik + dkj - ((dik | dkj) & 1)
                    if b < d[i + j]:
                        d[i + j] = b
    return all(d[i] >= _LE0 for i in range(0, n * n, n + 1))


def _gather(n: int, resets: tuple[int, ...]) -> itemgetter:
    """The reset of the clocks resets and the delay's drop of upper bounds, as one getter.

    It reads a canonical DBM with INF appended at index n * n and gives
    the n * n bounds after the reset, with the upper bounds d[i][0] INF,
    then that INF again, so that it gives a tuple also for n = 1.  A
    reset clock's row and column read the zero clock's, and a diagonal
    bound reads d[0][0], "<= 0".
    """
    nn = n * n
    at = [0 if x in resets else x for x in range(n)]
    return itemgetter(*[0 if i == j else nn if j == 0 else at[i] * n + at[j]
                        for i in range(n) for j in range(n)], nn)


def _frame(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """(root, plan) of the zone graph over n - 1 clocks, the same at every value.

    root is the root's key, the zero zone after the non-strict delay, and
    plan holds (i * n + j, i, j) for each clock difference d[i][j] that
    Extra_M reads.  Both depend on n alone and hold O(n^2) entries:
    `_kept_frame` keeps the frames of up to 8 clock counts up to
    _KEPT_FRAME_N, and `Compiled.at` builds a larger one for each check.
    """
    row = (_LE0,) * n
    plan = tuple([(i * n + j, i, j) for i, j in permutations(range(1, n), 2)])
    return row + ((INF,) + row[1:]) * (n - 1), plan


_KEPT_FRAME_N = 17  # 16 clocks: a kept frame holds at most 289 + 240 entries
_kept_frame = lru_cache(maxsize=8)(_frame)


def _limits(caps: tuple[int, ...], plan: tuple[tuple[int, int, int], ...]):
    """(lows, diffs), the Extra_M limits at caps that the zone graph reads.

    A lower bound d[0][j] is raised to "< -cap_j", a difference d[i][j]
    above "<= cap_i" is dropped and one below "< -cap_j" raised to it.
    """
    return ([(j, -2 * caps[j]) for j in range(1, len(caps))],
            [(ij, 2 * caps[i] + 1, -2 * caps[j]) for ij, i, j in plan])


_MAX_DISJUNCTS = 4096  # of a guard's boxes, and of the pairs a product of boxes examines


def _refuse() -> PreconditionViolated:
    return PreconditionViolated(
        f"guard has more than {_MAX_DISJUNCTS} disjuncts in disjunctive normal form")


def _union(boxes: list[dict]) -> list[dict]:
    """The maximal boxes of a union of boxes.

    Two boxes merge when they differ on one slot and their intervals there
    touch or overlap: "< c" and "= c" on a clock make "<= c".  The boxes
    agree off the slots where some two differ, so a sweep of one of those
    groups the boxes by the others, sorts each group by lower bound and
    merges each run of touching or overlapping intervals in one pass, into
    the place of the run's first box to arrive.  The sweeps go round the
    slots until a round merges nothing, since a merged box may now merge
    on another.  The slots come in the order first met, not from a set, so
    the steps do not depend on string hashing.
    """
    first = boxes[0]
    slots = [s for s in dict.fromkeys(chain(*boxes))
             if any(box.get(s) != first.get(s) for box in boxes)]
    if not slots:  # the boxes are one
        return [first]
    merged = True
    while merged and len(boxes) > 1:
        merged = False
        for s in slots:
            blank = (INF, INF) if s[1] else (_LE0, INF)
            others = [t for t in slots if t != s]
            groups: dict[tuple, list[tuple[int, int, int]]] = {}
            for i, box in enumerate(boxes):
                lo, hi = box.get(s, blank)
                groups.setdefault(tuple(map(box.get, others)), []).append((lo, hi, i))
            runs: list[list[int]] = []  # [the run's first box to arrive, lo, hi]
            for group in groups.values():
                group.sort(key=itemgetter(0), reverse=True)  # the largest code starts lowest
                run = None
                for lo, hi, i in group:
                    if run and run[2] + lo > 0:  # touches or overlaps the run
                        run[0], run[2] = min(run[0], i), max(run[2], hi)
                    else:
                        run = [i, lo, hi]
                        runs.append(run)
            if len(runs) < len(boxes):
                merged = True
                boxes = [{**boxes[i], s: (lo, hi)} for i, lo, hi in sorted(runs)]
                for box in boxes:
                    if box[s] == blank:
                        del box[s]
    return boxes


def _boxes(g: Guard, positive: bool, denom: int) -> list[dict]:
    """The maximal boxes whose union g accepts, or its negation when not positive.

    A box maps each slot it bounds, a (clock, parameter or None) pair, to
    its lower and upper bound, coded as the DBM bounds on 0 - x and x - 0
    with constants times denom, so a template is a code split into coef
    and w.  A parameter's bound reads it as 1, its coef: it compares only
    with the same parameter, so a constant and a parameter bound on one
    clock stay apart.  A slot the box leaves out is open: "x >= 0" for a
    constant, no bound for a parameter, so "x >= 0" drops out and "x < 0"
    leaves an empty box.  A code at or beyond INF reads as no bound;
    `Compiled.at` refuses an automaton with such a constant.  The pairs of
    a conjunction whose sides bound disjoint slots need no `_union`: two
    that differ on one slot share one side's box, so their boxes on the
    other side would have merged already.  A product is refused before it
    examines more than _MAX_DISJUNCTS pairs, and a union that keeps more
    boxes: n negated equalities on each of two clocks make n^2 boxes.
    """
    cls = g.__class__
    while cls is Not:
        g, positive = g.arg, not positive
        cls = g.__class__
    if cls is TrueGuard:
        return [{}] if positive else []
    if cls is Atom:
        c = g.bound  # then twice it: "x < bound" is the code c, "x <= bound" is c + 1
        if isinstance(c, str):
            s, c, blank = (g.clock, c), 2, (INF, INF)
        else:
            s, c, blank = (g.clock, None), 2 * int(c * denom), (_LE0, INF)
        lo, hi = blank
        if g.op != "=":
            p = (lo, c) if positive else (min(lo, 1 - c), hi)
        elif positive:
            p = (min(lo, 1 - c), c + 1)
        else:  # x < c or x > c
            return [{s: p} if p != blank else {} for p in ((lo, c), (min(lo, -c), hi))
                    if p[0] + p[1] > 1]
        return [] if p[0] + p[1] < 2 else [{s: p}] if p != blank else [{}]
    if cls is And:
        left = _boxes(g.left, positive, denom)
        right = _boxes(g.right, positive, denom)
        if not (left and right):  # no pair, or a side alone, maximal already
            return [] if positive else left + right
        if not positive:
            boxes = left + right
        elif len(left) * len(right) > _MAX_DISJUNCTS:
            raise _refuse()
        elif set(chain(*left)).isdisjoint(chain(*right)):
            return [{**a, **b} for a in left for b in right]
        else:
            boxes = []
            for a in left:
                for b in right:
                    m = {**a, **b}
                    for s in a.keys() & b.keys():
                        (lo, hi), (b_lo, b_hi) = a[s], b[s]
                        lo, hi = m[s] = (min(lo, b_lo), min(hi, b_hi))
                        if lo + hi < 2:  # empty on slot s
                            break
                    else:
                        boxes.append(m)
        if len(boxes) > 1:
            boxes = _union(boxes)
        if len(boxes) > _MAX_DISJUNCTS:
            raise _refuse()
        return boxes
    raise TypeError(f"not a guard: {g!r}")


# (x, y, coef, p, w): the bound d[x][y] <= coef * scale[p] + w, scale[0] the constant
# scale d / denom, scale[1] and scale[2] the parameter value times d in a lower
# (p = 1) and an upper (p = 2) bound of a clock, w 1 for a weak bound
Template = tuple[int, int, int, int, int]
# one box of a transition's guard: (transition index, target, letter, reset indices,
# the box's templates)
Step = tuple[int, str, str, tuple[int, ...], tuple[Template, ...]]


@dataclass
class Scaled:
    """An automaton at one parameter value, or relaxed to an interval, in the scaled time unit.

    The zone graph and the witness run read this form, one per check.
    It is an internal record that nothing assigns to or hashes, so it is
    not frozen, and building it costs a check no more than its fields; a
    `Verdict` carries it for `witness_word`.  clocks holds the sorted
    clock names, clock clocks[i - 1] at DBM index i.  out is the compiled
    automaton's steps by source state, gathers its getters by reset tuple
    and root the root's key of `_frame`, all shared and not copied.  No
    bound is built ahead: a step's template (x, y, coef, p, w) reads as
    the constraint d[x][y] <= coef * scale[p] + w, evaluated where it is
    read, inline in the zone graph and by `bounds` for the steps of a
    lasso.  scale is (d / denom, low, high); caps holds each DBM index's
    extrapolation bound, and lows and diffs are `_limits` of the caps,
    the tables the zone graph reads: a Scaled given other caps needs
    them rebuilt.
    """

    initial: str
    accepting: frozenset[str]
    clocks: tuple[str, ...]
    out: dict[str, tuple[Step, ...]]
    gathers: dict[tuple[int, ...], itemgetter] = field(compare=False, repr=False)
    scale: tuple[int, int, int]
    caps: tuple[int, ...]
    d: int  # scale factor
    root: tuple[int, ...] = field(compare=False, repr=False)
    lows: list[tuple[int, int]] = field(compare=False, repr=False)
    diffs: list[tuple[int, int, int]] = field(compare=False, repr=False)

    def bounds(self, step: Step) -> list[tuple[int, int, int]]:
        """The bounds (x, y, b), each d[x][y] <= b, that step's box adds."""
        scale = self.scale
        return [(x, y, coef * scale[p] + w) for x, y, coef, p, w in step[4]]


def _ratio(v) -> tuple[int, int]:
    """(numerator, denominator) of a rational value, without rebuilding a Fraction."""
    return (v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio()


@dataclass(frozen=True)
class Compiled:
    """An automaton with at most one parameter, compiled once for checks at many values.

    out holds the steps by source state, one per box of a guard, each
    state's in transition order and a transition's in the order
    `_boxes` keeps them.  A step's templates follow the slots its box
    bounds, an upper bound before a lower one, and a constant "x >= 0"
    has none.  A template's coef is twice its literal's
    constant times denom, or 2 for the parameter, signed by its side; p
    is 0 for a constant, 1 for the parameter as a lower bound and 2 as an
    upper bound; w is 1 for a weak bound.  gathers holds the `_gather`
    getter of each transition's reset tuple, shared by each `Scaled`.
    tops holds, per DBM index, the largest constant times denom that a
    step compares the clock with and whether one compares it with the
    parameter.
    """

    initial: str
    accepting: frozenset[str]
    clocks: tuple[str, ...]  # sorted clock names
    out: dict[str, tuple[Step, ...]]
    gathers: dict[tuple[int, ...], itemgetter] = field(compare=False, repr=False)
    tops: tuple[tuple[int, bool], ...]
    denom: int  # lcm of the constant denominators
    c: int  # max_constant
    top: int  # the largest constant times denom
    n_params: int
    has_param: bool  # some guard compares against the parameter
    n_states: int  # sizes the candidate list

    def scaling(self, lo, hi=None) -> tuple[int, int, int, int]:
        """(d, m, low, high) for parameter value lo, or for [lo, hi] when hi is given.

        lo is None when the automaton has no parameter, and reads as 0.
        The scale factor d is the lcm of the constant denominators after
        lo and hi are filled in, so every scaled constant is an integer;
        low and high are lo and hi scaled, 0 without a parameter.  The
        region bound m majorizes twice the maximum constant, hi and every
        constant, all scaled.
        """
        d, low, high = self.denom, 0, 0
        if lo is None:
            if self.n_params or self.has_param:
                raise PreconditionViolated("parameter value required for a parametric automaton")
            lo = 0
        lo_num, lo_den = _ratio(lo)
        if self.n_params and lo_num < 0:
            raise PreconditionViolated(f"parameter value must be nonnegative, got {brief(lo)}")
        if hi is None:
            hi_num, hi_den = lo_num, lo_den
        else:
            hi_num, hi_den = _ratio(hi)
            if hi_num * lo_den < lo_num * hi_den:
                raise PreconditionViolated(f"empty parameter interval [{brief(lo)}, {brief(hi)}]")
        if self.n_params > 1:
            raise NotOneParameter(f"at most one parameter supported, got {self.n_params}")
        if self.has_param:
            d = math.lcm(d, lo_den, hi_den)
            low, high = lo_num * (d // lo_den), hi_num * (d // hi_den)
        ceil_hi = -(-hi_num * d // hi_den)
        return d, max(2 * self.c * d, self.top * (d // self.denom), ceil_hi), low, high

    def at(self, lo, hi=None) -> Scaled:
        """The automaton at parameter value lo, or relaxed to [lo, hi] when hi is given.

        Relaxed, a lower bound on a clock by the parameter reads lo and an
        upper bound reads hi, so each literal is its hull over the interval
        and the scaled automaton accepts every word accepted at some value
        inside it.  d is that of `scaling`, and a value whose scaled sums
        could reach INF, as its m bounds them, is refused.  Each clock's
        cap is the largest scaled constant a step compares it with, hi for
        the parameter, 0 if no step tests it, and `_limits` reads the
        Extra_M tables off the caps and the plan of `_frame`.  Nothing is
        built per step: the Scaled shares the compiled steps and getters
        and the frame's root key.
        """
        d, m, low, high = self.scaling(lo, hi)
        if 2 * (len(self.clocks) + 1) * (m + 1) >= INF:  # a closure sum could pass for INF
            at = ("" if lo is None else f" at mu = {brief(lo)}" if hi is None
                  else f" over [{brief(lo)}, {brief(hi)}]")
            raise PreconditionViolated(
                f"constants scaled by {brief(d)} reach {brief(m)}{at}, "
                "beyond the zone engine's range")
        k = d // self.denom
        caps = tuple([max(top * k, high) if p else top * k for top, p in self.tops])
        n = len(caps)
        root, plan = _kept_frame(n) if n <= _KEPT_FRAME_N else _frame(n)
        return Scaled(self.initial, self.accepting, self.clocks, self.out, self.gathers,
                      (k, low, high), caps, d, root, *_limits(caps, plan))


def compile_automaton(a: Automaton) -> Compiled:
    """The compiled form of a, for Compiled.at: one step per maximal box of each guard."""
    clocks = tuple(sorted(a.clocks))
    index = {z: i for i, z in enumerate(clocks, 1)}
    bounds = [at.bound for t in a.transitions for at in t.atoms]
    consts = [b for b in bounds if not isinstance(b, str)]  # int or Fraction
    denom = math.lcm(*[v.denominator for v in consts])
    tops = [0] * (len(clocks) + 1)
    compared = [False] * (len(clocks) + 1)
    out: dict[str, list[Step]] = {}
    gathers = {}
    keys: dict[frozenset[str], tuple[int, ...]] = {}  # each reset set, as sorted DBM indices
    for idx, t in enumerate(a.transitions):
        resets = keys.get(t.resets)
        if resets is None:
            resets = keys[t.resets] = tuple(sorted(map(index.__getitem__, t.resets)))
            gathers[resets] = _gather(len(tops), resets)
        for box in _boxes(t.guard, True, denom):
            templates = []
            for (clock, param), (lo, hi) in box.items():
                x, p = index[clock], 0 if param is None else 1
                if hi < INF:
                    templates.append((x, 0, hi & ~1, 2 * p, hi & 1))
                if lo < (INF if p else _LE0):  # a constant "x >= 0" holds anyway
                    templates.append((0, x, lo & ~1, p, lo & 1))
                if p:
                    compared[x] = True
                else:
                    tops[x] = max(tops[x], -(lo >> 1), hi >> 1 if hi < INF else 0)
            out.setdefault(t.source, []).append(
                (idx, t.target, t.letter, resets, tuple(templates)))
    c = max([1] + [int(v) for v in consts if v.denominator == 1])
    top = int(max(consts) * denom) if consts else 0
    return Compiled(a.initial, a.accepting, clocks,
                    {q: tuple(steps) for q, steps in out.items()}, gathers,
                    tuple(zip(tops, compared)),
                    denom, c, top, len(a.params), len(consts) < len(bounds), len(a.states))


def _zone_graph(s: Scaled):
    """(successors, nodes) of the zone graph of a scaled automaton.

    Each node (state, key) is interned once as its index in nodes; the
    root is 0.  key is the node's zone after the delay, canonical, as one
    flat tuple of n * n bounds, row by row: the root's is the non-strict
    delay of the zero zone, so the first event may happen at time 0, and
    a child's is Extra(up(reset(guard(key)))) with the strict delay, so
    later events happen strictly later.  The root's key and the Extra_M
    limit tables come with s, so the graph builds nothing before its
    first successor.  A child is built in the one pass the module
    docstring gives, the reset getter reading the met zone with INF
    appended, and not at all when it is key itself.  A zone's clocks are
    nonnegative, so no lower bound is above "<= 0" and Extra_M drops none.
    successors(i) is a generator of node i's (step, j) pairs, the step
    taken and the child's index, always in one order.  It builds and
    interns each child only when it is asked for, so a search that stops
    early builds none of the rest.
    """
    scale, out_of, gathers, lows, diffs = s.scale, s.out, s.gathers, s.lows, s.diffs
    n = len(s.caps)
    nodes = [(s.initial, s.root)]
    ids = {nodes[0]: 0}

    def successors(i: int):
        q, key = nodes[i]
        for step in out_of.get(q, ()):
            _, target, _, resets, templates = step
            z = list(key)
            ups = []  # (x, b): the box's upper bounds d[x][0] <= b
            met = False  # the meet changed a bound the delay keeps
            for x, y, coef, p, w in templates:
                b = coef * scale[p] + w
                if x:
                    ups.append((x, b))
                elif b < z[y]:  # d[0][j] = min(d[0][j], b + d[y][j]) over key's closed row y
                    met = True
                    for j, dyj in enumerate(key[y * n + 1:y * n + n], 1):
                        if dyj < INF:
                            v = b + dyj - ((b | dyj) & 1)
                            if v < z[j]:
                                z[j] = v
            for x, b in ups:
                lo = z[x]
                if lo + b - ((lo | b) & 1) < _LE0:  # the cycle 0 -> x -> 0 is negative
                    break
            else:
                if ups:
                    lows_met = z[1:n]
                    for r in range(n, n * n, n):  # every clock's row; the gather drops a reset one
                        u = INF  # d[i][0]: the shortest path i -> x -> 0
                        for x, b in ups:
                            dix = key[r + x]
                            if dix < INF:
                                v = dix + b - ((dix | b) & 1)
                                if v < u:
                                    u = v
                        if u < INF:
                            z[r] = u  # a reset column reads it through the gather
                            for k, lo in enumerate(lows_met, r + 1):
                                v = u + lo - ((u | lo) & 1)
                                if v < z[k]:
                                    z[k] = v
                                    met = True
                if met or resets or not i:
                    z.append(INF)
                    z = list(gathers[resets](z))
                    z.pop()  # the INF that keeps the getter's result a tuple at n = 1
                    changed = False
                    for j, lo in lows:
                        b = z[j]
                        if b < lo:
                            z[j] = lo
                            changed = True
                        elif b & 1:  # the strict delay; INF is even
                            z[j] = b - 1
                    for k, hi, lo in diffs:
                        b = z[k]
                        if hi < b < INF:
                            z[k] = INF
                            changed = True
                        elif b < lo:
                            z[k] = lo
                            changed = True
                    if changed:
                        _canonical(z, n)  # widening a nonempty zone keeps it nonempty
                    node = (target, tuple(z))
                else:  # the unchanged-zone rule of the module docstring
                    node = (target, key)
                j = ids.get(node)
                if j is None:
                    j = ids[node] = len(nodes)
                    nodes.append(node)
                yield step, j

    return successors, nodes


def zone_nonempty(s: Scaled, max_nodes: int = DEFAULT_REGION_BUDGET) -> tuple[bool, int]:
    """(accepting lasso exists, zone nodes explored) for an automaton at one value.

    The depth-first search stops at the first accepting cycle it closes, so
    the count is of the nodes discovered until then, or of the whole
    reachable graph when there is none.
    """
    successors, nodes = _zone_graph(s)
    accepting = s.accepting
    members, graph, _ = _search_lasso(0, successors, lambda i: nodes[i][0] in accepting, max_nodes)
    return members is not None, len(graph)


@dataclass(frozen=True)
class ZoneLasso:
    """An accepting lasso of the zone graph, as the steps that take it.

    The stem leads from the initial node to an accepting node; the cycle
    leads from that node back to it.
    """

    stem: tuple[Step, ...]
    cycle: tuple[Step, ...]


def zone_lasso(
    s: Scaled, max_nodes: int = DEFAULT_REGION_BUDGET
) -> tuple[Optional[ZoneLasso], int]:
    """(an accepting lasso of the zone graph or None, zone nodes explored).

    zone_nonempty's search decides, and the node count is its own: the
    nodes discovered until it closed an accepting cycle.  When it finds
    one, `_lasso_at` takes the lasso inside the graph that search read:
    a shortest stem through the discovered nodes to the nearest accepting
    member of the closed component, and a shortest cycle back to that
    node within the component.  It reads on in the successor lists of
    the discovered nodes it walks only as far as each walk goes, and
    discovers no further node, so neither the lasso nor the count
    depends on max_nodes once the search stays within it.
    """
    successors, nodes = _zone_graph(s)
    accepting = s.accepting

    def is_accepting(i: int) -> bool:
        return nodes[i][0] in accepting

    found = members, graph, _ = _search_lasso(0, successors, is_accepting, max_nodes)
    if members is None:
        return None, len(graph)
    stem_pairs, cycle_pairs = _lasso_at(0, is_accepting, found)
    return ZoneLasso(tuple(t for t, _ in stem_pairs), tuple(t for t, _ in cycle_pairs)), len(graph)


def earliest_ticks(s: Scaled, steps: Sequence[Step]) -> tuple[list[int], int]:
    """(ticks, q): the earliest run of the scaled automaton taking these steps.

    Event i happens at tau_i = ticks[i - 1] / q, after tau_0 = 0.  The
    value of a clock at event i is tau_i - tau_r, where r is the last event
    that reset it (0 if none), so each bound (x, y, b) of step i's box,
    x - y <= b, reads tau_(r_y) - tau_(r_x) <= b >> 1, strict
    when b is even, with r_0 = i for the zero clock (Bengtsson & Yi, LNCS
    3098, 2004).  Further tau_1 >= 0 and tau_i > tau_(i-1) after that.
    Every constraint reads tau_u >= tau_v + c + e*eps, where eps > 0 is an
    infinitesimal that makes a bound strict.  Bellman-Ford finds the least
    solution over (c, e) pairs ordered lexicographically.  eps is then
    fixed at 1/q, q = top + 1 for the largest e, so that e * eps < 1 for
    every timestamp: each lies within the unit interval its integer part c
    opens, so a clock value's region depends only on the pairs.  The
    tests' region projection of a lasso relies on it: a run that only
    needs time to pass between laps drifts inside one region instead of
    crossing one per lap, so a (state, region) node recurs at a lap
    boundary.  The tick of a pair is c*q + e.
    """
    lower: list[tuple[int, int, int, int]] = []  # (u, v, c, e)
    last_reset = [0] * len(s.caps)
    for i, step in enumerate(steps, 1):
        lower.append((i, i - 1, 0, 0 if i == 1 else 1))
        last_reset[0] = i
        for x, y, b in s.bounds(step):
            lower.append((last_reset[x], last_reset[y], -(b >> 1), 1 - (b & 1)))
        for x in step[3]:
            last_reset[x] = i

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
        raise AssertionError("internal inconsistency: a zone lasso has no concrete run")

    # A constraint the pairs meet with an eps deficit has an integer gap of at
    # least 1 and a deficit of at most top + 1, so this eps keeps it.
    q = max(e for _, e in tau) + 1
    return [c * q + e for c, e in tau[1:]], q

