"""Seeded random automata, guards, guided word samplers and reference rewrites shared by tests."""

import random
from fractions import Fraction

from pnta import (
    TRUE,
    Atom,
    Automaton,
    Configuration,
    GuardViolated,
    Not,
    Region,
    TimedWord,
    Transition,
    Valuation,
    atoms,
    conj,
    eq,
    ge,
    gt,
    is_nrtta,
    le,
    lt,
    map_atoms,
    ne,
    run_frontiers,
    step,
    validate,
    zero_valuation,
)
from lemmas import IntervalClass, interval_bounds, polarity_ctx

LETTERS = ("a", "b")
_OPS = (lt, eq, le, gt, ge, ne)
_DENS = (2, 3, 4, 5, 6, 7, 8)


def rand_guard(rng, clocks, cmax, param=None):
    """One or two atoms over distinct clocks.

    A guard draws its bounds either all from the constants or all from the
    parameter, never both, so the result always validates.
    """
    n = 1 if len(clocks) == 1 or rng.random() < 0.6 else 2
    chosen = rng.sample(list(clocks), n)
    use_param = param is not None and rng.random() < 0.5
    parts = []
    for z in chosen:
        op = rng.choice(_OPS)
        bound = param if use_param else rng.randint(0, cmax)
        parts.append(op(z, bound))
    return conj(*parts)


def _rand_transitions(rng, states, clocks, cmax, param, free_resets):
    n_q = len(states)
    out = []
    for _ in range(rng.randint(n_q, 2 * n_q + 2)):
        guard = TRUE if rng.random() < 0.3 else rand_guard(rng, clocks, cmax, param)
        if free_resets:
            pool = clocks
        else:
            tested = {at.clock for at in atoms(guard)}
            pool = [z for z in clocks if z not in tested]
        resets = frozenset(z for z in pool if rng.random() < 0.4)
        out.append(
            Transition(rng.choice(states), rng.choice(states),
                       rng.choice(LETTERS), guard, resets)
        )
    # a plain chain keeps every state reachable in principle
    for i in range(n_q - 1):
        out.append(Transition(states[i], states[i + 1], rng.choice(LETTERS),
                              TRUE, frozenset()))
    return out


def _assemble(rng, states, clocks, params, trans):
    accepting = tuple(sorted(rng.sample(states, rng.randint(1, len(states)))))
    a = Automaton(
        name=f"r{rng.randrange(10 ** 6)}",
        alphabet=LETTERS,
        states=states,
        clocks=clocks,
        params=params,
        initial=states[0],
        accepting=accepting,
        transitions=trans,
    )
    assert validate(a) == []
    return a


def rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2, param=None):
    """Random automaton where no transition resets a clock its guard tests."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, max_states)))
    clocks = tuple(f"x{i + 1}" for i in range(rng.randint(1, max_clocks)))
    trans = _rand_transitions(rng, states, clocks, cmax, param, free_resets=False)
    return _assemble(rng, states, clocks, (param,) if param else (), trans)


def _rewrite_atoms(a, f, params):
    """a with every guard atom replaced by f(atom) and its parameters by params."""
    ts = [Transition(t.source, t.target, t.letter, map_atoms(t.guard, f), t.resets)
          for t in a.transitions]
    return Automaton(a.name, a.alphabet, a.states, a.clocks, params, a.initial,
                     a.accepting, ts)


def instantiate(a, mu):
    """a with every parameter bound replaced by mu, an int when mu is integral.

    With scale_constants it builds the reference that prepare_fixed is
    checked against, and shares no code with prepare_fixed.
    """
    mu = Fraction(mu)
    val = int(mu) if mu.denominator == 1 else mu
    return _rewrite_atoms(
        a, lambda at: Atom(at.clock, at.op, val) if isinstance(at.bound, str) else at, ())


def scale_constants(a, d):
    """a with every guard constant multiplied by the positive int d; each must become an int."""

    def scale(at):
        if isinstance(at.bound, str):
            return at
        scaled = Fraction(at.bound) * d
        assert scaled.denominator == 1, (at.bound, d)
        return Atom(at.clock, at.op, int(scaled))

    return _rewrite_atoms(a, scale, a.params)


def dnf(g, positive=True):
    """Disjunctive normal form of g over single-clock literals (clock, op, bound), or of !g.

    The reference that `zones.compile_automaton`'s boxes are checked
    against: it multiplies out every conjunction and keeps each literal,
    also in a disjunct that no valuation satisfies.  n negated
    equalities in conjunction have 2^n disjuncts.
    """
    if g == TRUE:
        return [[]] if positive else []
    if isinstance(g, Atom):
        if positive:
            return [[(g.clock, g.op, g.bound)]]
        if g.op == "<":
            return [[(g.clock, ">=", g.bound)]]
        return [[(g.clock, "<", g.bound)], [(g.clock, ">", g.bound)]]
    if isinstance(g, Not):
        return dnf(g.arg, not positive)
    left, right = dnf(g.left, positive), dnf(g.right, positive)
    if positive:
        return [dl + dr for dl in left for dr in right]
    return left + right


def fraction_region(v, m):
    """region_of as a Fraction rule: the reference the integer rule must match."""
    above, floors, zero, frac_groups = set(), [], set(), {}
    for z, val in v.items:
        if val > m:
            above.add(z)
            continue
        k = val.numerator // val.denominator
        floors.append((z, k))
        f = val - k
        if f == 0:
            zero.add(z)
        else:
            frac_groups.setdefault(f, []).append(z)
    order = tuple(tuple(sorted(frac_groups[f])) for f in sorted(frac_groups))
    return Region(m, frozenset(above), tuple(floors), frozenset(zero), order)


def reaches_acceptance(a, w, interp=None):
    """True iff some run reads the whole word and ends in an accepting state."""
    frontiers = run_frontiers(a, w, interp)
    return all(frontiers) and any(c.state in a.accepting for c in frontiers[-1])


def two_clock_population(size=200, seed=607):
    """Two-clock automata whose guards use the parameter, drawn as criteria 06/07 draw them."""
    rng = random.Random(seed)
    population = []
    while len(population) < size:
        a = rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2, param="mu")
        if len(a.clocks) == 2 and any(
            isinstance(at.bound, str) for t in a.transitions for at in atoms(t.guard)
        ):
            population.append(a)
    return population


def one_clock_population(size=40, seed=1607):
    """One-clock parametric automata that test and reset their clock: a check translates them."""
    rng = random.Random(seed)
    population = []
    while len(population) < size:
        states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
        trans = _rand_transitions(rng, states, ("x1",), 2, "mu", free_resets=True)
        a = _assemble(rng, states, ("x1",), ("mu",), trans)
        if not is_nrtta(a) and any(
            isinstance(at.bound, str) for t in a.transitions for at in atoms(t.guard)
        ):
            population.append(a)
    return population


def rand_ta(rng, max_states=4, max_clocks=2, cmax=2, param=None):
    """Random automaton that may test and reset the same clock."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, max_states)))
    clocks = tuple(f"x{i + 1}" for i in range(rng.randint(1, max_clocks)))
    trans = _rand_transitions(rng, states, clocks, cmax, param, free_resets=True)
    return _assemble(rng, states, clocks, (param,) if param else (), trans)


def _advance(a, frontier, letter, delta, interp, first):
    nxt = set()
    for c in frontier:
        for t in a.transitions:
            if t.source != c.state or t.letter != letter:
                continue
            try:
                nxt.add(step(c, t, delta, interp, first=first))
            except GuardViolated:
                continue
    return frozenset(nxt)


def _delta_fan(a, frontier, consts, rng):
    """Candidate next delays: gaps to guard constants plus fixed jitters."""
    fan = {Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, rng.choice(_DENS))}
    for c in frontier:
        for z, val in c.valuation.as_dict().items():
            for k in consts:
                d = k - val
                if d > 0:
                    fan.add(d)
                    fan.add(d / 2)
    return sorted(fan)[:14]


def _guard_consts(a, interp):
    vals = {Fraction(at.bound) for t in a.transitions for at in atoms(t.guard)
            if not isinstance(at.bound, str)}
    if interp:
        vals |= {Fraction(v) for v in interp.values()}
    return sorted(v for v in vals if v > 0) or [Fraction(1)]


def sample_word(a, rng, interp=None, max_len=6, poison=0.3):
    """A guided timed word; with probability poison the last event is arbitrary
    and may admit no run. First timestamp is strictly positive."""
    consts = _guard_consts(a, interp)
    frontier = frozenset({Configuration(a.initial, zero_valuation(a.clocks))})
    events = []
    prev = Fraction(0)
    for j in range(rng.randint(1, max_len)):
        delta = rng.choice(_delta_fan(a, frontier, consts, rng))
        ts = prev + delta
        letters = list(a.alphabet)
        rng.shuffle(letters)
        nxt = frozenset()
        for letter in letters:
            nxt = _advance(a, frontier, letter, delta, interp, first=(j == 0))
            if nxt:
                break
        if not nxt:
            events.append((letters[0], ts))
            break
        events.append((letter, ts))
        frontier = nxt
        prev = ts
    if events and rng.random() < poison:
        last = events[-1][1]
        events.append((rng.choice(LETTERS), last + rng.choice((Fraction(1, 7), Fraction(2)))))
    return TimedWord.of(events)


def sample_accepted_word(a, rng, interp=None, max_len=6, tries=60):
    """A timed word whose final frontier contains an accepting state, or None."""
    consts = _guard_consts(a, interp)
    for _ in range(tries):
        frontier = frozenset({Configuration(a.initial, zero_valuation(a.clocks))})
        events = []
        prev = Fraction(0)
        for j in range(max_len):
            delta = rng.choice(_delta_fan(a, frontier, consts, rng))
            ts = prev + delta
            letters = list(a.alphabet)
            rng.shuffle(letters)
            nxt = frozenset()
            for letter in letters:
                nxt = _advance(a, frontier, letter, delta, interp, first=(j == 0))
                if nxt:
                    break
            if not nxt:
                break
            events.append((letter, ts))
            frontier = nxt
            prev = ts
            if any(c.state in a.accepting for c in frontier) and rng.random() < 0.7:
                return TimedWord.of(events)
    return None


def rand_frac01(rng, nonzero=False):
    den = rng.choice(_DENS)
    return Fraction(rng.randrange(1 if nonzero else 0, den), den)


def matched_param_pair(rng, max_floor=2):
    """Two parameter values with equal floor and equal polarity."""
    m = rng.randrange(max_floor + 1)
    half = Fraction(1, 2)
    while True:
        f = rand_frac01(rng, nonzero=True)
        if f != half:
            break
    while True:
        fh = rand_frac01(rng, nonzero=True)
        if fh != half and (fh < half) == (f < half):
            return m + f, m + fh


def sample_in_class(rng, cls, ctx):
    lo, hi = interval_bounds(cls, ctx)
    if lo == hi:
        return lo
    den = rng.choice(_DENS)
    return lo + (hi - lo) * Fraction(rng.randrange(1, 2 * den), 2 * den)


def matched_starts(rng, mu, muh, c):
    """Two-clock starts (reset clock zero) in complete agreement under mu, muh."""
    ctx = polarity_ctx(mu)
    ctxh = polarity_ctx(muh)
    cls = rng.choice(list(IntervalClass))
    floor2 = rng.randrange(2 * c)
    b = sample_in_class(rng, cls, ctx)
    bh = sample_in_class(rng, cls, ctxh)
    if floor2 + max(b, bh) > 2 * c:
        floor2 = 0
    v0 = Valuation.of({"x": 0, "y": floor2 + b})
    vh0 = Valuation.of({"x": 0, "y": floor2 + bh})
    return v0, vh0
