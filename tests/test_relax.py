"""The check relaxed to an interval of parameter values, and the sweep that uses it."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pnta import (
    TRUE,
    And,
    Atom,
    Automaton,
    Not,
    PreconditionViolated,
    RegionBudgetExceeded,
    Transition,
    TrueGuard,
    conj,
    emptiness_fixed,
    find_lasso,
    ge,
    le,
    lt,
    parametric_emptiness,
    parse_automaton,
    prepare_fixed,
    witness_word,
)
from pnta import parametric
from pnta.parametric import Verdict, _candidates, _searched
from pnta.zones import compile_automaton, zone_nonempty
from randgen import one_clock_population, rand_nrtta, two_clock_population

FIXTURES = ("e_empty", "e_param_contra", "e_window", "w10y", "drift", "relax_empty")


def _fixtures(data_dir):
    return [parse_automaton((data_dir / f"{name}.ta").read_text()) for name in FIXTURES]


def _draws(seed: int, n: int):
    rng = random.Random(seed)
    return [rand_nrtta(rng, max_states=3, cmax=2, param="p") for _ in range(n)]


def _exact_sweep(a, max_nodes=20000) -> Verdict:
    """The sweep without the relaxation: each candidate in order until one is Nonempty."""
    if not a.params:
        return emptiness_fixed(a, None, max_nodes)
    b = _searched(a)
    compiled = compile_automaton(b)
    checked = nodes = 0
    for cand in _candidates(compiled.c, len(b.states)):
        v = emptiness_fixed(b, cand.value, max_nodes)
        checked += 1
        nodes += v.zone_nodes
        if v.nonempty:
            return replace(v, candidates_checked=checked, zone_nodes=nodes)
    return Verdict(False, None, checked, nodes)


def _relax_guard(g, lo, hi, positive=True):
    """The hull over [lo, hi] of each parameter literal of g, or of not g when not positive.

    A literal that bounds a clock from above by the parameter reads hi and
    one that bounds it from below reads lo, after negations are pushed
    down to the literals.
    """
    if isinstance(g, TrueGuard):
        return TRUE if positive else Not(TRUE)
    if isinstance(g, Atom):
        if not isinstance(g.bound, str):
            return g if positive else Not(g)
        x = g.clock
        if g.op == "<":  # x < p, or x >= p
            return lt(x, hi) if positive else ge(x, lo)
        # x = p, or x < p | x > p
        return conj(ge(x, lo), le(x, hi)) if positive else Not(And(ge(x, hi), le(x, lo)))
    if isinstance(g, Not):
        return _relax_guard(g.arg, lo, hi, not positive)
    left, right = _relax_guard(g.left, lo, hi, positive), _relax_guard(g.right, lo, hi, positive)
    return And(left, right) if positive else Not(And(Not(left), Not(right)))


def _relaxed_automaton(a, lo, hi) -> Automaton:
    ts = [Transition(t.source, t.target, t.letter, _relax_guard(t.guard, lo, hi), t.resets)
          for t in a.transitions]
    return Automaton(a.name, a.alphabet, a.states, a.clocks, frozenset(), a.initial,
                     a.accepting, ts)


def _intervals(rng, c):
    """Half-integer intervals [lo, hi] within [0, 2C + 1], and one degenerate one."""
    out = []
    for _ in range(3):
        i, j = sorted(rng.sample(range(4 * c + 3), 2))
        out.append((Fraction(i, 2), Fraction(j, 2)))
    k = rng.randrange(4 * c + 1)
    out.append((Fraction(k, 2), Fraction(k, 2)))
    return out


def test_relaxed_empty_means_empty_at_every_value_inside():
    """A relaxed Empty holds at each candidate inside the interval and between them."""
    rng = random.Random(1401)
    settled = values = 0
    for a in _draws(1400, 600):
        compiled = compile_automaton(a)
        cands = [cand.value for cand in _candidates(compiled.c, len(a.states))]
        for lo, hi in _intervals(rng, compiled.c):
            nonempty, _ = zone_nonempty(compiled.at(lo, hi))
            if nonempty:
                continue
            settled += 1
            inside = [mu for mu in cands if lo <= mu <= hi]
            inside += [lo + (hi - lo) * Fraction(k, den) for den in (3, 7) for k in range(1, den)]
            for mu in inside:
                assert not emptiness_fixed(a, mu, include_lasso=False).nonempty, (a, lo, hi, mu)
                values += 1
    assert settled > 150 and values > 2000


def test_relaxed_zone_verdict_matches_the_region_oracle():
    """compiled.at(lo, hi) decides as the region engine on the hull automaton built here."""
    rng = random.Random(1403)
    verdicts = set()
    for a in _draws(1402, 120):
        compiled = compile_automaton(a)
        for lo, hi in _intervals(rng, compiled.c):
            zone, _ = zone_nonempty(compiled.at(lo, hi))
            scaled, m, _ = prepare_fixed(_relaxed_automaton(a, lo, hi), None)
            assert zone == (find_lasso(scaled, m) is not None), (a, lo, hi)
            verdicts.add(zone)
    assert verdicts == {False, True}


def test_a_one_point_interval_is_the_value(data_dir):
    for a in _fixtures(data_dir) + _draws(1405, 60):
        compiled = compile_automaton(_searched(a))
        for mu in (Fraction(0), Fraction(3, 2), Fraction(7, 3)):
            assert compiled.at(mu, mu) == compiled.at(mu)
        if compiled.n_params:
            with pytest.raises(PreconditionViolated):
                compiled.at(2, Fraction(3, 2))


def test_the_hull_reads_lo_in_lower_bounds_and_hi_in_upper_ones(data_dir):
    """x = mu at two distinct instants, x never reset: Empty at each value, not on a hull."""
    a = parse_automaton((data_dir / "e_param_contra.ta").read_text())
    compiled = compile_automaton(a)
    assert not zone_nonempty(compiled.at(Fraction(1, 2), Fraction(1, 2)))[0]
    assert zone_nonempty(compiled.at(Fraction(1, 2), 1))[0]
    s = compiled.at(Fraction(1, 2), 1)
    # x = mu is 1/2 <= x <= 1: d[0][x] <= -1/2 and d[x][0] <= 1, scaled by d = 2, weak
    (step,) = s.out["r0"]  # transition 0's one box
    assert s.d == 2 and step[0] == 0
    assert s.bounds(step) == [(1, 0, 2 * 2 + 1), (0, 1, -2 * 1 + 1)]
    assert s.caps[1] == 2
    v = parametric_emptiness(a)
    assert not v.nonempty and v.relaxed is None and v.candidates_checked == 10


def test_the_sweep_decides_as_the_exact_sweep(data_dir):
    """Verdict, witness mu, zone lasso and witness word are those of an exact sweep."""
    settled = nonempty = 0
    population = (two_clock_population() + one_clock_population() + _fixtures(data_dir)
                  + _draws(1404, 200))
    for a in population:
        v, e = parametric_emptiness(a, 20000), _exact_sweep(a)
        assert (v.nonempty, v.witness_mu, v.zone_lasso) == (e.nonempty, e.witness_mu, e.zone_lasso)
        if v.nonempty:
            nonempty += 1
            assert witness_word(a, v, 2) == witness_word(a, e, 2)
        if v.relaxed is not None:
            settled += 1
            b = _searched(a)
            xi = 2 + compile_automaton(b).c * (1 + len(b.states))
            assert v.relaxed == (0, xi) and v.candidates_checked == 1 < e.candidates_checked
        else:
            assert v.candidates_checked == e.candidates_checked
            assert v.zone_nodes >= e.zone_nodes
    assert settled > 20 and nonempty > 300


def test_a_relaxed_check_stopped_by_the_budget_changes_nothing(data_dir, monkeypatch):
    stopped = []

    def at_budget(s, max_nodes):
        try:
            return zone_nonempty(s, 1)
        except RegionBudgetExceeded:
            stopped.append(s)
            raise

    monkeypatch.setattr(parametric, "zone_nonempty", at_budget)
    for a in two_clock_population()[:60] + _fixtures(data_dir):
        assert parametric_emptiness(a, 20000) == _exact_sweep(a)
    assert len(stopped) > 10
