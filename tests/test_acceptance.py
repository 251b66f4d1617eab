"""Acceptance gate: one test per numbered criterion, each under a wall-clock budget.

Every test is self-contained and exercises one end-to-end guarantee of the
decision procedure; the verbose pytest line of each test is the pass/fail
record for its criterion.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from pnta import (
    Valuation,
    atoms,
    build_region_automaton,
    candidate_parameters,
    elapse,
    emptiness_fixed,
    gen_lk,
    gen_lpk,
    is_nrtta,
    max_constant,
    parametric_emptiness,
    parse_automaton,
    prepare_fixed,
    run_frontiers,
    ta_to_nrtta,
)
from pnta.errors import PreconditionViolated

from lemmas import (
    Infeasible,
    OneResetSeq,
    _suite_lemma4,
    _suite_prop1,
    _suite_prop2,
    _suite_rng,
    agreement_transport,
    concretize_lasso,
    critval_cases,
    fracvalue_case,
    in_agreement,
    in_complete_agreement,
    is_critical,
    region_lasso,
    region_of,
)
from randgen import (
    matched_param_pair,
    matched_starts,
    rand_nrtta,
    rand_ta,
    sample_accepted_word,
    sample_word,
    scale_constants,
)


def test_criterion_01_candidate_set_formulas_exact():
    a = parse_automaton(
        "automaton gate\nclocks x\nparams mu\ninit q0\naccept q1\n"
        "trans q0 q1 a ( x = mu ) { }\n"
        "trans q1 q1 a ( x <= 1 ) { }\n"
    )
    assert max_constant(a) == 1 and len(a.states) == 2
    candidate_parameters(a)  # warm-up
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        cs = candidate_parameters(a)
        timings.append(time.perf_counter() - t0)
    assert set(cs.values) == {
        F(0), F(1, 2), F(1), F(3, 2), F(2),
        F(1, 40), F(21, 40), F(41, 40), F(61, 40), F(5),
    }
    assert cs.a_bound == 4
    assert cs.alpha == F(1, 40)
    assert cs.xi == 5
    assert cs.denom == 40
    assert min(timings) < 0.001


def test_criterion_02_window_instance_witness_and_fixed_cross_checks(data_dir):
    t0 = time.perf_counter()
    a = parse_automaton((data_dir / "e_window.ta").read_text())
    v = parametric_emptiness(a)
    assert v.nonempty
    assert v.witness_mu > 1
    assert v.witness_mu in candidate_parameters(a).values
    assert emptiness_fixed(a, v.witness_mu).nonempty
    assert not emptiness_fixed(a, F(1, 2)).nonempty
    assert not emptiness_fixed(a, F(1)).nonempty
    assert time.perf_counter() - t0 < 5


def test_criterion_03_empty_instances_stay_empty_across_parameter_samples(data_dir):
    t0 = time.perf_counter()
    rng = random.Random(301)
    for name in ("e_empty.ta", "e_param_contra.ta"):
        a = parse_automaton((data_dir / name).read_text())
        assert not parametric_emptiness(a).nonempty
        for _ in range(100):
            den = rng.choice((1, 2, 3, 4, 5, 6, 7, 8))
            mu = F(rng.randrange(1, 10 * den), den)  # anywhere in (0, 10)
            assert not emptiness_fixed(a, mu, include_lasso=False).nonempty, (name, mu)
    assert time.perf_counter() - t0 < 30


def test_criterion_04_generated_families_nonempty_with_witness_replay():
    t0 = time.perf_counter()
    a = gen_lk(2)
    v = emptiness_fixed(a)
    assert v.nonempty and v.zone_lasso is not None
    scaled, m, d = prepare_fixed(a, None)
    assert d == 1
    lasso = region_lasso(v.scaled, v.zone_lasso, m)
    for unrollings in (1, 2):
        w = concretize_lasso(scaled, m, lasso, unrollings)
        frontiers = run_frontiers(a, w)
        path = list(lasso.stem_nodes)
        for _ in range(unrollings):
            path.extend(lasso.cycle_nodes[1:])
            path.append(lasso.cycle_nodes[0])
        assert len(path) == len(frontiers)
        # the simulator walks through every control state on the symbolic path
        for (q, _), frontier in zip(path, frontiers):
            assert q in {c.state for c in frontier}
    assert parametric_emptiness(gen_lpk(2)).nonempty
    assert time.perf_counter() - t0 < 60


def test_criterion_05_translation_preserves_accepted_prefixes():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for _ in range(1000):
        a = rand_ta(rng, max_states=4, max_clocks=2, cmax=2)
        b = ta_to_nrtta(a)
        assert is_nrtta(b)
        assert len(b.clocks) == len(a.clocks) + 1
        acc_a = set(a.accepting)
        acc_b = set(b.accepting)
        for _ in range(10):
            w = sample_word(a, rng)
            mark_a = [any(c.state in acc_a for c in f) for f in run_frontiers(a, w)]
            mark_b = [any(c.state in acc_b for c in f) for f in run_frontiers(b, w)]
            assert mark_a == mark_b, (a.name, list(w))
    assert time.perf_counter() - t0 < 300


@pytest.fixture(scope="module")
def two_clock_population():
    """200 two-clock automata whose guards really use the parameter."""
    rng = random.Random(607)
    population = []
    while len(population) < 200:
        a = rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2, param="mu")
        if len(a.clocks) != 2:
            continue
        if not any(isinstance(at.bound, str)
                   for t in a.transitions for at in atoms(t.guard)):
            continue
        population.append(a)
    return population


def test_criterion_06_nonempty_above_2c_implies_nonempty_at_xi(two_clock_population):
    t0 = time.perf_counter()
    hits = 0
    for a in two_clock_population:
        cs = candidate_parameters(a)
        xi_nonempty = None
        for mu in (2 * cs.c + 1, 2 * cs.c + F(7, 3), 10 * cs.c):
            if not emptiness_fixed(a, mu, include_lasso=False).nonempty:
                continue
            if xi_nonempty is None:
                xi_nonempty = emptiness_fixed(a, cs.xi, include_lasso=False).nonempty
            assert xi_nonempty, (a.name, mu, cs.xi)
            hits += 1
    assert hits > 0
    assert time.perf_counter() - t0 < 600


def test_criterion_07_interval_nonempty_implies_nonempty_at_representative(
    two_clock_population,
):
    t0 = time.perf_counter()
    rng = random.Random(707)
    hits = 0
    for a in two_clock_population:
        cs = candidate_parameters(a)
        for n in range(4 * cs.c):
            rep_nonempty = None
            for _ in range(3):
                den = rng.choice((3, 4, 5, 6, 7))
                mu = F(n, 2) + F(rng.randrange(1, den), den) / 2
                if not emptiness_fixed(a, mu, include_lasso=False).nonempty:
                    continue
                if rep_nonempty is None:
                    rep = F(n, 2) + cs.alpha
                    rep_nonempty = emptiness_fixed(a, rep, include_lasso=False).nonempty
                assert rep_nonempty, (a.name, mu, n)
                hits += 1
    assert hits > 0
    assert time.perf_counter() - t0 < 900


def test_criterion_08_transport_postcondition_on_random_one_reset_sequences():
    t0 = time.perf_counter()
    rng = random.Random(808)
    for _ in range(1000):
        mu, muh = matched_param_pair(rng)
        c = max(1, math.floor(mu) + 1)
        v0, vh0 = matched_starts(rng, mu, muh, c)
        assert in_complete_agreement(v0, vh0, mu, muh, c)
        vals = [v0]
        for _ in range(rng.randrange(1, 9)):
            den = rng.choice((2, 3, 4, 5, 7, 8))
            vals.append(elapse(vals[-1], F(rng.randrange(1, 3 * den), den)))
        xi = OneResetSeq.of("x", "y", vals)
        try:
            hat = agreement_transport(xi, mu, muh, vh0, c)
        except Infeasible:
            pytest.fail(f"transport infeasible at mu={mu}, muh={muh}, v0={v0.as_dict()}")
        assert hat.v0 == vh0
        assert len(hat.valuations) == len(xi.valuations)
        for v, vh in zip(xi.valuations[1:], hat.valuations[1:]):
            assert in_agreement(v, vh, mu, muh, c), (mu, muh, v.as_dict())
    assert time.perf_counter() - t0 < 60


def test_criterion_09_fuzz_suites_pass_with_full_case_coverage():
    t0 = time.perf_counter()
    for name, trial in (("lemma4", _suite_lemma4), ("prop1", _suite_prop1),
                        ("prop2", _suite_prop2)):
        rng = _suite_rng(2026, name)
        for _ in range(10_000):
            assert trial(rng) is None, name

    # deterministic sweep: every fractional-value case label shows up and the
    # (kappa, eps) split reproduces the fractional part exactly
    seen = set()
    for mu in (F(21, 10), F(23, 10), F(27, 10), F(29, 10)):
        for z20 in (0, 1):
            for b_num in (1, 5, 10, 18, 19):
                v1 = Valuation.of({"x": 0, "y": z20 + F(b_num, 20)})
                for d_num in range(1, 160):
                    v2 = elapse(v1, F(d_num, 40))
                    try:
                        out = fracvalue_case(v1, v2, mu)
                    except PreconditionViolated:
                        continue
                    seen |= {cid for cid, _, _ in out}
                    for cid, kappa, eps in out:
                        z = "x" if cid in {"5", "6", "7a", "7b",
                                           "8ai", "8aii", "8b"} else "y"
                        f = v2.as_dict()[z]
                        assert kappa + eps == f - int(f), (cid, v1.as_dict(), mu)
    assert seen == {"1", "2", "3a", "3b", "4ai", "4aii", "4b",
                    "5", "6", "7a", "7b", "8ai", "8aii", "8b"}

    # same for the critical-valuation case labels; the half-integer starts
    # let the non-reset clock land exactly on an integer
    seen_cv = set()
    for mu in (F(21, 10), F(23, 10)):
        for y_num in (1, 3, 5, 7, 9, 13, 15, 17):
            v0 = Valuation.of({"x": 0, "y": F(y_num, 10)})
            for d_num in range(1, 60):
                delta = F(d_num, 8)
                if is_critical(elapse(v0, delta), mu):
                    cases = critval_cases(v0, delta, mu)
                    assert cases, (v0.as_dict(), delta, mu)
                    seen_cv |= {cid for cid, _ in cases}
    assert seen_cv == {1, 2, 3, 4, 5, 6}
    assert time.perf_counter() - t0 < 120


def test_criterion_10_simulated_configurations_land_in_region_automaton():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    pairs = 0
    while pairs < 500:
        a = rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2)
        w = sample_accepted_word(a, rng)
        if w is None or not len(w):
            continue
        pairs += 1
        scaled, m, d = prepare_fixed(a, None)
        assert d == 1
        nodes = set(build_region_automaton(scaled, m).nodes)
        for frontier in run_frontiers(a, w):
            for cfg in frontier:
                assert (cfg.state, region_of(cfg.valuation, m)) in nodes, (
                    a.name, cfg.state, cfg.valuation.as_dict())
    assert time.perf_counter() - t0 < 300


def test_criterion_11_verdict_invariant_under_uniform_scaling():
    t0 = time.perf_counter()
    rng = random.Random(1111)
    for i in range(200):
        if i % 2 == 0:
            a = rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2)
            mu = None
        else:
            a = rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2, param="mu")
            den = rng.choice((2, 3, 4, 5))
            mu = F(rng.randrange(1, 6 * den), den)
        base = emptiness_fixed(a, mu, include_lasso=False).nonempty
        for d in (2, 3, 5):
            s = scale_constants(a, d)
            smu = None if mu is None else mu * d
            assert emptiness_fixed(s, smu, include_lasso=False).nonempty == base, (
                a.name, mu, d)
    assert time.perf_counter() - t0 < 300
