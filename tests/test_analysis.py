"""Polarity contexts, interval classes, decomposition cases, transport."""

import random
from fractions import Fraction

import pytest

from pnta import PreconditionViolated, Valuation, elapse

from lemmas import (
    NEGATIVE,
    PLUS_ONE,
    POSITIVE,
    SAME,
    ChiTooLarge,
    DegenerateParameter,
    Disconnected,
    FloorMismatch,
    IntervalClass,
    NotCompleteAgreement,
    NotInSZ,
    OneResetSeq,
    PolarityMismatch,
    _suite_classes,
    _suite_lemma3,
    _suite_low_k,
    _suite_rng,
    agreement_transport,
    classify_critical_sequence,
    compress_region_lasso,
    critval_cases,
    fracvalue_case,
    in_agreement,
    in_complete_agreement,
    interval_bounds,
    interval_class,
    is_critical,
    low_k,
    polarity_ctx,
    pr2_shape,
)
from randgen import matched_param_pair, matched_starts

F = Fraction


def _v(x, y=None):
    if y is None:
        return Valuation.of({"x": F(x)})
    return Valuation.of({"x": F(x), "y": F(y)})


# ---------------------------------------------------------------------------
# Polarity and interval classes


def test_polarity_ctx_negative():
    ctx = polarity_ctx(F(23, 10))
    assert ctx.polarity == NEGATIVE
    assert ctx.m == 2
    assert ctx.ell == F(3, 10)
    assert ctx.chi == F(3, 10)
    assert ctx.s_z == frozenset({IntervalClass.LLH})
    assert ctx.w_z == F(2, 5)


def test_polarity_ctx_positive():
    ctx = polarity_ctx(F(27, 10))
    assert ctx.polarity == POSITIVE
    assert ctx.ell == F(3, 10)
    assert ctx.chi == F(1, 5)
    assert ctx.s_z == frozenset({IntervalClass.ZL, IntervalClass.LH1})
    assert ctx.w_z == F(1, 5)


def test_polarity_ctx_rejects_degenerate():
    for mu in (F(2), F(5, 2), F(0)):
        with pytest.raises(DegenerateParameter):
            polarity_ctx(mu)
    with pytest.raises(PreconditionViolated):
        polarity_ctx(F(-1, 3))


def test_interval_classes_partition_unit_interval():
    ctx = polarity_ctx(F(23, 10))
    expected = [
        (F(0), IntervalClass.Z),
        (F(1, 10), IntervalClass.ZL),
        (F(3, 10), IntervalClass.L),
        (F(1, 2), IntervalClass.LLH),
        (F(7, 10), IntervalClass.LH),
        (F(19, 20), IntervalClass.LH1),
    ]
    for f, cls in expected:
        assert interval_class(f, ctx) == cls
        lo, hi = interval_bounds(cls, ctx)
        assert (lo == f == hi) or lo < f < hi
    with pytest.raises(PreconditionViolated):
        interval_class(F(1), ctx)


def test_interval_class_order_is_geometric():
    assert list(IntervalClass) == sorted(IntervalClass)
    assert IntervalClass.Z < IntervalClass.ZL < IntervalClass.L
    assert IntervalClass.L < IntervalClass.LLH < IntervalClass.LH < IntervalClass.LH1


def test_low_k_brackets():
    ctx = polarity_ctx(F(21, 10))  # chi = 1/10, S_Z interval (1/10, 9/10)
    assert low_k(F(17, 20), ctx) == 1
    assert low_k(F(18, 25), ctx) == 2
    assert low_k(F(4, 5), ctx) == 1
    for f in (F(17, 20), F(18, 25), F(4, 5)):
        k = low_k(f, ctx)
        hi = F(9, 10)
        assert hi - k * ctx.chi <= f < hi - (k - 1) * ctx.chi


def test_low_k_errors():
    ctx = polarity_ctx(F(21, 10))
    with pytest.raises(NotInSZ):
        low_k(F(1, 20), ctx)  # ZL is not in S_Z for negative polarity
    wide = polarity_ctx(F(12, 5))  # ell = 2/5, chi = 2/5 >= width 1/5
    with pytest.raises(ChiTooLarge):
        low_k(F(1, 2), wide)


# ---------------------------------------------------------------------------
# Agreement


def test_in_agreement_examples():
    assert in_agreement(_v(F(1, 2), F(3, 2)), _v(F(1, 3), F(8, 5)),
                        F(3, 2), F(8, 5), 2)
    # x < 1 differs
    assert not in_agreement(_v(F(1, 2), F(3, 2)), _v(F(3, 2), F(8, 5)),
                            F(3, 2), F(8, 5), 2)
    # x = mu differs
    assert not in_agreement(_v(F(3, 2), F(3, 2)), _v(F(3, 2), F(8, 5)),
                            F(3, 2), F(8, 5), 2)
    with pytest.raises(PreconditionViolated):
        in_agreement(_v(1), _v(1, 2), F(3, 2), F(3, 2), 1)


def test_complete_agreement_needs_class_match():
    mu, muh = F(8, 5), F(5, 3)
    assert in_complete_agreement(_v(0, F(8, 5)), _v(0, F(5, 3)), mu, muh, 2)
    # same atoms, different class: 1/2 is LLH for mu, 39/40 is LH1 for muh
    assert in_agreement(_v(0, F(1, 2)), _v(0, F(39, 40)), mu, muh, 2)
    assert not in_complete_agreement(_v(0, F(1, 2)), _v(0, F(39, 40)), mu, muh, 2)
    # values beyond 2c never count as complete
    assert not in_complete_agreement(_v(0, 5), _v(0, 5), mu, muh, 2)


def test_matched_starts_are_in_complete_agreement():
    rng = random.Random(3)
    for _ in range(300):
        mu, muh = matched_param_pair(rng)
        c = polarity_ctx(mu).m + 1
        v0, vh0 = matched_starts(rng, mu, muh, c)
        assert in_complete_agreement(v0, vh0, mu, muh, c)


def test_is_critical():
    assert is_critical(_v(0, F(5, 2)), F(21, 10))
    assert not is_critical(_v(0, 2), F(21, 10))
    assert not is_critical(_v(0, F(7, 2)), F(21, 10))


# ---------------------------------------------------------------------------
# Critical valuation cases after one delay


def test_critval_cases_families():
    mu = F(21, 10)
    # delta hits the reset clock exactly at c = floor(mu) - floor(v0(z2))
    assert (1, 2) in critval_cases(_v(0, F(1, 2)), F(2), mu)
    # non-reset clock exactly at floor(mu) + floor(v0(z2)) + 1
    assert (2, 3) in critval_cases(_v(0, F(1, 2)), F(5, 2), mu)
    out = critval_cases(_v(0, F(1, 2)), F(19, 10), mu)
    assert (3, 2) in out  # reset clock approaches 2 from below
    out = critval_cases(_v(0, F(1, 2)), F(21, 10), mu)
    assert (5, 2) in out  # reset clock passed 2
    assert (4, 3) in out  # other clock approaches 3 from below
    out = critval_cases(_v(0, F(1, 2)), F(27, 10), mu)
    assert (6, 3) in out  # other clock passed 3


def test_critval_cases_cover_criticality():
    """Whenever the delayed valuation is critical some case fires."""
    mu = F(23, 10)
    for y_num in (1, 3, 7, 9, 13, 17):
        for d_num in range(1, 60):
            v0 = _v(0, F(y_num, 10))
            delta = F(d_num, 8)
            if is_critical(elapse(v0, delta), mu):
                assert critval_cases(v0, delta, mu), (v0, delta)


def test_critval_cases_preconditions():
    with pytest.raises(PreconditionViolated):
        critval_cases(_v(0, 1), F(1), F(21, 10))  # integral z2
    with pytest.raises(PreconditionViolated):
        critval_cases(_v(0, F(1, 2)), F(0), F(21, 10))
    with pytest.raises(PreconditionViolated):
        critval_cases(_v(F(1, 4), F(1, 2)), F(1), F(21, 10))  # no zero clock


# ---------------------------------------------------------------------------
# One-step shapes and fractional decompositions


def test_pr2_shape():
    assert pr2_shape(_v(0, F(1, 2)), _v(F(13, 10), F(9, 5))) == SAME
    assert pr2_shape(_v(0, F(1, 2)), _v(F(17, 10), F(11, 5))) == PLUS_ONE
    with pytest.raises(PreconditionViolated):
        pr2_shape(_v(0, F(1, 2)), _v(F(3, 2), F(2)))  # integral part lands on 2


def test_fracvalue_case_known_instances():
    mu = F(21, 10)
    # c1 != floor(mu), same shape: cases 1 and 6
    out = fracvalue_case(_v(0, F(1, 2)), _v(F(1, 4), F(3, 4)), mu)
    assert ("1", F(1, 2), F(1, 4)) in out
    assert ("6", F(0), F(1, 4)) in out
    # c1 != floor(mu), plus-one shape: cases 2 and 5
    out = fracvalue_case(_v(0, F(1, 2)), _v(F(3, 4), F(5, 4)), mu)
    assert ("2", F(0), F(1, 4)) in out
    assert ("5", F(1, 2), F(1, 4)) in out
    # c1 = floor(mu), same, z1 at or above mu: 3a
    out = fracvalue_case(_v(0, F(1, 2)), _v(F(9, 4), F(11, 4)), mu)
    assert ("3a", F(3, 5), F(3, 20)) in out
    # c2 = floor(mu), plus-one, z2 above mu: 7a
    out = fracvalue_case(_v(0, F(1, 2)), _v(F(17, 10), F(11, 5)), mu)
    assert ("7a", F(3, 5), F(1, 10)) in out


def test_fracvalue_case_grid_covers_all_cases():
    seen = set()
    dens = (20, 40)
    for mu in (F(21, 10), F(23, 10), F(27, 10), F(29, 10)):
        for z20 in (0, 1):
            for b_num in (1, 5, 10, 18, 19):
                v1 = _v(0, z20 + F(b_num, 20))
                for den in dens:
                    for d_num in range(1, 4 * den):
                        v2 = elapse(v1, F(d_num, den))
                        try:
                            out = fracvalue_case(v1, v2, mu)
                        except PreconditionViolated:
                            continue
                        ids = {cid for cid, _, _ in out}
                        seen |= ids
                        for cid, kappa, eps in out:
                            f = v2.as_dict()["x" if cid in
                                             {"5", "6", "7a", "7b", "8ai", "8aii", "8b"}
                                             else "y"]
                            assert kappa + eps == f - int(f)
    assert seen == {"1", "2", "3a", "3b", "4ai", "4aii", "4b",
                    "5", "6", "7a", "7b", "8ai", "8aii", "8b"}


def test_fracvalue_case_rejects_degenerate_parameter():
    with pytest.raises(DegenerateParameter):
        fracvalue_case(_v(0, F(1, 2)), _v(F(1, 4), F(3, 4)), F(5, 2))


# ---------------------------------------------------------------------------
# One-reset sequences and transport


def test_one_reset_seq_validation():
    v0 = _v(0, F(1, 2))
    v1 = elapse(v0, F(1, 3))
    seq = OneResetSeq.of("x", "y", (v0, v1))
    assert seq.deltas() == (F(1, 3),)
    assert seq.v0 == v0
    with pytest.raises(PreconditionViolated):
        OneResetSeq.of("x", "x", (v0,))
    with pytest.raises(PreconditionViolated):
        OneResetSeq.of("x", "y", ())
    with pytest.raises(PreconditionViolated):
        OneResetSeq.of("x", "y", (v0, v0))  # zero delay
    with pytest.raises(PreconditionViolated):
        OneResetSeq.of("x", "y", (v0, _v(F(1, 3), F(9, 10))))  # uneven step
    with pytest.raises(PreconditionViolated):
        OneResetSeq.of("x", "y", (_v(F(1, 4), F(1, 2)),))  # reset clock nonzero


def test_transport_single_step_midpoint():
    xi = OneResetSeq.of("x", "y", (_v(0, F(1, 2)), _v(F(9, 10), F(7, 5))))
    hat = agreement_transport(xi, F(13, 10), F(7, 5), _v(0, F(1, 2)), 1)
    # admissible elapsed total is the open interval (9/10, 1); midpoint taken
    assert hat.valuations[1] == _v(F(19, 20), F(29, 20))
    assert in_agreement(xi.valuations[1], hat.valuations[1],
                        F(13, 10), F(7, 5), 1)


def test_transport_pins_parameter_equalities():
    mu, muh = F(23, 10), F(21, 10)
    xi = OneResetSeq.of("x", "y", (_v(0, 0), _v(mu, mu)))
    hat = agreement_transport(xi, mu, muh, _v(0, 0), 3)
    assert hat.valuations[1]["x"] == muh


def test_transport_trivial_sequence():
    xi = OneResetSeq.of("x", "y", (_v(0, F(1, 2)),))
    hat = agreement_transport(xi, F(13, 10), F(7, 5), _v(0, F(1, 2)), 1)
    assert hat.valuations == (_v(0, F(1, 2)),)


def test_transport_precondition_errors():
    xi = OneResetSeq.of("x", "y", (_v(0, F(1, 2)), _v(F(9, 10), F(7, 5))))
    with pytest.raises(FloorMismatch):
        agreement_transport(xi, F(13, 10), F(23, 10), _v(0, F(1, 2)), 1)
    with pytest.raises(PolarityMismatch):
        agreement_transport(xi, F(13, 10), F(17, 10), _v(0, F(1, 2)), 1)
    with pytest.raises(NotCompleteAgreement):
        agreement_transport(xi, F(13, 10), F(7, 5), _v(0, F(33, 10)), 1)


def test_transport_long_matched_sequences():
    rng = random.Random(17)
    for _ in range(150):
        mu, muh = matched_param_pair(rng)
        c = polarity_ctx(mu).m + 1
        v0, vh0 = matched_starts(rng, mu, muh, c)
        vals = [v0]
        for _ in range(rng.randrange(1, 9)):
            d = F(rng.randrange(1, 20), rng.choice((4, 6, 8, 10)))
            vals.append(elapse(vals[-1], d))
        xi = OneResetSeq.of("x", "y", vals)
        hat = agreement_transport(xi, mu, muh, vh0, c)
        assert len(hat.valuations) == len(vals)
        for i in range(len(vals)):
            assert in_agreement(xi.valuations[i], hat.valuations[i], mu, muh, c)


# ---------------------------------------------------------------------------
# Critical-sequence classification and lasso compression


def test_classify_critical_sequence():
    ctx = polarity_ctx(F(23, 10))
    both_zero = _v(0, 0)
    in_sz = _v(0, F(1, 2))       # 1/2 lies in LLH = S_Z for negative polarity
    in_sz_same = _v(0, F(2, 5))  # same class, same floor
    out_sz = _v(0, F(1, 10))     # ZL, outside S_Z
    other_floor = _v(0, F(3, 2))
    swapped = Valuation.of({"x": F(1, 2), "y": 0})

    assert classify_critical_sequence(in_sz, both_zero, ctx)
    assert classify_critical_sequence(both_zero, in_sz, ctx)
    assert classify_critical_sequence(in_sz, swapped, ctx)
    assert classify_critical_sequence(out_sz, _v(0, F(1, 20)), ctx)
    assert classify_critical_sequence(in_sz, other_floor, ctx)
    assert not classify_critical_sequence(in_sz, in_sz_same, ctx)
    with pytest.raises(PreconditionViolated):
        classify_critical_sequence(_v(F(1, 4), F(1, 2)), in_sz, ctx)


def test_compress_region_lasso_bounds_repeats():
    path = ["a", "b", "a", "c", "a", "d", "a", "e"]
    out = compress_region_lasso(path, 2)
    assert out.count("a") <= 2
    assert out[0] == "a" and out[-1] == "e"
    assert compress_region_lasso(path, 5) == path
    with pytest.raises(PreconditionViolated):
        compress_region_lasso(path, 0)


def test_compress_region_lasso_random_paths():
    rng = random.Random(5)
    for _ in range(300):
        path = [rng.randrange(6) for _ in range(rng.randrange(1, 30))]
        q = rng.randrange(1, 4)
        out = compress_region_lasso(path, q)
        assert all(out.count(v) <= q for v in set(out))
        assert out[0] == path[0] and out[-1] == path[-1]
        # surviving nodes appear in original order
        it = iter(path)
        assert all(v in it for v in out)


def test_compress_checks_connectivity(data_dir):
    from pnta import build_region_automaton, parse_automaton, prepare_fixed

    a = parse_automaton((data_dir / "e_window.ta").read_text())
    scaled, m, _ = prepare_fixed(a, F(3, 2))
    ra = build_region_automaton(scaled, m)
    i = 0
    path = [ra.nodes[0]]
    for _ in range(4):
        out = ra.edges[ra.nodes.index(path[-1])]
        if not out:
            break
        path.append(ra.nodes[out[0][1]])
    assert compress_region_lasso(path, 3, ra) == path
    bogus = [ra.nodes[0], ra.nodes[0]]
    with pytest.raises(Disconnected):
        compress_region_lasso(bogus, 3, ra)


# ---------------------------------------------------------------------------
# Seeded random trials (prop1, prop2 and lemma4 run in acceptance criterion 09)


def test_suite_lemma3():
    rng = _suite_rng(2026, "lemma3")
    for _ in range(1_000):
        assert _suite_lemma3(rng) is None


def test_suite_classes():
    rng = _suite_rng(2026, "classes")
    for _ in range(10_000):
        assert _suite_classes(rng) is None


def test_suite_low_k():
    rng = _suite_rng(2026, "low_k")
    for _ in range(10_000):
        assert _suite_low_k(rng) is None
