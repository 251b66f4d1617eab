"""Timed word runs, configurations, and valuation arithmetic."""

from fractions import Fraction

import pytest

from pnta import (
    Configuration,
    GuardViolated,
    MalformedWord,
    NonPositiveDelay,
    TimedWord,
    Transition,
    TRUE,
    Valuation,
    WrongSource,
    elapse,
    eq,
    gt,
    lt,
    parse_automaton,
    reset_apply,
    run_frontiers,
    step,
    v_oplus,
    zero_valuation,
)

A_SRC = """
automaton two_phase
clocks x y
alphabet a b
init q0
accept q2
trans q0 q1 a ( x = 1 ) { y }
trans q1 q2 b ( y < 1 ) { }
trans q1 q1 a ( true ) { }
"""


@pytest.fixture
def aut():
    return parse_automaton(A_SRC)


def test_valuation_basics():
    v = Valuation.of({"x": Fraction(1, 2), "y": 2})
    assert v["x"] == Fraction(1, 2)
    assert v.keys() == ("x", "y")
    assert v.as_dict() == {"x": Fraction(1, 2), "y": Fraction(2)}
    # insertion order does not matter
    assert v == Valuation.of({"y": 2, "x": Fraction(1, 2)})


def test_elapse_and_reset():
    v = zero_valuation(("x", "y"))
    w = elapse(v, Fraction(3, 2))
    assert w.as_dict() == {"x": Fraction(3, 2), "y": Fraction(3, 2)}
    r = reset_apply(w, ("y",))
    assert r.as_dict() == {"x": Fraction(3, 2), "y": Fraction(0)}
    with pytest.raises(ValueError):
        elapse(v, Fraction(-1))


def test_timed_word_of_validates():
    TimedWord.of([("a", Fraction(0)), ("a", Fraction(1, 2))])
    with pytest.raises(MalformedWord):
        TimedWord.of([("a", Fraction(1)), ("a", Fraction(1))])
    with pytest.raises(MalformedWord):
        TimedWord.of([("a", Fraction(-1))])


def test_step_guard_and_source_checks(aut):
    t01 = aut.transitions[0]
    c0 = Configuration("q0", zero_valuation(("x", "y")))
    c1 = step(c0, t01, Fraction(1), first=True)
    assert c1.state == "q1"
    assert c1.valuation.as_dict() == {"x": Fraction(1), "y": Fraction(0)}
    with pytest.raises(GuardViolated):
        step(c0, t01, Fraction(1, 2), first=True)
    with pytest.raises(WrongSource):
        step(c1, t01, Fraction(1))
    with pytest.raises(NonPositiveDelay):
        step(c0, t01, Fraction(0))  # zero delay only for the first event
    step(c0, Transition("q0", "q0", "a", eq("x", 0), ()), Fraction(0), first=True)


def test_run_frontiers_tracks_all_branches(aut):
    w = TimedWord.of([("a", Fraction(1)), ("a", Fraction(2)),
                      ("b", Fraction(5, 2))])
    fr = run_frontiers(aut, w)
    assert len(fr) == 4
    assert {c.state for c in fr[1]} == {"q1"}
    assert {c.state for c in fr[2]} == {"q1"}
    # y was reset at time 1, so y = 3/2 > 1 blocks the b edge
    assert fr[3] == frozenset()


def test_run_frontiers_accepting_path(aut):
    w = TimedWord.of([("a", Fraction(1)), ("b", Fraction(3, 2))])
    end = run_frontiers(aut, w)[-1]
    assert {c.state for c in end} == {"q2"}


def test_run_with_parameter():
    a = parse_automaton(
        "automaton p\nclocks x\nparams mu\ninit q0\naccept q1\n"
        "trans q0 q1 a ( x = mu ) { }\n"
    )
    w = TimedWord.of([("a", Fraction(3, 2))])
    assert run_frontiers(a, w, {"mu": Fraction(3, 2)})[-1]
    assert not run_frontiers(a, w, {"mu": Fraction(2)})[-1]


def test_v_oplus_enumerates_reset_subsets():
    v = Valuation.of({"x": 1, "y": 2})
    out = v_oplus(v, Fraction(1))
    assert len(out) == 4
    assert Valuation.of({"x": 2, "y": 3}) in out
    assert Valuation.of({"x": 0, "y": 0}) in out
    with pytest.raises(NonPositiveDelay):
        v_oplus(v, Fraction(0))
