"""Removing test-and-reset clocks while preserving runs."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnta import (
    PreconditionViolated,
    is_nrtta,
    parse_automaton,
    print_automaton,
    product_state_origin,
    run_frontiers,
    ta_to_nrtta,
)
from randgen import rand_ta, sample_word

ROUND_ROBIN = """
automaton rr
clocks x
alphabet a
init q0
accept q1
trans q0 q1 a ( x = 1 ) { x }
trans q1 q0 a ( x = 1 ) { x }
"""


def test_translation_output_shape():
    a = parse_automaton(ROUND_ROBIN)
    assert not is_nrtta(a)
    b = ta_to_nrtta(a)
    assert is_nrtta(b)
    assert len(b.clocks) == len(a.clocks) + 1
    assert product_state_origin(b.initial) == a.initial
    for q in b.accepting:
        assert product_state_origin(q) in a.accepting


def _frontier_origins(frontiers):
    return [frozenset(product_state_origin(c.state) for c in fr) for fr in frontiers]


def _frontier_states(frontiers):
    return [frozenset(c.state for c in fr) for fr in frontiers]


def test_round_robin_runs_preserved():
    from fractions import Fraction
    from pnta import TimedWord

    a = parse_automaton(ROUND_ROBIN)
    b = ta_to_nrtta(a)
    w = TimedWord.of([("a", Fraction(1)), ("a", Fraction(2)), ("a", Fraction(3))])
    fa = _frontier_states(run_frontiers(a, w))
    fb = _frontier_origins(run_frontiers(b, w))
    assert fa == fb
    dead = TimedWord.of([("a", Fraction(1)), ("a", Fraction(5, 2))])
    assert run_frontiers(a, dead)[-1] == frozenset()
    assert run_frontiers(b, dead)[-1] == frozenset()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_translation_preserves_prefix_languages(seed):
    """Control-state frontiers match at every prefix of sampled words."""
    rng = random.Random(seed)
    a = rand_ta(rng)
    b = ta_to_nrtta(a)
    assert is_nrtta(b)
    assert len(b.clocks) == len(a.clocks) + 1
    for _ in range(5):
        w = sample_word(a, rng)
        fa = _frontier_states(run_frontiers(a, w))
        fb = _frontier_origins(run_frontiers(b, w))
        assert fa == fb


def test_translation_accepting_set_projects_back():
    rng = random.Random(7)
    for _ in range(30):
        a = rand_ta(rng)
        b = ta_to_nrtta(a)
        assert {product_state_origin(q) for q in b.accepting} <= set(a.accepting)
        assert {product_state_origin(q) for q in b.states} <= set(a.states)


def _clocks_each_reset_alone(k, n=1):
    """n states in a ring, each step testing and resetting one of k clocks."""
    lines = ["automaton many", "clocks " + " ".join(f"c{i}" for i in range(k)),
             "init q0", "accept q0"]
    lines += [f"trans q{j} q{(j + 1) % n} a ( c{i} < 1 ) {{ c{i} }}"
              for j in range(n) for i in range(k)]
    return parse_automaton("\n".join(lines) + "\n")


def test_a_product_of_too_many_clock_maps_is_refused():
    """k clocks each tested and reset alone: 7,423 product states at k = 6, 60,621 at k = 7.

    A ring of 8 states over 6 clocks reaches only the 7,423 clock maps of
    six clocks, yet 59,329 product states: the bound is on the states.
    """
    assert len(ta_to_nrtta(_clocks_each_reset_alone(6)).states) == 7423
    for a in (_clocks_each_reset_alone(7), _clocks_each_reset_alone(6, 8)):
        t0 = time.perf_counter()
        with pytest.raises(PreconditionViolated, match="over 10,000 product states"):
            ta_to_nrtta(a)
        assert time.perf_counter() - t0 < 1


THREE_CLOCKS = """
automaton three
clocks x y z
init q0
accept q1
trans q0 q0 a ( x < 1 ) { x y }
trans q0 q1 b ( y = 1 ) { z }
trans q1 q0 a ( z < 2 & x > 0 ) { x }
"""

ROUND_ROBIN_NRT = """\
automaton rr_nrt
clocks x1 x2
alphabet a
init q0@x:x1.s:x2
accept q1@x:x2.s:x1
trans q0@x:x1.s:x2 q1@x:x2.s:x1 a ( x1 = 1 ) { x2 }
trans q1@x:x2.s:x1 q0@x:x1.s:x2 a ( x2 = 1 ) { x1 }
"""

THREE_CLOCKS_NRT = """\
automaton three_nrt
clocks x1 x2 x3 x4
alphabet a b
init q0@x:x1.y:x1.z:x1.s:x2
accept q1@x:x1.y:x1.z:x2.s:x3 q1@x:x1.y:x1.z:x3.s:x2 q1@x:x1.y:x2.z:x3.s:x4 \
q1@x:x1.y:x2.z:x4.s:x3 q1@x:x1.y:x3.z:x2.s:x4 q1@x:x1.y:x3.z:x4.s:x2 q1@x:x1.y:x4.z:x2.s:x3 \
q1@x:x1.y:x4.z:x3.s:x2 q1@x:x2.y:x1.z:x3.s:x4 q1@x:x2.y:x1.z:x4.s:x3 q1@x:x2.y:x2.z:x1.s:x3 \
q1@x:x2.y:x2.z:x3.s:x1 q1@x:x2.y:x3.z:x1.s:x4 q1@x:x2.y:x3.z:x4.s:x1 q1@x:x2.y:x4.z:x1.s:x3 \
q1@x:x2.y:x4.z:x3.s:x1 q1@x:x3.y:x1.z:x2.s:x4 q1@x:x3.y:x1.z:x4.s:x2 q1@x:x3.y:x2.z:x1.s:x4 \
q1@x:x3.y:x2.z:x4.s:x1 q1@x:x3.y:x3.z:x1.s:x2 q1@x:x3.y:x3.z:x2.s:x1 q1@x:x3.y:x4.z:x1.s:x2 \
q1@x:x3.y:x4.z:x2.s:x1 q1@x:x4.y:x1.z:x2.s:x3 q1@x:x4.y:x1.z:x3.s:x2 q1@x:x4.y:x2.z:x1.s:x3 \
q1@x:x4.y:x2.z:x3.s:x1 q1@x:x4.y:x3.z:x1.s:x2 q1@x:x4.y:x3.z:x2.s:x1 q1@x:x4.y:x4.z:x1.s:x2 \
q1@x:x4.y:x4.z:x2.s:x1
trans q0@x:x1.y:x1.z:x1.s:x2 q0@x:x2.y:x2.z:x1.s:x3 a ( x1 < 1 ) { x2 }
trans q0@x:x1.y:x1.z:x1.s:x2 q1@x:x1.y:x1.z:x2.s:x3 b ( x1 = 1 ) { x2 }
trans q0@x:x2.y:x2.z:x1.s:x3 q0@x:x3.y:x3.z:x1.s:x2 a ( x2 < 1 ) { x3 }
trans q0@x:x2.y:x2.z:x1.s:x3 q1@x:x2.y:x2.z:x3.s:x1 b ( x2 = 1 ) { x3 }
trans q1@x:x1.y:x1.z:x2.s:x3 q0@x:x3.y:x1.z:x2.s:x4 a ( x2 < 2 & !(x1 < 0) & !(x1 = 0) ) { x3 }
trans q0@x:x3.y:x3.z:x1.s:x2 q0@x:x2.y:x2.z:x1.s:x3 a ( x3 < 1 ) { x2 }
trans q0@x:x3.y:x3.z:x1.s:x2 q1@x:x3.y:x3.z:x2.s:x1 b ( x3 = 1 ) { x2 }
trans q1@x:x2.y:x2.z:x3.s:x1 q0@x:x1.y:x2.z:x3.s:x4 a ( x3 < 2 & !(x2 < 0) & !(x2 = 0) ) { x1 }
trans q0@x:x3.y:x1.z:x2.s:x4 q0@x:x4.y:x4.z:x2.s:x1 a ( x3 < 1 ) { x4 }
trans q0@x:x3.y:x1.z:x2.s:x4 q1@x:x3.y:x1.z:x4.s:x2 b ( x1 = 1 ) { x4 }
trans q1@x:x3.y:x3.z:x2.s:x1 q0@x:x1.y:x3.z:x2.s:x4 a ( x2 < 2 & !(x3 < 0) & !(x3 = 0) ) { x1 }
trans q0@x:x1.y:x2.z:x3.s:x4 q0@x:x4.y:x4.z:x3.s:x1 a ( x1 < 1 ) { x4 }
trans q0@x:x1.y:x2.z:x3.s:x4 q1@x:x1.y:x2.z:x4.s:x3 b ( x2 = 1 ) { x4 }
trans q0@x:x4.y:x4.z:x2.s:x1 q0@x:x1.y:x1.z:x2.s:x3 a ( x4 < 1 ) { x1 }
trans q0@x:x4.y:x4.z:x2.s:x1 q1@x:x4.y:x4.z:x1.s:x2 b ( x4 = 1 ) { x1 }
trans q1@x:x3.y:x1.z:x4.s:x2 q0@x:x2.y:x1.z:x4.s:x3 a ( x4 < 2 & !(x3 < 0) & !(x3 = 0) ) { x2 }
trans q0@x:x1.y:x3.z:x2.s:x4 q0@x:x4.y:x4.z:x2.s:x1 a ( x1 < 1 ) { x4 }
trans q0@x:x1.y:x3.z:x2.s:x4 q1@x:x1.y:x3.z:x4.s:x2 b ( x3 = 1 ) { x4 }
trans q0@x:x4.y:x4.z:x3.s:x1 q0@x:x1.y:x1.z:x3.s:x2 a ( x4 < 1 ) { x1 }
trans q0@x:x4.y:x4.z:x3.s:x1 q1@x:x4.y:x4.z:x1.s:x2 b ( x4 = 1 ) { x1 }
trans q1@x:x1.y:x2.z:x4.s:x3 q0@x:x3.y:x2.z:x4.s:x1 a ( x4 < 2 & !(x1 < 0) & !(x1 = 0) ) { x3 }
trans q0@x:x1.y:x1.z:x2.s:x3 q0@x:x3.y:x3.z:x2.s:x1 a ( x1 < 1 ) { x3 }
trans q0@x:x1.y:x1.z:x2.s:x3 q1@x:x1.y:x1.z:x3.s:x2 b ( x1 = 1 ) { x3 }
trans q1@x:x4.y:x4.z:x1.s:x2 q0@x:x2.y:x4.z:x1.s:x3 a ( x1 < 2 & !(x4 < 0) & !(x4 = 0) ) { x2 }
trans q0@x:x2.y:x1.z:x4.s:x3 q0@x:x3.y:x3.z:x4.s:x1 a ( x2 < 1 ) { x3 }
trans q0@x:x2.y:x1.z:x4.s:x3 q1@x:x2.y:x1.z:x3.s:x4 b ( x1 = 1 ) { x3 }
trans q1@x:x1.y:x3.z:x4.s:x2 q0@x:x2.y:x3.z:x4.s:x1 a ( x4 < 2 & !(x1 < 0) & !(x1 = 0) ) { x2 }
trans q0@x:x1.y:x1.z:x3.s:x2 q0@x:x2.y:x2.z:x3.s:x1 a ( x1 < 1 ) { x2 }
trans q0@x:x1.y:x1.z:x3.s:x2 q1@x:x1.y:x1.z:x2.s:x3 b ( x1 = 1 ) { x2 }
trans q0@x:x3.y:x2.z:x4.s:x1 q0@x:x1.y:x1.z:x4.s:x2 a ( x3 < 1 ) { x1 }
trans q0@x:x3.y:x2.z:x4.s:x1 q1@x:x3.y:x2.z:x1.s:x4 b ( x2 = 1 ) { x1 }
trans q0@x:x3.y:x3.z:x2.s:x1 q0@x:x1.y:x1.z:x2.s:x3 a ( x3 < 1 ) { x1 }
trans q0@x:x3.y:x3.z:x2.s:x1 q1@x:x3.y:x3.z:x1.s:x2 b ( x3 = 1 ) { x1 }
trans q1@x:x1.y:x1.z:x3.s:x2 q0@x:x2.y:x1.z:x3.s:x4 a ( x3 < 2 & !(x1 < 0) & !(x1 = 0) ) { x2 }
trans q0@x:x2.y:x4.z:x1.s:x3 q0@x:x3.y:x3.z:x1.s:x2 a ( x2 < 1 ) { x3 }
trans q0@x:x2.y:x4.z:x1.s:x3 q1@x:x2.y:x4.z:x3.s:x1 b ( x4 = 1 ) { x3 }
trans q0@x:x3.y:x3.z:x4.s:x1 q0@x:x1.y:x1.z:x4.s:x2 a ( x3 < 1 ) { x1 }
trans q0@x:x3.y:x3.z:x4.s:x1 q1@x:x3.y:x3.z:x1.s:x2 b ( x3 = 1 ) { x1 }
trans q1@x:x2.y:x1.z:x3.s:x4 q0@x:x4.y:x1.z:x3.s:x2 a ( x3 < 2 & !(x2 < 0) & !(x2 = 0) ) { x4 }
trans q0@x:x2.y:x3.z:x4.s:x1 q0@x:x1.y:x1.z:x4.s:x2 a ( x2 < 1 ) { x1 }
trans q0@x:x2.y:x3.z:x4.s:x1 q1@x:x2.y:x3.z:x1.s:x4 b ( x3 = 1 ) { x1 }
trans q0@x:x2.y:x2.z:x3.s:x1 q0@x:x1.y:x1.z:x3.s:x2 a ( x2 < 1 ) { x1 }
trans q0@x:x2.y:x2.z:x3.s:x1 q1@x:x2.y:x2.z:x1.s:x3 b ( x2 = 1 ) { x1 }
trans q0@x:x1.y:x1.z:x4.s:x2 q0@x:x2.y:x2.z:x4.s:x1 a ( x1 < 1 ) { x2 }
trans q0@x:x1.y:x1.z:x4.s:x2 q1@x:x1.y:x1.z:x2.s:x3 b ( x1 = 1 ) { x2 }
trans q1@x:x3.y:x2.z:x1.s:x4 q0@x:x4.y:x2.z:x1.s:x3 a ( x1 < 2 & !(x3 < 0) & !(x3 = 0) ) { x4 }
trans q1@x:x3.y:x3.z:x1.s:x2 q0@x:x2.y:x3.z:x1.s:x4 a ( x1 < 2 & !(x3 < 0) & !(x3 = 0) ) { x2 }
trans q0@x:x2.y:x1.z:x3.s:x4 q0@x:x4.y:x4.z:x3.s:x1 a ( x2 < 1 ) { x4 }
trans q0@x:x2.y:x1.z:x3.s:x4 q1@x:x2.y:x1.z:x4.s:x3 b ( x1 = 1 ) { x4 }
trans q1@x:x2.y:x4.z:x3.s:x1 q0@x:x1.y:x4.z:x3.s:x2 a ( x3 < 2 & !(x2 < 0) & !(x2 = 0) ) { x1 }
trans q0@x:x4.y:x1.z:x3.s:x2 q0@x:x2.y:x2.z:x3.s:x1 a ( x4 < 1 ) { x2 }
trans q0@x:x4.y:x1.z:x3.s:x2 q1@x:x4.y:x1.z:x2.s:x3 b ( x1 = 1 ) { x2 }
trans q1@x:x2.y:x3.z:x1.s:x4 q0@x:x4.y:x3.z:x1.s:x2 a ( x1 < 2 & !(x2 < 0) & !(x2 = 0) ) { x4 }
trans q1@x:x2.y:x2.z:x1.s:x3 q0@x:x3.y:x2.z:x1.s:x4 a ( x1 < 2 & !(x2 < 0) & !(x2 = 0) ) { x3 }
trans q0@x:x2.y:x2.z:x4.s:x1 q0@x:x1.y:x1.z:x4.s:x2 a ( x2 < 1 ) { x1 }
trans q0@x:x2.y:x2.z:x4.s:x1 q1@x:x2.y:x2.z:x1.s:x3 b ( x2 = 1 ) { x1 }
trans q0@x:x4.y:x2.z:x1.s:x3 q0@x:x3.y:x3.z:x1.s:x2 a ( x4 < 1 ) { x3 }
trans q0@x:x4.y:x2.z:x1.s:x3 q1@x:x4.y:x2.z:x3.s:x1 b ( x2 = 1 ) { x3 }
trans q0@x:x2.y:x3.z:x1.s:x4 q0@x:x4.y:x4.z:x1.s:x2 a ( x2 < 1 ) { x4 }
trans q0@x:x2.y:x3.z:x1.s:x4 q1@x:x2.y:x3.z:x4.s:x1 b ( x3 = 1 ) { x4 }
trans q1@x:x2.y:x1.z:x4.s:x3 q0@x:x3.y:x1.z:x4.s:x2 a ( x4 < 2 & !(x2 < 0) & !(x2 = 0) ) { x3 }
trans q0@x:x1.y:x4.z:x3.s:x2 q0@x:x2.y:x2.z:x3.s:x1 a ( x1 < 1 ) { x2 }
trans q0@x:x1.y:x4.z:x3.s:x2 q1@x:x1.y:x4.z:x2.s:x3 b ( x4 = 1 ) { x2 }
trans q1@x:x4.y:x1.z:x2.s:x3 q0@x:x3.y:x1.z:x2.s:x4 a ( x2 < 2 & !(x4 < 0) & !(x4 = 0) ) { x3 }
trans q0@x:x4.y:x3.z:x1.s:x2 q0@x:x2.y:x2.z:x1.s:x3 a ( x4 < 1 ) { x2 }
trans q0@x:x4.y:x3.z:x1.s:x2 q1@x:x4.y:x3.z:x2.s:x1 b ( x3 = 1 ) { x2 }
trans q0@x:x3.y:x2.z:x1.s:x4 q0@x:x4.y:x4.z:x1.s:x2 a ( x3 < 1 ) { x4 }
trans q0@x:x3.y:x2.z:x1.s:x4 q1@x:x3.y:x2.z:x4.s:x1 b ( x2 = 1 ) { x4 }
trans q1@x:x4.y:x2.z:x3.s:x1 q0@x:x1.y:x2.z:x3.s:x4 a ( x3 < 2 & !(x4 < 0) & !(x4 = 0) ) { x1 }
trans q0@x:x4.y:x4.z:x1.s:x2 q0@x:x2.y:x2.z:x1.s:x3 a ( x4 < 1 ) { x2 }
trans q0@x:x4.y:x4.z:x1.s:x2 q1@x:x4.y:x4.z:x2.s:x1 b ( x4 = 1 ) { x2 }
trans q1@x:x2.y:x3.z:x4.s:x1 q0@x:x1.y:x3.z:x4.s:x2 a ( x4 < 2 & !(x2 < 0) & !(x2 = 0) ) { x1 }
trans q0@x:x3.y:x1.z:x4.s:x2 q0@x:x2.y:x2.z:x4.s:x1 a ( x3 < 1 ) { x2 }
trans q0@x:x3.y:x1.z:x4.s:x2 q1@x:x3.y:x1.z:x2.s:x4 b ( x1 = 1 ) { x2 }
trans q1@x:x1.y:x4.z:x2.s:x3 q0@x:x3.y:x4.z:x2.s:x1 a ( x2 < 2 & !(x1 < 0) & !(x1 = 0) ) { x3 }
trans q1@x:x4.y:x3.z:x2.s:x1 q0@x:x1.y:x3.z:x2.s:x4 a ( x2 < 2 & !(x4 < 0) & !(x4 = 0) ) { x1 }
trans q1@x:x3.y:x2.z:x4.s:x1 q0@x:x1.y:x2.z:x4.s:x3 a ( x4 < 2 & !(x3 < 0) & !(x3 = 0) ) { x1 }
trans q1@x:x4.y:x4.z:x2.s:x1 q0@x:x1.y:x4.z:x2.s:x3 a ( x2 < 2 & !(x4 < 0) & !(x4 = 0) ) { x1 }
trans q0@x:x1.y:x3.z:x4.s:x2 q0@x:x2.y:x2.z:x4.s:x1 a ( x1 < 1 ) { x2 }
trans q0@x:x1.y:x3.z:x4.s:x2 q1@x:x1.y:x3.z:x2.s:x4 b ( x3 = 1 ) { x2 }
trans q1@x:x3.y:x1.z:x2.s:x4 q0@x:x4.y:x1.z:x2.s:x3 a ( x2 < 2 & !(x3 < 0) & !(x3 = 0) ) { x4 }
trans q0@x:x3.y:x4.z:x2.s:x1 q0@x:x1.y:x1.z:x2.s:x3 a ( x3 < 1 ) { x1 }
trans q0@x:x3.y:x4.z:x2.s:x1 q1@x:x3.y:x4.z:x1.s:x2 b ( x4 = 1 ) { x1 }
trans q0@x:x1.y:x2.z:x4.s:x3 q0@x:x3.y:x3.z:x4.s:x1 a ( x1 < 1 ) { x3 }
trans q0@x:x1.y:x2.z:x4.s:x3 q1@x:x1.y:x2.z:x3.s:x4 b ( x2 = 1 ) { x3 }
trans q0@x:x1.y:x4.z:x2.s:x3 q0@x:x3.y:x3.z:x2.s:x1 a ( x1 < 1 ) { x3 }
trans q0@x:x1.y:x4.z:x2.s:x3 q1@x:x1.y:x4.z:x3.s:x2 b ( x4 = 1 ) { x3 }
trans q1@x:x1.y:x3.z:x2.s:x4 q0@x:x4.y:x3.z:x2.s:x1 a ( x2 < 2 & !(x1 < 0) & !(x1 = 0) ) { x4 }
trans q0@x:x4.y:x1.z:x2.s:x3 q0@x:x3.y:x3.z:x2.s:x1 a ( x4 < 1 ) { x3 }
trans q0@x:x4.y:x1.z:x2.s:x3 q1@x:x4.y:x1.z:x3.s:x2 b ( x1 = 1 ) { x3 }
trans q1@x:x3.y:x4.z:x1.s:x2 q0@x:x2.y:x4.z:x1.s:x3 a ( x1 < 2 & !(x3 < 0) & !(x3 = 0) ) { x2 }
trans q1@x:x1.y:x2.z:x3.s:x4 q0@x:x4.y:x2.z:x3.s:x1 a ( x3 < 2 & !(x1 < 0) & !(x1 = 0) ) { x4 }
trans q1@x:x1.y:x4.z:x3.s:x2 q0@x:x2.y:x4.z:x3.s:x1 a ( x3 < 2 & !(x1 < 0) & !(x1 = 0) ) { x2 }
trans q0@x:x4.y:x3.z:x2.s:x1 q0@x:x1.y:x1.z:x2.s:x3 a ( x4 < 1 ) { x1 }
trans q0@x:x4.y:x3.z:x2.s:x1 q1@x:x4.y:x3.z:x1.s:x2 b ( x3 = 1 ) { x1 }
trans q1@x:x4.y:x1.z:x3.s:x2 q0@x:x2.y:x1.z:x3.s:x4 a ( x3 < 2 & !(x4 < 0) & !(x4 = 0) ) { x2 }
trans q0@x:x4.y:x2.z:x3.s:x1 q0@x:x1.y:x1.z:x3.s:x2 a ( x4 < 1 ) { x1 }
trans q0@x:x4.y:x2.z:x3.s:x1 q1@x:x4.y:x2.z:x1.s:x3 b ( x2 = 1 ) { x1 }
trans q0@x:x2.y:x4.z:x3.s:x1 q0@x:x1.y:x1.z:x3.s:x2 a ( x2 < 1 ) { x1 }
trans q0@x:x2.y:x4.z:x3.s:x1 q1@x:x2.y:x4.z:x1.s:x3 b ( x4 = 1 ) { x1 }
trans q1@x:x4.y:x3.z:x1.s:x2 q0@x:x2.y:x3.z:x1.s:x4 a ( x1 < 2 & !(x4 < 0) & !(x4 = 0) ) { x2 }
trans q1@x:x4.y:x2.z:x1.s:x3 q0@x:x3.y:x2.z:x1.s:x4 a ( x1 < 2 & !(x4 < 0) & !(x4 = 0) ) { x3 }
trans q1@x:x2.y:x4.z:x1.s:x3 q0@x:x3.y:x4.z:x1.s:x2 a ( x1 < 2 & !(x2 < 0) & !(x2 = 0) ) { x3 }
trans q0@x:x3.y:x4.z:x1.s:x2 q0@x:x2.y:x2.z:x1.s:x3 a ( x3 < 1 ) { x2 }
trans q0@x:x3.y:x4.z:x1.s:x2 q1@x:x3.y:x4.z:x2.s:x1 b ( x4 = 1 ) { x2 }
trans q1@x:x3.y:x4.z:x2.s:x1 q0@x:x1.y:x4.z:x2.s:x3 a ( x2 < 2 & !(x3 < 0) & !(x3 = 0) ) { x1 }
"""


@pytest.mark.parametrize("text, expected", [
    (ROUND_ROBIN, ROUND_ROBIN_NRT),
    (THREE_CLOCKS, THREE_CLOCKS_NRT),
], ids=["round-robin", "three-clocks"])
def test_translation_text_is_pinned(text, expected):
    """Product state names and order, which check prints in the lasso of one-clock input."""
    assert print_automaton(ta_to_nrtta(parse_automaton(text))) == expected
