"""Text format round trips and parse error reporting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnta import (
    ParseError,
    TimedWord,
    format_timed_word,
    guard_to_text,
    parse_automaton,
    parse_guard,
    parse_timed_word,
    print_automaton,
)
from randgen import rand_nrtta, rand_ta, sample_word


def test_guard_text_round_trip_examples():
    for text in ("true", "x < 2", "x = mu", "!(x < 1)", "x < 1 & y = 2",
                 "!(x = 1) & !(y < 2) & z < 3"):
        g = parse_guard(text, frozenset({"mu"}))
        assert parse_guard(guard_to_text(g), frozenset({"mu"})) == g


# one guard of each error branch and the message it gives
_GUARD_ERRORS = {
    "character": ("x < 1 $", "unexpected character '$' in guard"),
    "ends-at-bound": ("x <", "guard ends unexpectedly"),
    "empty": ("", "guard ends unexpectedly"),
    "ends-in-paren": ("(x < 1", "guard ends unexpectedly"),
    "trailing": ("x < 1 )", "trailing token ')' in guard"),
    "no-close": ("(x < 1 x", "missing ')' in guard"),
    "no-clock": ("1 < x", "expected clock name, got '1'"),
    "no-operator": ("x y 1", "expected comparison operator, got 'y'"),
    "undeclared": ("x < nu", "right-hand side 'nu' is neither a number nor a declared parameter"),
    "long-constant": ("x < " + "9" * 5000, "constant of 5000 digits is too long"),
    "deep-and": (" & ".join(["x < 1"] * 202), "guard nested more than 200 levels deep"),
    "deep-not": ("!" * 201 + "x < 1", "guard nested more than 200 levels deep"),
    "deep-paren": ("(" * 201 + "x < 1" + ")" * 201, "guard nested more than 200 levels deep"),
}


@pytest.mark.parametrize("guard, message", _GUARD_ERRORS.values(), ids=list(_GUARD_ERRORS))
def test_parse_guard_errors(guard, message):
    with pytest.raises(ParseError) as exc:
        parse_guard(guard, frozenset({"mu"}))
    assert str(exc.value) == message  # no line to name in a direct call
    text = f"automaton g\nclocks x\nparams mu\ninit q0\ntrans q0 q0 a ( {guard} ) {{ }}\n"
    with pytest.raises(ParseError) as exc:
        parse_automaton(text)
    assert str(exc.value) == f"line 5: {message}"


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_automaton_round_trip(seed, nrt):
    rng = random.Random(seed)
    a = rand_nrtta(rng) if nrt else rand_ta(rng)
    assert parse_automaton(print_automaton(a)) == a


def test_parse_automaton_infers_states_and_alphabet():
    a = parse_automaton(
        "automaton t\n"
        "clocks x\n"
        "init q0\n"
        "accept q1\n"
        "trans q0 q1 a ( x = 1 ) { x }\n"
    )
    assert a.states == frozenset({"q0", "q1"})
    assert a.alphabet == frozenset({"a"})
    assert a.transitions[0].resets == frozenset({"x"})


def test_parse_automaton_comments_and_blank_lines(data_dir):
    text = (data_dir / "e_window.ta").read_text()
    a = parse_automaton(text)
    assert a.name == "e_window"
    assert a.params == frozenset({"mu"})


@pytest.mark.parametrize("text,fragment", [
    ("clocks x\ninit q0", "missing automaton"),
    ("automaton t\nclocks x", "missing init"),
    ("automaton t\nautomaton t\ninit q0", "duplicate"),
    ("automaton t\ninit q0\nbogus y", "unknown directive"),
    ("automaton t\ninit q0\ntrans q0 q1 a x < 1", "malformed trans"),
])
def test_parse_automaton_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_automaton(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_automaton("automaton t\ninit q0\nbogus y\n")
    assert "line 3" in str(exc.value)


def test_timed_word_round_trip():
    w = parse_timed_word("a 0\nb 1/2\na 2\n")
    assert format_timed_word(w) == "a 0\nb 1/2\na 2\n"
    assert parse_timed_word("") == TimedWord.of(())
    assert format_timed_word(TimedWord.of(())) == ""


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_sampled_word_round_trip(seed):
    rng = random.Random(seed)
    a = rand_nrtta(rng)
    w = sample_word(a, rng)
    assert parse_timed_word(format_timed_word(w)) == w


def test_parse_timed_word_errors():
    with pytest.raises(ParseError):
        parse_timed_word("a\n")
    with pytest.raises(ParseError):
        parse_timed_word("a one\n")
