"""Guard algebra, validation, and automaton construction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pnta
from pnta import (
    TRUE,
    And,
    Atom,
    Automaton,
    Not,
    Transition,
    UnboundSymbol,
    atoms,
    conj,
    eq,
    eval_constraint,
    ge,
    gt,
    guard_clocks,
    guard_constants,
    guard_params,
    is_nrtta,
    le,
    lt,
    map_atoms,
    max_constant,
    ne,
    parse_rational,
    validate,
    zero_valuation,
)
from pnta.semantics import Valuation


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("0") == 0
    with pytest.raises(ValueError):
        parse_rational("x")


def test_atom_rejects_unknown_op():
    with pytest.raises(ValueError):
        Atom("x", "<=", 1)
    Atom("x", "<", 1)
    Atom("x", "=", "mu")


def _val(x):
    return Valuation.of({"x": Fraction(x)})


@pytest.mark.parametrize("mk,holds", [
    (lt, lambda v: v < 1),
    (eq, lambda v: v == 1),
    (le, lambda v: v <= 1),
    (gt, lambda v: v > 1),
    (ge, lambda v: v >= 1),
    (ne, lambda v: v != 1),
])
def test_desugared_comparisons(mk, holds):
    g = mk("x", 1)
    for num in range(0, 9):
        v = Fraction(num, 4)
        assert eval_constraint(g, _val(v)) == holds(v)


@given(st.lists(st.tuples(st.sampled_from("xy"),
                          st.sampled_from((lt, eq, le, gt, ge)),
                          st.integers(0, 3)),
                min_size=1, max_size=4),
       st.fractions(0, 4), st.fractions(0, 4))
def test_conj_is_conjunction(parts, vx, vy):
    guards = [mk(z, c) for z, mk, c in parts]
    v = Valuation.of({"x": vx, "y": vy})
    whole = eval_constraint(conj(*guards), v)
    each = all(eval_constraint(g, v) for g in guards)
    assert whole == each


def test_conj_empty_is_true():
    assert conj() is TRUE
    assert eval_constraint(TRUE, _val(0))


def test_negation_and_params():
    g = Not(Atom("x", "<", "mu"))
    assert eval_constraint(g, _val(2), {"mu": Fraction(1)})
    assert not eval_constraint(g, _val(2), {"mu": Fraction(3)})
    with pytest.raises(UnboundSymbol):
        eval_constraint(g, _val(2))
    with pytest.raises(UnboundSymbol):
        eval_constraint(Atom("y", "<", 1), _val(2))


def test_guard_introspection():
    g = conj(lt("x", 2), eq("y", "mu"), gt("x", Fraction(1, 2)))
    assert guard_clocks(g) == {"x", "y"}
    assert guard_params(g) == {"mu"}
    assert guard_constants(g) == {2, Fraction(1, 2)}
    assert {a.clock for a in atoms(g)} == {"x", "y"}


def test_map_atoms_substitutes_bounds():
    g = conj(lt("x", "mu"), eq("y", 1))
    h = map_atoms(g, lambda a: Atom(a.clock, a.op, 5) if a.bound == "mu" else a)
    assert guard_params(h) == frozenset()
    assert guard_constants(h) == {5, 1}


def _mk(trans, clocks=("x",), params=(), accepting=("q1",)):
    states = sorted({t.source for t in trans} | {t.target for t in trans} | {"q0"})
    return Automaton("t", ("a",), states, clocks, params, "q0", accepting, trans)


def test_validate_accepts_simple_automaton():
    a = _mk([Transition("q0", "q1", "a", lt("x", 1), ())])
    assert validate(a) == []


def test_validate_flags_dangling_references():
    a = Automaton("t", ("a",), ("q0",), ("x",), (), "q0", ("nope",),
                  [Transition("q0", "q0", "a", TRUE, ())])
    kinds = {e.kind for e in validate(a)}
    assert "DanglingRef" in kinds

    b = _mk([Transition("q0", "q1", "b", TRUE, ())])
    assert any(e.kind == "DanglingRef" for e in validate(b))

    c = _mk([Transition("q0", "q1", "a", lt("z9", 1), ())])
    assert any(e.kind == "DanglingRef" for e in validate(c))


def test_validate_lists_each_error_once():
    """`z > 1` is two atoms on one undeclared clock, which is one error."""
    a = _mk([Transition("q0", "q0", "a", gt("z", 1), ()),
             Transition("q0", "q1", "a", conj(lt("z", 2), lt("y", 1)), ())])
    assert [str(e) for e in validate(a)] == [
        "DanglingRef: guard clock 'z' not declared",
        "DanglingRef: guard clock 'y' not declared",
    ]


def test_validate_flags_mixed_guard():
    g = conj(lt("x", 1), eq("y", "mu"))
    a = _mk([Transition("q0", "q1", "a", g, ())], clocks=("x", "y"), params=("mu",))
    assert any(e.kind == "MixedGuard" for e in validate(a))
    # the same atoms on separate transitions are fine
    b = _mk([Transition("q0", "q1", "a", lt("x", 1), ()),
             Transition("q1", "q1", "a", eq("y", "mu"), ())],
            clocks=("x", "y"), params=("mu",))
    assert validate(b) == []


def test_is_nrtta():
    good = _mk([Transition("q0", "q1", "a", lt("x", 1), ("y",))], clocks=("x", "y"))
    bad = _mk([Transition("q0", "q1", "a", lt("x", 1), ("x",))], clocks=("x", "y"))
    assert is_nrtta(good)
    assert not is_nrtta(bad)


def test_max_constant_ignores_params_and_clamps():
    a = _mk([Transition("q0", "q1", "a", eq("x", "mu"), ())], params=("mu",))
    assert max_constant(a) == 1
    b = _mk([Transition("q0", "q1", "a", lt("x", 7), ())])
    assert max_constant(b) == 7
    c = _mk([Transition("q0", "q1", "a", lt("x", Fraction(5, 2)), ())])
    assert max_constant(c) == 1  # only integral constants are counted


def test_transition_resets_coerced_to_frozenset():
    t = Transition("q0", "q1", "a", TRUE, ["x", "x"])
    assert t.resets == frozenset({"x"})
    assert Transition("q0", "q1", "a", TRUE).resets == frozenset()
    a = Automaton("a", ["a"], ["q0", "q1"], ["x"], [], "q0", ["q1"], [t])
    sets = (a.alphabet, a.states, a.clocks, a.params, a.accepting)
    assert all(type(s) is frozenset for s in sets)
    assert a.transitions == (t,)


def test_zero_valuation():
    v = zero_valuation(("x", "y"))
    assert v["x"] == 0 and v["y"] == 0


def test_the_public_names_are_unique_and_exist():
    """pnta.__all__ lists each name once, each is importable, and the test oracles are absent."""
    assert len(pnta.__all__) == len(set(pnta.__all__))
    assert [name for name in pnta.__all__ if not hasattr(pnta, name)] == []
    gone = {"concretize_lasso", "region_of", "region_at", "region_lasso", "Infeasible"}
    modules = (pnta, pnta.regions, pnta.zones, pnta.parametric)
    assert gone.isdisjoint(pnta.__all__)
    assert not any(hasattr(module, name) for module in modules for name in gone)
    assert not hasattr(pnta.zones, "_tighten")  # the zone graph meets a whole box at once
