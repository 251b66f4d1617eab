"""Candidate enumeration, fixing the parameter, scaling, and the decision sweep."""

import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnta import (
    TRUE,
    Automaton,
    NotOneParameter,
    PntaError,
    PreconditionViolated,
    TimedWord,
    Transition,
    UnsupportedAutomaton,
    atoms,
    candidate_parameters,
    emptiness_fixed,
    eq,
    gt,
    is_nrtta,
    lt,
    max_constant,
    parametric_emptiness,
    parse_automaton,
    prepare_fixed,
    print_automaton,
    region_str,
    run_frontiers,
    ta_to_nrtta,
    witness_word,
)
from pnta.parametric import (
    FRACTIONAL_REP,
    HALF_INTEGER,
    LARGE_REP,
    _candidates,
    _searched,
)
from pnta.zones import _bnd, compile_automaton
from lemmas import concretize_lasso, region_lasso
from randgen import (
    dnf,
    instantiate,
    one_clock_population,
    rand_nrtta,
    rand_ta,
    reaches_acceptance,
    scale_constants,
    two_clock_population,
)


@pytest.fixture
def window(data_dir):
    return parse_automaton((data_dir / "e_window.ta").read_text())


def test_candidate_set_shape(window):
    cs = candidate_parameters(window)
    assert cs.c == 1 and cs.a_bound == 4
    assert cs.alpha == Fraction(1, 40) and cs.denom == 40
    vals = [c.value for c in cs.candidates]
    assert vals == sorted(vals)
    assert len(vals) == len(set(vals)) == 8 * cs.c + 2
    # all candidates are multiples of 1/D
    assert all((v * cs.denom).denominator == 1 for v in vals)
    origins = {c.origin for c in cs.candidates}
    assert origins == {HALF_INTEGER, FRACTIONAL_REP, LARGE_REP}
    by_origin = {o: [c.value for c in cs.candidates if c.origin == o] for o in origins}
    assert by_origin[HALF_INTEGER] == [Fraction(k, 2) for k in range(5)]
    assert by_origin[FRACTIONAL_REP] == [Fraction(n, 2) + cs.alpha for n in range(4)]
    assert by_origin[LARGE_REP] == [cs.xi]


def test_candidate_set_grows_with_constants():
    a = parse_automaton(
        "automaton big\nclocks x\nparams mu\ninit q0\naccept q0\n"
        "trans q0 q0 a ( x < 3 ) { }\n"
        "trans q0 q0 b ( x = mu ) { }\n"
    )
    cs = candidate_parameters(a)
    assert cs.c == 3
    assert len(cs.candidates) == 8 * 3 + 2
    assert cs.xi == 2 + 3 * (1 + 1)


def test_candidate_parameters_needs_one_param():
    a = parse_automaton(
        "automaton none\nclocks x\ninit q0\naccept q0\ntrans q0 q0 a ( x < 1 ) { }\n"
    )
    with pytest.raises(NotOneParameter):
        candidate_parameters(a)


def test_prepare_fixed_bounds(window):
    scaled, m, d = prepare_fixed(window, Fraction(41, 40))
    assert d == 40
    assert m == 80  # twice the original max constant, rescaled
    scaled2, m2, d2 = prepare_fixed(window, Fraction(6))
    assert d2 == 1
    assert m2 == 6  # the parameter itself dominates

    plain = parse_automaton(
        "automaton p\nclocks x\ninit q0\naccept q0\ntrans q0 q0 a ( x < 5 ) { }\n"
    )
    _, m3, d3 = prepare_fixed(plain, None)
    assert (m3, d3) == (10, 1)


def test_emptiness_fixed_window_verdicts(window):
    assert emptiness_fixed(window, Fraction(41, 40)).nonempty
    assert not emptiness_fixed(window, Fraction(1, 2)).nonempty
    assert not emptiness_fixed(window, Fraction(1)).nonempty
    v = emptiness_fixed(window, Fraction(41, 40), include_lasso=False)
    assert v.nonempty and v.zone_lasso is None


def test_emptiness_fixed_requires_value_for_parametric(window):
    with pytest.raises(PreconditionViolated):
        emptiness_fixed(window, None)


def test_parametric_sweep_finds_first_candidate(window):
    v = parametric_emptiness(window)
    assert v.nonempty
    assert v.witness_mu == Fraction(41, 40)
    cs = candidate_parameters(window)
    vals = [c.value for c in cs.candidates]
    assert v.witness_mu in vals
    # 41/40 is the sixth candidate in ascending order
    assert v.candidates_checked == vals.index(v.witness_mu) + 1
    assert v.zone_lasso is not None
    assert v.scaled.d == 40 and prepare_fixed(window, v.witness_mu)[1:] == (80, 40)


def test_parametric_sweep_empty_cases(data_dir):
    for name in ("e_empty.ta", "e_param_contra.ta"):
        a = parse_automaton((data_dir / name).read_text())
        v = parametric_emptiness(a)
        assert not v.nonempty
        assert v.witness_mu is None and v.zone_lasso is None
        expected = 1 if not a.params else len(candidate_parameters(a).candidates)
        assert v.candidates_checked == expected


def _fixtures(data_dir):
    return [parse_automaton((data_dir / f"{name}.ta").read_text())
            for name in ("e_empty", "e_param_contra", "e_window", "w10y")]


def test_the_sweep_draws_the_candidate_list_lazily(data_dir):
    """The values the sweep draws one at a time are candidate_parameters' list, in order."""
    checked = 0
    for a in two_clock_population() + one_clock_population() + _fixtures(data_dir):
        b = _searched(a)
        if not b.params:
            continue
        compiled = compile_automaton(b)
        lazy = tuple(cand.value for cand in _candidates(compiled.c, len(b.states)))
        cs = candidate_parameters(b)
        assert lazy == cs.values
        # the definition: half-integers up to 2C, each plus alpha below 2C, and Xi
        halves = [Fraction(k, 2) for k in range(4 * cs.c + 1)]
        assert list(lazy) == sorted(halves + [h + cs.alpha for h in halves[:-1]] + [cs.xi])
        checked += 1
    assert checked == 243


DIVISION = """automaton div
clocks x
params mu
init q0
accept q3
trans q0 q1 a ( x = 1 ) { x }
trans q1 q2 a ( x = 1 ) { x }
trans q2 q0 a ( x = 1 ) { x }
trans q2 q3 b ( x = mu ) { }
trans q3 q3 c ( true ) { }
"""


def test_candidate_parameters_lists_the_values_the_sweep_checks():
    """One-clock input that tests and resets its clock gets its translation's list."""
    a = parse_automaton(DIVISION)  # 4 states; the translation the sweep searches has 8
    v = parametric_emptiness(a)
    cs = candidate_parameters(a)
    assert v.witness_mu == Fraction(1, 72)
    assert v.witness_mu in cs.values
    assert (cs.alpha, cs.xi, cs.n_states) == (Fraction(1, 72), 11, 8)
    rng = random.Random(1919)
    translated = 0
    for _ in range(60):
        a = rand_ta(rng, max_states=3, max_clocks=1, cmax=2, param="mu")
        searched = a if is_nrtta(a) else ta_to_nrtta(a)
        translated += searched is not a
        cs = candidate_parameters(a)
        assert cs == candidate_parameters(searched)
        v = parametric_emptiness(a)
        assert v.witness_mu is None or v.witness_mu in cs.values
    assert translated >= 20


def test_parametric_rejects_wide_automata():
    a = parse_automaton(
        "automaton wide\nclocks x y z\nparams mu\ninit q0\naccept q0\n"
        "trans q0 q0 a ( x = mu ) { y z }\n"
    )
    with pytest.raises(UnsupportedAutomaton):
        parametric_emptiness(a)


def test_the_sweep_refuses_rational_constants():
    """The candidates assume natural constants; a check at one value scales rational ones.

    With 15/4 < x = mu < 4 the language is nonempty at mu = 31/8, a value
    between two candidates of the natural-constant list.
    """
    a = Automaton("rational", "abcd", ("q0", "q1", "q2", "q3"), ("x",), ("mu",), "q0", ("q2",), [
        Transition("q0", "q3", "c", gt("x", Fraction(15, 4)), ()),
        Transition("q3", "q1", "a", eq("x", "mu"), ()),
        Transition("q1", "q2", "b", lt("x", 4), ()),
        Transition("q2", "q2", "d", TRUE, ()),
    ])
    with pytest.raises(UnsupportedAutomaton, match="natural"):
        parametric_emptiness(a)
    with pytest.raises(UnsupportedAutomaton, match="natural"):
        candidate_parameters(a)
    v = emptiness_fixed(a, Fraction(31, 8))
    assert v.nonempty
    w = witness_word(a, v)
    assert "q2" in {c.state for c in run_frontiers(a, w, {"mu": Fraction(31, 8)})[-1]}


def test_parametric_auto_translates_one_clock():
    # x is tested and reset on one transition; translation adds a clock
    a = parse_automaton(
        "automaton sweep1\nclocks x\nparams mu\ninit q0\naccept q1\n"
        "trans q0 q1 a ( x = mu ) { x }\n"
        "trans q1 q0 a ( x = mu ) { x }\n"
    )
    v = parametric_emptiness(a)
    assert v.nonempty


def test_witness_word_replays(window, data_dir):
    v = parametric_emptiness(window)
    w = witness_word(window, v)
    assert list(w.timestamps())[1] == Fraction(41, 40)
    frontiers = run_frontiers(window, w, {"mu": v.witness_mu})
    assert all(frontiers[1:])
    assert "q2" in {c.state for c in frontiers[-1]}
    with pytest.raises(PreconditionViolated):  # the verdict carries the automaton it scales
        witness_word(window, replace(v, scaled=None))
    with pytest.raises(PreconditionViolated):  # and it must be the automaton passed in
        witness_word(parse_automaton((data_dir / "e_empty.ta").read_text()), v)
    text = (data_dir / "e_window.ta").read_text()
    assert witness_word(parse_automaton(text), v) == w  # an equal automaton compiles alike
    with pytest.raises(PreconditionViolated):  # the same states, another guard
        witness_word(parse_automaton(text.replace("x = 1", "x = 3")), v)
    with pytest.raises(PreconditionViolated):  # the same transitions, another initial state
        witness_word(parse_automaton(text.replace("init q0", "init q1")), v)
    with pytest.raises(PreconditionViolated):
        witness_word(window, parametric_emptiness(
            parse_automaton(
                "automaton e\nclocks x\ninit q0\naccept q1\n"
                "trans q0 q1 a ( x < 0 ) { }\n"
            )
        ))


def test_every_nonempty_sweep_has_witnesses_and_a_region_lasso(data_dir):
    fixtures = [parse_automaton((data_dir / f"{name}.ta").read_text())
                for name in ("e_window", "e_empty", "e_param_contra")]
    nonempty = 0
    for a in two_clock_population() + fixtures:
        v = parametric_emptiness(a, 20000)
        if not v.nonempty:
            continue
        nonempty += 1
        interp = {p: v.witness_mu for p in a.params}
        for unrollings in (1, 2):
            assert reaches_acceptance(a, witness_word(a, v, unrollings), interp)
        # the region lasso projected from the zone lasso is one the region engine can replay
        scaled, m, _ = prepare_fixed(a, v.witness_mu)
        lasso = region_lasso(v.scaled, v.zone_lasso, m)
        assert reaches_acceptance(scaled, concretize_lasso(scaled, m, lasso, 2))
    assert nonempty > 100


@pytest.mark.parametrize("name, nonempty, mu, candidates, nodes", [
    ("e_empty", False, None, 1, 2),
    ("e_param_contra", False, None, 10, 23),
    ("e_window", True, Fraction(41, 40), 6, 16),
    ("w10y", True, Fraction(32081, 3208), 42, 93),
    ("drift", True, Fraction(1, 40), 2, 19),
    ("relax_empty", False, None, 1, 13),
])
def test_sweep_counts_are_pinned(data_dir, name, nonempty, mu, candidates, nodes):
    """Exact counts a faster zone kernel must not move; a change to the zone graph updates them.

    Past the first candidate the nodes include those of the check relaxed
    to [0, Xi]: 3, 3, 5 and 7 wasted on the four that it leaves open, and
    relax_empty is settled by it (18 candidates and 226 nodes without it).
    """
    v = parametric_emptiness(parse_automaton((data_dir / f"{name}.ta").read_text()), 20000)
    assert (v.nonempty, v.witness_mu, v.candidates_checked, v.zone_nodes) == (
        nonempty, mu, candidates, nodes)


def test_drift_region_lasso_and_witness_are_pinned(data_dir):
    """x2 drifts up one scaled unit per lap until it passes m = 80, then the run cycles."""
    a = parse_automaton((data_dir / "drift.ta").read_text())
    v = parametric_emptiness(a, 20000)
    _, m, _ = prepare_fixed(a, v.witness_mu)
    lasso = region_lasso(v.scaled, v.zone_lasso, m)
    assert m == 80 and (len(lasso.stem_nodes), len(lasso.cycle_nodes)) == (159, 2)
    assert all("x2>80" in region_str(r) for _, r in lasso.cycle_nodes)
    assert witness_word(a, v) == TimedWord.of(
        [("b", Fraction(1, 30)), ("a", Fraction(7, 120)), ("b", Fraction(1, 15)),
         ("a", Fraction(11, 120))])


def test_population_sweep_totals_are_pinned():
    verdicts = [parametric_emptiness(a, 20000) for a in two_clock_population()]
    assert sum(v.nonempty for v in verdicts) == 189
    # an exact sweep checks 360 candidates and discovers 1,493 nodes; the
    # check relaxed to [0, Xi] settles 6 of the 11 Empty sweeps
    assert sum(v.relaxed is not None for v in verdicts) == 6
    assert sum(v.candidates_checked for v in verdicts) == 274
    assert sum(v.zone_nodes for v in verdicts) == 1054


def test_off_candidate_zone_nodes_are_pinned():
    """Zone nodes of the fixed checks at one criterion 07 value per gap.

    The search stops at the first accepting cycle it closes; a search that
    went on to complete the component would count 14,880.
    """
    rng = random.Random(707)
    checks = nonempty = nodes = 0
    for a in two_clock_population():
        for n in range(4 * candidate_parameters(a).c):
            mus = []
            for _ in range(3):  # drawn as criterion 07 draws them; the first is checked
                den = rng.choice((3, 4, 5, 6, 7))
                mus.append(Fraction(n, 2) + Fraction(rng.randrange(1, den), den) / 2)
            v = emptiness_fixed(a, mus[0], include_lasso=False)
            checks += 1
            nonempty += v.nonempty
            nodes += v.zone_nodes
    assert (checks, nonempty, nodes) == (1140, 1072, 4232)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_fixed_verdict_invariant_under_scaling(seed):
    rng = random.Random(seed)
    a = rand_nrtta(rng, cmax=2)
    base = emptiness_fixed(a, None, include_lasso=False).nonempty
    for d in (2, 3):
        scaled = scale_constants(a, d)
        assert emptiness_fixed(scaled, None, include_lasso=False).nonempty == base


def test_each_checked_candidate_builds_one_zone_graph(data_dir, monkeypatch):
    """The search that decides a candidate also yields its lasso: no graph is built twice.

    The check relaxed to [0, Xi] after the first candidate builds one more.
    """
    from pnta import zones

    built = []
    graph = zones._zone_graph
    monkeypatch.setattr(zones, "_zone_graph", lambda s: built.append(s) or graph(s))
    window = parse_automaton((data_dir / "e_window.ta").read_text())
    v = parametric_emptiness(window)
    assert v.nonempty and v.zone_lasso is not None
    assert len(built) == v.candidates_checked + 1 == 7
    built.clear()
    w10y = parse_automaton((data_dir / "w10y.ta").read_text())
    assert emptiness_fixed(w10y, Fraction(32081, 3208)).zone_lasso is not None
    assert len(built) == 1


def _prepare_reference(a, mu):
    """prepare_fixed built from the automaton: mu filled in, then every constant scaled.

    A parametric automaton needs one parameter and a nonnegative value,
    refused as `Compiled.scaling` refuses them.  d is the lcm of the
    constant denominators after mu is filled in; m is at least twice the
    original maximum constant, every scaled constant and mu, all in the
    scaled unit.
    """
    if a.params:
        if mu is None:
            raise PreconditionViolated("parameter value required for a parametric automaton")
        if mu < 0:
            raise PreconditionViolated(f"parameter value must be nonnegative, got {mu}")
        if len(a.params) > 1:
            raise NotOneParameter(f"at most one parameter supported, got {len(a.params)}")
    inst = instantiate(a, mu) if a.params else a
    denoms = [Fraction(at.bound).denominator for t in inst.transitions for at in atoms(t.guard)]
    d = math.lcm(*denoms) if denoms else 1
    scaled = scale_constants(inst, d)
    m = max(2 * max_constant(a) * d, max_constant(scaled))
    if mu is not None:
        m = max(m, math.ceil(Fraction(mu) * d))
    return scaled, m, d


def _prepare_outcome(a, mu):
    """prepare_fixed(a, mu) against _prepare_reference: "scaled", or the refusal both raise.

    Every scaled constant is an int, so the scaled automaton prints as text
    that parses back to it.
    """
    try:
        want = _prepare_reference(a, mu)
    except PntaError as exc:
        with pytest.raises(PntaError) as got:
            prepare_fixed(a, mu)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return str(exc)
    scaled, m, d = prepare_fixed(a, mu)
    assert (scaled, m, d) == want
    assert all(type(at.bound) is int for t in scaled.transitions for at in atoms(t.guard))
    assert parse_automaton(print_automaton(scaled)) == scaled
    return "scaled"


_PREPARE_VALUES = (None, 0, Fraction(1, 2), Fraction(41, 40), Fraction(7, 3), 3, -1)


def test_prepare_fixed_matches_its_reference_over_a_population(data_dir):
    """prepare_fixed equals _prepare_reference, refusals by type and message included.

    Every fixture is checked too, without a count, so a new one moves no pin.
    """
    paths = sorted(data_dir.glob("*.ta"))
    assert paths
    for path in paths:
        a = parse_automaton(path.read_text())
        for mu in _PREPARE_VALUES:
            _prepare_outcome(a, mu)
    rng = random.Random(2525)
    draws = [rand_nrtta(rng, cmax=3, param="p" if i % 2 else None) for i in range(600)]
    draws += [rand_ta(rng, max_states=3, max_clocks=1, cmax=3, param="p" if i % 2 else None)
              for i in range(100)]
    two = parse_automaton(
        "automaton two\nclocks x\nparams p q\ninit q0\naccept q0\n"
        "trans q0 q0 a ( x < p ) { }\ntrans q0 q0 b ( x = q ) { }\n"
    )
    outcomes = Counter(_prepare_outcome(a, mu) for a in draws + [two] for mu in _PREPARE_VALUES)
    assert outcomes == {
        "scaled": 4200,
        "parameter value required for a parametric automaton": 351,
        "parameter value must be nonnegative, got -1": 351,
        "at most one parameter supported, got 2": 5,
    }


def _scaled_reference(b, mu):
    """What the zone graph reads at mu, built from _prepare_reference's automaton.

    It is (initial, accepting, clocks, guards, caps, d, m).  guards holds
    per transition (transition index, target, letter, resets) and the
    d[x][y] <= b bounds of each of its guard's dnf disjuncts, which its
    literals give; a clock's cap is the largest constant a literal
    compares it with, 0 if none does.
    prepare_fixed must return the same scaled automaton, m and d.
    """
    scaled, m, d = _prepare_reference(b, mu)
    assert prepare_fixed(b, mu) == (scaled, m, d)
    clocks = tuple(sorted(scaled.clocks))
    index = {z: i + 1 for i, z in enumerate(clocks)}
    guards = []
    caps = [0] * (len(index) + 1)
    for idx, t in enumerate(scaled.transitions):
        resets = tuple(sorted(index[z] for z in t.resets))
        disjuncts = []
        for disj in dnf(t.guard):
            bounds = []
            for z, op, c in disj:
                assert isinstance(c, int)
                caps[index[z]] = max(caps[index[z]], c)
                if op[0] != ">":
                    bounds.append((index[z], 0, _bnd(c, op != "<")))
                if op[0] != "<":
                    bounds.append((0, index[z], _bnd(-c, op != ">")))
            disjuncts.append(bounds)
        guards.append(((idx, t.target, t.letter, resets), disjuncts))
    return scaled.initial, scaled.accepting, clocks, guards, tuple(caps), d, m


def _accepts(bounds, v):
    """Whether clock values v, doubled, v[0] = 0, meet each bound (x, y, b): 2(x - y) < b."""
    return all(v[x] - v[y] < b for x, y, b in bounds)


def _same_union(left, right, n):
    """Whether two unions of bound lists over clocks 1..n accept the same clock values.

    Each bound compares one clock with an integer, so the values 0, c and
    c +- 1/2 for each such constant c decide it.
    """
    tried = [{0} for _ in range(n + 1)]
    for x, y, b in chain(*left, *right):
        c = b >> 1 if y == 0 else -(b >> 1)
        tried[x or y].update(v for v in (2 * c - 1, 2 * c, 2 * c + 1) if v >= 0)
    return all(any(_accepts(bs, v) for bs in left) == any(_accepts(bs, v) for bs in right)
               for v in product(*map(sorted, tried)))


def _assert_compiled_at(s, b, mu):
    """s, Compiled.at(mu) of b, reads what _scaled_reference(b, mu) reads.

    Each transition's steps accept the clock values its dnf disjuncts
    accept, the steps of a state come in transition order, and a clock's
    cap is the largest constant its steps compare it with, at most the
    literals' cap.
    """
    initial, accepting, clocks, guards, caps, d, _ = _scaled_reference(b, mu)
    assert (s.initial, s.accepting, s.clocks, s.d) == (initial, accepting, clocks, d)
    boxes: dict = {}
    for q, steps in s.out.items():
        assert [step[0] for step in steps] == sorted(step[0] for step in steps)
        for step in steps:
            assert b.transitions[step[0]].source == q
            head, bounds = boxes.setdefault(step[0], (step[:4], []))
            assert step[:4] == head
            bounds.append(s.bounds(step))
    tops = [0] * (len(clocks) + 1)
    for head, disjuncts in guards:
        got_head, got = boxes.pop(head[0], (head, []))
        assert got_head == head
        assert _same_union(got, disjuncts, len(clocks)), (b.transitions[head[0]].guard, mu)
        for x, y, bound in chain(*got):
            tops[x or y] = max(tops[x or y], bound >> 1 if y == 0 else -(bound >> 1))
    assert not boxes
    assert s.caps == tuple(tops) and all(c <= r for c, r in zip(s.caps, caps))


def test_compiled_form_at_each_candidate_matches_prepare_fixed(data_dir):
    checked = 0
    for a in two_clock_population() + one_clock_population() + _fixtures(data_dir):
        b = _searched(a)
        compiled = compile_automaton(b)
        for mu in candidate_parameters(b).values if b.params else (None,):
            _assert_compiled_at(compiled.at(mu), b, mu)
            checked += 1
    assert checked == 3335


def test_compiled_form_matches_prepare_fixed_off_the_candidates(data_dir):
    """Compiled.at matches the reference, also on random automata."""
    rng = random.Random(8080)
    draws = [rand_nrtta(rng, cmax=3, param="p" if i % 4 == 1 else None) if i % 2
             else rand_ta(rng, max_states=3, cmax=3) for i in range(300)]
    checked = 0
    for a in two_clock_population() + one_clock_population() + _fixtures(data_dir) + draws:
        b = _searched(a)
        compiled = compile_automaton(b)
        for mu in (Fraction(3, 7), Fraction(5, 2), Fraction(4)) if b.params else (None,):
            _assert_compiled_at(compiled.at(mu), b, mu)
            checked += 1
    assert checked == 1180


def test_a_check_shares_the_compiled_rules(data_dir):
    """Compiled.at copies no step: the Scaled holds the compiled table by source state."""
    for a in _fixtures(data_dir):
        b = _searched(a)
        compiled = compile_automaton(b)
        for q, steps in compiled.out.items():
            idxs = [step[0] for step in steps]
            assert idxs == sorted(idxs) and {b.transitions[i].source for i in idxs} == {q}
        for mu in (Fraction(3, 7), Fraction(4)) if compiled.n_params else (None,):
            s = compiled.at(mu)
            assert s.out is compiled.out


def test_compiled_constants_include_atoms_beside_an_unsatisfiable_conjunct():
    """A conjunct next to !true leaves no box but still counts as a constant."""
    a = parse_automaton(
        "automaton d\nclocks x y\nparams p\ninit q0\naccept q0\n"
        "trans q0 q0 a ( !true & x < 3 ) { }\n"
        "trans q0 q0 b ( !(!(!true & x < p) & y < 1) ) { x }\n"
    )
    compiled = compile_automaton(a)
    assert all(step[0] for steps in compiled.out.values() for step in steps)  # none of t0
    assert compiled.c == max_constant(a) == 3
    for mu in (Fraction(1, 3), Fraction(5, 2)):
        s = compiled.at(mu)
        _, m, d = _prepare_reference(a, mu)
        assert s.d == d
        assert prepare_fixed(a, mu)[1:] == (m, d)
        assert emptiness_fixed(a, mu).nonempty


def test_the_sweep_scales_the_automaton_only_for_its_winner(data_dir, monkeypatch):
    """Each checked candidate scales the compiled form once; the winner's lasso reuses it.

    No scaled Automaton is built: the witness word reads the winner's Scaled.
    """
    from pnta import cli, parametric
    from pnta.zones import Compiled

    built, scaled_at = [], []
    for module in (parametric, cli):
        monkeypatch.setattr(module, "prepare_fixed", lambda *args: built.append(args))
    at = Compiled.at
    monkeypatch.setattr(Compiled, "at",
                        lambda self, *bounds: scaled_at.append(bounds) or at(self, *bounds))
    for name in ("e_window", "e_param_contra"):
        scaled_at.clear()
        a = parse_automaton((data_dir / f"{name}.ta").read_text())
        v = parametric_emptiness(a)
        # each checked candidate once, and the check relaxed to [0, Xi] after the first
        assert len(scaled_at) == v.candidates_checked + 1
        assert scaled_at[1] == (0, candidate_parameters(a).xi)
        assert (v.zone_lasso is not None) == v.nonempty
    assert built == []


def test_the_sweep_checks_candidates_lazily(data_dir, monkeypatch):
    """With 40,002 candidates and a witness at the second, the sweep checks two.

    Each candidate is checked through emptiness_fixed, so a wrapper around
    it counts what the verdict reports as candidates_checked.
    """
    from pnta import parametric
    from pnta.zones import Compiled

    scaled_at = []
    at = Compiled.at
    monkeypatch.setattr(Compiled, "at",
                        lambda self, *bounds: scaled_at.append(bounds) or at(self, *bounds))
    fixed = []
    check = parametric.emptiness_fixed
    monkeypatch.setattr(parametric, "emptiness_fixed",
                        lambda *args: fixed.append(args[1]) or check(*args))
    a = parse_automaton(
        "automaton pingpong\nclocks x y\nparams mu\ninit q0\naccept q1\n"
        "trans q0 q0 a ( x < 5000 ) { }\n"
        "trans q0 q1 b ( y = mu ) { x }\n"
        "trans q1 q0 b ( x = mu ) { y }\n"
    )
    v = parametric_emptiness(a, 20000)
    cands = candidate_parameters(a)
    assert len(cands.candidates) == 40002
    assert v.nonempty and v.candidates_checked == len(fixed) == 2
    assert fixed == list(cands.values[:2])
    # the first candidate, the check relaxed to [0, Xi], the second candidate
    assert scaled_at == [(cands.values[0],), (0, cands.xi), (cands.values[1],)]
    # a sweep the relaxed check settles checks one candidate
    fixed.clear()
    v = parametric_emptiness(parse_automaton((data_dir / "relax_empty.ta").read_text()))
    assert v.relaxed is not None and v.candidates_checked == len(fixed) == 1


def test_an_automaton_is_compiled_once_for_all_its_checks(data_dir, monkeypatch):
    """Checks at many values and a sweep compile one automaton once; each check scales anew.

    The one-clock input tests and resets its clock, so the compiled form
    is that of its translation.
    """
    from pnta import parametric
    from pnta.zones import Compiled

    compiled, scaled_at = [], []
    compile_once = parametric.compile_automaton
    monkeypatch.setattr(parametric, "compile_automaton",
                        lambda b: compiled.append(b) or compile_once(b))
    at = Compiled.at
    monkeypatch.setattr(Compiled, "at",
                        lambda self, *bounds: scaled_at.append(bounds) or at(self, *bounds))
    one_clock = parse_automaton(
        "automaton tr\nclocks x\nparams mu\ninit q0\naccept q1\n"
        "trans q0 q1 a ( x = mu ) { x }\n"
        "trans q1 q1 b ( x = 1 ) { x }\n"
    )
    for a in (one_clock, parse_automaton((data_dir / "e_window.ta").read_text())):
        compiled.clear()
        scaled_at.clear()
        mus = [Fraction(1, 3), Fraction(41, 40), Fraction(1, 3), Fraction(7, 2)]
        verdicts = [emptiness_fixed(a, mu) for mu in mus]
        assert verdicts[0] == verdicts[2]
        # nothing per value is kept: every check scales the compiled form again
        assert scaled_at == [(mu,) for mu in mus]
        v = parametric_emptiness(a)
        relaxed = v.candidates_checked > 1  # the check relaxed to [0, Xi] after an Empty 0
        assert v.nonempty and len(scaled_at) == len(mus) + v.candidates_checked + relaxed
        assert compiled == [_searched(a)]
        assert len(compiled[0].clocks) == (2 if a is one_clock else 1)  # translated or not


def test_a_checked_automaton_equals_a_fresh_parse(data_dir, monkeypatch):
    """The kept compiled form is no field: equality, hash, repr and pickling ignore it.

    A checked automaton pickles to the bytes of a fresh parse, and an
    unpickled one compiles again on its next check.
    """
    import pickle

    from pnta import parametric

    built = []
    monkeypatch.setattr(parametric, "compile_automaton",
                        lambda a: built.append(a) or compile_automaton(a))
    for name in ("e_window", "w10y", "relax_empty"):
        text = (data_dir / f"{name}.ta").read_text()
        a = parse_automaton(text)
        emptiness_fixed(a, Fraction(1, 3))
        parametric_emptiness(a, 20000)
        fresh = parse_automaton(text)
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
        assert pickle.dumps(a) == pickle.dumps(fresh)
        b = pickle.loads(pickle.dumps(a))
        assert b == fresh
        built.clear()
        assert parametric_emptiness(b, 20000) == parametric_emptiness(fresh, 20000)
        assert len(built) == 2  # b and fresh, each once


def test_a_verdict_is_frozen_hashable_and_equal_without_its_scaled_form(data_dir):
    """Verdict is public: its fields cannot be assigned, and a lasso-carrying one hashes.

    scaled is compare=False, so a verdict equals itself without the scaled
    automaton, and hashes alike.
    """
    v = parametric_emptiness(parse_automaton((data_dir / "e_window.ta").read_text()))
    assert v.nonempty and v.zone_lasso is not None and v.scaled is not None
    for f in fields(v):
        with pytest.raises(FrozenInstanceError):
            setattr(v, f.name, getattr(v, f.name))
    bare = replace(v, scaled=None)
    assert v == bare and hash(v) == hash(bare)


def test_checks_at_many_values_keep_nothing_per_value(data_dir):
    """40 checks at distinct off-candidate values leave what the first check left.

    The automaton and its kept compiled form have the same attributes,
    each sized as before.  zone-grid checks the same (automaton, mu) on
    every pass, so a memo keyed by the value would time a lookup, not a
    check.
    """
    def shape(obj):
        return {k: len(v) if hasattr(v, "__len__") else None for k, v in vars(obj).items()}

    for name in ("e_window", "w10y"):
        a = parse_automaton((data_dir / f"{name}.ta").read_text())
        mus = [Fraction(k, 2) + Fraction(1, 7) for k in range(40)]
        assert not set(mus) & set(candidate_parameters(a).values)
        emptiness_fixed(a, mus[0])
        first = shape(a), shape(a._compiled)
        for mu in mus[1:]:
            emptiness_fixed(a, mu)
        assert (shape(a), shape(a._compiled)) == first, name


def test_a_warm_automaton_decides_the_zone_grid_pool_as_a_fresh_one():
    """Every criterion 07 value per gap: one automaton checked at all of them, or one per check."""
    rng = random.Random(707)
    pairs = 0
    for a in two_clock_population():
        for n in range(4 * candidate_parameters(a).c):
            for _ in range(3):
                den = rng.choice((3, 4, 5, 6, 7))
                mu = Fraction(n, 2) + Fraction(rng.randrange(1, den), den) / 2
                warm = emptiness_fixed(a, mu, include_lasso=False)
                fresh = emptiness_fixed(replace(a), mu, include_lasso=False)
                assert (warm.nonempty, warm.zone_nodes) == (fresh.nonempty, fresh.zone_nodes)
                pairs += 1
    assert pairs == 3420


def test_no_value_gets_a_nonempty_verdict_from_a_bound_beyond_the_sentinel(data_dir):
    """inf_overflow.ta is Empty at every mu; at 1/800000008 its scaled bounds are about 8e12.

    A bound at or above the zone engine's INF would read as no bound, so
    Compiled.at refuses a value whose closure sums could reach it.
    """
    a = parse_automaton((data_dir / "inf_overflow.ta").read_text())
    assert not parametric_emptiness(a).nonempty
    mus = [Fraction(1, 800000008), Fraction(1, 10 ** 12), Fraction(1, 10 ** 16), 10 ** 18,
           *candidate_parameters(a).values[::997]]
    refused = []
    for mu in mus:
        try:
            assert not emptiness_fixed(a, mu).nonempty
        except PreconditionViolated as exc:
            assert "beyond the zone engine's range" in str(exc) and f"mu = {mu}" in str(exc)
            refused.append(mu)
    assert refused == [Fraction(1, 10 ** 16), 10 ** 18]
