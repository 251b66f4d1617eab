"""Seeded input automata for the benchmark workloads.

The benchmark owns its generator so that a change to the test helpers
cannot move a workload.  `rand_nrtta` has the shape of
`tests/randgen.rand_nrtta` and, given the same random stream, builds the
same automata; `test_perfbench.py` checks this on the seed-607 population.
"""

from __future__ import annotations

import random

from pnta import (
    TRUE,
    Automaton,
    Transition,
    atoms,
    conj,
    eq,
    ge,
    gt,
    is_nrtta,
    le,
    lt,
    ne,
    parse_automaton,
    validate,
)

LETTERS = ("a", "b")
_OPS = (lt, eq, le, gt, ge, ne)

# The criterion 06/07 population of tests/test_acceptance.py.
POPULATION_SEED = 607
POPULATION_SIZE = 200
# One-clock automata that test and reset their clock, about 20% on top.
ONE_CLOCK_SEED = 1607
ONE_CLOCK_SIZE = 40


def rand_guard(rng: random.Random, clocks, cmax: int, param=None):
    """One or two atoms over distinct clocks, all constants or all the parameter."""
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


def _assemble(rng, states, clocks, params, trans) -> Automaton:
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
    errs = validate(a)
    if errs:
        raise ValueError(f"generated an invalid automaton: {errs}")
    return a


def rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2, param=None) -> Automaton:
    """Random automaton where no transition resets a clock its guard tests."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, max_states)))
    clocks = tuple(f"x{i + 1}" for i in range(rng.randint(1, max_clocks)))
    trans = _rand_transitions(rng, states, clocks, cmax, param, free_resets=False)
    return _assemble(rng, states, clocks, (param,) if param else (), trans)


def _uses_param(a: Automaton) -> bool:
    return any(isinstance(at.bound, str) for t in a.transitions for at in atoms(t.guard))


def two_clock_population(seed: int = POPULATION_SEED, size: int = POPULATION_SIZE):
    """Two-clock automata whose guards really use the parameter."""
    rng = random.Random(seed)
    population = []
    while len(population) < size:
        a = rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2, param="mu")
        if len(a.clocks) == 2 and _uses_param(a):
            population.append(a)
    return population


def one_clock_population(seed: int = ONE_CLOCK_SEED, size: int = ONE_CLOCK_SIZE):
    """One-clock parametric automata that test and reset the same clock.

    They are not in non-resetting-test form, so every check of one runs
    the translation first.
    """
    rng = random.Random(seed)
    population = []
    while len(population) < size:
        states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
        trans = _rand_transitions(rng, states, ("x1",), 2, "mu", free_resets=True)
        a = _assemble(rng, states, ("x1",), ("mu",), trans)
        if not is_nrtta(a) and _uses_param(a):
            population.append(a)
    return population


def w_c(c: int) -> Automaton:
    """The e_window fixture with x = c in place of x = 1."""
    return parse_automaton(
        f"automaton w{c}\nclocks x\nparams mu\ninit q0\naccept q2\n"
        f"trans q0 q1 a ( x = {c} ) {{ }}\n"
        "trans q1 q2 a ( x = mu ) { }\n"
        "trans q2 q2 a ( true ) { }\n"
    )


def w_cy(c: int) -> Automaton:
    """w_c with a second clock y, reset on the first edge, that drives the loop."""
    return parse_automaton(
        f"automaton w{c}y\nclocks x y\nparams mu\ninit q0\naccept q2\n"
        f"trans q0 q1 a ( x = {c} ) {{ y }}\n"
        "trans q1 q2 a ( x = mu ) { }\n"
        "trans q2 q3 a ( y < 3 ) { x }\n"
        "trans q3 q2 a ( x < 3 ) { y }\n"
    )
