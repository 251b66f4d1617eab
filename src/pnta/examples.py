"""Generators for the unit-distance-pair language families.

A word over {a} belongs to the k-th family when at least k distinct
pairs of positions sit at timestamp distance exactly 1 (or exactly the
parameter, for the parametric variant).  The automaton guesses the k
left endpoints by resetting a fresh clock on each and checks the k
right endpoints with equality guards; state s{p}_{m} means p parents
guessed and m matches confirmed.
"""

from __future__ import annotations

from .core import TRUE, Automaton, Bound, Transition, brief, eq
from .errors import PreconditionViolated

MAX_K = 200  # the k-th member has (k+1)(k+2)/2 states: 20,301 at k = 200


def _gen(k: int, name: str, bound: Bound, params: tuple[str, ...]) -> Automaton:
    if not 1 <= k <= MAX_K:
        raise PreconditionViolated(f"k must be from 1 to {MAX_K}, got {brief(k)}")
    states = [f"s{p}_{m}" for p in range(k + 1) for m in range(p + 1)]
    transitions: list[Transition] = []
    for p in range(k + 1):
        for m in range(p + 1):
            s = f"s{p}_{m}"
            transitions.append(Transition(s, s, "a", TRUE, ()))
            if p < k:
                transitions.append(Transition(s, f"s{p + 1}_{m}", "a", TRUE, (f"x{p + 1}",)))
            if m < p:
                transitions.append(Transition(s, f"s{p}_{m + 1}", "a", eq(f"x{m + 1}", bound), ()))
            if m < p and p < k:
                transitions.append(
                    Transition(s, f"s{p + 1}_{m + 1}", "a", eq(f"x{m + 1}", bound), (f"x{p + 1}",))
                )
    clocks = [f"x{j}" for j in range(1, k + 1)]
    return Automaton(
        name, ("a",), states, clocks, params, "s0_0", (f"s{k}_{k}",), transitions
    )


def gen_lk(k: int) -> Automaton:
    """k-clock automaton for words with at least k unit-distance pairs of a's."""
    return _gen(k, f"l{k}", 1, ())


def gen_lpk(k: int) -> Automaton:
    """Parametric variant: pair distance is the parameter mu instead of 1."""
    return _gen(k, f"lp{k}", "mu", ("mu",))
