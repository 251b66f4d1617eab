"""Translation of an arbitrary TA into an equivalent nrtTA with one extra clock.

The trick: a transition that both tests and resets clock x is split in
role.  The guard keeps reading the clock that currently represents x,
while the reset is performed on a spare clock that nothing tests; the
spare then becomes the representative of x, and bookkeeping of who
represents whom lives in the product control state.
"""

from __future__ import annotations

from .core import Atom, Automaton, Transition, map_atoms
from .errors import PreconditionViolated


def product_state_origin(name: str) -> str:
    """Original control state of a product state produced by ta_to_nrtta."""
    return name.rsplit("@", 1)[0]


def ta_to_nrtta(a: Automaton) -> Automaton:
    """Equivalent nrtTA over |clocks|+1 pool clocks; only reachable product states.

    A product state pairs a control state with a clock map, the tuple of
    the pool clock standing for each sorted original clock, then the
    spare, which stands for none.  Originals reset together share a pool
    clock.  The product grows super-exponentially with the clock count
    (six clocks each tested and reset alone give 7,423 states, seven give
    60,621), so one of more than max(10,000, 2 |states|) states is refused:
    one-clock input has at most two clock maps and is always translated.
    """
    clocks = sorted(a.clocks)
    labels = clocks + ["s"]
    pool = tuple(f"x{i}" for i in range(1, len(labels) + 1))
    m0 = (pool[0],) * len(clocks) + (pool[1 if clocks else 0],)
    codes = {m0: ".".join(map(":".join, zip(labels, m0)))}  # clock map -> its text in names

    by_source: dict[str, list[Transition]] = {}
    for t in a.transitions:
        by_source.setdefault(t.source, []).append(t)

    bound = max(10_000, 2 * len(a.states))
    seen = {(a.initial, m0)}
    order = [(a.initial, m0)]  # breadth first: visited as it grows
    transitions: list[Transition] = []
    for q, cm in order:
        for t in by_source.get(q, ()):
            cm2 = cm
            if t.resets:
                assign = tuple(cm[-1] if z in t.resets else p for z, p in zip(clocks, cm))
                cm2 = assign + (next(p for p in pool if p not in assign),)
                if cm2 not in codes:
                    codes[cm2] = ".".join(map(":".join, zip(labels, cm2)))
            if (t.target, cm2) not in seen:
                if len(seen) == bound:
                    raise PreconditionViolated(f"the nrtTA translation of {len(clocks)} clocks"
                                               f" needs over {bound:,} product states")
                seen.add((t.target, cm2))
                order.append((t.target, cm2))
            transitions.append(Transition(
                f"{q}@{codes[cm]}", f"{t.target}@{codes[cm2]}", t.letter,
                map_atoms(t.guard, lambda at: Atom(cm[clocks.index(at.clock)], at.op, at.bound)),
                frozenset({cm[-1]}) if t.resets else frozenset(),
            ))

    names = [f"{q}@{codes[cm]}" for q, cm in order]
    return Automaton(
        name=f"{a.name}_nrt",
        alphabet=a.alphabet,
        states=names,
        clocks=pool,
        params=a.params,
        initial=names[0],
        accepting=[n for n, (q, _) in zip(names, order) if q in a.accepting],
        transitions=transitions,
    )
