"""Region abstraction, region automaton, and Büchi lasso search.

A region records, per clock: integer part up to the bound m (with a flag
for exact-integer values) or "above m", plus the weak ordering of the
fractional parts of the bounded non-integer clocks.  Time successors
form a deterministic chain ending in the absorbing all-above region.

The one Büchi check on regions is `find_lasso`, an early-exit search
over single time steps: it materializes no successor fans and stops as
soon as it closes an accepting cycle.  It backs the `regions` command
and is the oracle the tests check the zone engine against; `check`
decides with the zone engine alone.  The explicit RegionAutomaton (one
edge per delay-then-fire step, positive delays only) is the region
graph itself: `pnta regions` prints its size and `to_dot` draws it.

Strict monotonicity of timestamps is encoded structurally: a region can
host a second event without time passing a boundary only if it is
time-open (no bounded clock sits on an integer).  The very first event
of a word may additionally happen at time 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .core import And, Atom, Automaton, Guard, Not, Transition, TrueGuard, atoms
from .errors import PreconditionViolated, RegionBudgetExceeded, UnboundSymbol

DEFAULT_REGION_BUDGET = 10**7


class Region(NamedTuple):
    m: int
    above: frozenset[str]
    floors: tuple[tuple[str, int], ...]
    zero: frozenset[str]
    order: tuple[tuple[str, ...], ...]


RANode = tuple[str, Region]


def zero_region(clocks: Iterable[str], m: int) -> Region:
    names = tuple(sorted(clocks))
    return Region(m, frozenset(), tuple((z, 0) for z in names), frozenset(names), ())


def is_time_open(r: Region) -> bool:
    """True iff small positive delays stay inside r."""
    return not r.zero


def immediate_successor(r: Region) -> Optional[Region]:
    """Next distinct region under time elapse; None once all clocks are above m."""
    if not r.floors:
        return None
    bounded = dict(r.floors)
    if r.zero:
        going_above = frozenset(z for z in r.zero if bounded[z] == r.m)
        staying = tuple(sorted(z for z in r.zero if bounded[z] < r.m))
        new_floors = tuple((z, k) for z, k in r.floors if z not in going_above)
        new_order = ((staying,) + r.order) if staying else r.order
        return Region(r.m, r.above | going_above, new_floors, frozenset(), new_order)
    last = r.order[-1]
    new_floors = tuple((z, k + 1) if z in last else (z, k) for z, k in r.floors)
    return Region(r.m, r.above, new_floors, frozenset(last), r.order[:-1])


def _delay_fan(r: Region) -> Iterator[Region]:
    """Yield every region reachable by some delta > 0, in chain order."""
    cur = r if is_time_open(r) else immediate_successor(r)
    while cur is not None:
        yield cur
        cur = immediate_successor(cur)


def region_sat(r: Region, g: Guard) -> bool:
    """Truth of g on every valuation of r; constants must not exceed r.m."""
    if isinstance(g, TrueGuard):
        return True
    if isinstance(g, Atom):
        if isinstance(g.bound, str):
            raise PreconditionViolated("parametric atom cannot be evaluated on a region")
        c = g.bound
        if c != int(c):
            raise PreconditionViolated(f"non-integer constant {c}; scale the automaton first")
        c = int(c)
        if c > r.m:
            raise PreconditionViolated(f"constant {c} exceeds region bound {r.m}")
        z = g.clock
        if z in r.above:
            return False
        for name, k in r.floors:
            if name == z:
                if g.op == "<":
                    return k < c
                return z in r.zero and k == c
        raise UnboundSymbol(f"clock {z!r} not tracked by this region")
    if isinstance(g, Not):
        return not region_sat(r, g.arg)
    if isinstance(g, And):
        return region_sat(r, g.left) and region_sat(r, g.right)
    raise TypeError(f"not a guard: {g!r}")


def region_reset(r: Region, resets: frozenset[str]) -> Region:
    if not resets:
        return r
    bounded = dict(r.floors)
    for z in resets:
        bounded[z] = 0
    new_order = tuple(
        g for g in (tuple(z for z in grp if z not in resets) for grp in r.order) if g
    )
    return Region(
        r.m,
        r.above - resets,
        tuple(sorted(bounded.items())),
        r.zero | (resets & set(bounded)),
        new_order,
    )


def region_str(r: Region) -> str:
    floors = dict(r.floors)
    parts = []
    for z in sorted(set(floors) | set(r.above)):
        if z in r.above:
            parts.append(f"{z}>{r.m}")
        elif z in r.zero:
            parts.append(f"{z}={floors[z]}")
        else:
            parts.append(f"{z} in ({floors[z]},{floors[z] + 1})")
    if sum(len(g) for g in r.order) >= 2:
        parts.append("frac " + "<".join("=".join(g) for g in r.order))
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# Region automaton


@dataclass(frozen=True)
class SymbolicLasso:
    """Stem plus cycle of (state, Region) nodes.

    stem_nodes[0] is the initial node, stem_nodes[-1] == cycle_nodes[0]
    (an accepting node).  stem_edges[i] is the transition index producing
    stem_nodes[i+1]; cycle_edges[i] connects cycle_nodes[i] to
    cycle_nodes[(i+1) % len], labelled by the transition producing the
    latter.
    """

    stem_nodes: tuple[RANode, ...]
    stem_edges: tuple[int, ...]
    cycle_nodes: tuple[RANode, ...]
    cycle_edges: tuple[int, ...]


@dataclass(frozen=True)
class RegionAutomaton:
    automaton: Automaton
    m: int
    nodes: tuple[RANode, ...]
    initial: RANode
    edges: tuple[tuple[tuple[int, int], ...], ...]
    accepting_nodes: frozenset[int]


def _by_source(a: Automaton, m: int) -> dict[str, list[tuple[int, Transition]]]:
    """a's (index, transition) pairs by source state, in transition order.

    Raises PreconditionViolated unless a is parameter-free with every
    guard constant <= m.
    """
    if a.params:
        raise PreconditionViolated("parameter-free automaton required; see prepare_fixed")
    by_source: dict[str, list[tuple[int, Transition]]] = {}
    for idx, t in enumerate(a.transitions):
        for at in atoms(t.guard):
            if isinstance(at.bound, str):
                raise PreconditionViolated("parameter-free automaton required; see prepare_fixed")
            if at.bound > m:
                raise PreconditionViolated(f"guard constant {at.bound} exceeds region bound {m}")
        by_source.setdefault(t.source, []).append((idx, t))
    return by_source


def build_region_automaton(
    a: Automaton, m: int, max_nodes: int = DEFAULT_REGION_BUDGET
) -> RegionAutomaton:
    """Explicit region automaton for a parameter-free automaton.

    Edges realize delay-then-fire steps with strictly positive delays;
    only nodes reachable from the initial all-zero node are emitted.
    max_nodes bounds the nodes plus every node's delay fan (the regions
    some positive delay reaches from it), so it bounds the work too.
    """
    by_source = _by_source(a, m)
    if m < 1:
        raise PreconditionViolated(f"region bound must be at least 1, got {m}")

    initial: RANode = (a.initial, zero_region(a.clocks, m))
    nodes: list[RANode] = [initial]
    index: dict[RANode, int] = {initial: 0}
    edges: list[tuple[tuple[int, int], ...]] = []
    fanned = 0
    for q, reg in nodes:  # breadth-first: each new node is appended, then visited in turn
        out: list[tuple[int, int]] = []
        seen_out: set[tuple[int, int]] = set()
        fires = []
        for fire in _delay_fan(reg) if q in by_source else ():
            fanned += 1  # counted as it is built: a fan may have about 2m regions
            if len(nodes) + fanned > max_nodes:
                raise RegionBudgetExceeded(max_nodes)
            fires.append(fire)
        for t_idx, t in by_source.get(q, ()):
            for fire in fires:
                if not region_sat(fire, t.guard):
                    continue
                target: RANode = (t.target, region_reset(fire, t.resets))
                j = index.get(target)
                if j is None:
                    if len(nodes) >= max_nodes:
                        raise RegionBudgetExceeded(max_nodes)
                    j = len(nodes)
                    index[target] = j
                    nodes.append(target)
                if (t_idx, j) not in seen_out:
                    seen_out.add((t_idx, j))
                    out.append((t_idx, j))
        edges.append(tuple(out))
    accepting = frozenset(i for i, (q, _) in enumerate(nodes) if q in a.accepting)
    return RegionAutomaton(a, m, tuple(nodes), initial, tuple(edges), accepting)


# ---------------------------------------------------------------------------
# Generic early-exit lasso search (on-the-fly SCCs, iterative)


def _shortest_path(start, successors, allowed, is_goal) -> Optional[list]:
    """A shortest path of one or more edges from start to a goal, as (label, node) pairs.

    Breadth-first from start, it tests is_goal on the head of each edge as
    it reads the edge, so it stops inside a successor list and start ends
    a path only by closing a cycle.  It goes on only from start and from
    nodes in allowed; None if no goal is reachable that way.
    """
    pred: dict = {start: None}
    queue = [start]
    for node in queue:  # a list visited as it grows is a FIFO queue
        for label, child in successors(node):
            if is_goal(child):
                pairs = [(label, child)]
                while node != start:
                    parent, label = pred[node]
                    pairs.append((label, node))
                    node = parent
                pairs.reverse()
                return pairs
            if child not in pred and child in allowed:
                pred[child] = (node, label)
                queue.append(child)
    return None


def _search_lasso(
    root,
    successors: Callable,
    is_accepting: Callable,
    max_nodes: Optional[int] = None,
) -> tuple[Optional[list], dict, dict]:
    """(members, graph, unread): what the search found and the graph it read.

    Depth-first search with Couvreur's roots stack (FM 1999): the active
    nodes, those of components not yet complete, stay on a stack in
    discovery order, and a second stack holds each open component's root
    as (its place on the active stack, whether some member accepts).  An
    edge to an active node merges every component above that node's into
    it; once a merged component has an accepting member the search stops,
    so an accepting cycle inside a large component ends the search as soon
    as it is closed, not when the component completes.  members are the
    active nodes from the merged root up, strongly connected through the
    edges explored so far, so each of them lies on a cycle through the
    others; None when no accepting cycle is reachable.  It asks
    successors(node) once per node, when it discovers it, and reads only
    as far as it goes, so that call may return an iterator that builds
    each successor on demand.  graph maps each discovered node to the
    (label, child) pairs read from it, in order, and unread maps each node
    still on the stack when the search stops to the rest of its iterator.
    The result depends only on the order of successors.  More than
    max_nodes discovered nodes raise RegionBudgetExceeded.
    """
    graph: dict = {root: []}
    active: list = [root]
    place: dict = {root: 0}  # active node -> its index in active
    roots: list = [(0, is_accepting(root))]
    frames: list = [(root, iter(successors(root)))]
    while frames:
        node, it = frames[-1]
        out = graph[node]
        for pair in it:
            out.append(pair)
            child = pair[1]
            if child not in graph:
                if max_nodes is not None and len(graph) >= max_nodes:
                    raise RegionBudgetExceeded(max_nodes)
                graph[child] = []
                place[child] = len(active)
                active.append(child)
                roots.append((place[child], is_accepting(child)))
                frames.append((child, iter(successors(child))))
                break
            i = place.get(child)
            if i is None:  # in a completed component
                continue
            r, acc = roots.pop()
            while r > i:
                r, below = roots.pop()
                acc = acc or below
            roots.append((r, acc))
            if acc:
                return active[r:], graph, dict(frames)
        else:
            frames.pop()
            r = place[node]
            if roots[-1][0] == r:  # node's component is complete
                roots.pop()
                for w in active[r:]:
                    del place[w]
                del active[r:]
    return None, graph, {}


def _lasso_at(root, is_accepting: Callable, found) -> tuple[list, list]:
    """(stem_pairs, cycle_pairs) of an accepting lasso in the graph _search_lasso read.

    Two `_shortest_path` calls: the stem from root through the discovered
    nodes alone to the nearest accepting member of the component the
    search closed (none when root is one), and the cycle from that node
    back to itself within the component.  They walk the successor lists
    the search recorded, and go on with a node's unread iterator only as
    far as they read, recording what they read; an iterator leaves unread
    when it is exhausted.
    """
    members, graph, unread = found
    within = set(members)

    def successors(node):
        out = graph[node]
        yield from out
        it = unread.get(node)
        if it is not None:
            for pair in it:  # not yield from: closing this generator leaves it open
                out.append(pair)
                yield pair
            del unread[node]

    if root in within and is_accepting(root):
        stem, node = [], root
    else:
        stem = _shortest_path(root, successors, graph,
                              lambda n: n in within and is_accepting(n))
        node = stem[-1][1]
    return stem, _shortest_path(node, successors, within, lambda n: n == node)


def _assemble_lasso(
    root_node: RANode, stem_pairs, cycle_pairs, accepting_states: frozenset[str]
) -> SymbolicLasso:
    """The SymbolicLasso of find_lasso's search output.

    Time steps (label None) are dropped and each (state, region, fresh)
    node becomes (state, region).  The cycle is rotated so it starts at
    an accepting node; the rotation prefix is folded into the stem.
    """
    walk = [(label, node[:2]) for label, node in stem_pairs if label is not None]
    cyc = [(label, node[:2]) for label, node in cycle_pairs if label is not None]
    kc = len(cyc)
    if kc == 0:
        raise AssertionError("cycle with no transition edges")
    cyc_nodes = [n for _, n in cyc]
    cyc_labels = [l for l, _ in cyc]
    r = next(i for i, n in enumerate(cyc_nodes) if n[0] in accepting_states)
    stem_nodes = [root_node] + [n for _, n in walk] + cyc_nodes[: r + 1]
    stem_edges = [l for l, _ in walk] + cyc_labels[: r + 1]
    rot_nodes = cyc_nodes[r:] + cyc_nodes[:r]
    rot_edges = [cyc_labels[(r + 1 + i) % kc] for i in range(kc)]
    return SymbolicLasso(
        tuple(stem_nodes), tuple(stem_edges), tuple(rot_nodes), tuple(rot_edges)
    )


def find_lasso(
    a: Automaton, m: int, max_nodes: int = DEFAULT_REGION_BUDGET
) -> Optional[SymbolicLasso]:
    """Accepting lasso via the implicit single-time-step graph.

    Nodes are (state, region, fresh); a fresh node was just entered by a
    firing and may fire again without an intervening time step only if
    its region is time-open.  The initial node is stale, which is what
    permits a first event at time 0, as the simulator and the zone
    engine permit it.
    """
    by_source = _by_source(a, m)
    r0 = zero_region(a.clocks, m)
    root = (a.initial, r0, False)

    def successors(node):
        q, reg, fresh = node
        out = []
        nxt = immediate_successor(reg)
        if nxt is not None:
            out.append((None, (q, nxt, False)))
        if not fresh or is_time_open(reg):
            for t_idx, t in by_source.get(q, ()):
                if region_sat(reg, t.guard):
                    out.append((t_idx, (t.target, region_reset(reg, t.resets), True)))
        return out

    accepting = a.accepting

    def is_accepting(node) -> bool:
        return node[0] in accepting

    found = _search_lasso(root, successors, is_accepting, max_nodes)
    if found[0] is None:
        return None
    stem_pairs, cycle_pairs = _lasso_at(root, is_accepting, found)
    return _assemble_lasso((a.initial, r0), stem_pairs, cycle_pairs, accepting)


def to_dot(ra: RegionAutomaton) -> str:
    """DOT rendering: accepting nodes double-circled, labels `state | region`."""

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph region_automaton {", "  rankdir=LR;", "  __init [shape=point];"]
    for i, (q, reg) in enumerate(ra.nodes):
        shape = "doublecircle" if i in ra.accepting_nodes else "circle"
        lines.append(f'  n{i} [shape={shape}, label="{esc(q)} | {esc(region_str(reg))}"];')
    lines.append("  __init -> n0;")
    for i, outs in enumerate(ra.edges):
        for t_idx, j in outs:
            lines.append(f'  n{i} -> n{j} [label="{esc(ra.automaton.transitions[t_idx].letter)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
