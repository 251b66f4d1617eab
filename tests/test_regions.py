"""Region abstraction: invariance, successor structure, lasso search."""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnta import (
    RegionBudgetExceeded,
    TimedWord,
    Valuation,
    build_region_automaton,
    elapse,
    eval_constraint,
    find_lasso,
    immediate_successor,
    parse_automaton,
    prepare_fixed,
    region_reset,
    region_sat,
    region_str,
    reset_apply,
    run_frontiers,
    to_dot,
    zero_region,
)
from pnta.regions import (
    _lasso_at,
    _search_lasso,
    _shortest_path,
    is_time_open,
)
from lemmas import concretize_lasso, positive_delay_successors, region_of
from randgen import fraction_region, rand_guard, rand_nrtta, rand_ta

_DENS = (1, 2, 3, 4, 5, 7, 8)


def _rand_val(rng, clocks, m):
    return Valuation.of({
        z: Fraction(rng.randrange(0, (m + 2) * d), d)
        for z in clocks
        for d in (rng.choice(_DENS),)
    })


def test_region_of_basics():
    v = Valuation.of({"x": Fraction(3, 2), "y": Fraction(7, 2)})
    r = region_of(v, 2)
    assert r.m == 2
    assert "y" in r.above
    s = region_str(r)
    assert "x in (1,2)" in s and "y>2" in s
    integral = region_of(Valuation.of({"x": 2, "y": 0}), 2)
    assert "x=2" in region_str(integral) and "y=0" in region_str(integral)


def test_successor_chain_terminates_at_top():
    r = zero_region(("x", "y"), 2)
    seen = []
    while r is not None:
        assert r not in seen
        seen.append(r)
        r = immediate_successor(r)
    top = seen[-1]
    assert len(top.above) == 2
    assert is_time_open(top)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_region_of_matches_the_fraction_rule(seed):
    """region_of, scaled to integer ticks, gives the region the Fraction rule gives.

    region_of reads the values through region_at, the integer rule of
    the tests' region projections, so this checks it against
    randgen.fraction_region.
    """
    rng = random.Random(seed)
    m = rng.choice((1, 2, 3))
    v = _rand_val(rng, ("w", "x", "y", "z")[: rng.randint(1, 4)], m)
    assert region_of(v, m) == fraction_region(v, m)


def test_region_of_at_the_boundaries():
    v = Valuation.of({"w": 2, "x": Fraction(1, 3), "y": Fraction(13, 6), "z": Fraction(4, 3)})
    r = region_of(v, 2)
    assert r.above == {"y"}  # 2 + 1/6 is above m = 2
    assert r.floors == (("w", 2), ("x", 0), ("z", 1)) and r.zero == {"w"}  # 2 is not
    assert r.order == (("x", "z"),)  # one fractional part, 1/3, two integer parts
    assert r == fraction_region(v, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_region_guard_invariance(seed):
    """Valuations in one region satisfy exactly the same guards."""
    rng = random.Random(seed)
    m = rng.choice((1, 2, 3))
    clocks = ("x", "y")[: rng.randint(1, 2)]
    v = _rand_val(rng, clocks, m)
    r = region_of(v, m)
    for _ in range(4):
        g = rand_guard(rng, clocks, m)
        assert region_sat(r, g) == eval_constraint(g, v)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_region_reset_commutes(seed):
    rng = random.Random(seed)
    m = rng.choice((1, 2, 3))
    v = _rand_val(rng, ("x", "y"), m)
    resets = frozenset(z for z in ("x", "y") if rng.random() < 0.5)
    assert region_reset(region_of(v, m), resets) == region_of(reset_apply(v, resets), m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_delay_lands_in_positive_successor(seed):
    rng = random.Random(seed)
    m = rng.choice((1, 2))
    v = _rand_val(rng, ("x", "y"), m)
    r = region_of(v, m)
    d = Fraction(rng.randrange(1, 40), rng.choice((4, 8, 12)))
    assert region_of(elapse(v, d), m) in positive_delay_successors(r)


def test_positive_successors_include_self_only_when_open():
    closed = region_of(Valuation.of({"x": 1}), 2)
    assert closed not in positive_delay_successors(closed)
    open_r = region_of(Valuation.of({"x": Fraction(1, 2)}), 2)
    assert open_r in positive_delay_successors(open_r)


# ---------------------------------------------------------------------------
# Explicit region automaton


WINDOW = """
automaton w
clocks x
params mu
alphabet a
init q0
accept q2
trans q0 q1 a ( x = 1 ) { }
trans q1 q2 a ( x = mu ) { }
trans q2 q2 a ( true ) { }
"""


def _fixed(a, mu):
    scaled, m, _ = prepare_fixed(a, mu)
    return scaled, m


def test_build_region_automaton_structure():
    a = parse_automaton(WINDOW)
    scaled, m = _fixed(a, Fraction(3, 2))
    ra = build_region_automaton(scaled, m)
    assert ra.nodes[0] == ra.initial
    assert ra.initial == (scaled.initial, zero_region(scaled.clocks, m))
    assert len(set(ra.nodes)) == len(ra.nodes)
    assert len(ra.edges) == len(ra.nodes)
    for out in ra.edges:
        for t_idx, j in out:
            assert 0 <= t_idx < len(scaled.transitions)
            assert 0 <= j < len(ra.nodes)
    for i in ra.accepting_nodes:
        assert ra.nodes[i][0] in scaled.accepting


def test_region_budget_raises():
    a = parse_automaton(WINDOW)
    scaled, m = _fixed(a, Fraction(3, 2))
    with pytest.raises(RegionBudgetExceeded):
        build_region_automaton(scaled, m, max_nodes=2)
    with pytest.raises(RegionBudgetExceeded):
        find_lasso(scaled, m, max_nodes=2)


def test_region_budget_is_the_nodes_plus_every_fan():
    """A graph whose nodes and delay fans fill the budget exactly is built; one less stops it."""
    rng = random.Random(2323)
    for _ in range(40):
        a = rand_nrtta(rng, cmax=2)
        scaled, m = _fixed(a, None)
        ra = build_region_automaton(scaled, m)
        sources = {t.source for t in scaled.transitions}
        need = len(ra.nodes) + sum(len(positive_delay_successors(r))
                                   for q, r in ra.nodes if q in sources)
        assert build_region_automaton(scaled, m, max_nodes=need) == ra
        with pytest.raises(RegionBudgetExceeded):
            build_region_automaton(scaled, m, max_nodes=need - 1)


def test_region_searches_keep_no_module_level_memo():
    """The region step functions memoize nothing, so no search leaves state in the module."""
    import pnta.regions

    a = parse_automaton(WINDOW)
    scaled, m = _fixed(a, Fraction(41, 40))
    build_region_automaton(scaled, m)
    assert find_lasso(scaled, m) is not None
    assert [name for name, obj in vars(pnta.regions).items() if hasattr(obj, "cache_info")] == []


def _naive_buchi(ra):
    """Reachable accepting node on a cycle, by plain BFS; no Tarjan."""
    n = len(ra.nodes)
    reach = [False] * n
    queue = deque([0])
    reach[0] = True
    while queue:
        i = queue.popleft()
        for _, j in ra.edges[i]:
            if not reach[j]:
                reach[j] = True
                queue.append(j)
    for f in sorted(ra.accepting_nodes):
        if not reach[f]:
            continue
        # BFS from f back to f
        seen = set()
        queue = deque(j for _, j in ra.edges[f])
        while queue:
            j = queue.popleft()
            if j == f:
                return True
            if j in seen:
                continue
            seen.add(j)
            queue.extend(k for _, k in ra.edges[j])
    return False


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_lasso_search_matches_naive_buchi(seed):
    """find_lasso agrees with a brute-force cycle check on the region automaton."""
    rng = random.Random(seed)
    a = rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2)
    scaled, m = _fixed(a, None)
    expect = _naive_buchi(build_region_automaton(scaled, m))
    assert (find_lasso(scaled, m) is not None) == expect


@st.composite
def _digraphs(draw):
    """(successor lists, accepting set) of a random digraph on up to 8 nodes, rooted at 0."""
    n = draw(st.integers(1, 8))
    succ = [draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)]
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return succ, accepting


def _reaches(succ, a, b):
    """b is reachable from a along one or more edges."""
    seen, stack = set(), list(succ[a])
    while stack:
        u = stack.pop()
        if u == b:
            return True
        if u not in seen:
            seen.add(u)
            stack.extend(succ[u])
    return False


def _accepting_sccs(root, successors, is_accepting):
    """Yield (members, parent) for each reachable SCC with a cycle and an accepting member.

    Tarjan's algorithm, iterative, the reference for the searches under
    test: components are yielded as it completes them.  members lists the
    component in the order its nodes leave the Tarjan stack; parent maps
    every node discovered so far to (DFS parent, edge label).
    """
    index = {root: 0}
    low = {root: 0}
    onstack = {root}
    tarjan_stack = [root]
    parent = {root: (None, None)}
    counter = 1
    frames = [(root, iter(successors(root)))]
    while frames:
        node, it = frames[-1]
        pushed = False
        for label, child in it:
            if child not in index:
                index[child] = low[child] = counter
                counter += 1
                parent[child] = (node, label)
                tarjan_stack.append(child)
                onstack.add(child)
                frames.append((child, iter(successors(child))))
                pushed = True
                break
            if child in onstack and index[child] < low[node]:
                low[node] = index[child]
        if pushed:
            continue
        frames.pop()
        if frames:
            pnode = frames[-1][0]
            if low[node] < low[pnode]:
                low[pnode] = low[node]
        if low[node] == index[node]:
            members = []
            while True:
                w = tarjan_stack.pop()
                onstack.discard(w)
                members.append(w)
                if w == node:
                    break
            if not any(is_accepting(w) for w in members):
                continue
            if len(members) > 1 or any(child == node for _, child in successors(node)):
                yield members, parent


def _labelled(succ):
    """successors over a digraph's successor lists, each edge labelled (source, position)."""
    labelled = [[((u, k), v) for k, v in enumerate(vs)] for u, vs in enumerate(succ)]
    return labelled.__getitem__


@settings(max_examples=400, deadline=None)
@given(_digraphs())
def test_search_lasso_closes_a_real_accepting_cycle_no_later_than_tarjan(graph):
    """The on-the-fly search against a brute-force cycle check and the complete-SCC search.

    The zone engine and the region oracle share this search, so their
    agreement cannot catch a fault in it.
    """
    succ, accepting = graph
    successors = _labelled(succ)

    def is_accepting(u):
        return u in accepting

    expect = any((f == 0 or _reaches(succ, 0, f)) and _reaches(succ, f, f) for f in accepting)
    found = _search_lasso(0, successors, is_accepting)
    assert (found[0] is not None) == expect
    first = next(_accepting_sccs(0, successors, is_accepting), None)
    if found[0] is None:
        assert first is None
        return
    members, recorded, _ = found
    assert any(is_accepting(w) for w in members)
    # nodes discovered until the first accepting cycle closes, against the
    # nodes Tarjan's search has discovered when it completes its first accepting SCC
    assert len(recorded) <= len(first[1])
    stem, cycle = _lasso_at(0, is_accepting, found)
    path = [0] + [v for _, v in stem] + [v for _, v in cycle]
    labels = [label for label, _ in stem + cycle]
    af = path[len(stem)]
    assert is_accepting(af) and af in members and path[-1] == af and cycle
    for (u, k), x, y in zip(labels, path, path[1:]):
        assert u == x and succ[u][k] == y


def _distances(succ, sources, within):
    """Fewest edges from sources (at 0) to each node reachable through the nodes of within."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v in within and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@settings(max_examples=400, deadline=None)
@given(_digraphs())
# the search closes 1 -> 2 -> 3 -> 1 first, but accepting 3 is nearer than 2 from 0
@example(([[1, 3], [2], [3], [1]], {2, 3}))
def test_lasso_at_takes_the_nearest_accepting_member_and_a_shortest_cycle(graph):
    """The lasso rule against brute-force breadth-first distances.

    The stem is a shortest path through the discovered nodes to the nearest
    accepting member of the closed component, the cycle a shortest one
    through that node inside the component.  The search asks each node for
    its successors once, and recovering the lasso discovers no further node.
    """
    succ, accepting = graph
    labelled = _labelled(succ)
    asked = []

    def successors(u):
        asked.append(u)
        return labelled(u)

    found = _search_lasso(0, successors, accepting.__contains__)
    members, recorded, _ = found
    discovered = set(recorded)
    assert asked == list(recorded)
    if members is None:
        return
    stem, cycle = _lasso_at(0, accepting.__contains__, found)
    assert set(recorded) == discovered and len(asked) == len(discovered)
    path = [0] + [v for _, v in stem] + [v for _, v in cycle]
    for ((u, k), _), x, y in zip(stem + cycle, path, path[1:]):
        assert u == x and succ[u][k] == y
    af = path[len(stem)]
    assert af in accepting and af in members and path[-1] == af
    assert set(path[:len(stem) + 1]) <= discovered and set(path[len(stem):]) <= set(members)
    dist = _distances(succ, [0], discovered)
    assert len(stem) == min(dist[w] for w in members if w in accepting)
    back = _distances(succ, [v for v in succ[af] if v in members], set(members))
    assert len(cycle) == 1 + back[af]


@st.composite
def _path_problems(draw):
    """(successor lists, start, allowed, goals) on a random digraph of up to 8 nodes."""
    succ, _ = draw(_digraphs())
    nodes = st.integers(0, len(succ) - 1)
    return succ, draw(nodes), draw(st.sets(nodes)), draw(st.sets(nodes))


@settings(max_examples=400, deadline=None)
@given(_path_problems())
@example(([[0]], 0, set(), {0}))  # a goal start closes a one-edge cycle
@example(([[]], 0, {0}, {0}))  # a goal start with no cycle has no path
@example(([[1], [2], []], 0, {2}, {2}))  # the only way to 2 passes 1, outside allowed
def test_shortest_path_against_a_brute_force_search(problem):
    """_shortest_path against walks counted level by level, on cases _lasso_at never reaches.

    Level k holds the heads of the walks of k edges from start that go on
    only from nodes in allowed; the first level with a goal gives the
    length of a shortest path, and no level up to the node count having
    one means there is none.
    """
    succ, start, allowed, goals = problem
    path = _shortest_path(start, _labelled(succ), allowed, goals.__contains__)
    level, shortest = set(succ[start]), None
    for k in range(1, len(succ) + 1):
        if level & goals:
            shortest = k
            break
        level = {v for u in level & allowed for v in succ[u]}
    if shortest is None:
        assert path is None
        return
    assert len(path) == shortest
    nodes = [start] + [v for _, v in path]
    for ((u, k), _), x, y in zip(path, nodes, nodes[1:]):
        assert u == x and succ[u][k] == y
    assert nodes[-1] in goals and set(nodes[1:-1]) <= allowed - goals


def _check_lasso_shape(lasso, a, m):
    assert lasso.cycle_nodes
    assert lasso.stem_nodes[0] == (a.initial, zero_region(a.clocks, m))
    assert lasso.stem_nodes[-1] == lasso.cycle_nodes[0]
    assert lasso.cycle_nodes[0][0] in a.accepting
    assert len(lasso.stem_edges) == len(lasso.stem_nodes) - 1
    assert len(lasso.cycle_edges) == len(lasso.cycle_nodes)


def test_lasso_concretizes_to_accepted_word():
    rng = random.Random(11)
    found = 0
    while found < 25:
        a = rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2)
        scaled, m = _fixed(a, None)
        lasso = find_lasso(scaled, m)
        if lasso is None:
            continue
        found += 1
        _check_lasso_shape(lasso, scaled, m)
        for unrollings in (1, 2):
            w = concretize_lasso(scaled, m, lasso, unrollings)
            assert len(w) == len(lasso.stem_edges) + unrollings * len(lasso.cycle_edges)
            frontiers = run_frontiers(scaled, w)
            assert all(frontiers[1:]), "witness word must keep a live run"
            land = lasso.cycle_nodes[0][0]
            stem_len = len(lasso.stem_edges)
            for k in range(unrollings + 1):
                at = frontiers[stem_len + k * len(lasso.cycle_edges)]
                assert land in {c.state for c in at}


def test_find_lasso_allows_first_event_at_zero():
    a = parse_automaton(
        "automaton z\nclocks x\ninit q0\naccept q1\n"
        "trans q0 q1 a ( x = 0 ) { }\n"
        "trans q1 q1 a ( true ) { }\n"
    )
    scaled, m = _fixed(a, None)
    # x = 0 is only satisfiable with no delay before the first event
    assert find_lasso(scaled, m) is not None
    ra = build_region_automaton(scaled, m)
    assert not ra.accepting_nodes  # the explicit graph takes positive delays only


def test_concretize_respects_unrollings():
    a = parse_automaton(WINDOW)
    scaled, m = _fixed(a, Fraction(3, 2))
    lasso = find_lasso(scaled, m)
    assert lasso is not None
    w1 = concretize_lasso(scaled, m, lasso, unrollings=1)
    w3 = concretize_lasso(scaled, m, lasso, unrollings=3)
    assert len(w3) - len(w1) == 2 * len(lasso.cycle_edges)
    ts = list(w3.timestamps())
    assert all(s < t for s, t in zip(ts, ts[1:]))


def test_to_dot_mentions_every_node():
    a = parse_automaton(WINDOW)
    scaled, m = _fixed(a, Fraction(3, 2))
    ra = build_region_automaton(scaled, m)
    dot = to_dot(ra)
    assert dot.startswith("digraph")
    for q, reg in ra.nodes:
        assert f"{q} | {region_str(reg)}" in dot
