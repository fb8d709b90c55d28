from __future__ import annotations

import hashlib
import random
import tracemalloc
from dataclasses import astuple

import pytest
from conftest import reversed_tree, small_random

from graphvalues import energy, energy_tw
from graphvalues.energy import (
    NEG_INF,
    AugmentedGraph,
    energy_values,
    nonpositive_values,
    sink_distance_values,
    zero_energy_nodes,
)
from graphvalues.energy_tw import (
    TwStats,
    energy_values_tw,
    nonpositive_values_tw,
    sssp_to_z_treedec,
    triple_plus,
    zero_energy_nodes_tw,
)
from graphvalues.generate import gen_cfg_like, gen_ktree, gen_sparse_random
from graphvalues.graph import INF, InvariantError, WeightedDigraph, component_has_cycle, tarjan_scc
from graphvalues.mincycle import min_cycle
from graphvalues.oracles import bellman_ford_edges, energy_fixpoint
from graphvalues.ratio import decide_mean_geq, mean_value, ratio_value
from graphvalues.treedec import TreeDecomposition, build_decomposition, validate


# -- triple algebra ---------------------------------------------------------------


def test_triple_plus_frozen_example():
    assert triple_plus((-4, "b1", 6), (-2, "b2", 9)) == (-6, "b1", 6)


def test_triple_plus_keeps_later_peak_when_strictly_higher():
    assert triple_plus((-4, "b1", 6), (-2, "b2", 11)) == (-6, "b2", 7)


def test_triple_plus_tie_prefers_left():
    assert triple_plus((2, "a", 3), (0, "b", 1)) == (2, "a", 3)


def _edge_triple(u: int, v: int, w: int):
    return (w, v, w) if w > 0 else (w, u, 0)


def _walk_oracle(nodes: list[int], wts: list[int]):
    """(total, node at the first maximum prefix, max prefix incl. the empty one)."""
    best, anchor, run = 0, nodes[0], 0
    for i, w in enumerate(wts):
        run += w
        if run > best:
            best, anchor = run, nodes[i + 1]
    return (sum(wts), anchor, best)


def test_triple_plus_matches_prefix_scan_randomized():
    rng = random.Random(2024)
    for trial in range(1000):
        L = rng.randint(1, 12)
        nodes = list(range(L + 1))
        wts = [rng.randint(-9, 9) for _ in range(L)]
        acc = _edge_triple(nodes[0], nodes[1], wts[0])
        for i in range(1, L):
            acc = triple_plus(acc, _edge_triple(nodes[i], nodes[i + 1], wts[i]))
        assert acc == _walk_oracle(nodes, wts), (trial, nodes, wts)


def test_triple_plus_is_associative_over_random_groupings():
    rng = random.Random(7)
    for trial in range(200):
        L = rng.randint(2, 10)
        parts = [_edge_triple(i, i + 1, rng.randint(-9, 9)) for i in range(L)]
        left = parts[0]
        for p in parts[1:]:
            left = triple_plus(left, p)
        # random parenthesization
        work = list(parts)
        while len(work) > 1:
            i = rng.randrange(len(work) - 1)
            work[i : i + 2] = [triple_plus(work[i], work[i + 1])]
        assert work[0] == left, trial


# -- lift ---------------------------------------------------------------


def _lifted(st) -> dict:
    """Every lift the state's bags fold, keyed by its edge (u, v)."""
    lifted = {}
    for b in range(len(st.t.bags)):
        lifts: dict = {}
        st._fold(b, lifts)
        lifted.update((divmod(k, st.stride), tri) for k, tri in lifts.items())
    return lifted


def _solved(g: WeightedDigraph, t: TreeDecomposition, stats: TwStats | None = None, sign: int = 1):
    """(killed nodes, final state) of the kill loop on a state of g and t
    with every node opened as one component and no exits."""
    st = energy_tw._TwState(g, t, sign, stats if stats is not None else TwStats())
    st.open(list(range(g.n)), {})
    return zero_energy_nodes_tw(st), st


def test_lift_rules():
    # killing node 1 redirects the edge (3, 1) onto (3, z)
    g = WeightedDigraph.from_edges(9, [(3, 1, -5), (2, 5, 4), (6, 7, -3), (8, 0, 0)])
    _, st = _solved(g, build_decomposition(g))  # no cycle, so nothing killed
    st.kill(1, set())
    z = st.z
    lifted = _lifted(st)
    assert lifted[(3, z)] == (-5, 3, 0)  # walks may not peak at z
    assert lifted[(z, 4)] == (0, 4, 0)
    assert lifted[(2, 5)] == (4, 5, 4)
    assert lifted[(6, 7)] == (-3, 6, 0)
    assert lifted[(8, 0)] == (0, 0, 0)
    assert (3, 1) not in lifted and (z, 1) not in lifted


# -- the implicit sink ---------------------------------------------------------------


def test_energy_solve_builds_no_tree(two_gadget, monkeypatch):
    t = build_decomposition(two_gadget)
    built = []
    init = TreeDecomposition.__init__

    def counting_init(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(TreeDecomposition, "__init__", counting_init)
    assert energy_values_tw(two_gadget, t) == energy_fixpoint(two_gadget)
    assert built == []


def test_energy_state_memory_per_bag():
    # the state used to hold a dict of pre-lifted triples per bag, edited by
    # every kill; bags now lift their edges from g as they fold them
    g = gen_ktree(2000, 2, wt=(-25, 1), ensure_sc=False, seed=1)
    t = build_decomposition(g)
    tracemalloc.start()
    try:
        energy_values_tw(g, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(t.bags) <= 950


def test_node_in_no_bag_raises():
    # node 2 has no edges, but its sink edge (z, 2) still needs a fold bag
    g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 0, -2)])
    t = TreeDecomposition([{0}, {0, 1}], [None, 0], 3)
    with pytest.raises(InvariantError):
        energy_values_tw(g, t)


def test_a_node_in_no_bag_is_named():
    # node 2 has edges but no bag; its root bag reads -1, which must not
    # index Python's last bag and blame the edge (1, 2) instead
    g = WeightedDigraph.from_edges(3, [(0, 1, -1), (1, 0, 2), (1, 2, 1), (2, 0, 1)])
    t = TreeDecomposition([{0}, {0, 1}], [None, 0], 3)
    for solve in (energy_values_tw, min_cycle):
        with pytest.raises(InvariantError, match="^node 2 is in no bag$"):
            solve(g, t)


@pytest.mark.parametrize("extra", [-1, 1])
def test_decomposition_of_another_node_count_is_refused(two_gadget, extra):
    g = two_gadget
    other = WeightedDigraph.from_edges(g.n + extra, [(0, 1, 1), (1, 0, 1)])
    t = build_decomposition(other)
    with pytest.raises(ValueError):
        nonpositive_values_tw(g, t)
    with pytest.raises(ValueError):
        energy_values_tw(g, t)


def test_augmented_graph_without_a_decomposition_is_refused(two_gadget, monkeypatch):
    built = []
    monkeypatch.setattr(energy_tw, "build_decomposition", lambda g: built.append(g))
    with pytest.raises(ValueError, match="decomposition"):
        nonpositive_values_tw(AugmentedGraph(two_gadget))
    with pytest.raises(ValueError, match="AugmentedGraph"):
        nonpositive_values_tw(AugmentedGraph(two_gadget), build_decomposition(two_gadget))
    assert built == []


def test_tw_solvers_build_no_augmented_graph(monkeypatch):
    graphs = [small_random(seed, wt=(-6, 6)) for seed in range(20)] + [_cascade_graph(1)]
    want = [(energy_values_tw(g), nonpositive_values_tw(g)) for g in graphs]

    def refuse(self, *args, **kw):
        raise AssertionError("AugmentedGraph built")

    monkeypatch.setattr(energy.AugmentedGraph, "__init__", refuse)
    assert [(energy_values_tw(g), nonpositive_values_tw(g)) for g in graphs] == want


# -- zero-energy discovery ---------------------------------------------------------------


def test_zero_set_matches_general_algorithm():
    for seed in range(80):
        g = small_random(seed, wt=(-6, 6))
        xs_general, _ = zero_energy_nodes(g)
        xs_tw, _ = _solved(g, build_decomposition(g))
        assert set(xs_tw) == set(xs_general), seed


def test_quiescence_means_no_nonpositive_cycle():
    for seed in range(40):
        g = small_random(seed, wt=(-5, 7))
        _, st = _solved(g, build_decomposition(g))
        st.initial_pass()  # a fresh pass over the final graph
        assert st.hot == [], seed


def test_five_chain_values_tw(five_chain):
    assert nonpositive_values_tw(five_chain) == [0, -2, -3, 0, -1]


# -- shortest paths to z ---------------------------------------------------------------


def _replayed(g: WeightedDigraph, xs: list[int], negate: bool = False) -> AugmentedGraph:
    """The final graph of the general algorithm's kill rule, run on xs in order."""
    ag = AugmentedGraph(g.negated() if negate else g)
    for w in xs:
        ag.kill(w)
    return ag


def _bf_dist_to_z(ag: AugmentedGraph) -> list:
    rev = [(v, u, w) for (u, v), w in ag.edges_alive()]
    dist, _, cycle = bellman_ford_edges(ag.z + 1, rev, source=ag.z)
    assert cycle is None
    return dist


def test_sssp_matches_bellman_ford_without_kills():
    for seed in range(40):
        g = small_random(seed, wt=(1, 9))  # positive weights: nothing to kill
        xs, st = _solved(g, build_decomposition(g))
        assert xs == [], seed
        assert sssp_to_z_treedec(st) == _bf_dist_to_z(AugmentedGraph(g)), seed


def test_sssp_matches_bellman_ford_after_kills():
    for seed in range(60):
        g = small_random(seed, wt=(-6, 8))
        xs, st = _solved(g, build_decomposition(g))
        got = sssp_to_z_treedec(st)
        ag = _replayed(g, xs)
        want = _bf_dist_to_z(ag)
        for u in range(ag.z + 1):
            if ag.alive[u]:
                assert got[u] == want[u], (seed, u)


def _loopy_graph(seed: int) -> WeightedDigraph:
    """Small random digraph with self-loops and 2-cycles."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    wts = {}
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.randrange(n)
        v = u if rng.random() < 0.15 else rng.randrange(n)
        wts[(u, v)] = rng.randint(-6, 6)
        if rng.random() < 0.3:
            wts[(v, u)] = rng.randint(-6, 6)
    return WeightedDigraph.from_edges(n, [(u, v, w) for (u, v), w in wts.items()])


@pytest.mark.parametrize("sign", [1, -1])
def test_kills_replayed_through_the_general_kill_rule(sign):
    loops_killed = 0
    for seed in range(150):
        g = _loopy_graph(seed)
        xs, st = _solved(g, build_decomposition(g), sign=sign)
        ag = _replayed(g, xs, negate=sign < 0)
        assert st.alive == ag.alive[: g.n], seed
        assert st.to_z == {x: ag.weight_of(x, ag.z) for x in ag.inc[ag.z]}, seed
        # every edge left, the sink's and the redirected ones included
        assert {e: tri[0] for e, tri in _lifted(st).items()} == dict(ag.edges_alive()), seed
        loops = {u for u, v in zip(g.src, g.dst) if u == v}
        loops_killed += sum(w in loops for w in xs)
    assert loops_killed >= 10


# -- full values ---------------------------------------------------------------


def test_values_match_general_and_fixpoint():
    for seed in range(120):
        g = small_random(seed, wt=(-7, 7))
        want = nonpositive_values(g)
        assert nonpositive_values_tw(g) == want, seed
        assert energy_values_tw(g) == energy_fixpoint(g), seed


def test_values_cover_inf_cases():
    g = WeightedDigraph.from_edges(3, [(0, 1, 4), (1, 0, -1), (1, 2, 0)])
    vals = energy_values_tw(g.negated())
    assert vals[2] is INF


def test_empty_and_single_node_graphs():
    assert energy_values_tw(WeightedDigraph(0, [])) == []
    assert energy_values_tw(WeightedDigraph(1, [])) == [INF]


def test_stats_are_filled_and_bounded():
    for seed in (3, 11, 29):
        g = small_random(seed, n_max=12, wt=(-6, 6))
        t = build_decomposition(g)
        stats = TwStats()
        vals = nonpositive_values_tw(g, t, stats)
        xs, _ = zero_energy_nodes(g)
        # kills are counted on the tree only; the min-step sets a zero on no cycle
        scc = tarjan_scc(g)
        cyclic = [component_has_cycle(g, scc, ci) for ci in range(len(scc.components))]
        assert stats.kills == sum(cyclic[scc.comp_of[u]] for u in xs)
        assert len(xs) == vals.count(0)
        assert stats.components == sum(cyclic) > 0
        # each component puts at most every bag in play once
        assert 0 < stats.initial_bags <= stats.components * len(t.bags)
        assert stats.update_bags >= 0 and stats.hot_discarded >= 0
        # each kill dirties at most its fold bags plus their ancestor chains
        ceiling = (g.m + g.n + 1) * (t.height + 3)
        assert stats.update_bags <= ceiling, (seed, stats.update_bags, ceiling)


def test_explicit_decomposition_is_respected(two_gadget):
    t = build_decomposition(two_gadget)
    assert nonpositive_values_tw(two_gadget, t) == nonpositive_values(two_gadget)


# -- kill rounds on cascades ---------------------------------------------------------------


def _cascade_graph(seed: int) -> WeightedDigraph:
    """Non-positive cycles plus chains of non-positive edges feeding them.

    The cycles (self-loops included) hold zero-energy nodes from the start.
    A chain x_k -> ... -> x_1 -> w of non-positive edges into such a node is
    zero-energy too, but x_1 only closes a non-positive cycle (through the
    sink) once w is killed and the edge (x_1, w) is redirected, so every
    link waits for the kill ahead of it. Chains may feed other chains, and
    positive cross edges tie the pieces together.
    """
    rng = random.Random(seed)
    edges = []
    n = 0
    targets = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 3)
        ws = [rng.randint(-3, 2) for _ in range(size)]
        ws[-1] -= max(0, sum(ws))
        edges += [(n + i, n + (i + 1) % size, ws[i]) for i in range(size)]
        targets += range(n, n + size)
        n += size
    for _ in range(rng.randint(2, 4)):
        ahead = rng.choice(targets)
        for _ in range(rng.randint(1, 4)):
            edges.append((n, ahead, rng.randint(-3, 0)))
            targets.append(n)
            ahead = n
            n += 1
    pairs = {(u, v) for u, v, _ in edges}
    for _ in range(rng.randint(0, n // 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in pairs:
            pairs.add((u, v))
            edges.append((u, v, rng.randint(1, 6)))
    return WeightedDigraph.from_edges(n, edges)


def _weights(rows):
    return [None if r is None else (r[0], list(zip(r[1::2], r[2::2]))) for r in rows]


def test_kill_rounds_on_cascades_match_the_references():
    most_rounds = 0
    batched = 0
    for seed in range(60):
        g = _cascade_graph(seed)
        want_xs, _ = zero_energy_nodes(g)
        want = nonpositive_values(g)
        want_std = energy_fixpoint(g.negated())
        for t in (
            build_decomposition(g),
            build_decomposition(g, balance=False),
            reversed_tree(g),
        ):
            stats = TwStats()
            xs, st = _solved(g, t, stats)
            assert len(xs) == len(set(xs)) == stats.kills, seed
            assert set(xs) == set(want_xs), seed
            assert sink_distance_values(st, sssp_to_z_treedec(st)) == want, seed
            rows = _weights(st.rows)
            st.initial_pass()  # a fresh pass over the final graph
            assert st.hot == [], seed
            # the repaired rows are the rows of a fresh pass over the final graph
            assert _weights(st.rows) == rows, seed
            assert energy_values_tw(g.negated(), t) == want_std, seed
            most_rounds = max(most_rounds, stats.rounds)
            batched += stats.rounds < stats.kills
    assert most_rounds >= 3  # the chains really cascade
    assert batched >= 1  # and some rounds kill several anchors at once


def test_unnormalized_decomposition_raises():
    g = WeightedDigraph.from_edges(2, [(0, 1, -1), (1, 0, 0)])
    t = TreeDecomposition([{0, 1}], [None], 2)  # one bag rooting both nodes
    with pytest.raises(InvariantError):  # raised as the state is built
        _solved(g, t)
    with pytest.raises(InvariantError):
        nonpositive_values_tw(g, t)
    # the sweeps refuse it too: skipping the check reads inf on a cycle of weight -1
    for solve in (min_cycle, mean_value, ratio_value, lambda g, t: decide_mean_geq(g, t, 0)):
        with pytest.raises(InvariantError):
            solve(g, t)


def test_rows_hold_only_ints_after_a_solve():
    for seed in range(6):
        g = gen_ktree(30, k=2, seed=seed, wt=(-4, 6))
        xs, st = _solved(g, build_decomposition(g))
        assert xs and any(st.rows), seed  # some nodes killed, some rows kept
        for row in st.rows:
            assert row is None or (
                type(row) is tuple and len(row) % 2 == 1
                and (row[0] is None or type(row[0]) is int)
                and all(type(x) is int for x in row[1:])
            ), seed


# -- one strongly connected component at a time ------------------------------------


def _three_trees(g):
    return build_decomposition(g), build_decomposition(g, balance=False), reversed_tree(g)


def _differential_graphs():
    for seed in range(12):
        yield gen_cfg_like(40, seed=seed, wt=(-6, 6))
        yield _cascade_graph(seed + 100)
        yield gen_ktree(30, k=1 + seed % 3, seed=seed, wt=(-8, 4), ensure_sc=False)
        yield gen_sparse_random(35, avg_degree=1.5 + seed % 3 / 2, seed=seed, wt=(-6, 6))


def test_per_component_solve_matches_general_and_oracle():
    several = 0
    for g in _differential_graphs():
        want = energy_values(g)
        assert energy_fixpoint(g) == want
        want_np = nonpositive_values(g)
        for t in _three_trees(g):
            stats = TwStats()
            assert energy_values_tw(g, t, stats) == want
            assert nonpositive_values_tw(g, t) == want_np
        several += stats.components > 1
    assert several >= 12  # a third of the graphs have more than one cyclic SCC


def test_exit_weight_carries_the_downstream_credit():
    # SCC {a0, a1} of cycle weight -10 can only leave. a1 leaves through the
    # chain c0 -> c1 -> c2 into SCC {b0, b1}, where b0 needs credit 3, so a1's
    # exit edge weighs 1 - 5: the credit 5 of c0 counts, not just the edge.
    # a0's own exit into b1 costs 12, more than the 5 + 4 through a1.
    a0, a1, c0, c1, c2, b0, b1 = range(7)
    g = WeightedDigraph.from_edges(7, [
        (a0, a1, -5), (a1, a0, -5), (a1, c0, 1), (c0, c1, -2), (c1, c2, 1),
        (c2, b0, -1), (b0, b1, -3), (b1, b0, 3), (a0, b1, -12),
    ])
    want = [9, 4, 5, 3, 4, 3, 0]
    assert energy_fixpoint(g) == energy_values(g) == want
    for t in _three_trees(g):
        stats = TwStats()
        assert energy_values_tw(g, t, stats) == want
        assert stats.components == 2
        assert nonpositive_values_tw(g.negated(), t) == [-v for v in want]


def test_a_long_chain_between_two_cycles_stays_out_of_play():
    n = 600
    edges = [(0, 1, -1), (1, 0, 2), (n - 2, n - 1, 3), (n - 1, n - 2, -3)]
    edges += [(u, u + 1, (-1) ** u) for u in range(1, n - 2)]
    g = WeightedDigraph.from_edges(n, edges)
    want = energy_fixpoint(g)
    for t in _three_trees(g):
        stats = TwStats()
        assert energy_values_tw(g, t, stats) == want
        assert stats.components == 2
        assert stats.initial_bags <= len(t.bags) // 10, (stats.initial_bags, len(t.bags))


def test_a_solved_component_leaves_nothing_in_play(monkeypatch):
    states = []
    solve = energy_tw.zero_energy_nodes_tw

    def keeping(st):
        states.append(st)
        return solve(st)

    monkeypatch.setattr(energy_tw, "zero_energy_nodes_tw", keeping)
    g = gen_ktree(400, 2, seed=0, ensure_sc=False)  # 7 cyclic SCCs
    energy_values_tw(g, build_decomposition(g))
    st = states[0]
    assert len(states) > 1 and all(s is st for s in states)
    # a finished component's maps and rows are dropped, not kept to the end
    assert not any(st.exported) and st.rows == [None] * len(st.rows)
    assert not any(st.alive) and st.to_z == {}


def test_a_member_rooted_outside_its_top_bags_subtree_raises():
    # every edge is covered by its fold bag, but node 0's bags {0} and
    # {0, 1} are not connected, so node 1's root bag hangs beside the top bag
    g = WeightedDigraph.from_edges(3, [(0, 1, -1), (1, 0, -1)])
    t = TreeDecomposition([{2}, {0}, {2}, {0, 1}], [None, 0, 0, 2], 3)
    with pytest.raises(InvariantError, match="top bag"):
        energy_values_tw(g, t)


def test_energy_solve_of_a_dag_builds_no_tree(monkeypatch):
    n = 20_000
    rng = random.Random(5)
    pairs = {(u, rng.randrange(u + 1, n)) for u in range(n - 1) for _ in range(2)}
    g = WeightedDigraph.from_edges(n, [(u, v, rng.randint(-9, 9)) for u, v in sorted(pairs)])
    built = []
    init = TreeDecomposition.__init__

    def counting_init(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(TreeDecomposition, "__init__", counting_init)
    stats = TwStats()
    assert energy_values_tw(g, stats=stats) == [INF] * n  # no infinite walk
    assert nonpositive_values_tw(g) == [NEG_INF] * n
    assert built == [] and stats == TwStats()


def _pinned_solves():
    """(g, t, solver) on seeded k-trees, cfg-like graphs and cascades under
    three trees each, both conventions."""
    for seed in range(3):
        for g in (
            gen_ktree(400, k=2 + seed % 2, seed=seed, ensure_sc=False),
            gen_cfg_like(200, seed=seed),
            _cascade_graph(seed),
            _cascade_graph(seed + 3),
        ):
            for t in (
                build_decomposition(g),
                build_decomposition(g, balance=False),
                reversed_tree(g),
            ):
                for solver in (energy_values_tw, nonpositive_values_tw):
                    yield g, t, solver


def test_energy_solver_is_pinned():
    """Per-node values of both conventions, so a rewrite of the energy
    solve keeps every output as it is."""
    h = hashlib.sha256()
    for g, t, solver in _pinned_solves():
        h.update(repr(solver(g, t)).encode())
    assert h.hexdigest() == "d92336c1ece0fe19d06795902b24543f4971e934a22bce4546885b97aa72deb9"


def test_energy_kill_lists_rows_and_stats_are_pinned(monkeypatch):
    """Kill lists in order, the final row weights of every bag in play per
    component and every TwStats field, so a rewrite of the energy state
    keeps every tie-break as it is."""
    seen = []
    solve = energy_tw.zero_energy_nodes_tw

    def recording(st):
        xs = solve(st)
        seen.append((xs, _weights([st.rows[b] for b in st.order])))
        return xs

    monkeypatch.setattr(energy_tw, "zero_energy_nodes_tw", recording)
    h = hashlib.sha256()
    for g, t, solver in _pinned_solves():
        stats = TwStats()
        solver(g, t, stats)
        assert len(seen) == stats.components
        h.update(repr((seen, astuple(stats))).encode())
        seen.clear()
    assert h.hexdigest() == "ae4854743ebb40eca69d948652dc7d4c22c8b8f81c59886e574e079f9ddc3521"
