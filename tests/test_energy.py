from __future__ import annotations

import pytest
from conftest import small_random

from graphvalues.energy import (
    NEG_INF,
    AugmentedGraph,
    decide_initial_credit,
    decision_energy,
    detect_nonpositive_cycle,
    energy_values,
    highest_energy_node,
    nonpositive_values,
    zero_energy_nodes,
)
from graphvalues.graph import INF, InvariantError, WeightedDigraph
from graphvalues.oracles import (
    energy_fixpoint,
    enumerate_cycles,
    min_cycle_weight_by_enumeration,
)


def test_five_chain_nonpositive_values(five_chain):
    assert nonpositive_values(five_chain) == [0, -2, -3, 0, -1]


def test_five_chain_standard_convention(five_chain):
    assert energy_values(five_chain.negated()) == [0, 2, 3, 0, 1]
    assert energy_values(five_chain.negated()) == energy_fixpoint(five_chain.negated())


def test_five_chain_zero_set_discovery(five_chain):
    xs, ag = zero_energy_nodes(five_chain)
    assert xs == [3, 0]
    assert ag.alive == [False, True, True, False, True, True]
    assert sorted(ag.weights) == [(1, 2), (2, 5), (4, 1), (5, 1), (5, 2), (5, 4)]


# -- augmented graph bookkeeping ---------------------------------------------------


def test_augmented_graph_construction(two_gadget):
    ag = AugmentedGraph(two_gadget)
    assert ag.z == 3
    assert all(ag.alive)
    for u in range(3):
        assert ag.weight_of(ag.z, u) == 0
    assert ag.weight_of(0, 1) == -1
    assert ag.weight_of(1, 0) == -1
    assert ag.weight_of(0, 2) is None


def test_augmented_graph_collapses_parallel_to_minimum():
    g = WeightedDigraph.from_edges(2, [(0, 1, 5), (1, 0, -2)])
    ag = AugmentedGraph(g)
    # the z->u edges are parallel to nothing; graph edges survive as given
    assert ag.weight_of(0, 1) == 5
    assert ag.weight_of(1, 0) == -2


def test_kill_redirects_and_bookkeeps(five_chain):
    ag = AugmentedGraph(five_chain)
    removed_in, removed_out = ag.kill(1)
    # in-edges from live non-z sources are redirected to z at their weight
    assert removed_in == [(0, -2, True), (4, -1, True)]
    assert removed_out == [(2, -1)]
    assert not ag.alive[1]
    assert ag.weight_of(0, ag.z) == -2
    assert ag.weight_of(4, ag.z) == -1
    assert ag.weight_of(ag.z, 1) is None
    assert ag.weight_of(1, 2) is None


def test_kill_keeps_cheapest_redirect():
    # two victims redirect the same source to z; the smaller weight wins
    g = WeightedDigraph.from_edges(3, [(0, 1, 7), (0, 2, 3), (1, 0, 1), (2, 0, 1)])
    ag = AugmentedGraph(g)
    ri1, _ = ag.kill(1)
    assert ri1 == [(0, 7, True)]
    ri2, _ = ag.kill(2)
    assert ri2 == [(0, 3, True)]
    assert ag.weight_of(0, ag.z) == 3
    # a later, more expensive redirect would not lower it
    g2 = WeightedDigraph.from_edges(3, [(0, 1, 3), (0, 2, 7), (1, 0, 1), (2, 0, 1)])
    ag2 = AugmentedGraph(g2)
    ag2.kill(1)
    ri, _ = ag2.kill(2)
    assert ri == [(0, 7, False)]
    assert ag2.weight_of(0, ag2.z) == 3


def test_kill_rejects_z_and_dead(two_gadget):
    ag = AugmentedGraph(two_gadget)
    with pytest.raises(InvariantError):
        ag.kill(ag.z)
    ag.kill(0)
    with pytest.raises(InvariantError):
        ag.kill(0)


def test_kill_drops_self_loop_once():
    g = WeightedDigraph.from_edges(2, [(0, 0, -1), (0, 1, 2), (1, 0, 2)])
    ag = AugmentedGraph(g)
    removed_in, removed_out = ag.kill(0)
    # the self-loop appears as neither a redirect nor a duplicate
    assert (0, -1, True) not in removed_in
    assert ag.weight_of(0, ag.z) is None


# -- cycle detection ---------------------------------------------------------------


def test_detection_presence_matches_enumeration():
    hits = 0
    for seed in range(150):
        g = small_random(seed, wt=(-5, 8))
        cyc = detect_nonpositive_cycle(g)
        cstar = min_cycle_weight_by_enumeration(enumerate_cycles(g))
        has = cstar is not INF and cstar <= 0
        assert (cyc is not None) == has, seed
        if cyc is not None:
            hits += 1
            assert cyc[0] == cyc[-1]
            wts = dict(zip(zip(g.src, g.dst), g.wt))
            assert sum(wts[(cyc[i], cyc[i + 1])] for i in range(len(cyc) - 1)) <= 0
    assert hits > 30


def test_detection_catches_zero_cycles_exactly():
    g = WeightedDigraph.from_edges(3, [(0, 1, 2), (1, 0, -2), (1, 2, 5), (2, 1, 1)])
    cyc = detect_nonpositive_cycle(g)
    assert cyc is not None
    assert set(cyc) == {0, 1}


def test_detection_on_augmented_graph(five_chain):
    ag = AugmentedGraph(five_chain)
    cyc = detect_nonpositive_cycle(ag)
    assert cyc is not None
    # v -> w -> x -> y -> v weighs 0; the only non-positive cycle here
    inner = set(cyc) - {ag.z}
    assert inner == {1, 2, 3, 4}


# -- highest-energy node ---------------------------------------------------------------


def test_highest_energy_node_picks_first_peak():
    wts = {(0, 1): -2, (1, 2): 3, (2, 0): -1}
    wf = lambda a, b: wts[(a, b)]
    node, peak = highest_energy_node([0, 1, 2, 0], wf)
    assert (node, peak) == (2, 1)
    # all prefixes negative: the empty prefix at the start node wins
    wts2 = {(0, 1): -1, (1, 0): -1}
    node, peak = highest_energy_node([0, 1, 0], lambda a, b: wts2[(a, b)])
    assert (node, peak) == (0, 0)


def test_highest_energy_node_ties_go_to_earliest():
    wts = {(0, 1): 2, (1, 2): -2, (2, 0): 2, (0, 3): 0, (3, 0): -2}
    walk = [0, 1, 2, 0]
    node, peak = highest_energy_node(walk, lambda a, b: wts[(a, b)])
    assert (node, peak) == (1, 2)  # positions 1 and 3 tie at 2; first wins


def test_highest_energy_node_skip():
    wts = {(0, 1): 1, (1, 2): 1, (2, 0): -2}
    node, peak = highest_energy_node([0, 1, 2, 0], lambda a, b: wts[(a, b)], skip={2})
    assert (node, peak) == (1, 1)
    with pytest.raises(InvariantError):
        highest_energy_node([0, 1, 0], lambda a, b: 0, skip={0, 1})


# -- full value computation ---------------------------------------------------------------


def test_values_match_fixpoint_oracle():
    for seed in range(120):
        g = small_random(seed, wt=(-7, 7))
        want = energy_fixpoint(g)
        assert energy_values(g) == want, seed


def test_values_unreachable_is_neg_inf():
    g = WeightedDigraph.from_edges(3, [(0, 1, 4), (1, 0, -1), (1, 2, 0)])
    vals = nonpositive_values(g)
    assert vals[2] is NEG_INF
    assert energy_values(g.negated())[2] is INF


def test_decision_energy_validates_credit(five_chain):
    with pytest.raises(ValueError):
        decision_energy(five_chain, 0, 1)
    with pytest.raises(ValueError):
        decide_initial_credit(five_chain, 0, -1)


def test_decision_energy_consistent_with_values():
    for seed in range(80):
        g = small_random(seed, n_max=9, wt=(-6, 6))
        vals = nonpositive_values(g)
        for u in range(g.n):
            e = vals[u]
            if e is NEG_INF:
                assert not decision_energy(g, u, 0)
                assert not decision_energy(g, u, -3)
            else:
                # survival is monotone downward: credit <= E(u) succeeds
                assert decision_energy(g, u, e), (seed, u, e)
                assert decision_energy(g, u, e - 1), (seed, u, e)
                if e + 1 <= 0:
                    assert not decision_energy(g, u, e + 1), (seed, u, e)


def test_decide_initial_credit_standard_convention(five_chain):
    g = five_chain.negated()  # standard energies (0, 2, 3, 0, 1)
    assert decide_initial_credit(g, 0, 0)
    assert decide_initial_credit(g, 1, 2)
    assert not decide_initial_credit(g, 1, 1)
    assert decide_initial_credit(g, 2, 3)
    assert not decide_initial_credit(g, 2, 2)
