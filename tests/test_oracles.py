from __future__ import annotations

from fractions import Fraction
import tracemalloc
from itertools import product

import pytest
from conftest import sc_ktree, small_random

from graphvalues.graph import INF, WeightedDigraph
from graphvalues.oracles import (
    KARP_MAX_CELLS,
    OracleTooBigError,
    bellman_ford_edges,
    energy_fixpoint,
    enumerate_cycles,
    karp_mean,
    min_cycle_weight_by_enumeration,
    min_mean_by_enumeration,
    min_ratio_by_enumeration,
)


def test_triangle_has_one_cycle(triangle):
    cycles = enumerate_cycles(triangle)
    assert len(cycles) == 1
    c = cycles[0]
    assert c.nodes == (0, 1, 2)
    assert c.wt == 6 and c.wtp == 3
    assert c.mean == Fraction(2) and c.ratio == Fraction(2)
    assert min_cycle_weight_by_enumeration(cycles) == 6


def test_two_gadget_cycles(two_gadget):
    cycles = enumerate_cycles(two_gadget)
    assert sorted(c.wt for c in cycles) == [-2, 4]
    assert min_mean_by_enumeration(cycles) == Fraction(-1)
    assert min_cycle_weight_by_enumeration(cycles) == -2


def test_ratio_pair_value(ratio_pair):
    cycles = enumerate_cycles(ratio_pair)
    assert len(cycles) == 1
    assert min_ratio_by_enumeration(cycles) == Fraction(3, 2)


def test_enumeration_defaults_on_acyclic():
    g = WeightedDigraph.from_edges(3, [(0, 1, 5), (1, 2, -2)])
    assert enumerate_cycles(g) == []
    assert min_mean_by_enumeration([]) is INF
    assert min_ratio_by_enumeration([]) is INF
    assert min_cycle_weight_by_enumeration([]) is INF


def test_enumeration_cap_raises():
    # Bidirectional clique on 9 nodes has far more than 50 simple cycles.
    edges = [(u, v, 1) for u, v in product(range(9), repeat=2) if u != v]
    g = WeightedDigraph.from_edges(9, edges)
    with pytest.raises(OracleTooBigError):
        enumerate_cycles(g, cap=50)


def test_karp_matches_enumeration_on_sc_graphs():
    for seed in range(60):
        g = sc_ktree(seed)
        want = min_mean_by_enumeration(enumerate_cycles(g))
        assert karp_mean(g) == want, seed


def test_karp_rejects_disconnected():
    g = WeightedDigraph.from_edges(4, [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)])
    with pytest.raises(ValueError):
        karp_mean(g)


def test_karp_two_gadget(two_gadget):
    assert karp_mean(two_gadget) == Fraction(-1)


def test_karp_single_node_reads_its_self_loop():
    assert karp_mean(WeightedDigraph.from_edges(1, [(0, 0, -7)])) == Fraction(-7)
    with pytest.raises(ValueError, match="acyclic"):
        karp_mean(WeightedDigraph(1, []))


def _cycle(n: int) -> WeightedDigraph:
    return WeightedDigraph.from_edges(n, [(u, (u + 1) % n, 1) for u in range(n)])


def test_karp_refuses_a_table_past_its_cap_before_allocating():
    n = 1
    while (n + 1) * n <= KARP_MAX_CELLS:
        n += 1
    g = _cycle(n)  # the smallest cycle whose table is over the cap
    tracemalloc.start()
    try:
        with pytest.raises(OracleTooBigError, match="cells"):
            karp_mean(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < KARP_MAX_CELLS  # bytes: the table's pointers alone would be 8 per cell


def test_karp_cap_boundary(monkeypatch):
    monkeypatch.setattr("graphvalues.oracles.KARP_MAX_CELLS", 30)
    assert karp_mean(_cycle(5)) == Fraction(1)  # 6 * 5 = 30 cells
    with pytest.raises(OracleTooBigError):
        karp_mean(_cycle(6))  # 7 * 6 = 42 cells


def _brute_shortest_from_source(g: WeightedDigraph, source) -> list:
    """Shortest walk weights by |V|-1 rounds of direct relaxation."""
    dist = [0] * g.n if source is None else [INF] * g.n
    if source is not None:
        dist[source] = 0
    for _ in range(g.n - 1):
        for u, v, w in zip(g.src, g.dst, g.wt):
            if dist[u] is not INF and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
    return dist


def _triples(g: WeightedDigraph) -> list[tuple[int, int, int]]:
    return list(zip(g.src, g.dst, g.wt))


def test_bellman_ford_distances_match_brute_force():
    for seed in range(60):
        g = small_random(seed, wt=(0, 9))  # nonnegative: no negative cycles
        for source in (None, 0 if g.n else None):
            dist, pred, cycle = bellman_ford_edges(g.n, _triples(g), source)
            assert cycle is None
            assert dist == _brute_shortest_from_source(g, source), seed


def test_bellman_ford_witness_is_a_negative_cycle():
    found = 0
    for seed in range(120):
        g = small_random(seed, wt=(-6, 4))
        dist, pred, cycle = bellman_ford_edges(g.n, _triples(g))
        cycles = enumerate_cycles(g)
        has_neg = any(c.wt < 0 for c in cycles)
        assert (cycle is not None) == has_neg, seed
        if cycle is None:
            continue
        found += 1
        assert cycle[0] == cycle[-1]
        wt = {(u, v): w for u, v, w in zip(g.src, g.dst, g.wt)}
        total = sum(wt[(cycle[i], cycle[i + 1])] for i in range(len(cycle) - 1))
        assert total < 0, (seed, cycle, total)
    assert found > 10  # the regime actually exercises the witness path


def test_bellman_ford_edges_standalone():
    edges = [(0, 1, 2), (1, 2, -1), (2, 0, -2)]
    dist, pred, cycle = bellman_ford_edges(3, edges)
    assert cycle is not None and cycle[0] == cycle[-1]
    dist, pred, cycle = bellman_ford_edges(3, [(0, 1, 2), (1, 2, -1)], source=0)
    assert cycle is None
    assert dist == [0, 2, 1]


def test_energy_fixpoint_hand_cases():
    # 2-cycle +2 / -1: pumping from 0 at node 0; node 1 needs 1 up front.
    g = WeightedDigraph.from_edges(2, [(0, 1, 2), (1, 0, -1)])
    assert energy_fixpoint(g) == [0, 1]
    # 2-cycle summing negative: no infinite walk survives any credit.
    g = WeightedDigraph.from_edges(2, [(0, 1, 1), (1, 0, -3)])
    assert energy_fixpoint(g) == [INF, INF]
    # Sink node: no infinite walk at all.
    g = WeightedDigraph.from_edges(2, [(0, 1, 5)])
    assert energy_fixpoint(g) == [INF, INF]
    # Zero cycle survives exactly.
    g = WeightedDigraph.from_edges(2, [(0, 1, 1), (1, 0, -1)])
    assert energy_fixpoint(g) == [0, 1]


def test_energy_fixpoint_five_chain(five_chain):
    # Standard-convention energies of the negated fixture match the known
    # non-positive-convention energies of the fixture itself.
    assert energy_fixpoint(five_chain.negated()) == [0, 2, 3, 0, 1]
