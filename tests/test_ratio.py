from __future__ import annotations

import math
from fractions import Fraction

import pytest
from conftest import sc_ktree, small_random
from hypothesis import given
from hypothesis import strategies as st

from graphvalues.graph import INF, WeightedDigraph, tarjan_scc
from graphvalues.mincycle import min_cycle
from graphvalues.oracles import (
    enumerate_cycles,
    karp_mean,
    min_mean_by_enumeration,
    min_ratio_by_enumeration,
)
from graphvalues.ratio import (
    SearchStats,
    approx_mean,
    decide_mean_geq,
    decide_ratio_geq,
    mean_value,
    mean_values_all_nodes,
    ratio_value,
    ratio_values_all_nodes,
    simplest_between,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


# -- simplest_between ---------------------------------------------------------------


@given(rationals, rationals)
def test_simplest_between_lands_strictly_inside(a, b):
    if a == b:
        with pytest.raises(ValueError):
            simplest_between(a, b)
        return
    lo, hi = min(a, b), max(a, b)
    r = simplest_between(lo, hi)
    assert lo < r < hi


@given(rationals, rationals)
def test_simplest_between_minimizes_denominator(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    r = simplest_between(lo, hi)
    # nothing with a smaller denominator fits in the open interval
    for q in range(1, r.denominator):
        lo_p = math.floor(lo * q) + 1
        hi_p = math.ceil(hi * q) - 1
        for p in range(lo_p, hi_p + 1):
            assert not lo < Fraction(p, q) < hi, (lo, hi, p, q)


def test_simplest_between_hand_cases():
    assert simplest_between(Fraction(0), Fraction(1)) == Fraction(1, 2)
    assert simplest_between(Fraction(-1), Fraction(1)) == 0
    assert simplest_between(Fraction(5, 2), Fraction(7, 2)) == 3
    assert simplest_between(Fraction(13, 10), Fraction(14, 10)) == Fraction(4, 3)
    assert simplest_between(Fraction(-14, 10), Fraction(-13, 10)) == Fraction(-4, 3)


# -- exact values ---------------------------------------------------------------


def test_ratio_pair_value(ratio_pair):
    v, stats = ratio_value(ratio_pair)
    assert v == Fraction(3, 2)
    assert stats.decisions >= 1


def test_mean_hand_values(triangle, two_gadget):
    assert mean_value(triangle)[0] == 2
    assert mean_value(two_gadget)[0] == -1


def test_value_raises_on_acyclic():
    g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="no cycle"):
        mean_value(g)
    with pytest.raises(ValueError, match="no cycle"):
        ratio_value(g)


def test_exact_values_match_enumeration():
    for seed in range(120):
        g = sc_ktree(seed)
        cycles = enumerate_cycles(g)
        assert mean_value(g)[0] == min_mean_by_enumeration(cycles), seed
        assert ratio_value(g)[0] == min_ratio_by_enumeration(cycles), seed


def test_stats_accumulate_and_phase_names():
    stats = SearchStats()
    g = sc_ktree(4)
    mean_value(g, stats=stats)
    assert stats.decisions == len(stats.probes)
    assert stats.count("zero-test") == 1
    known = {"zero-test", "exponential", "binary", "rational-refine"}
    assert {p for p, _ in stats.probes} <= known
    before = stats.decisions
    mean_value(g, stats=stats)  # shared stats keep accumulating
    assert stats.decisions == 2 * before


# -- decision procedures ---------------------------------------------------------------


def test_decide_mean_truth_table(two_gadget):
    g = two_gadget
    assert decide_mean_geq(g, None, Fraction(-1))
    assert decide_mean_geq(g, None, Fraction(-2))
    assert not decide_mean_geq(g, None, Fraction(-1, 2))


def test_decide_ratio_truth_table(ratio_pair):
    g = ratio_pair
    assert decide_ratio_geq(g, None, Fraction(3, 2))
    assert decide_ratio_geq(g, None, Fraction(1))
    assert not decide_ratio_geq(g, None, Fraction(2))


def test_decide_raises_on_acyclic():
    g = WeightedDigraph.from_edges(2, [(0, 1, 3)])
    with pytest.raises(ValueError):
        decide_mean_geq(g, None, Fraction(0))


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=8))
def test_decide_mean_agrees_with_value(num, den):
    g = sc_ktree(17)
    mu = mean_value(g)[0]
    nu = Fraction(num, den)
    assert decide_mean_geq(g, None, nu) == (mu >= nu)


# -- per-node values ---------------------------------------------------------------


def _oracle_values_per_node(g: WeightedDigraph, attr: str) -> list:
    cycles = enumerate_cycles(g)
    reach = [[False] * g.n for _ in range(g.n)]
    for u in range(g.n):
        reach[u][u] = True
    for e in g.edges:
        reach[e.src][e.dst] = True
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                for j in range(g.n):
                    if reach[k][j]:
                        reach[i][j] = True
    vals = []
    for u in range(g.n):
        best = INF
        for c in cycles:
            if reach[u][c.nodes[0]]:
                v = getattr(c, attr)
                if best is INF or v < best:
                    best = v
        vals.append(best)
    return vals


def test_per_node_values_match_reachability_oracle():
    for seed in range(60):
        g = small_random(seed, n_max=10, wt=(-9, 9))
        assert mean_values_all_nodes(g) == _oracle_values_per_node(g, "mean"), seed
        assert ratio_values_all_nodes(g) == _oracle_values_per_node(g, "ratio"), seed


def test_per_node_inf_for_cycle_free_nodes():
    g = WeightedDigraph.from_edges(3, [(0, 1, 4), (1, 0, -2), (0, 2, 1)])
    vals = mean_values_all_nodes(g)
    assert vals == [1, 1, INF]


def test_per_node_karp_cross_check():
    for seed in range(25):
        g = sc_ktree(seed)
        vals = mean_values_all_nodes(g)
        assert len(tarjan_scc(g)) == 1
        assert vals == [karp_mean(g)] * g.n, seed


# -- approximation ---------------------------------------------------------------


def test_approx_eps_domain():
    g = sc_ktree(1)
    for bad in (0, 1, -1, Fraction(3, 2)):
        with pytest.raises(ValueError):
            approx_mean(g, eps=bad)
    with pytest.raises(ValueError, match="no cycle"):
        approx_mean(WeightedDigraph.from_edges(2, [(0, 1, 1)]), eps=Fraction(1, 2))


def test_approx_relative_error_and_step_budget():
    for seed in range(60):
        g = sc_ktree(seed)
        mu_star = min_mean_by_enumeration(enumerate_cycles(g))
        base = min_cycle(g)
        for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
            stats = SearchStats()
            mu, _ = approx_mean(g, eps=eps, stats=stats)
            assert abs(mu - mu_star) <= eps * abs(mu_star), (seed, eps, mu, mu_star)
            eps_eff = eps / (1 + g.n * base.blowup_bound(g.m))
            budget = math.ceil(math.log2(g.n) + math.log2(1 / eps_eff)) + 2
            assert stats.count("bisect") <= budget, (seed, eps)


def test_approx_exact_when_mean_is_zero():
    g = WeightedDigraph.from_edges(2, [(0, 1, 1), (1, 0, -1)])
    mu, stats = approx_mean(g, eps=Fraction(1, 10))
    assert mu == 0
    assert stats.count("bisect") == 0
