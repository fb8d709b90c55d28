from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest
from conftest import reversed_tree, sc_ktree, small_random
from hypothesis import given
from hypothesis import strategies as st

from graphvalues import ratio
from graphvalues.generate import gen_cfg_like, gen_ktree, gen_sparse_random
from graphvalues.graph import (
    INF,
    InvariantError,
    WeightedDigraph,
    component_has_cycle,
    induced_subgraph,
    tarjan_scc,
)
from graphvalues.mincycle import min_cycle
from graphvalues.oracles import (
    bellman_ford_edges,
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
    values_all_nodes,
)
from graphvalues.treedec import TreeDecomposition, build_decomposition

# -- Stern-Brocot search ---------------------------------------------------------------


@given(
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_stern_brocot_search_finds_the_value_within_its_probe_bound(num, den, below, above):
    v = Fraction(num, den)
    lo, hi = math.ceil(v) - 1 - below, math.floor(v) + 1 + above
    probes = []

    def sign(x):
        probes.append(x)
        return (v > x) - (v < x)

    assert ratio._stern_brocot(sign, lo, hi, v.denominator) == v
    assert len(probes) <= 3 * (1 + math.log2(hi - lo) + math.log2(v.denominator))


@pytest.mark.parametrize("reading", [1, -1])
def test_stern_brocot_search_raises_past_the_denominator_bound(reading):
    # a sign that never reads 0 has no value of denominator <= 1000 behind it
    with pytest.raises(InvariantError, match="every denominator"):
        ratio._stern_brocot(lambda x: reading, -5, 5, 1000)


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
    with pytest.raises(ValueError, match="no cycle; mean value undefined"):
        mean_value(g)
    with pytest.raises(ValueError, match="no cycle; ratio value undefined"):
        ratio_value(g)
    with pytest.raises(ValueError, match="no cycle; mean value undefined"):
        decide_mean_geq(g, None, 0)
    with pytest.raises(ValueError, match="no cycle; ratio value undefined"):
        decide_ratio_geq(g, None, 0)


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
    known = {"zero-test", "newton", "rational-refine"}
    assert {p for p, _ in stats.probes} <= known
    before = stats.decisions
    mean_value(g, stats=stats)  # shared stats keep accumulating
    assert stats.decisions == 2 * before


# -- Newton search ---------------------------------------------------------------


def _tall_trees(g):
    yield "raw", build_decomposition(g, balance=False)
    yield "reversed", reversed_tree(g, balance=False)
    yield "balanced", build_decomposition(g)


def _largest_scc(n, deg, seed, wtp):
    g = gen_sparse_random(n, avg_degree=deg, seed=seed, wt=(-20, 20), wtp=wtp)
    return induced_subgraph(g, max(tarjan_scc(g).components, key=len))[0]


def _has_negative_cycle(g, nu):
    edges = [
        (u, v, nu.denominator * w - nu.numerator * wp)
        for u, v, w, wp in zip(g.src, g.dst, g.wt, g.wtp)
    ]
    return bellman_ford_edges(g.n, edges)[2] is not None


def test_newton_matches_karp_and_ratio_certificate_on_tall_trees():
    # nu is the ratio value iff no cycle is below nu and one is below
    # nu + 1/D**2: two ratios with denominators <= D differ by >= 1/D**2.
    for seed in range(4):
        g = _largest_scc(180, 3, seed, wtp=(2, 9))
        d_bound = g.n * max(g.wtp)
        mu = karp_mean(g)
        for kind, t in _tall_trees(g):
            assert t.height >= 40, (seed, kind)
            assert mean_value(g, t)[0] == mu, (seed, kind)
            nu, stats = ratio_value(g, t)
            assert not _has_negative_cycle(g, nu), (seed, kind)
            assert _has_negative_cycle(g, nu + Fraction(1, d_bound**2)), (seed, kind)
            assert {p for p, _ in stats.probes} <= {"zero-test", "newton"}, (seed, kind)


def test_newton_matches_enumeration_on_every_tree_kind():
    for seed in range(30):
        g = _largest_scc(60, 1.6, seed, wtp=(2, 7))
        if g.m == 0:
            continue
        cycles = enumerate_cycles(g)
        for kind, t in _tall_trees(g):
            assert mean_value(g, t)[0] == min_mean_by_enumeration(cycles), (seed, kind)
            assert ratio_value(g, t)[0] == min_ratio_by_enumeration(cycles), (seed, kind)


def _within_criterion_7(val, stats):
    a, b = val.numerator, val.denominator
    if a == 0:
        return stats.decisions <= 2
    return stats.decisions <= 8 * (1 + math.log2(max(2, abs(a * b)))) + 2


@pytest.mark.parametrize("cap", [0, 1])
def test_forced_fallback_stays_exact_and_within_budget(monkeypatch, cap):
    monkeypatch.setattr(ratio, "_newton_cap", lambda n, w_max, t_max: cap)
    fell_back = 0
    for seed in range(150):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        cycles = enumerate_cycles(g)
        for solve, want in ((mean_value, min_mean_by_enumeration), (ratio_value, min_ratio_by_enumeration)):
            stats = SearchStats()
            val, _ = solve(g, t, stats)
            assert val == want(cycles), (seed, solve.__name__)
            assert _within_criterion_7(val, stats), (seed, solve.__name__, stats.decisions)
            assert stats.count("newton") <= cap + 1
            fell_back += stats.count("rational-refine") > 0
    assert fell_back >= 50


def test_forced_fallback_searches_the_stern_brocot_tree(monkeypatch):
    total = worst = 0
    for cap in (0, 1):
        monkeypatch.setattr(ratio, "_newton_cap", lambda n, w_max, t_max: cap)
        for seed in range(150):
            g = sc_ktree(seed)
            t = build_decomposition(g)
            cycles = enumerate_cycles(g)
            for solve, want in ((mean_value, min_mean_by_enumeration), (ratio_value, min_ratio_by_enumeration)):
                stats = SearchStats()
                assert solve(g, t, stats)[0] == want(cycles), (cap, seed, solve.__name__)
                total += stats.decisions
                worst = max(worst, stats.decisions)
    # bisecting to width 1/D**2 and verifying took 4678 sweeps, 19 at worst
    assert total <= 3300 and worst <= 16, (total, worst)
    # wt' up to 300 puts denominators in the hundreds, whose continued
    # fractions have partial quotients (runs of same-side steps) up to 386
    monkeypatch.setattr(ratio, "_newton_cap", lambda n, w_max, t_max: 0)
    for seed in range(150):
        g = sc_ktree(seed, wtp=(1, 300))
        stats = SearchStats()
        val, _ = ratio_value(g, build_decomposition(g), stats)
        assert val == min_ratio_by_enumeration(enumerate_cycles(g)), seed
        assert _within_criterion_7(val, stats), (seed, stats.decisions)


def _ring(n, seed):
    """A ring 0 -> 1 -> ... -> n-1 -> 0 of mostly negative edges with
    positive edges back: the best cycles are long."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        v = (u + 1) % n
        edges.append((u, v, rng.randint(-9, 3), rng.randint(1, 30)))
        edges.append((v, u, rng.randint(10, 20), rng.randint(1, 30)))
    return WeightedDigraph.from_edges(n, edges)


def _ring_chain(n):
    """The ring eaten from node 0 on: bag {i, i+1, n-1} under bag i + 1, a
    tall path of bags (multiple minimum degree gives the ring a shallow one)."""
    bags = [{i, i + 1, n - 1} for i in range(n - 2)] + [{n - 2, n - 1}, {n - 1}]
    return TreeDecomposition(bags, list(range(1, n)) + [None], n)


def test_packed_walks_stay_below_the_packing_base(monkeypatch):
    seen = []
    real = ratio.min_cycle

    def recording(g, t=None, weights=None):
        r = real(g, t, weights=weights)
        seen.append(r)
        return r

    monkeypatch.setattr(ratio, "min_cycle", recording)
    for seed in range(6):
        g = _ring(60, seed)
        t = _ring_chain(g.n)
        assert t.height >= 40
        cycles = enumerate_cycles(g)
        for solve, want, t_max in (
            (ratio_value, min_ratio_by_enumeration, max(g.wtp)),
            (mean_value, min_mean_by_enumeration, 1),
        ):
            k = 2 ** (t_max.bit_length() + t.height + 3)
            seen.clear()
            assert solve(g, t)[0] == want(cycles), (seed, solve.__name__)
            sums = [v % k for r in seen for v in r.closed_walks + [r.value]]
            assert max(sums) >= g.n  # the whole ring was packed
            for s in sums:
                assert 1 <= s <= t_max * 2 ** (t.height + 2) < k, (seed, s, k)


def test_newton_never_records_exponential():
    phases = set()
    for seed in range(200):
        g = sc_ktree(seed)
        for solve in (mean_value, ratio_value):
            stats = SearchStats()
            solve(g, stats=stats)
            assert stats.count("zero-test") == 1
            phases |= {p for p, _ in stats.probes}
    assert phases == {"zero-test", "newton"}


def test_a_positive_zero_test_starts_newton_at_its_best_closed_walk():
    # the benchmark's ktree-ratio input: the zero test's sweep already reads
    # the best 2-cycle, so one Newton sweep confirms it
    g = gen_ktree(2500, k=2, wt=(1, 20), wtp=(17, 20), ensure_sc=True, seed=1)
    val, stats = ratio_value(g)
    assert val == Fraction(1, 20)
    assert stats.probes == [("zero-test", 0), ("newton", Fraction(1, 20))]


def test_newton_starts_between_the_value_and_the_largest_edge_ratio():
    total = 0
    for seed in range(150):
        g = sc_ktree(seed, wt=(1, 20))  # every cycle positive: the zero test reads c > 0
        cycles = enumerate_cycles(g)
        for solve, want, wtp in (
            (mean_value, min_mean_by_enumeration, [1] * g.m),
            (ratio_value, min_ratio_by_enumeration, g.wtp),
        ):
            val, stats = solve(g)
            assert val == want(cycles), (seed, solve.__name__)
            first = next(lam for phase, lam in stats.probes if phase == "newton")
            top = max(Fraction(a, b) for a, b in zip(g.wt, wtp))
            assert val <= first <= top, (seed, solve.__name__)
            total += stats.decisions
    assert total <= 660  # starting at the largest edge ratio took 1017


# case ->(solve(g, t, stats), the phases it records over the corpus)
_SWEEP_COUNTED = {
    "mean": (mean_value, {"zero-test", "newton"}),
    "ratio": (ratio_value, {"zero-test", "newton"}),
    "fallback": (ratio_value, {"zero-test", "newton", "rational-refine"}),
    "decide": (lambda g, t, stats: decide_mean_geq(g, t, Fraction(-1, 3), stats), {"decide"}),
    "approx": (lambda g, t, stats: approx_mean(g, t, Fraction(1, 10), stats), {"zero-test", "newton", "bisect"}),
}


@pytest.mark.parametrize("case", sorted(_SWEEP_COUNTED))
def test_each_decision_is_one_min_cycle_call(monkeypatch, case):
    # The bench's mincycle.sweeps counter wraps ratio.min_cycle, so it
    # matches SearchStats only if every recorded decision is one such call.
    calls = []
    real = ratio.min_cycle

    def counting(g, t=None, weights=None):
        calls.append(g)
        return real(g, t, weights=weights)

    monkeypatch.setattr(ratio, "min_cycle", counting)
    if case == "fallback":
        monkeypatch.setattr(ratio, "_newton_cap", lambda n, w_max, t_max: 0)
    if case == "approx":  # Newton finishes on every seed here, so force the bisection
        monkeypatch.setattr(ratio, "_approx_cap", lambda n, eps: 0)
    solve, want = _SWEEP_COUNTED[case]
    phases = set()
    for seed in range(20):
        g = sc_ktree(seed)
        stats = SearchStats()
        calls.clear()
        solve(g, build_decomposition(g), stats)
        assert len(calls) == stats.decisions > 0, (case, seed)
        phases |= {p for p, _ in stats.probes}
    assert phases == want


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
    for u, v in zip(g.src, g.dst):
        reach[u][v] = True
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


def test_per_node_singletons_with_and_without_self_loops():
    # Singleton SCCs: 1, 3 and 5 carry self-loops; 0, 2, 8, 9 and 10 do not.
    g = WeightedDigraph.from_edges(11, [
        (0, 1, 2), (1, 1, 1, 2), (1, 2, 0), (2, 3, 1), (3, 3, 4), (2, 4, 7),
        (5, 5, 5, 3), (5, 0, 1), (4, 6, 1), (6, 7, 2), (7, 6, 4), (8, 4, 0), (10, 9, 1),
    ])
    mean, ratio = mean_values_all_nodes(g), ratio_values_all_nodes(g)
    assert mean == _oracle_values_per_node(g, "mean")
    assert ratio == _oracle_values_per_node(g, "ratio")
    half = Fraction(1, 2)
    assert mean == [1, 1, 3, 4, 3, 1, 3, 3, 3, INF, INF]
    assert ratio == [half, half, 3, 4, 3, half, 3, 3, 3, INF, INF]


def test_per_node_karp_cross_check():
    for seed in range(25):
        g = sc_ktree(seed)
        vals = mean_values_all_nodes(g)
        assert len(tarjan_scc(g)) == 1
        assert vals == [karp_mean(g)] * g.n, seed


def test_values_all_nodes_takes_reachable_minimum():
    # 0 -> 1 -> 2, each a singleton with a self-loop, solved to 3, 1 and 2
    g = WeightedDigraph.from_edges(3, [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (2, 2, 0)])
    seen = []

    def solve(sub):
        assert sub.n == 1 and sub.m == 1
        seen.append(sub.labels[0])
        return {"0": 3, "1": 1, "2": 2}[sub.labels[0]]

    assert values_all_nodes(g, solve) == [1, 1, 2]
    assert seen == ["2", "1", "0"]


def test_values_all_nodes_handles_inf_components():
    # a path into a 2-cycle: node 0 is on no cycle but reaches one
    g = WeightedDigraph.from_edges(3, [(0, 1, 0), (1, 2, 5), (2, 1, -5)])
    seen = []

    def solve(sub):
        seen.append(sorted(sub.labels))
        return Fraction(0)

    assert values_all_nodes(g, solve) == [0, 0, 0]
    assert seen == [["1", "2"]]
    # a DAG: no component is solved and every node reads INF
    dag = WeightedDigraph.from_edges(5, [(0, 1, 1), (0, 2, -3), (1, 3, 2), (2, 3, 0), (4, 2, 7)])

    def never(sub):
        raise AssertionError("solve called on an acyclic component")

    assert values_all_nodes(dag, never) == [INF] * 5


def test_values_all_nodes_solves_each_cyclic_component_once_in_tarjan_order():
    for seed in range(80):
        g = small_random(seed)
        subs = []

        def solve(sub):
            subs.append(sub)
            return Fraction(len(subs))

        values_all_nodes(g, solve)
        scc = tarjan_scc(g)
        cyclic = [c for ci, c in enumerate(scc.components) if component_has_cycle(g, scc, ci)]
        assert [sorted(map(int, sub.labels)) for sub in subs] == [sorted(c) for c in cyclic], seed
        if len(scc) == 1 and cyclic:  # the component is all of g: no copy
            assert subs == [g], seed


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


def _sc_2tree(n, seed, wt=(-10, 10)):
    """A strongly connected 2-tree with no 2-cycle: a directed triangle, then
    each new node v on a skeleton edge {a, b} gets the edges a -> v and
    v -> b, so every cycle is longer than 2 edges."""
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (2, 0)]
    cliques = [(0, 1), (1, 2), (0, 2)]
    for v in range(3, n):
        a, b = rng.sample(rng.choice(cliques), 2)
        edges += [(a, v), (v, b)]
        cliques += [(a, v), (b, v)]
    return WeightedDigraph.from_edges(n, [(u, v, rng.randint(*wt)) for u, v in edges])


def test_approx_never_sweeps_more_than_the_exact_search():
    epsilons = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))
    cases = [(sc_ktree(seed), epsilons) for seed in range(100)]
    long_optimum = _sc_2tree(2000, seed=1)
    assert len(tarjan_scc(long_optimum)) == 1
    cases.append((long_optimum, (Fraction(1, 100),)))
    total = 0
    for g, eps_list in cases:
        t = build_decomposition(g)
        exact, exact_stats = mean_value(g, t)
        for eps in eps_list:
            stats = SearchStats()
            mu, _ = approx_mean(g, t, eps, stats)
            assert stats.decisions <= exact_stats.decisions, (g.n, eps)
            if not stats.count("bisect"):
                assert mu == exact, (g.n, eps)
            total += stats.decisions
    # 656 here, 654 of them on the k-trees, where shifting the weights by
    # the zero test's value and bisecting took 2386
    assert total <= 660, total


@pytest.mark.parametrize("cap", [0, 1])
def test_forced_bisection_keeps_the_error_bound_and_step_budget(monkeypatch, cap):
    monkeypatch.setattr(ratio, "_approx_cap", lambda n, eps: cap)
    bisected = 0
    for wt in ((-20, 20), (-5000, 5000), (1, 20)):
        for seed in range(100):
            g = sc_ktree(seed, wt=wt)
            t = build_decomposition(g)
            mu_star = min_mean_by_enumeration(enumerate_cycles(g))
            for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
                stats = SearchStats()
                mu, _ = approx_mean(g, t, eps, stats)
                assert abs(mu - mu_star) <= eps * abs(mu_star), (wt, seed, eps)
                eps_eff = eps / (1 + g.n * g.m * 2**t.height)  # criterion 5's budget
                budget = math.ceil(math.log2(g.n) + math.log2(1 / eps_eff)) + 2
                assert stats.count("bisect") <= budget, (wt, seed, eps)
                assert stats.count("newton") <= cap + 1
                bisected += stats.count("bisect") > 0
    assert bisected >= 100, bisected


def test_approx_exact_when_mean_is_zero():
    g = WeightedDigraph.from_edges(2, [(0, 1, 1), (1, 0, -1)])
    mu, stats = approx_mean(g, eps=Fraction(1, 10))
    assert mu == 0
    assert stats.count("bisect") == 0


def test_mean_and_ratio_values_are_pinned():
    """tw's per-node mean and ratio values on seeded k-trees (strongly
    connected or not, wt' > 1 included), sparse random and cfg-like graphs,
    so a rewrite of the graph store keeps every value as it is."""
    h = hashlib.sha256()
    for seed in range(3):
        for g in (
            gen_ktree(120, k=2, seed=seed, wt=(-9, 9), wtp=(1, 5)),
            gen_ktree(150, k=1 + seed, seed=seed, wt=(-9, 9), wtp=(1, 3), ensure_sc=False),
            gen_sparse_random(60, 2, seed=seed, wt=(-7, 7), wtp=(1, 4)),
            gen_cfg_like(200, seed=seed),
        ):
            vals = (mean_values_all_nodes(g), ratio_values_all_nodes(g))
            h.update(repr(vals).encode())
    assert h.hexdigest() == "fadc2ecddfc8d8c7e8a25f0e7c5d7a670c52cde96122469425924e9502037a4f"
