from __future__ import annotations

import hashlib
import random

import pytest
from conftest import reversed_tree, sc_ktree, small_random

from graphvalues import mincycle
from graphvalues.generate import gen_ktree
from graphvalues.graph import INF, WeightedDigraph
from graphvalues.mincycle import min_cycle
from graphvalues.oracles import enumerate_cycles, min_cycle_weight_by_enumeration
from graphvalues.ratio import SearchStats, mean_value, ratio_value
from graphvalues.treedec import build_decomposition


def test_triangle_exact(triangle):
    r = min_cycle(triangle)
    assert r.value == 6 and r.exact
    assert not r.negative
    assert r.blowup_bound(triangle.m) == 1


def test_acyclic_is_inf_and_exact():
    g = WeightedDigraph.from_edges(4, [(0, 1, -5), (1, 2, -5), (2, 3, -5)])
    r = min_cycle(g)
    assert r.value is INF and r.exact


def test_single_node_no_edges():
    r = min_cycle(WeightedDigraph(1, []))
    assert r.value is INF and r.exact


def test_exact_on_nonnegative_weights():
    for seed in range(40):
        g = sc_ktree(seed, wt=(0, 12))
        want = min_cycle_weight_by_enumeration(enumerate_cycles(g))
        r = min_cycle(g)
        assert r.exact and r.value == want, seed


def test_contract_on_mixed_weights():
    negatives = 0
    for seed in range(120):
        g = small_random(seed, wt=(-9, 9))
        cstar = min_cycle_weight_by_enumeration(enumerate_cycles(g))
        r = min_cycle(g)
        if cstar is INF:
            assert r.value is INF and r.exact, seed
        elif cstar >= 0:
            # the sweep is exact whenever the true minimum is nonnegative
            assert r.exact and r.value == cstar, seed
        else:
            negatives += 1
            assert r.value < 0, seed  # sign is always right
            if r.exact:
                assert r.value == cstar, seed
            else:
                assert r.value <= cstar, seed
                assert abs(r.value) <= abs(cstar) * r.blowup_bound(g.m), seed
    assert negatives > 20


def test_peak_maps_within_height_budget():
    for seed in range(30):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        r = min_cycle(g, t)
        assert r.height == t.height
        assert r.peak_maps <= t.height + 1, (seed, r.peak_maps, t.height)


def test_peak_maps_within_height_budget_on_a_large_2_tree():
    # a depth-first postorder holds at most one finished map per level
    g = gen_ktree(10_000, 2, seed=1)
    for t in (build_decomposition(g), reversed_tree(g)):
        r = min_cycle(g, t)
        assert r.peak_maps <= t.height + 1, (r.peak_maps, t.height)


def test_weight_override_matches_rebuilt_graph():
    for seed in range(20):
        g = sc_ktree(seed)
        rng = random.Random(seed * 31)
        w = [rng.randint(0, 10) for _ in range(g.m)]
        r1 = min_cycle(g, weights=w)
        g2 = WeightedDigraph.from_edges(
            g.n, list(zip(g.src, g.dst, w))
        )
        r2 = min_cycle(g2)
        assert r1.exact and r2.exact and r1.value == r2.value, seed


def test_reweighted_sweep_signs_match_oracle():
    # sign exactness is what the ratio search relies on
    for seed in range(60):
        g = sc_ktree(seed, wt=(-10, 10))
        cstar = min_cycle_weight_by_enumeration(enumerate_cycles(g))
        r = min_cycle(g)
        assert ((r.value > 0) - (r.value < 0)) == ((cstar > 0) - (cstar < 0)), seed


def test_has_negative_cycle_agrees_with_enumeration():
    for seed in range(60):
        g = small_random(seed, wt=(-5, 7))
        cstar = min_cycle_weight_by_enumeration(enumerate_cycles(g))
        assert min_cycle(g).negative == (cstar is not INF and cstar < 0), seed


# -- sweeps on every tree kind -------------------------------------------------------


def _retained_maps(t):
    """Most child maps held at once when bags are swept in t.postorder()."""
    live = peak = 0
    for b in t.postorder():
        live += 1 - len(t.children[b])
        peak = max(peak, live)
    return peak


def _check_against_enumeration(g, r, t):
    assert r.height == t.height
    assert r.peak_maps == _retained_maps(t)
    if all(len(c) <= 2 for c in t.children):
        assert r.peak_maps <= t.height + 1  # holds on every binary tree
    # the closed walks are every diagonal read; the value is the least, doubled when negative
    assert (r.value == INF) == (not r.closed_walks)
    if r.closed_walks:
        least = min(r.closed_walks)
        assert r.value == (2 * least if least < 0 else least)
    cstar = min_cycle_weight_by_enumeration(enumerate_cycles(g))
    if cstar == INF:
        assert r.value == INF and r.exact
        return
    assert (r.value > 0) - (r.value < 0) == (cstar > 0) - (cstar < 0)  # sign always right
    assert r.value <= cstar
    if cstar >= 0:
        assert r.exact and r.value == cstar


def _pinned_rows(balanced):
    rows = []
    for seed in range(60):
        for g in (sc_ktree(seed, wt=(-10, 10)), small_random(seed, wt=(-9, 9))):
            raw = build_decomposition(g, balance=False)
            for t in (balanced(g, raw), raw):
                r = min_cycle(g, t)
                rows.append((r.value, r.height, r.peak_maps, r.exact))
    assert sum(r[0] < 0 for r in rows) == 182
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_sweep_results_are_pinned():
    """Every MinCycleResult field, negative undershoots included, is pinned
    by a digest of the results on reversed and raw trees, and by a second
    digest on the default trees, which comb the raw tree. The default
    digest's value, height and exact columns are those the uncompiled dict
    sweep gave; peak_maps follows the depth-first postorder."""
    reversed_ = _pinned_rows(lambda g, raw: reversed_tree(g))
    assert reversed_ == "3d8c125b3b4f56e4e3d657b88b8487ad9cf4c3e8c68dada9806eb0aa38ef2e98"
    default = _pinned_rows(lambda g, raw: build_decomposition(g))
    assert default == "ca266b031c537ef33a62d265eab2d79d12ee96215cf87adc8dee50bbc2c49680"


def _trees(g):
    yield "balanced", build_decomposition(g)
    yield "raw", build_decomposition(g, balance=False)
    yield "reversed", reversed_tree(g)


def _star(seed):
    """Hub 0 with a 2-cycle to each of 3..6 leaves, plus a few leaf chords;
    its raw elimination tree hangs every leaf bag off the hub's bag."""
    rng = random.Random(seed)
    k = rng.randint(3, 6)
    edges = [(0, v, rng.randint(-9, 9)) for v in range(1, k + 1)]
    edges += [(v, 0, rng.randint(-9, 9)) for v in range(1, k + 1)]
    edges += [(v, v + 1, rng.randint(-9, 9)) for v in range(1, k) if rng.random() < 0.2]
    return WeightedDigraph.from_edges(k + 1, edges)


def test_plan_matches_enumeration_on_every_tree_kind():
    makers = (lambda s: small_random(s, wt=(-9, 9)), lambda s: sc_ktree(s, wt=(-12, 12)), _star)
    wide = 0
    for seed in range(90):
        g = makers[seed % 3](seed)
        for kind, t in _trees(g):
            wide += kind == "raw" and any(len(c) > 2 for c in t.children)
            _check_against_enumeration(g, min_cycle(g, t), t)
    assert wide >= 10  # raw trees with bags of more than two children were swept


def test_repeated_sweeps_reuse_one_plan(monkeypatch):
    compiled = []
    real = mincycle.edge_fold_table

    def counting(g, t):
        compiled.append((g, t))
        return real(g, t)

    monkeypatch.setattr(mincycle, "edge_fold_table", counting)
    for seed in range(25):
        g = sc_ktree(seed, wt=(-10, 10))
        rng = random.Random(seed)
        for kind, t in _trees(g):
            compiled.clear()
            for _ in range(4):
                w = [rng.randint(-10, 10) for _ in range(g.m)]
                r = min_cycle(g, t, weights=w)
                g2 = WeightedDigraph.from_edges(g.n, list(zip(g.src, g.dst, w)))
                _check_against_enumeration(g2, r, t)
            assert compiled == [(g, t)], (seed, kind)


def test_same_tree_with_another_graph_recompiles():
    for seed in range(30):
        g = sc_ktree(seed, wt=(0, 9))
        t = build_decomposition(g)
        assert min_cycle(g, t).value == min_cycle_weight_by_enumeration(enumerate_cycles(g))
        cache = t.fold_cache
        # same skeleton, other orientation and weights: only some edges kept
        rng = random.Random(seed)
        kept = [(v, u, rng.randint(0, 9)) for u, v in zip(g.src, g.dst) if rng.random() < 0.7]
        h = WeightedDigraph.from_edges(g.n, kept)
        r = min_cycle(h, t)
        assert t.fold_cache is not cache and t.fold_cache[0] is h
        assert r.value == min_cycle_weight_by_enumeration(enumerate_cycles(h)), seed
        assert min_cycle(g, t).value == min_cycle_weight_by_enumeration(enumerate_cycles(g))
        assert t.fold_cache[0] is g


@pytest.mark.parametrize("extra", [-1, 1])
def test_decomposition_of_another_node_count_is_refused(triangle, extra):
    other = WeightedDigraph.from_edges(triangle.n + extra, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(ValueError):
        min_cycle(triangle, build_decomposition(other))


@pytest.mark.parametrize("solve", [mean_value, ratio_value])
def test_searches_compile_one_plan_per_decomposition(monkeypatch, solve):
    calls = []
    real = mincycle.edge_fold_table
    monkeypatch.setattr(mincycle, "edge_fold_table", lambda g, t: calls.append(t) or real(g, t))
    for seed in range(12):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        calls.clear()
        stats = SearchStats()
        solve(g, t, stats)
        assert stats.decisions > 1
        assert calls == [t], seed
    calls.clear()
    solve(g, None, SearchStats())  # a tree built by the search itself
    assert len(calls) == 1
