"""Acceptance gate: one test per shipped guarantee, run with `pytest -v` so
each criterion reports its own pass/fail line.

Numbered criteria:
  1 fixture energies exact on both energy modules, < 10 ms
  2 triple algebra: frozen example + 1000 randomized prefix scans
  3 exact mean/ratio equal enumeration on 500 SC k-trees, karp agrees, < 60 s
  4 three-way energy equivalence + decision consistency on 300 instances, < 120 s
  5 approximation: relative-error guarantee and bisection-step budget
  6 sweep contract: exact when the minimum is nonnegative, bounded otherwise
  7 oracle-call budget for exact values (C=8, C'=2, frozen here)
  8 scaling smoke on k-trees n in {1e3, 1e4, 1e5}
  9 decomposition validity everywhere + separator spot checks
"""
from __future__ import annotations

import gc
import math
import random
import time
from collections import deque
from fractions import Fraction

from conftest import sc_ktree, small_random

from graphvalues.energy import NEG_INF, decision_energy, energy_values, nonpositive_values
from graphvalues.energy_tw import energy_values_tw, nonpositive_values_tw, triple_plus
from graphvalues.generate import gen_ktree
from graphvalues.graph import INF, WeightedDigraph
from graphvalues.mincycle import min_cycle
from graphvalues.oracles import (
    energy_fixpoint,
    enumerate_cycles,
    karp_mean,
    min_cycle_weight_by_enumeration,
    min_mean_by_enumeration,
    min_ratio_by_enumeration,
)
from graphvalues.ratio import SearchStats, approx_mean, mean_value, ratio_value
from graphvalues.treedec import build_decomposition, validate

FIVE_CHAIN = WeightedDigraph.from_edges(
    5,
    [(0, 1, -2), (1, 2, -1), (2, 3, 3), (3, 4, -1), (4, 1, -1)],
    labels=["u", "v", "w", "x", "y"],
)

def _best_of(fn, reps: int = 5) -> float:
    best = INF
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_fixture_energies_exact_and_fast():
    want = [0, -2, -3, 0, -1]
    assert nonpositive_values(FIVE_CHAIN) == want
    assert nonpositive_values_tw(FIVE_CHAIN) == want
    t_general = _best_of(lambda: nonpositive_values(FIVE_CHAIN))
    t_tw = _best_of(lambda: nonpositive_values_tw(FIVE_CHAIN))
    assert t_general < 0.010, f"general path took {t_general * 1e3:.2f} ms"
    assert t_tw < 0.010, f"decomposition path took {t_tw * 1e3:.2f} ms"


def test_criterion_2_triple_algebra():
    assert triple_plus((-4, "b1", 6), (-2, "b2", 9)) == (-6, "b1", 6)
    rng = random.Random(424242)
    for trial in range(1000):
        L = rng.randint(1, 14)
        wts = [rng.randint(-10, 10) for _ in range(L)]
        acc = None
        for i, w in enumerate(wts):
            part = (w, i + 1, w) if w > 0 else (w, i, 0)
            acc = part if acc is None else triple_plus(acc, part)
        run = best = 0
        anchor = 0
        for i, w in enumerate(wts):
            run += w
            if run > best:
                best, anchor = run, i + 1
        assert acc == (sum(wts), anchor, best), (trial, wts)


def test_criterion_3_exact_values_match_enumeration_oracle():
    t0 = time.perf_counter()
    validated = 0
    for seed in range(500):
        g = sc_ktree(seed)  # n <= 10, k <= 3, wt in [-20, 20], wt' in [1, 5]
        t = build_decomposition(g)
        assert validate(t, g) is None
        validated += 1
        cycles = enumerate_cycles(g)
        assert mean_value(g, t)[0] == min_mean_by_enumeration(cycles), seed
        assert ratio_value(g, t)[0] == min_ratio_by_enumeration(cycles), seed
        assert karp_mean(g) == min_mean_by_enumeration(cycles), seed
    assert validated == 500
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion-3 suite took {elapsed:.1f}s"


def test_criterion_4_energy_three_way_equivalence_and_decisions():
    t0 = time.perf_counter()
    validated = 0
    for seed in range(300):
        g = small_random(seed, n_max=12, wt=(-7, 7))
        t = build_decomposition(g)
        assert validate(t, g) is None
        validated += 1
        vals = nonpositive_values(g)
        assert nonpositive_values_tw(g, t) == vals, seed
        assert energy_values(g.negated()) == energy_fixpoint(g.negated()), seed
        assert energy_values_tw(g.negated()) == energy_fixpoint(g.negated()), seed
        for u in range(g.n):
            e = vals[u]
            if e is NEG_INF:
                assert not decision_energy(g, u, 0), (seed, u)
                assert not decision_energy(g, u, -1), (seed, u)
            else:
                assert decision_energy(g, u, e), (seed, u)
                assert decision_energy(g, u, e - 1), (seed, u)
                if e + 1 <= 0:
                    assert not decision_energy(g, u, e + 1), (seed, u)
    assert validated == 300
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"criterion-4 suite took {elapsed:.1f}s"


def test_criterion_5_approximation_error_and_step_budget():
    validated = 0
    for seed in range(100):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        assert validate(t, g) is None
        validated += 1
        mu_star = min_mean_by_enumeration(enumerate_cycles(g))
        for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
            stats = SearchStats()
            mu, _ = approx_mean(g, t, eps=eps, stats=stats)
            assert abs(mu - mu_star) <= eps * abs(mu_star), (seed, eps)
            eps_eff = eps / (1 + g.n * g.m * 2**t.height)
            budget = math.ceil(math.log2(g.n) + math.log2(1 / eps_eff)) + 2
            assert stats.count("bisect") <= budget, (seed, eps)
    assert validated == 100


def test_criterion_6_sweep_contract():
    for seed in range(500):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        cstar = min_cycle_weight_by_enumeration(enumerate_cycles(g))
        r = min_cycle(g, t)
        if cstar >= 0:
            assert r.exact and r.value == cstar, seed
        else:
            assert r.value <= cstar, seed
            assert abs(r.value) <= abs(cstar) * r.blowup_bound(g.m), seed
        assert r.peak_maps <= t.height + 1, seed


def test_criterion_7_decision_budget():
    C, C_PRIME = 8, 2  # frozen: worst observed decisions / (1 + log2 max(2, |a*b|)) is 1.5 here
    for seed in range(500):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        for solve in (mean_value, ratio_value):
            stats = SearchStats()
            val, _ = solve(g, t, stats)
            a, b = val.numerator, val.denominator
            if a == 0:
                assert stats.decisions <= 2, (seed, solve.__name__, stats.decisions)
            else:
                bound = C * (1 + math.log2(max(2, abs(a * b)))) + C_PRIME
                assert stats.decisions <= bound, (seed, solve.__name__, stats.decisions)


def test_criterion_8_scaling_smoke():
    times = {}
    validated = 0
    for n in (10**3, 10**4, 10**5):
        g = gen_ktree(n, 2, seed=11, wt=(-25, 1), ensure_sc=True)
        t = build_decomposition(g)
        assert validate(t, g) is None
        validated += 1
        assert t.height <= 6 * math.log2(n), (n, t.height)
        t0 = time.perf_counter()
        vals_tw = energy_values_tw(g, t)
        times[n] = time.perf_counter() - t0
        if n == 10**3:
            t0 = time.perf_counter()
            vals_general = energy_values(g)
            general_s = time.perf_counter() - t0
            assert vals_general == vals_tw
            assert general_s < 30, f"general energy took {general_s:.1f}s at n=1e3"
        del g, t, vals_tw
        gc.collect()
    assert validated == 3
    ratio = times[10**5] / times[10**4]
    assert ratio < 25, f"time(1e5)/time(1e4) = {ratio:.1f}"


def _connected_avoiding(g: WeightedDigraph, a: int, b: int, banned: frozenset) -> bool:
    adj = [set() for _ in range(g.n)]
    for u, v in zip(g.src, g.dst):
        adj[u].add(v)
        adj[v].add(u)
    seen, q = {a}, deque([a])
    while q:
        x = q.popleft()
        if x == b:
            return True
        for y in adj[x]:
            if y not in seen and y not in banned:
                seen.add(y)
                q.append(y)
    return False


def test_criterion_9_decomposition_validity_and_separators():
    # criteria 3, 4, 5 and 8 count the decompositions they validate
    validated = 0
    for seed in range(25):
        g = small_random(seed, n_max=12)
        t = build_decomposition(g)
        assert validate(t, g) is None
        validated += 1
        nb = len(t.bags)
        sub_nodes = [set(t.rooted[b]) for b in range(nb)]
        for b in t.postorder():
            for c in t.children[b]:
                sub_nodes[b] |= sub_nodes[c]
        for b in range(nb):
            p = t.parent[b]
            if p is None:
                continue
            sep = t.bags[b] & t.bags[p]
            inside = sub_nodes[b] - sep
            outside = set(range(g.n)) - sub_nodes[b] - sep
            for a in inside:
                for z in outside:
                    assert not _connected_avoiding(g, a, z, sep), (seed, b, a, z)
    assert validated == 25
