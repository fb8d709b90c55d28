"""Self-tests of the benchmark: each answer check accepts the solver's
answer and rejects a perturbed one, and tracing leaves graphvalues as it
found it.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import cfg  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from graphvalues import (  # noqa: E402
    WeightedDigraph,
    energy_values_tw,
    mean_values_all_nodes,
    ratio_values_all_nodes,
    to_dimacs,
)
from graphvalues import ratio as ratio_module  # noqa: E402
from graphvalues.generate import gen_ktree  # noqa: E402
from graphvalues.graph import Edge, parse_any  # noqa: E402

INF = math.inf


def dimacs(n, edges):
    return to_dimacs(WeightedDigraph(n, [Edge(*e) for e in edges]))


def cfg_text(seed, blocks=300):
    n, raw = cfg.structured_cfg(blocks, seed)
    return dimacs(n, raw)


def neighbours(x: Fraction, d: int) -> tuple[Fraction, Fraction]:
    """The closest fractions below and above x with denominator <= d."""
    below = max(Fraction(math.ceil(x * b) - 1, b) for b in range(1, d + 1))
    above = min(Fraction(math.floor(x * b) + 1, b) for b in range(1, d + 1))
    return below, above


@pytest.mark.parametrize("seed", [1, 2])
def test_ratio_check_rejects_neighbouring_fractions(seed):
    g = gen_ktree(60, seed=seed, **workloads.RATIO_GEN)
    text = to_dimacs(g)
    vals = ratio_values_all_nodes(g)
    assert checks.check_cycle_values(text, vals, ratio=True) is None
    (x,) = set(vals)  # one strongly connected component
    below, above = neighbours(x, g.n * 20)
    assert "no cycle attains" in checks.check_cycle_values(text, [below] * g.n, ratio=True)
    assert "below" in checks.check_cycle_values(text, [above] * g.n, ratio=True)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mean_check_on_structured_cfg(seed):
    text = cfg_text(seed)
    n, _ = checks.parse_dimacs(text)
    vals = mean_values_all_nodes(parse_any(text))
    assert checks.check_cycle_values(text, vals, ratio=False) is None
    finite = [u for u in range(n) if vals[u] != INF]
    assert finite and len(finite) < n  # loops and loop-free tails both occur
    for u in (finite[0], finite[-1]):
        bad = list(vals)
        bad[u] = vals[u] + Fraction(1, 7)
        assert checks.check_cycle_values(text, bad, ratio=False) is not None
    u = next(u for u in range(n) if vals[u] == INF)
    bad = list(vals)
    bad[u] = Fraction(0)
    assert checks.check_cycle_values(text, bad, ratio=False) is not None
    # Mean and ratio agree when every wt' is 1.
    assert checks.check_cycle_values(text, vals, ratio=True) is None


def energy_cases():
    yield "ktree", to_dimacs(gen_ktree(300, seed=5, **workloads.ENERGY_GEN))
    yield "cfg", cfg_text(4)


@pytest.mark.parametrize("name,text", list(energy_cases()))
def test_energy_check_rejects_off_by_one(name, text):
    vals = energy_values_tw(parse_any(text))
    assert checks.check_energy(text, vals) is None
    positive = [u for u, e in enumerate(vals) if 0 < e < INF]
    zero = [u for u, e in enumerate(vals) if e == 0]
    assert positive and zero
    for u, delta in ((positive[0], 1), (positive[-1], -1), (zero[0], 1)):
        bad = list(vals)
        bad[u] += delta
        assert checks.check_energy(text, bad) is not None, (u, delta)


def test_energy_check_needs_more_than_the_fixpoint():
    # u=0 -> v=1 weighs -1, v -> u weighs +1: a zero cycle; E = (1, 0).
    text = dimacs(2, [(0, 1, -1), (1, 0, 1)])
    assert checks.check_energy(text, [1, 0]) is None
    # Both are fixpoints of E(u) = min max(0, E(v) - wt), but too large.
    assert "tight" in checks.check_energy(text, [3, 2])
    assert "nonnegative" in checks.check_energy(text, [INF, INF])
    # A negative cycle leaves both nodes at inf.
    text = dimacs(2, [(0, 1, -1), (1, 0, 0)])
    assert checks.check_energy(text, [INF, INF]) is None
    assert checks.check_energy(text, [1, 0]) is not None


def test_acyclic_reach_must_be_inf():
    text = dimacs(3, [(0, 1, 4), (1, 2, -3)])
    assert checks.check_cycle_values(text, [INF] * 3, ratio=False) is None
    assert checks.check_cycle_values(text, [INF, INF, Fraction(0)], ratio=False) is not None
    assert checks.check_cycle_values(text, [INF, INF, 0.0], ratio=False) is not None


def test_structured_cfg_is_seeded_and_single_entry():
    assert cfg.structured_cfg(500, 9) == cfg.structured_cfg(500, 9)
    assert cfg.structured_cfg(500, 9) != cfg.structured_cfg(500, 10)
    n, edges = cfg.structured_cfg(500, 9)
    assert 500 <= n < 600
    succ = [[] for _ in range(n)]
    for u, v, _ in edges:
        succ[u].append(v)
    seen, stack = {0}, [0]
    while stack:
        for v in succ[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == n


def test_tracer_restores_the_library_and_covers_the_job():
    original = ratio_module.min_cycle
    w = workloads.WORKLOADS["cfg-analysis"]
    text = cfg_text(2)
    tr = spans.Tracer()
    with tr:
        assert ratio_module.min_cycle is not original
        answer = tr.call(spans.JOB, w.solve, tr, text)
    assert ratio_module.min_cycle is original
    assert w.check(text, answer) is None
    job_spans, counts = tr.take_job()
    # Every decision of the search is one sweep the tracer saw.
    assert counts["mincycle.sweeps"] == counts["ratio.decisions"] > 0
    assert counts["energy_tw.initial_bags"] > 0
    own = spans.self_times(job_spans)
    wall = (job_spans[0][2] - job_spans[0][1]) / 1e9
    assert sum(own.values()) == pytest.approx(wall)
    assert set(own) <= set(spans.SELF_TIME) | {spans.JOB}
