"""The benchmark's workloads: how each makes its input, runs one job and
checks the answer.

A job starts from the DIMACS text and ends with per-node values: parse,
tree decomposition (min-degree elimination, then balancing, exactly what
the solvers build when given none), then the solver. Everything a layer
metric needs is recorded through the tracer passed in; with
:class:`spans.Untraced` the same calls run without spans.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from graphvalues import (
    SearchStats,
    TwStats,
    WeightedDigraph,
    balance_and_binarize,
    build_decomposition,
    energy_values_tw,
    mean_values_all_nodes,
    ratio_values_all_nodes,
    to_dimacs,
)
from graphvalues.generate import gen_ktree
from graphvalues.graph import Edge, parse_any

import cfg
import checks

PHASES = ("zero-test", "exponential", "binary", "rational-refine")


def build(tr, g):
    """The decomposition every solver here runs on, recorded per build."""
    raw = tr.call("treedec.eliminate", build_decomposition, g, "min-degree", False)
    t = tr.call("treedec.balance", balance_and_binarize, raw)
    if tr.tracing:
        tr.count("treedec.builds")
        tr.count("treedec.bags", len(t.bags))
        tr.peak("treedec.width", t.width)
        tr.peak("treedec.height", t.height)
    return t


def cycle_values(tr, g, solver):
    stats = SearchStats()
    vals = tr.call("ratio", solver, g, partial(build, tr), stats)
    if tr.tracing:
        tr.count("ratio.decisions", stats.decisions)
        tr.count("ratio.components", stats.count("zero-test"))
        for phase in PHASES:
            tr.count(f"ratio.decisions.{phase}", stats.count(phase))
    return vals


def energies(tr, g):
    t = build(tr, g)
    stats = TwStats()
    vals = tr.call("energy_tw", energy_values_tw, g, t, stats)
    if tr.tracing:
        tr.count("energy_tw.kills", stats.kills)
        tr.count("energy_tw.initial_bags", stats.initial_bags)
        tr.count("energy_tw.update_bags", stats.update_bags)
        tr.count("energy_tw.hot_discarded", stats.hot_discarded)
    return vals


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is in README.md and BENCHMARK.json."""

    name: str
    make: Callable  # (tracer, seed) -> DIMACS text
    solve: Callable  # (tracer, text) -> answer
    check: Callable  # (text, answer) -> None, or why the answer is wrong


# -- ktree-ratio: one strongly connected 2-tree, per-node minimum cycle ratio --

RATIO_N = 2500
# wt' from 17..20 keeps the value off dyadic fractions (it lies near 1/20),
# so the search always runs its whole rational-refine phase; with 1..20 the
# value is 1/16 on about one seed in eight and the search stops after 6
# decisions instead of 35.
RATIO_GEN = dict(k=2, wt=(1, 20), wtp=(17, 20), ensure_sc=True)


def make_ktree_ratio(tr, seed):
    g = tr.call("generate.gen", gen_ktree, RATIO_N, seed=seed, **RATIO_GEN)
    return to_dimacs(g)


def solve_ktree_ratio(tr, text):
    g = tr.call("graph.parse", parse_any, text)
    return cycle_values(tr, g, ratio_values_all_nodes)


def check_ktree_ratio(text, vals):
    return checks.check_cycle_values(text, vals, ratio=True)


# -- cfg-analysis: structured control flow, per-node mean and energy -----------

CFG_BLOCKS = 5000
CFG_WT = (-10, 10)


def _cfg_graph(seed):
    n, raw = cfg.structured_cfg(CFG_BLOCKS, seed, CFG_WT)
    return WeightedDigraph(n, [Edge(u, v, w) for u, v, w in raw])


def make_cfg(tr, seed):
    return to_dimacs(tr.call("generate.gen", _cfg_graph, seed))


def solve_cfg(tr, text):
    g = tr.call("graph.parse", parse_any, text)
    return cycle_values(tr, g, mean_values_all_nodes), energies(tr, g)


def check_cfg(text, answer):
    means, credits = answer
    return checks.check_cycle_values(text, means, ratio=False) or checks.check_energy(text, credits)


# -- ktree-energy: a 2-tree that is not strongly connected, per-node energy ----

ENERGY_N = 10000
ENERGY_GEN = dict(k=2, wt=(-25, 1), ensure_sc=False)


def make_ktree_energy(tr, seed):
    g = tr.call("generate.gen", gen_ktree, ENERGY_N, seed=seed, **ENERGY_GEN)
    return to_dimacs(g)


def solve_ktree_energy(tr, text):
    return energies(tr, tr.call("graph.parse", parse_any, text))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ktree-ratio", make_ktree_ratio, solve_ktree_ratio, check_ktree_ratio),
        Workload("cfg-analysis", make_cfg, solve_cfg, check_cfg),
        Workload("ktree-energy", make_ktree_energy, solve_ktree_energy, checks.check_energy),
    )
}
