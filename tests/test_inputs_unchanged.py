"""No solver changes the graph it is given.

Solvers read the graph's weight columns in place (``g.wt``, ``g.wtp``)
instead of copying them, so every public solve is checked against a deep
copy of the graph's columns and indexes taken before it ran.
"""
from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from graphvalues.cli import _PROBLEMS
from graphvalues.generate import gen_cfg_like, gen_ktree, gen_sparse_random
from graphvalues.mincycle import min_cycle
from graphvalues.ratio import approx_mean, decide_mean_geq, decide_ratio_geq
from graphvalues.treedec import build_decomposition


def _state(g):
    return copy.deepcopy((g.n, g.src, g.dst, g.wt, g.wtp, g.labels, g.out, g.inc))


def _solves():
    """(name, call on g) for every public solve that reads the columns."""
    for problem, spec in _PROBLEMS.items():
        for algo, solve in spec.algos.items():
            yield f"{problem}/{algo}", lambda g, solve=solve, spec=spec: solve(g, build_decomposition, spec.stats())
    yield "approx_mean", lambda g: approx_mean(g, build_decomposition(g), Fraction(1, 3))
    yield "decide_mean_geq", lambda g: decide_mean_geq(g, build_decomposition(g), Fraction(-1, 2))
    yield "decide_ratio_geq", lambda g: decide_ratio_geq(g, build_decomposition(g), Fraction(-1, 2))
    yield "min_cycle", lambda g: min_cycle(g, build_decomposition(g), weights=[w - 1 for w in g.wt])
    yield "negated", lambda g: g.negated()


@pytest.mark.parametrize(
    "g",
    [
        # every one has a negative mean, so after the zero test each search
        # sweeps weights reweighted at some lam < 0
        gen_ktree(14, 2, seed=3, wt=(-9, 4), wtp=(1, 4)),
        gen_ktree(10, 1, seed=5, wt=(-6, 6), wtp=(1, 3)),
        gen_sparse_random(9, 2, seed=2, wt=(-5, 5), wtp=(1, 2)),
        gen_cfg_like(12, seed=1, wt=(-5, 3)),
    ],
    ids=["ktree2", "ktree1", "sparse", "cfg"],
)
def test_no_solver_changes_its_input_graph(g):
    before = _state(g)
    names = []
    for name, solve in _solves():
        solve(g)
        assert _state(g) == before, name
        names.append(name)
    assert len(names) == 13
