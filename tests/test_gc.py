"""The solve pipeline runs with Python's cyclic collector paused.

The pause is safe only because the pipeline builds no reference cycles, so
these tests check that premise directly, check that each paused stage hands
the collector back in the state it found it, and check that the collector
is really off while a stage runs.
"""
from __future__ import annotations

import gc

import pytest

from graphvalues import energy_tw, graph, ratio, treedec
from graphvalues.energy_tw import energy_values_tw, nonpositive_values_tw
from graphvalues.generate import gen_cfg_like, gen_ktree, gen_sparse_random
from graphvalues.graph import ParseError, WeightedDigraph, parse_any, to_dimacs
from graphvalues.ratio import mean_values_all_nodes, ratio_values_all_nodes
from graphvalues.treedec import balance_and_binarize, build_decomposition

INPUTS = {
    "ktree": lambda seed: gen_ktree(300, 3, seed=seed, wt=(-8, 8), wtp=(1, 4), ensure_sc=False),
    "cfg-like": lambda seed: gen_cfg_like(300, seed=seed),
    "sparse-random": lambda seed: gen_sparse_random(300, 2, seed=seed, wt=(-6, 6)),
}


@pytest.fixture
def collector():
    """Puts the collector back as the test found it."""
    was = gc.isenabled()
    yield
    gc.enable() if was else gc.disable()


# Each paused stage, called on a graph, its text and its raw tree, with a
# module attribute it looks up while it runs. For mean_values_all_nodes that
# is build_decomposition, itself a paused stage, which nests
# balance_and_binarize in turn.
STAGES = {
    "parse_any": (lambda g, text, raw: parse_any(text), graph, "_parse_dimacs"),
    "build_decomposition": (lambda g, text, raw: build_decomposition(g), treedec, "_eliminate"),
    "balance_and_binarize": (
        lambda g, text, raw: balance_and_binarize(raw), treedec, "TreeDecomposition"
    ),
    "mean_values_all_nodes": (lambda g, text, raw: mean_values_all_nodes(g), ratio, "build_decomposition"),
    "ratio_values_all_nodes": (lambda g, text, raw: ratio_values_all_nodes(g), ratio, "tarjan_scc"),
    "energy_values_tw": (lambda g, text, raw: energy_values_tw(g), energy_tw, "zero_energy_nodes_tw"),
    "nonpositive_values_tw": (
        lambda g, text, raw: nonpositive_values_tw(g), energy_tw, "zero_energy_nodes_tw"
    ),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("stage", STAGES)
def test_the_collector_is_off_inside_a_stage_and_restored_after(collector, monkeypatch, stage, enabled):
    run, module, attr = STAGES[stage]
    g = INPUTS["ktree"](1)
    text, raw = to_dimacs(g), build_decomposition(g, "min-degree", False)
    orig = getattr(module, attr)
    inside = []

    def spy(*args, **kw):
        inside.append(gc.isenabled())
        result = orig(*args, **kw)
        inside.append(gc.isenabled())
        return result

    monkeypatch.setattr(module, attr, spy)
    gc.enable() if enabled else gc.disable()
    run(g, text, raw)
    assert inside and not any(inside)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_the_constructor_runs_with_the_collector_off(collector, enabled):
    inside = []

    def rows():
        for row in [(0, 1, 5, 1), (1, 0, -2, 3)]:
            inside.append(gc.isenabled())
            yield row

    gc.enable() if enabled else gc.disable()
    WeightedDigraph(2, rows())
    with pytest.raises(ValueError, match="duplicate"):
        WeightedDigraph(2, [(0, 1, 5, 1), (0, 1, 6, 1)])
    assert inside == [False, False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_parse_error_leaves_the_collector_as_it_found_it(collector, enabled):
    gc.enable() if enabled else gc.disable()
    with pytest.raises(ParseError):
        parse_any("p mrc 2 1\na 1 3 5\n")
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("seed", [1, 2])
def test_the_pipeline_leaves_no_cyclic_garbage(kind, seed):
    text = to_dimacs(INPUTS[kind](seed))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # unreachable cycles go to gc.garbage, not away
    try:
        g = parse_any(text)
        t = build_decomposition(g)
        mean_values_all_nodes(g)
        ratio_values_all_nodes(g)
        energy_values_tw(g, t)
        del g, t
        found = gc.collect()
        garbage = [type(x).__name__ for x in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert found == 0
    assert garbage == []
