"""Infinite values are recognised by value, not by identity: an infinity
computed afresh (equal to INF but another object) reads like INF everywhere."""
from __future__ import annotations

from fractions import Fraction

import pytest

from graphvalues import cli, energy, energy_tw, ratio
from graphvalues.energy import NEG_INF, AugmentedGraph, sink_distance_values
from graphvalues.graph import INF, WeightedDigraph, to_dimacs
from graphvalues.mincycle import MinCycleResult
from graphvalues.treedec import build_decomposition


def fresh_inf() -> float:
    x = 1e308 * 10
    assert x == INF and x is not INF
    return x


def test_formatters_print_fresh_inf():
    assert cli._frac_text(fresh_inf()) == "inf"
    assert cli._int_text(fresh_inf()) == "inf"
    assert cli._frac_text(Fraction(3, 2)) == "3/2"
    assert cli._int_text(7) == "7"


@pytest.fixture
def pair_file(tmp_path, ratio_pair):
    p = tmp_path / "pair.gr"
    p.write_text(to_dimacs(ratio_pair))
    return str(p)


def test_cli_prints_fresh_inf_values(pair_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "values_all_nodes", lambda g, solve: [fresh_inf()] * g.n)
    assert cli.main(["mean", pair_file, "--algo", "karp"]) == 0
    assert capsys.readouterr().out == "1\tinf\n2\tinf\n"
    monkeypatch.setattr(cli, "energy_values", lambda g: [fresh_inf(), 4])
    assert cli.main(["energy", pair_file, "--algo", "general"]) == 0
    assert capsys.readouterr().out == "1\tinf\n2\t4\n"


def test_sink_distance_readout_maps_fresh_inf():
    ag = AugmentedGraph(WeightedDigraph.from_edges(3, [(0, 1, 2), (1, 2, 3)]))
    vals = sink_distance_values(ag, [fresh_inf(), 3, 1, 0])
    assert vals == [NEG_INF, -3, -1]
    assert vals[0] is NEG_INF


@pytest.mark.parametrize(
    "module, inner, outer",
    [
        (energy, "nonpositive_values", energy.energy_values),
        (energy_tw, "_values_tw", energy_tw.energy_values_tw),
    ],
)
def test_energy_readouts_map_fresh_neg_inf(monkeypatch, module, inner, outer):
    monkeypatch.setattr(module, inner, lambda *a, **k: [-fresh_inf(), -2, 0])
    vals = outer(WeightedDigraph(3, []))
    assert vals == [INF, 2, 0]
    assert vals[0] is INF


def test_sign_of_fresh_inf_sweep_is_acyclic(monkeypatch, ratio_pair):
    r = MinCycleResult(fresh_inf(), 0, 1, True)
    assert not r.negative
    monkeypatch.setattr(ratio, "min_cycle", lambda g, t=None, weights=None: r)
    t = build_decomposition(ratio_pair)
    assert ratio._RatioSearch(ratio_pair, t, None).sign(Fraction(0), "zero-test") is None
    with pytest.raises(ValueError, match="no cycle"):
        ratio.mean_value(ratio_pair, t)
