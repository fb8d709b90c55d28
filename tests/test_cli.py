from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import graphvalues
from graphvalues import cli, treedec
from graphvalues.cli import main
from graphvalues.energy import decide_initial_credit
from graphvalues.energy_tw import TwStats, energy_values_tw
from graphvalues.generate import gen_cfg_like, gen_ktree, gen_sparse_random
from graphvalues.graph import (
    DIMACS_MAX_NODES,
    INF,
    WeightedDigraph,
    component_has_cycle,
    tarjan_scc,
    to_dimacs,
)
from graphvalues.oracles import KARP_MAX_CELLS
from graphvalues.ratio import approx_mean


@pytest.fixture
def gadget_file(tmp_path, two_gadget):
    p = tmp_path / "gadget.gr"
    p.write_text(to_dimacs(two_gadget))
    return str(p)


@pytest.fixture
def energy_file(tmp_path, five_chain):
    # dot keeps node names, so --decide can address nodes by label
    neg = five_chain.negated()
    stmts = "".join(
        f"  {neg.labels[u]} -> {neg.labels[v]} [label={w}];\n"
        for u, v, w in zip(neg.src, neg.dst, neg.wt)
    )
    p = tmp_path / "chain.dot"
    p.write_text("digraph {\n" + stmts + "}\n")
    return str(p)


@pytest.fixture
def ratio_file(tmp_path, ratio_pair):
    p = tmp_path / "pair.gr"
    p.write_text(to_dimacs(ratio_pair))
    return str(p)


def test_mean_values_tsv(gadget_file, capsys):
    assert main(["mean", gadget_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["1\t-1/1", "2\t-1/1", "3\t-1/1"]


def test_mean_values_json(gadget_file, capsys):
    assert main(["mean", gadget_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["problem"] == "mean"
    assert doc["values"] == {"1": "-1/1", "2": "-1/1", "3": "-1/1"}


def test_mean_algo_agreement(gadget_file, capsys):
    outs = []
    for algo in ("tw", "karp", "oracle"):
        assert main(["mean", gadget_file, "--algo", algo]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_mean_decide_exit_codes(gadget_file, capsys):
    assert main(["mean", gadget_file, "--decide", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["mean", gadget_file, "--decide=-1/2"]) == 3  # '=' guards the leading dash
    assert capsys.readouterr().out.strip() == "no"
    assert main(["mean", gadget_file, "--decide", "-1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] is True and doc["decide"] == "-1/1"


def test_mean_approx(gadget_file, capsys):
    assert main(["mean", gadget_file, "--approx", "1/10"]) == 0
    star, text = capsys.readouterr().out.strip().split("\t")
    assert star == "*"
    num, den = text.split("/")
    mu = int(num) / int(den)
    assert abs(mu - (-1.0)) <= 0.1
    assert main(["mean", gadget_file, "--approx", "1/10", "--stats"]) == 0
    out, err = capsys.readouterr()
    assert "zero-test=1 newton=1" in err and "sweep=" not in err
    assert out.strip() == "*\t-1/1"


def test_ratio_values(ratio_file, capsys):
    assert main(["ratio", ratio_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["1\t3/2", "2\t3/2"]


def test_ratio_decide(ratio_file, capsys):
    assert main(["ratio", ratio_file, "--decide", "3/2"]) == 0
    assert main(["ratio", ratio_file, "--decide", "2"]) == 3
    capsys.readouterr()


def test_energy_values_all_algos(energy_file, capsys):
    for algo in ("tw", "general", "oracle"):
        assert main(["energy", energy_file, "--algo", algo]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["u\t0", "v\t2", "w\t3", "x\t0", "y\t1"]


def test_energy_decide(energy_file, capsys):
    assert main(["energy", energy_file, "--decide", "w", "3"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["energy", energy_file, "--decide", "w", "2"]) == 3
    assert capsys.readouterr().out.strip() == "no"


def test_energy_inf_rendering(tmp_path, capsys):
    g = WeightedDigraph.from_edges(2, [(0, 1, -5)])
    p = tmp_path / "sink.gr"
    p.write_text(to_dimacs(g))
    assert main(["energy", str(p)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["1\tinf", "2\tinf"]


def test_mincycle_output(gadget_file, capsys):
    assert main(["mincycle", gadget_file]) == 0
    out = capsys.readouterr().out.strip()
    value, kind = out.split("\t")
    assert kind in ("exact", "lower-bound")
    assert int(value) <= -2


def test_mincycle_exact_on_triangle(tmp_path, triangle, capsys):
    p = tmp_path / "tri.gr"
    p.write_text(to_dimacs(triangle))
    assert main(["mincycle", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "6\texact"


def test_treedec_text_and_validate(gadget_file, capsys):
    assert main(["treedec", gadget_file, "--validate"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]
    assert all(l.startswith("b ") for l in lines)
    roots = [l for l in lines if l.split()[2] == "-"]
    assert len(roots) == 1


def test_stats_go_to_stderr(gadget_file, capsys):
    assert main(["mean", gadget_file, "--stats"]) == 0
    err = capsys.readouterr().err
    assert "width=" in err and "decisions=" in err


def test_gen_is_deterministic(capsys):
    assert main(["gen", "ktree", "30", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "ktree", "30", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "ktree", "30", "2", "--seed", "10"]) == 0
    assert capsys.readouterr().out != first
    assert first.startswith("p mrc 30 ")


def test_gen_to_file_then_solve(tmp_path, capsys):
    out = tmp_path / "g.gr"
    assert main(["gen", "sparse-random", "12", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["energy", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12


def test_gen_rejects_bad_k(capsys):
    assert main(["gen", "ktree", "10", "7"]) == 1
    assert "k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ktree", "1", "2"],
        ["ktree", "30", "2"],
        ["sparse-random", "1"],
        ["sparse-random", "12"],
        ["cfg-like", "1"],
        ["cfg-like", "25"],
    ],
)
def test_gen_refuses_an_empty_weight_range(argv, capsys):
    assert main(["gen", *argv, "--wt-min", "5", "--wt-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty weight range wt=(5, 2)" in captured.err


def test_gen_refuses_a_negative_average_degree(capsys):
    assert main(["gen", "sparse-random", "3", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need avg_degree >= 0, got -1" in captured.err


def test_gen_cfg_like(capsys):
    assert main(["gen", "cfg-like", "25", "--seed", "2"]) == 0
    assert capsys.readouterr().out.startswith("p mrc 25 ")


def test_gen_cfg_like_refuses_a_wtp_range(capsys):
    assert main(["gen", "cfg-like", "25", "--wtp-max", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--wtp-max applies to ktree and sparse-random" in captured.err
    assert main(["gen", "cfg-like", "25", "--seed", "2", "--wtp-max", "1"]) == 0
    assert capsys.readouterr().out == to_dimacs(gen_cfg_like(25, seed=2))


def test_missing_file_is_input_error(capsys):
    assert main(["mean", "/no/such/file.gr"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.gr"
    p.write_text("p mrc 2 1\na 1 9 0\n")
    assert main(["mean", str(p)]) == 1
    assert "error" in capsys.readouterr().err


def test_acyclic_per_node_values_are_inf(tmp_path, capsys):
    p = tmp_path / "dag.gr"
    p.write_text("p mrc 2 1\na 1 2 5\n")
    assert main(["mean", str(p)]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["1\tinf", "2\tinf"]
    # but a decision on an acyclic graph has no value to compare against
    assert main(["mean", str(p), "--decide", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("problem, other", [("mean", "ratio"), ("ratio", "mean")])
def test_decide_on_acyclic_graph_names_the_problem_asked(tmp_path, capsys, problem, other):
    p = tmp_path / "dag.gr"
    p.write_text("p mrc 2 1\na 1 2 5\n")
    assert main([problem, str(p), "--decide", "0"]) == 1
    err = capsys.readouterr().err
    assert f"no cycle; {problem} value undefined" in err and other not in err


def test_unknown_label_is_input_error(energy_file, capsys):
    assert main(["energy", energy_file, "--decide", "qq", "1"]) == 1
    capsys.readouterr()


def test_usage_error_maps_to_input_exit(capsys):
    assert main(["mean"]) == 1  # missing file argument
    assert main(["nope"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["bench", ".", "--reps", "0"], ["selftest", "--count", "0"],
                                  ["selftest", "--count=-1"], ["selftest", "--count", "x"]])
def test_counts_below_one_are_input_errors(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "expected a positive integer" in err


def test_decide_and_approx_are_mutually_exclusive(gadget_file, capsys):
    assert main(["mean", gadget_file, "--decide", "0", "--approx", "1/10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_bench_runs_and_reports(tmp_path, capsys):
    for seed in (1, 2):
        assert main(["gen", "ktree", "14", "2", "--seed", str(seed),
                     "--out", str(tmp_path / f"g{seed}.gr")]) == 0
    capsys.readouterr()
    assert main(["bench", str(tmp_path), "--problem", "mean", "--algos", "tw,karp,oracle"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split("\t")[:4] == ["file", "n", "m", "width"]
    assert len(out) == 1 + 2 * 3  # two files, three algorithms, one rep


def test_bench_energy_json(tmp_path, capsys):
    assert main(["gen", "sparse-random", "10", "--seed", "3",
                 "--out", str(tmp_path / "g.gr")]) == 0
    capsys.readouterr()
    assert main(["bench", str(tmp_path), "--problem", "energy",
                 "--algos", "tw,general,oracle", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert len(doc["rows"]) == 3
    assert {r["algo"] for r in doc["rows"]} == {"tw", "general", "oracle"}


def test_selftest_smoke(capsys):
    assert main(["selftest", "--count", "4", "--seed", "1"]) == 0
    assert "selftest passed" in capsys.readouterr().out


def test_algo_choices_bench_and_selftest_share_one_table(tmp_path, monkeypatch, capsys):
    want = {
        ("mean", "tw"), ("mean", "karp"), ("mean", "oracle"),
        ("ratio", "tw"), ("ratio", "oracle"),
        ("energy", "tw"), ("energy", "general"), ("energy", "oracle"),
    }
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    choices = {
        (problem, algo)
        for problem in ("mean", "ratio", "energy")
        for algo in commands[problem]._option_string_actions["--algo"].choices
    }
    assert choices == want

    (tmp_path / "g.gr").write_text(to_dimacs(gen_sparse_random(6, 2, seed=2, wt=(-4, 4))))
    accepted = set()
    for problem in ("mean", "ratio", "energy"):
        for algo in ("tw", "karp", "general", "oracle"):
            code = main(["bench", str(tmp_path), "--problem", problem, "--algos", algo])
            assert code in (0, 1), (problem, algo)
            if code == 0:
                accepted.add((problem, algo))
    assert accepted == want
    capsys.readouterr()

    checked = set()

    def recording(problem, algo, solve):
        def run(g, trees, stats):
            checked.add((problem, algo))
            return solve(g, trees, stats)
        return run

    table = {
        problem: spec._replace(algos={a: recording(problem, a, s) for a, s in spec.algos.items()})
        for problem, spec in cli._PROBLEMS.items()
    }
    monkeypatch.setattr(cli, "_PROBLEMS", table)
    assert main(["selftest", "--count", "1"]) == 0
    assert checked == want

    checked.clear()
    assert main(["bench", str(tmp_path), "--problem", "ratio", "--algos", "tw,karp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'karp'" in err
    assert checked == set()  # refused before any solver ran


def test_energy_stats_report_repair_rounds(tmp_path, capsys):
    g = gen_ktree(12, 2, seed=3, wt=(-2, 8))
    p = tmp_path / "g.gr"
    p.write_text(to_dimacs(g))
    assert main(["energy", str(p), "--stats"]) == 0
    err = capsys.readouterr().err
    stats = TwStats()
    energy_values_tw(g, treedec.build_decomposition(g), stats)
    assert _stat(err, "kills") == stats.kills
    assert _stat(err, "rounds") == stats.rounds
    assert _stat(err, "update_bags") == stats.update_bags
    assert _stat(err, "hot_discarded") == stats.hot_discarded
    assert _stat(err, "components") == stats.components >= 1
    assert 1 < stats.rounds < stats.kills


def test_selftest_checks_the_energy_decision(monkeypatch, capsys):
    asked = []

    def wrong(g, u, credit):
        asked.append(credit)
        return not decide_initial_credit(g, u, credit)

    monkeypatch.setattr(cli, "decide_initial_credit", wrong)
    assert main(["selftest", "--count", "4", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("selftest mismatch (energy decide) seed=")
    assert len(asked) == 1


@pytest.mark.parametrize("problem, name", [("mean", "decide_mean_geq"), ("ratio", "decide_ratio_geq")])
def test_selftest_checks_the_mean_and_ratio_decisions(monkeypatch, capsys, problem, name):
    real = getattr(cli, name)
    asked = []

    def wrong(g, t, nu, stats=None):
        asked.append(nu)
        return not real(g, t, nu, stats)

    monkeypatch.setattr(cli, name, wrong)
    assert main(["selftest", "--count", "4", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"selftest mismatch ({problem} decide) seed=")
    assert len(asked) == 1


def test_selftest_checks_the_approximation(monkeypatch, capsys):
    asked = []

    def wrong(g, t, eps):
        asked.append(eps)
        mu, stats = approx_mean(g, t, eps)
        return mu - 1, stats

    monkeypatch.setattr(cli, "approx_mean", wrong)
    assert main(["selftest", "--count", "4", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("selftest mismatch (mean decide) seed=") and " approx=" in err
    assert asked == [Fraction(1, 10)]


def test_selftest_kills_in_several_rounds(monkeypatch, capsys):
    rounds = []
    spec = cli._PROBLEMS["energy"]
    tw = spec.algos["tw"]

    def recording(g, trees, stats):
        values = tw(g, trees, stats)
        rounds.append(stats.rounds)
        return values

    table = dict(cli._PROBLEMS, energy=spec._replace(algos={**spec.algos, "tw": recording}))
    monkeypatch.setattr(cli, "_PROBLEMS", table)
    assert main(["selftest", "--count", "6"]) == 0
    assert "selftest passed (18 instances)" in capsys.readouterr().out
    kill_heavy = rounds[2::3]  # each seed draws a k-tree, a sparse graph, a kill-heavy k-tree
    assert len(kill_heavy) == 6 and max(kill_heavy) > 1


def test_size_caps_exit_one(tmp_path, capsys):
    n = 1
    while (n + 1) * n <= KARP_MAX_CELLS:
        n += 1
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    cycle = corpus / "cycle.gr"
    cycle.write_text(to_dimacs(WeightedDigraph.from_edges(n, [(u, (u + 1) % n, 1) for u in range(n)])))
    assert main(["mean", str(cycle), "--algo", "karp"]) == 1
    assert capsys.readouterr().err.startswith("error: Karp's table needs")
    assert main(["bench", str(corpus), "--algos", "tw,karp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: Karp's table needs")

    huge = tmp_path / "huge.gr"
    huge.write_text(f"p mrc {DIMACS_MAX_NODES + 1} 0\n")
    assert main(["energy", str(huge)]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: node count")


# -- per-node agreement across algorithms -------------------------------------------


def test_per_node_algo_agreement_multi_scc(tmp_path, capsys):
    """Seeded sparse graphs with several SCCs, acyclic parts and inf nodes:
    every --algo goes through the per-SCC driver and must print the same."""
    multi_scc_with_inf = 0
    for seed in range(40):
        g = gen_sparse_random(5 + seed % 8, 1 + seed // 20, seed=seed, wt=(-6, 6), wtp=(1, 4))
        p = tmp_path / f"g{seed}.gr"
        p.write_text(to_dimacs(g))
        first = {}
        for problem, algos in (("mean", ("tw", "karp", "oracle")), ("ratio", ("tw", "oracle"))):
            for algo in algos:
                assert main([problem, str(p), "--algo", algo]) == 0, (seed, problem, algo)
                out = capsys.readouterr().out
                assert out == first.setdefault(problem, out), (seed, problem, algo)
        scc = tarjan_scc(g)
        cyclic = sum(component_has_cycle(g, scc, ci) for ci in range(len(scc.components)))
        if cyclic >= 2 and "\tinf" in first["mean"]:
            multi_scc_with_inf += 1
    assert multi_scc_with_inf >= 1


def test_oracle_on_long_cycle_is_not_recursive(tmp_path, capsys):
    n = 3000
    g = WeightedDigraph.from_edges(n, [(u, (u + 1) % n, 1) for u in range(n)])
    p = tmp_path / "cycle.gr"
    p.write_text(to_dimacs(g))
    assert main(["mean", str(p), "--algo", "oracle"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == n
    assert all(line.split("\t")[1] == "1/1" for line in lines)


# -- decompositions built per call ------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Every decomposition built during a call."""
    real = treedec.build_decomposition
    seen = []

    def recording(g, balance=True):
        t = real(g, balance=balance)
        seen.append(t)
        return t

    for name, mod in list(sys.modules.items()):
        if name.startswith("graphvalues") and hasattr(mod, "build_decomposition"):
            monkeypatch.setattr(mod, "build_decomposition", recording)
    return seen


@pytest.fixture
def multi_scc_file(tmp_path):
    # three 2-cycles (0,1), (2,3), (4,5) chained by one-way edges, plus an
    # acyclic tail 6 -> 7: three cyclic SCCs, two acyclic ones
    g = WeightedDigraph.from_edges(
        8,
        [(0, 1, 2), (1, 0, 1), (1, 2, 0), (2, 3, -1), (3, 2, 4), (3, 4, 5),
         (4, 5, 3), (5, 4, 3), (5, 6, 1), (6, 7, 1)],
    )
    p = tmp_path / "multi.gr"
    p.write_text(to_dimacs(g))
    return str(p)


def _stat(err: str, key: str) -> int:
    return int(next(w for w in err.split() if w.startswith(key + "="))[len(key) + 1:])


@pytest.mark.parametrize(
    "argv, want_builds",
    [
        (["energy"], 1),
        (["mincycle"], 1),
        (["mean", "--decide", "1"], 1),
        (["ratio", "--decide", "1"], 1),
        (["mean", "--approx", "1/10"], 1),
        (["mean"], 3),
        (["ratio"], 3),
        (["mean", "--algo", "karp"], 0),
        (["mean", "--algo", "oracle"], 0),
        (["energy", "--algo", "general"], 0),
    ],
)
def test_one_decomposition_per_solve(multi_scc_file, builds, capsys, argv, want_builds):
    argv = [argv[0], multi_scc_file, *argv[1:], "--stats", "--validate"]
    assert main(argv) in (0, 3)
    err = capsys.readouterr().err
    assert len(builds) == want_builds
    assert _stat(err, "builds") == want_builds
    if builds:
        assert _stat(err, "width") == max(t.width for t in builds)
        assert _stat(err, "height") == max(t.height for t in builds)
        assert _stat(err, "bags") == sum(len(t.bags) for t in builds)
    else:
        assert "width=" not in err


@pytest.mark.parametrize(
    "command, line",
    [
        ("mean", "n=8 m=10 builds=3 width=1 height=1 bags=6 decisions=6 zero-test=3 newton=3"),
        ("energy", "n=8 m=10 builds=1 width=2 height=3 bags=8 kills=5 rounds=4 update_bags=11 "
                   "hot_discarded=1 components=3"),
    ],
)
def test_trees_are_freed_once_solved(multi_scc_file, capsys, command, line):
    # _Trees keeps each tree's figures, not the tree and its fold cache
    g = cli.load_graph(multi_scc_file)
    trees = cli._Trees(SimpleNamespace(validate=True, stats=True))
    t = trees(g)
    alone = treedec.build_decomposition(g)  # referred to by one local name only
    assert sys.getrefcount(t) == sys.getrefcount(alone)
    assert main([command, multi_scc_file, "--stats"]) == 0
    assert capsys.readouterr().err == line + "\n"


def test_heuristic_flag_is_gone(multi_scc_file):
    for command in ("mean", "energy", "treedec"):
        assert main([command, multi_scc_file, "--heuristic", "min-fill"]) == 1


# -- bench rows build their own decompositions, inside the timed span -------------------


@pytest.mark.parametrize(
    "problem, algos",
    [("mean", ("tw", "karp", "oracle")), ("ratio", ("tw", "oracle")), ("energy", ("tw", "general", "oracle"))],
)
def test_bench_builds_each_tw_tree_inside_its_row(tmp_path, monkeypatch, capsys, problem, algos):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    graphs = {
        "a.gr": WeightedDigraph.from_edges(
            6, [(0, 1, 2, 1), (1, 0, 1, 2), (1, 2, 0, 1), (2, 3, -1, 3), (3, 2, 4, 1), (4, 5, 3, 1), (5, 4, 3, 2)]
        ),
        "b.gr": gen_sparse_random(9, 2, seed=4, wt=(-5, 5), wtp=(1, 3)),
    }
    for name, g in graphs.items():
        (corpus / name).write_text(to_dimacs(g))
    events, trees = [], []
    real_build = treedec.build_decomposition

    def recording(g, balance=True):
        events.append("b")
        trees.append(real_build(g, balance=balance))
        return trees[-1]

    def clock():
        events.append("t")
        return 0.0

    monkeypatch.setattr(sys.modules["graphvalues.cli"], "build_decomposition", recording)
    monkeypatch.setattr(sys.modules["graphvalues.cli"], "time", SimpleNamespace(perf_counter=clock))
    assert main(["bench", str(corpus), "--problem", problem, "--algos", ",".join(algos), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["file"], r["algo"]) for r in rows] == [(f, a) for f in graphs for a in algos]
    text = "".join(events)  # t: a clock read, b: a build
    inside = re.findall("t(b*)t", text)
    assert "".join(f"t{s}t" for s in inside) == text and len(inside) == len(rows)
    built = iter(trees)
    for row, builds_in_row in zip(rows, inside):
        g = graphs[row["file"]]
        if row["algo"] != "tw":
            want = 0
        elif problem == "energy":
            want = 1
        else:
            scc = tarjan_scc(g)
            want = sum(component_has_cycle(g, scc, ci) for ci in range(len(scc.components)))
        assert builds_in_row == "b" * want, row
        mine = [next(built) for _ in range(want)]
        assert row["width"] == (max(t.width for t in mine) if mine else "-")
        assert row["height"] == (max(t.height for t in mine) if mine else "-")
    assert next(built, None) is None


# -- queries answer from the selected algorithm -----------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_energy_decide_agrees_with_guarded_relaxation_under_every_algo(tmp_path, capsys, seed):
    graphs = (
        gen_ktree(9, 2, seed=seed, wt=(-4, 3), ensure_sc=False),
        gen_sparse_random(8, 2, seed=seed, wt=(-3, 3)),
        gen_cfg_like(10, seed=seed, wt=(-4, 2)),
    )
    finite = infinite = 0
    answers = set()
    for gi, g in enumerate(graphs):
        p = tmp_path / f"g{gi}.gr"
        p.write_text(to_dimacs(g))
        for u, e in enumerate(energy_values_tw(g)):
            if e == INF:
                infinite += 1
                credits = [g.n * g.max_abs_weight() + 1]
            else:
                finite += 1
                credits = [e - 1, e, e + 1]
            for credit in credits:
                argv = ["energy", str(p), "--decide", str(u + 1), str(credit)]  # DIMACS ids
                if credit < 0:
                    with pytest.raises(ValueError):
                        decide_initial_credit(g, u, credit)
                    want = 1
                else:
                    want = 0 if decide_initial_credit(g, u, credit) else 3
                answers.add(want)
                for algo in ("tw", "general", "oracle"):
                    assert main(argv + ["--algo", algo]) == want, (seed, gi, u, credit, algo)
    capsys.readouterr()
    assert finite and infinite and answers == {0, 1, 3}


def test_energy_decide_builds_validates_and_reports(energy_file, builds, capsys):
    assert main(["energy", energy_file, "--decide", "w", "3", "--stats", "--validate"]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == "yes" and len(builds) == 1
    assert _stat(err, "builds") == 1 and _stat(err, "kills") >= 0
    assert main(["energy", energy_file, "--decide", "w", "2", "--algo", "general", "--stats"]) == 3
    out, err = capsys.readouterr()
    assert out.strip() == "no" and len(builds) == 1
    assert _stat(err, "builds") == 0 and "kills=" not in err


def test_energy_decide_refuses_a_negative_credit(energy_file, capsys):
    for algo in ("tw", "general", "oracle"):
        assert main(["energy", energy_file, "--decide", "w", "-1", "--algo", algo]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "credit must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mean", "--approx", "1/2", "--algo", "karp"],
        ["mean", "--approx", "1/2", "--algo", "oracle"],
        ["mean", "--decide", "0", "--algo", "karp"],
        ["mean", "--decide", "0", "--algo", "oracle"],
        ["ratio", "--decide", "0", "--algo", "oracle"],
    ],
)
def test_mean_and_ratio_queries_refuse_another_algo(gadget_file, capsys, argv):
    assert main([argv[0], gadget_file, *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--algo tw only" in err


def test_a_reader_that_closes_the_pipe_early_is_not_an_error(tmp_path):
    # 50000 lines of per-node output are far more than a pipe buffers, so the
    # command is still writing when the reader goes away after one line. The
    # path is acyclic, so `mean` answers without building a decomposition.
    n = 50_000
    p = tmp_path / "path.gr"
    p.write_text(to_dimacs(WeightedDigraph.from_edges(n, [(u, u + 1, -1) for u in range(n - 1)])))
    env = {**os.environ, "PYTHONPATH": str(Path(graphvalues.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphvalues", "mean", str(p)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""
