"""The package's surface: the names ``from graphvalues import ...`` offers."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import graphvalues

PUBLIC = {
    "Edge", "INF", "InvariantError", "MinCycleResult", "ParseError", "SearchStats",
    "TreeDecomposition", "TwStats", "Violation", "WeightedDigraph", "approx_mean",
    "balance_and_binarize", "build_decomposition", "decide_initial_credit", "decide_mean_geq",
    "decide_ratio_geq", "energy_values", "energy_values_tw", "induced_subgraph", "load_graph",
    "mean_value", "mean_values_all_nodes", "min_cycle", "parse_graph", "ratio_value",
    "ratio_values_all_nodes", "tarjan_scc", "to_dimacs", "validate",
}

# no longer re-exported by the package, still importable from their modules
MODULE_ONLY = {
    "energy": ["AugmentedGraph", "zero_energy_nodes", "detect_nonpositive_cycle",
               "nonpositive_values", "decision_energy"],
    "energy_tw": ["nonpositive_values_tw"],
    "graph": ["to_edgelist"],
}

PACKAGE = Path(graphvalues.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"


def test_all_is_the_public_set_and_every_name_resolves():
    assert sorted(graphvalues.__all__) == sorted(PUBLIC)
    for name in graphvalues.__all__:
        assert hasattr(graphvalues, name), name


def test_dropped_reexports_stay_in_their_modules():
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"graphvalues.{module}")
        for name in names:
            assert hasattr(mod, name), (module, name)


@pytest.mark.parametrize("script", ["workloads.py", "test_checks.py"])
def test_the_benchmark_imports_only_public_names(script):
    """Read with ast, so the benchmark's own modules are never imported."""
    tree = ast.parse((BENCH / script).read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "graphvalues"
        for alias in node.names
    }
    submodules = {name for name in names if (PACKAGE / f"{name}.py").exists()}
    assert names - submodules
    assert names - submodules <= PUBLIC, sorted(names - submodules - PUBLIC)
