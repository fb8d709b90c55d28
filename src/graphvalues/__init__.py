"""Exact cycle values of weighted digraphs, fast on low-treewidth inputs.

Three quantities per graph (or per start node): the minimum cycle mean, the
minimum cycle ratio wt/wt', and the minimum initial credit (energy) needed
to keep some infinite walk's prefix sums nonnegative. The fast paths run
over balanced tree decompositions; :mod:`graphvalues.oracles` holds small
brute-force references used by the test suite and the selftest command.
"""
from .energy import decide_initial_credit, energy_values
from .energy_tw import TwStats, energy_values_tw
from .graph import (
    INF,
    Edge,
    InvariantError,
    ParseError,
    WeightedDigraph,
    induced_subgraph,
    load_graph,
    parse_graph,
    tarjan_scc,
    to_dimacs,
)
from .mincycle import MinCycleResult, min_cycle
from .ratio import (
    SearchStats,
    approx_mean,
    decide_mean_geq,
    decide_ratio_geq,
    mean_value,
    mean_values_all_nodes,
    ratio_value,
    ratio_values_all_nodes,
)
from .treedec import (
    TreeDecomposition,
    Violation,
    balance_and_binarize,
    build_decomposition,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "INF",
    "InvariantError",
    "MinCycleResult",
    "ParseError",
    "SearchStats",
    "TreeDecomposition",
    "TwStats",
    "Violation",
    "WeightedDigraph",
    "approx_mean",
    "balance_and_binarize",
    "build_decomposition",
    "decide_initial_credit",
    "decide_mean_geq",
    "decide_ratio_geq",
    "energy_values",
    "energy_values_tw",
    "induced_subgraph",
    "load_graph",
    "mean_value",
    "mean_values_all_nodes",
    "min_cycle",
    "parse_graph",
    "ratio_value",
    "ratio_values_all_nodes",
    "tarjan_scc",
    "to_dimacs",
    "validate",
]
