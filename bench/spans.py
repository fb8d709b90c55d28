"""In-memory spans and counters recorded around graphvalues' public calls.

Nothing inside the library is changed. While a :class:`Tracer` is
installed, the module attributes that the solvers look up at call time
(``graphvalues.ratio.min_cycle`` and friends) are replaced by wrappers that
open a span, call the original and read the counts from the returned
objects; uninstalling puts the originals back. The decomposition builder
and the parse call are wrapped by the benchmark itself, because the solvers
receive them as arguments.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

from graphvalues import energy_tw, mincycle, ratio
from graphvalues.graph import INF

# Span name -> per-layer self-time metric.
SELF_TIME = {
    "graph.parse": "graph.parse_s",
    "graph.scc": "graph.scc_s",
    "graph.subgraph": "graph.subgraph_s",
    "treedec.eliminate": "treedec.eliminate_s",
    "treedec.balance": "treedec.balance_s",
    "treedec.fold_table": "treedec.fold_table_s",
    "mincycle.sweep": "mincycle.sweep_s",
    "ratio": "ratio.self_s",
    "energy_tw": "energy_tw.self_s",
    "energy_tw.kill_loop": "energy_tw.kill_loop_s",
    "energy_tw.sssp": "energy_tw.sssp_s",
}
JOB = "job"


class Untraced:
    """Calls straight through; the same job code runs with or without spans."""

    tracing = False

    def call(self, name, fn, *args, **kw):
        return fn(*args, **kw)

    def count(self, name, k=1):
        pass

    def peak(self, name, value):
        pass


class Tracer(Untraced):
    """Spans as [name, start_ns, end_ns, parent index] plus counters."""

    tracing = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kw):
        rec = [name, 0, 0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kw)
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name, k=1):
        self.counts[name] += k

    def peak(self, name, value):
        if value > self.counts[name]:
            self.counts[name] = value

    # -- installing the wrappers -----------------------------------------------

    def _patch(self, module, attr, name, after=None):
        orig = getattr(module, attr)

        def wrapper(*args, **kw):
            result = self.call(name, orig, *args, **kw)
            if after is not None:
                after(result, *args, **kw)
            return result

        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        def sweep(r, g, t=None, weights=None):
            self.count("mincycle.sweeps")
            self.count("mincycle.bag_visits", len(t.bags))
            self.peak("mincycle.peak_maps", r.peak_maps)
            if r.value is not INF:
                self.peak("mincycle.value_bits", abs(r.value).bit_length())

        self._patch(ratio, "tarjan_scc", "graph.scc")
        self._patch(
            ratio, "induced_subgraph", "graph.subgraph", lambda r, *a, **k: self.count("graph.subgraphs")
        )
        self._patch(ratio, "min_cycle", "mincycle.sweep", sweep)
        self._patch(
            mincycle, "edge_fold_table", "treedec.fold_table",
            lambda r, *a, **k: self.count("treedec.fold_tables"),
        )
        self._patch(energy_tw, "zero_energy_nodes_tw", "energy_tw.kill_loop")
        self._patch(energy_tw, "sssp_to_z_treedec", "energy_tw.sssp")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading a job back ------------------------------------------------------

    def take_job(self) -> tuple[list[list], Counter]:
        """Hand over and clear the spans and counters of the last job."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, minus the time covered by child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    for s, ns in zip(spans, own):
        out[s[0]] += ns / 1e9
    return out
