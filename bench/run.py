"""Benchmark graphvalues from DIMACS text to checked per-node values.

Usage (from the repository root):

    python3 bench/run.py --workload ktree-ratio --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --out BENCH_1.json

One process, one thread, closed loop: the next job starts when the last
one has been timed and checked. A run makes its input (generate and
serialise), runs one untimed warm-up job, then runs rounds until --seconds
have passed. Each round makes the input once more, which is timed for
setup_s, and runs the round's jobs. Every job's answer is checked outside
the timed span by code that imports nothing from graphvalues.

With --trace 0 a round is one job, and the run reports the end-to-end
metrics: solve_s (median job wall time), setup_s (median set-up time) and
peak_mem_mb (peak tracemalloc heap of the warm-up job). With --trace 1 a
round is one untraced and one traced job, and the run reports the
per-layer metrics of the traced jobs, the tracing overhead and how much of
a job the layer spans cover; the spans go to --spans-dir when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

E2E = {"solve_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}
COUNTS = [
    "graph.subgraphs",
    "treedec.builds",
    "treedec.bags",
    "treedec.width",
    "treedec.height",
    "treedec.fold_tables",
    "mincycle.sweeps",
    "mincycle.bag_visits",
    "mincycle.value_bits",
    "mincycle.peak_maps",
    "ratio.components",
    "ratio.decisions",
    "ratio.decisions.zero-test",
    "ratio.decisions.exponential",
    "ratio.decisions.binary",
    "ratio.decisions.rational-refine",
    "energy_tw.kills",
    "energy_tw.initial_bags",
    "energy_tw.update_bags",
]


def median_quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, q1, q3


def describe_input(text):
    n, edges = checks.parse_dimacs(text)
    comp, members = checks.strong_components(n, edges)
    cyclic = [False] * len(members)
    for u, v, *_ in edges:
        if comp[u] == comp[v]:
            cyclic[comp[u]] = True
    sizes = [len(g) for g, c in zip(members, cyclic) if c]
    return {
        "n": n,
        "m": len(edges),
        "sccs": len(members),
        "cyclic_sccs": len(sizes),
        "largest_scc": max(sizes, default=0),
    }


class Judge:
    """Runs jobs and counts them: a job fails when it raises or when its
    answer is rejected. An answer equal to one already accepted is accepted
    without repeating the full check."""

    def __init__(self, w, text):
        self.w, self.text = w, text
        self.accepted = None
        self.attempted = self.failed = 0
        self.errors = []  # jobs that raised
        self.rejected = []  # answers the check refused

    def run(self, solve):
        """Run ``solve`` as one job, then check its answer; returns the job's
        wall time (the check is not part of it), or None when it failed."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            answer = solve()
        except Exception as exc:  # a failed job is counted, not fatal
            traceback.print_exc()
            dt = None
            self.errors.append(f"raised {type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            if self.accepted is None or answer != self.accepted:
                reason = self.w.check(self.text, answer)
                if reason is None:
                    self.accepted = answer
                else:
                    dt = None
                    self.rejected.append(reason)
        if dt is None:
            self.failed += 1
        return dt


class SetUp:
    """Makes the workload's input from its seed, timing every set-up; each
    round of jobs makes it once more, so set-up times sample the same
    stretch of the run as the job times do."""

    def __init__(self, w, seed):
        self.w, self.seed = w, seed
        self.times, self.gen_times = [], []
        self.text = None

    def make(self):
        tr = spans.Tracer()
        gc.collect()
        t0 = time.perf_counter()
        text = self.w.make(tr, self.seed)
        self.times.append(time.perf_counter() - t0)
        self.gen_times.append(spans.self_times(tr.spans)["generate.gen"])
        if self.text is None:
            self.text = text
        elif text != self.text:
            raise RuntimeError(f"{self.w.name}: seed {self.seed} gave different inputs")


def run_untraced(w, setup, judge, seconds):
    """Rounds of one set-up and one job; returns the job times."""
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        setup.make()
        dt = judge.run(lambda: w.solve(spans.Untraced(), setup.text))
        if dt is not None:
            times.append(dt)
        if time.perf_counter() >= deadline:
            return times


def warm_up(judge, w, text, measure_memory):
    """The first, untimed job, fully checked; with measure_memory, returns
    its peak tracemalloc heap in MB. tracemalloc slows a job several times
    over, so it watches this job only, and stops before the check."""
    if not measure_memory:
        judge.run(lambda: w.solve(spans.Untraced(), text))
        return None
    peak = []

    def job():
        tracemalloc.start()
        try:
            return w.solve(spans.Untraced(), text)
        finally:
            peak.append(tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.stop()

    judge.run(job)
    return peak[0]


def run_traced(w, setup, judge, seconds):
    """Rounds of one set-up, one untraced and one traced job. Returns
    (untraced times, layer metrics per traced job, counts, spans, problems)."""
    plain, layers, spans_out, problems = [], [], [], []
    counts = None
    tr = spans.Tracer()
    text = setup.text
    deadline = time.perf_counter() + seconds
    while True:
        setup.make()
        dt = judge.run(lambda: w.solve(spans.Untraced(), text))
        if dt is not None:
            plain.append(dt)
        with tr:
            dt = judge.run(lambda: tr.call(spans.JOB, w.solve, tr, text))
        job_spans, job_counts = tr.take_job()
        if dt is not None:
            own = spans.self_times(job_spans)
            wall = (job_spans[0][2] - job_spans[0][1]) / 1e9
            row = {metric: own.get(name, 0.0) for name, metric in spans.SELF_TIME.items()}
            row["trace.job_s"] = wall
            row["trace.coverage"] = 1 - own[spans.JOB] / wall
            layers.append(row)
            if counts is None:
                counts = job_counts
            elif job_counts != counts and not problems:
                problems.append("counts differ between traced jobs")
            spans_out.append([[s[0], s[1], s[2], s[3]] for s in job_spans])
        if time.perf_counter() >= deadline:
            return plain, layers, counts or {}, spans_out, problems


def run_workload(w, seed, seconds, trace, spans_path):
    setup = SetUp(w, seed)
    setup.make()
    text = setup.text
    judge = Judge(w, text)
    peak_mb = warm_up(judge, w, text, measure_memory=not trace)
    report = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace}
    report["input"] = describe_input(text)
    metrics = {}
    problems = []
    if not trace:
        times = run_untraced(w, setup, judge, seconds)
        if not times:
            raise RuntimeError(f"{w.name}: no job succeeded ({(judge.errors + judge.rejected)[0]})")
        solve, q1, q3 = median_quartiles(times)
        report["solve_s"] = {"jobs": len(times), "p25": q1, "p75": q3}
        metrics["solve_s"] = solve
        metrics["setup_s"] = statistics.median(setup.times)
        metrics["peak_mem_mb"] = peak_mb
        units = E2E
    else:
        plain, layers, counts, job_spans, problems = run_traced(w, setup, judge, seconds)
        if not layers or not plain:
            raise RuntimeError(f"{w.name}: no job succeeded ({(judge.errors + judge.rejected)[0]})")
        for key in layers[0]:
            metrics[key] = statistics.median(row[key] for row in layers)
        metrics["trace.overhead_s"] = metrics["trace.job_s"] - statistics.median(plain)
        for name in COUNTS:
            metrics[name] = counts.get(name, 0)
        kills, wasted = counts.get("energy_tw.kills", 0), counts.get("energy_tw.hot_discarded", 0)
        metrics["energy_tw.hot_useful"] = kills / (kills + wasted) if kills + wasted else 0.0
        metrics["generate.gen_s"] = statistics.median(setup.gen_times)
        report["traced_jobs"] = len(layers)
        units = {m: ("s" if m.endswith("_s") else "count") for m in metrics}
        units["trace.coverage"] = units["energy_tw.hot_useful"] = "share"
        units["mincycle.value_bits"] = "bits"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"], "jobs": job_spans})
        )
        report["spans"] = str(spans_path)
    problems += judge.rejected
    report["setups"] = len(setup.times)
    report.update(
        correct=not problems,  # a job that raised is failed, not wrong
        attempted=judge.attempted,
        failed=judge.failed,
        problems=problems + judge.errors,
        metrics={m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    )
    return report


def print_report(r):
    inp = r["input"]
    print(f"workload {r['workload']}  seed {r['seed']}  seconds {r['seconds']}  trace {r['trace']}")
    print("input    " + "  ".join(f"{k}={v}" for k, v in inp.items()))
    for name, m in r["metrics"].items():
        note = ""
        if name == "solve_s":
            s = r["solve_s"]
            note = f"  median of {s['jobs']} jobs, quartiles {s['p25']:.4f} .. {s['p75']:.4f}"
        elif name == "setup_s":
            note = f"  median of {r['setups']} set-ups"
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"jobs attempted {r['attempted']}  failed {r['failed']}")
    for p in r["problems"]:
        print(f"problem: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the figures here as JSON")
    ap.add_argument("--spans-dir", type=Path, default=BENCH / "out",
                    help="where a traced run writes spans-<workload>-seed<seed>.json")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    reports = []
    for name in names:
        spans_path = args.spans_dir / f"spans-{name}-seed{args.seed}.json" if args.trace else None
        r = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, spans_path)
        print_report(r)
        reports.append(r)
    if args.out is not None:
        env = {"python": platform.python_version(), "cores": os.cpu_count()}
        args.out.write_text(json.dumps({"schema": 1, **env, "runs": reports}, indent=1) + "\n")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in reports for m, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "graphvalues" / "__init__.py").is_file():
        sys.exit(f"graphvalues sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import spans
    from workloads import WORKLOADS

    sys.exit(main())
