"""Command-line front end.

Subcommands: mean, ratio, energy, mincycle, treedec, gen, bench, selftest.
Per-node results print as TSV ``label<TAB>p/q`` (energies as plain integers
or ``inf``); ``--json`` switches every command to a single JSON object with
``"schema": 1``. ``--stats`` writes instrumentation to stderr.

Exit codes: 0 success (and "yes" for --decide), 1 bad input or arguments,
2 internal invariant or cross-validation failure, 3 "no" for --decide.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .energy import decide_initial_credit, energy_values
from .energy_tw import TwStats, energy_values_tw
from .generate import generate
from .graph import INF, InvariantError, load_graph, to_dimacs
from .mincycle import min_cycle
from .oracles import (
    OracleTooBigError,
    energy_fixpoint,
    enumerate_cycles,
    karp_mean,
    min_mean_by_enumeration,
    min_ratio_by_enumeration,
)
from .ratio import (
    SearchStats,
    approx_mean,
    decide_mean_geq,
    decide_ratio_geq,
    mean_values_all_nodes,
    ratio_values_all_nodes,
    values_all_nodes,
)
from .treedec import build_decomposition, decomposition_to_text, validate

EXIT_OK, EXIT_INPUT, EXIT_INTERNAL, EXIT_NO = 0, 1, 2, 3
_STAT_PHASES = ("zero-test", "newton", "rational-refine", "decide", "bisect")


def _frac_text(v) -> str:
    if v == INF:
        return "inf"
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def _int_text(v) -> str:
    return "inf" if v == INF else str(v)


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": 1, **payload}, indent=2))


def _search_stat_line(stats: SearchStats) -> str:
    parts = [f"decisions={stats.decisions}"]
    parts += [f"{p}={stats.count(p)}" for p in _STAT_PHASES if stats.count(p)]
    return " ".join(parts)


def _energy_stat_line(stats: TwStats) -> str:
    return (
        f"kills={stats.kills} rounds={stats.rounds} update_bags={stats.update_bags} "
        f"hot_discarded={stats.hot_discarded} components={stats.components}"
    )


def _by_enumeration(pick):
    """Per-node solver: ``pick`` over the simple cycles of each cyclic SCC."""
    return lambda g, trees, stats: values_all_nodes(g, lambda sub: pick(enumerate_cycles(sub)))


class _Problem(NamedTuple):
    stats: Callable  # a fresh stats object for one solve
    stat_line: Callable  # stats -> its --stats text; bench's notes show the first figure
    fmt: Callable  # one value -> its output text
    # name -> solver (g, trees, stats) -> per-node values, where ``trees`` builds a
    # decomposition of a graph; the first, "tw", is the default and the only one
    # that builds trees or fills stats
    algos: dict


_PROBLEMS = {
    "mean": _Problem(SearchStats, _search_stat_line, _frac_text, {
        "tw": mean_values_all_nodes,
        "karp": lambda g, trees, stats: values_all_nodes(g, karp_mean),
        "oracle": _by_enumeration(min_mean_by_enumeration),
    }),
    "ratio": _Problem(SearchStats, _search_stat_line, _frac_text, {
        "tw": ratio_values_all_nodes,
        "oracle": _by_enumeration(min_ratio_by_enumeration),
    }),
    "energy": _Problem(TwStats, _energy_stat_line, _int_text, {
        "tw": lambda g, trees, stats: energy_values_tw(g, trees(g), stats),
        "general": lambda g, trees, stats: energy_values(g),
        "oracle": lambda g, trees, stats: energy_fixpoint(g),
    }),
}


def _disagreement(g, results: dict) -> str | None:
    """The first node on which two algorithms' per-node values differ, or None."""
    (first, want), *rest = results.items()
    for algo, got in rest:
        if got != want:
            bad = next(u for u in range(g.n) if got[u] != want[u])
            return f"node {g.labels[bad]} {first}={want[bad]} {algo}={got[bad]}"
    return None


def _decide_disagreement(g, credits: list) -> str | None:
    """Where ``decide_initial_credit`` contradicts the per-node credits, or None.

    It is asked at the node with the largest finite credit e, for the credits
    e - 1 (when >= 0), e and e + 1, which straddle the node's threshold.
    """
    finite = [u for u in range(g.n) if credits[u] != INF]
    if not finite:
        return None
    u = max(finite, key=credits.__getitem__)
    e = credits[u]
    for c in (e - 1, e, e + 1):
        if c >= 0 and decide_initial_credit(g, u, c) != (e <= c):
            return f"node {g.labels[u]} credit={c} energy={e} decide={'yes' if e > c else 'no'}"
    return None


def _value_decide_disagreement(problem: str, g, values: list) -> str | None:
    """Where ``decide_mean_geq`` or ``decide_ratio_geq``, or for the mean
    ``approx_mean`` at eps = 1/10, contradicts the per-node values, or None.

    It is asked about the graph's value, the least per-node value nu = p/q:
    the answer is yes at nu - 1/(2q) and at nu, and no at nu + 1/(2q), and
    the approximation lies within |nu|/10 of nu.
    """
    finite = [v for v in values if v != INF]
    if not finite:
        return None
    decide = decide_mean_geq if problem == "mean" else decide_ratio_geq
    nu = Fraction(min(finite))
    t = build_decomposition(g)
    half = Fraction(1, 2 * nu.denominator)
    for x in (nu - half, nu, nu + half):
        if decide(g, t, x) != (x <= nu):
            return f"value={_frac_text(nu)} nu={_frac_text(x)} decide={'no' if x <= nu else 'yes'}"
    mu = approx_mean(g, t, Fraction(1, 10))[0] if problem == "mean" else nu
    if abs(mu - nu) > abs(nu) / 10:
        return f"value={_frac_text(nu)} approx={_frac_text(mu)}"
    return None


class _Trees:
    """Builds every decomposition a command solves on.

    With --validate each tree is checked as soon as it is built, before the
    solver uses it, and --stats reports the trees built. Only each tree's
    (width, height, bag count) is kept, so a solved tree can be freed.
    """

    def __init__(self, args):
        self.args = args
        self.built: list[tuple[int, int, int]] = []

    def __call__(self, g):
        t = build_decomposition(g)
        if self.args.validate:
            v = validate(t, g)
            if v is not None:
                raise InvariantError(f"decomposition check failed [{v.condition}]: {v.detail}")
        self.built.append((t.width, t.height, len(t.bags)))
        return t

    def report(self, g, *extra: str) -> None:
        """With --stats, one stderr line: the trees built, then ``extra``."""
        if not self.args.stats:
            return
        parts = [f"n={g.n} m={g.m} builds={len(self.built)}"]
        if self.built:
            widths, heights, bags = zip(*self.built)
            parts += [f"width={max(widths)}", f"height={max(heights)}", f"bags={sum(bags)}"]
        print(" ".join(parts + [e for e in extra if e]), file=sys.stderr)


# -- subcommands ------------------------------------------------------------------


def _cmd_values(args, problem: str) -> int:
    """Per-node values of ``problem`` by --algo, or the --decide / --approx answer."""
    approx = args.approx if problem == "mean" else None
    query = args.decide is not None or approx is not None
    if query and problem != "energy" and args.algo != "tw":
        raise ValueError(f"--decide and --approx run on --algo tw only, not {args.algo}")
    g = load_graph(args.file)
    trees = _Trees(args)
    spec = _PROBLEMS[problem]
    stats = spec.stats()
    if args.decide is not None:
        if problem == "energy":
            label, credit_text = args.decide
            u = g.label_id(label)
            credit = int(credit_text)
            if credit < 0:
                raise ValueError("credit must be >= 0 in the standard convention")
            ans = spec.algos[args.algo](g, trees, stats)[u] <= credit
            asked = {"node": label, "credit": credit}
        else:
            nu = Fraction(args.decide)
            decide = decide_ratio_geq if problem == "ratio" else decide_mean_geq
            ans = decide(g, trees(g), nu, stats)
            asked = {"decide": _frac_text(nu)}
        trees.report(g, spec.stat_line(stats) if args.algo == "tw" else "")
        if args.json:
            _emit_json({"problem": problem, **asked, "answer": ans})
        else:
            print("yes" if ans else "no")
        return EXIT_OK if ans else EXIT_NO
    if approx is not None:
        eps = Fraction(approx)
        value, stats = approx_mean(g, trees(g), eps)
        trees.report(g, spec.stat_line(stats))
        if args.json:
            _emit_json({"problem": problem, "eps": _frac_text(eps), "value": _frac_text(value)})
        else:
            print(f"*\t{_frac_text(value)}")
        return EXIT_OK
    values = spec.algos[args.algo](g, trees, stats)
    trees.report(g, spec.stat_line(stats) if args.algo == "tw" else "")
    if args.json:
        _emit_json(
            {
                "problem": problem,
                "algo": args.algo,
                "file": args.file,
                "values": {g.labels[u]: spec.fmt(values[u]) for u in range(g.n)},
            }
        )
    else:
        for u in range(g.n):
            print(f"{g.labels[u]}\t{spec.fmt(values[u])}")
    return EXIT_OK


def _cmd_mincycle(args) -> int:
    g = load_graph(args.file)
    trees = _Trees(args)
    r = min_cycle(g, trees(g))
    trees.report(g, f"peak_maps={r.peak_maps}")
    if args.json:
        _emit_json(
            {
                "problem": "mincycle",
                "value": _int_text(r.value),
                "exact": r.exact,
                "height": r.height,
                "peak_maps": r.peak_maps,
            }
        )
    else:
        print(f"{_int_text(r.value)}\t{'exact' if r.exact else 'lower-bound'}")
    return EXIT_OK


def _cmd_treedec(args) -> int:
    g = load_graph(args.file)
    trees = _Trees(args)
    t = trees(g)
    trees.report(g)
    if args.json:
        _emit_json(
            {
                "problem": "treedec",
                "width": t.width,
                "height": t.height,
                "bags": [sorted(b) for b in t.bags],
                "parent": [-1 if p is None else p for p in t.parent],
            }
        )
    else:
        sys.stdout.write(decomposition_to_text(t))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "ktree" and not 1 <= args.k <= 5:
        raise ValueError("ktree generator supports k between 1 and 5")
    if args.kind == "cfg-like" and args.wtp_max != 1:
        raise ValueError("--wtp-max applies to ktree and sparse-random; cfg-like writes unit wt'")
    g = generate(
        args.kind,
        args.n,
        args.k,
        args.seed,
        **({} if args.kind == "cfg-like" else {"wtp": (1, args.wtp_max)}),
        wt=(args.wt_min, args.wt_max),
    )
    text = to_dimacs(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    paths = sorted(p for p in Path(args.dir).iterdir() if p.is_file())
    if not paths:
        raise ValueError(f"no instance files in {args.dir!r}")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if len(algos) < 1:
        raise ValueError("need at least one algorithm")
    spec = _PROBLEMS[args.problem]
    for algo in algos:
        if algo not in spec.algos:
            raise ValueError(f"algorithm {algo!r} does not apply to problem {args.problem!r}")
    rows = []
    for path in paths:
        g = load_graph(str(path))
        results = {}
        for algo in algos:
            solve = spec.algos[algo]
            for rep in range(args.reps):
                trees = _Trees(args)
                stats = spec.stats()
                t0 = time.perf_counter()
                results[algo] = solve(g, trees, stats)
                dt = time.perf_counter() - t0
                ts = trees.built
                width = max(w for w, _, _ in ts) if ts else "-"
                height = max(h for _, h, _ in ts) if ts else "-"
                note = spec.stat_line(stats).split()[0] if algo == "tw" else "-"
                rows.append((path.name, g.n, g.m, width, height, algo, rep, f"{dt:.6f}", note))
        bad = _disagreement(g, results)
        if bad:
            print(f"cross-validation mismatch on {path.name}: {bad}", file=sys.stderr)
            return EXIT_INTERNAL
    header = ("file", "n", "m", "width", "height", "algo", "rep", "seconds", "notes")
    if args.json:
        _emit_json(
            {
                "problem": args.problem,
                "rows": [dict(zip(header, r)) for r in rows],
            }
        )
    else:
        print("\t".join(header))
        for r in rows:
            print("\t".join(str(x) for x in r))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    """bench's cross-check of every algorithm of every problem, on seeded
    small k-trees, sparse random graphs and kill-heavy k-trees; each
    problem's decision procedure, and approx_mean, is checked against the
    agreed values."""
    from .generate import gen_ktree, gen_sparse_random

    checked = 0
    for i in range(args.count):
        kseed, sseed, hseed = args.seed + i, args.seed + 1000 + i, args.seed + 2000 + i
        for seed, g in (
            (kseed, gen_ktree(4 + i % 6, 1 + i % 3, seed=kseed, wt=(-8, 8), wtp=(1, 4))),
            (sseed, gen_sparse_random(5 + i % 6, 2, seed=sseed, wt=(-6, 6))),
            # mostly non-negative cycles: most nodes have zero credit, killed in several rounds
            (hseed, gen_ktree(6 + i % 6, 1 + i % 3, seed=hseed, wt=(-2, 8), wtp=(1, 4))),
        ):
            for problem, spec in _PROBLEMS.items():
                results = {a: solve(g, build_decomposition, spec.stats()) for a, solve in spec.algos.items()}
                bad = _disagreement(g, results)
                if bad:
                    print(f"selftest mismatch ({problem}) seed={seed}: {bad}", file=sys.stderr)
                    return EXIT_INTERNAL
                values = results["tw"]
                if problem == "energy":
                    bad = _decide_disagreement(g, values)
                else:
                    bad = _value_decide_disagreement(problem, g, values)
                if bad:
                    print(f"selftest mismatch ({problem} decide) seed={seed}: {bad}", file=sys.stderr)
                    return EXIT_INTERNAL
            checked += 1
    print(f"selftest passed ({checked} instances)")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _add_common(p, algos=None, approx=False, decide_nargs=None):
    p.add_argument("file", help="graph file (dimacs-like, edge list, or dot)")
    if algos:
        p.add_argument("--algo", choices=algos, default=algos[0])
    query = p.add_mutually_exclusive_group()
    if approx:
        query.add_argument("--approx", metavar="EPS", help="approximate to relative error EPS in (0,1)")
    if decide_nargs == 1:
        query.add_argument("--decide", metavar="NU", help="decide value >= NU; exit 0 yes / 3 no")
    elif decide_nargs == 2:
        query.add_argument(
            "--decide",
            nargs=2,
            metavar=("NODE", "CREDIT"),
            help="decide whether NODE survives with initial credit CREDIT; exit 0 yes / 3 no",
        )
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.add_argument("--stats", action="store_true", help="instrumentation on stderr")
    p.add_argument("--validate", action="store_true", help="check the decomposition first")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphvalues",
        description="Minimum cycle mean / cycle ratio / initial credit of weighted digraphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mean", help="minimum cycle mean per start node")
    _add_common(p, algos=tuple(_PROBLEMS["mean"].algos), approx=True, decide_nargs=1)
    p.set_defaults(func=lambda a: _cmd_values(a, "mean"))

    p = sub.add_parser("ratio", help="minimum cycle ratio wt/wt' per start node")
    _add_common(p, algos=tuple(_PROBLEMS["ratio"].algos), decide_nargs=1)
    p.set_defaults(func=lambda a: _cmd_values(a, "ratio"))

    p = sub.add_parser("energy", help="minimum initial credit per node")
    _add_common(p, algos=tuple(_PROBLEMS["energy"].algos), decide_nargs=2)
    p.set_defaults(func=lambda a: _cmd_values(a, "energy"))

    p = sub.add_parser("mincycle", help="minimum cycle weight (exact when >= 0)")
    _add_common(p)
    p.set_defaults(func=_cmd_mincycle)

    p = sub.add_parser("treedec", help="build and print a tree decomposition")
    _add_common(p)
    p.set_defaults(func=_cmd_treedec)

    p = sub.add_parser("gen", help="generate a seeded test instance (dimacs-like)")
    p.add_argument("kind", choices=("ktree", "sparse-random", "cfg-like"))
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=2, help="ktree width / sparse avg degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wt-min", type=int, default=-10)
    p.add_argument("--wt-max", type=int, default=10)
    p.add_argument("--wtp-max", type=int, default=1)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time algorithms over a corpus, cross-validating results")
    p.add_argument("dir", help="directory of graph files")
    p.add_argument("--problem", choices=tuple(_PROBLEMS), default="mean")
    p.add_argument("--algos", default="tw,karp", help="comma-separated algorithm list")
    p.add_argument("--reps", type=_positive_int, default=1)
    p.add_argument("--json", action="store_true")
    # tw rows build their trees as the per-node commands do, unchecked and unreported
    p.set_defaults(func=_cmd_bench, validate=False, stats=False)

    p = sub.add_parser("selftest", help="differential checks on small seeded instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=25)
    p.set_defaults(func=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if not e.code else EXIT_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (`graphvalues energy F | head -1`), which is
        # neither bad input nor an internal error. Stdout goes to devnull so the
        # exit flush does not raise again, as the Python docs' SIGPIPE note advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, KeyError, OSError, ZeroDivisionError, OracleTooBigError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
