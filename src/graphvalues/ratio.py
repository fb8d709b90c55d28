"""Minimum cycle mean and minimum cycle ratio.

The ratio value of a graph is the minimum over its cycles C of
nu* = wt(C) / wt'(C), where the secondary weights wt' are >= 1 per edge; the
mean value is the special case wt' = 1. For lam = p/q the cycle inequality
wt(C)/wt'(C) >= lam is equivalent to sum(q*wt(e) - p*wt'(e)) >= 0 over C, so
one reweighted sweep decides nu* vs lam exactly (the sweep has exact sign
even when its value is inexact).

Packing. Every search sweep (_RatioSearch.step) uses the packed edge weights
(q*wt(e) - p*wt'(e)) * K + wt'(e), K = 2**(max_wt'.bit_length() + height + 3).
Every map entry of the sweep then holds the packed sum c*K + s of one real
walk, c its reweighted weight and s its wt' sum, and divmod(value, K) gives
both back, provided 1 <= s < K. That holds: s >= 1 because wt' >= 1. A bag's
entries come from its children's entries, single folded edges, and closure
candidates (u, x) + (x, v) whose two parts are entries the closure does not
update, so a bag's walks have at most twice as many edges as the longest
walk below it, and at most 2 at a leaf bag: at most 2**(height + 1) edges.
The diagonal doubling d += d at most doubles once more, so
s <= max_wt' * 2**(height + 2) < K / 2. With 1 <= s < K, min-plus on the
packed values is the lexicographic minimum of (c, s): each entry's c is the
plain sweep's value, ties go to the smaller s, and the packed value has the
sign of c, so the sweep itself needs no change.

Newton step (Dinkelbach). A sweep reports every diagonal value it reads
at a root bag (MinCycleResult.closed_walks), each the packed (c, s) of a
closed walk W through the bag's node. When the sweep at lam reads c < 0,
the search moves to lam' = lam + c/(q*s) = wt(W)/wt'(W) for the W with the
smallest c/s (not the most negative c, which tends to be a long spliced
walk with a ratio near lam). Then nu* <= lam' < lam, because a closed
walk's ratio is an average of the ratios of the cycles it decomposes into.
The search stops at the first lam whose sweep gives c = 0: lam is a walk
ratio, so nu* <= lam, and c >= 0 means nu* >= lam.

Start. The zero test sweeps lam = 0: c = 0 gives nu* = 0, and a negative c
is already Newton's first step. When c is positive, the same pick, the
smallest ratio wt(W)/wt'(W) among the closed walks that sweep read, is a
closed walk's ratio and so bounds nu* from above; the search starts there.

Fallback. Newton gets at most _newton_cap steps. Past the cap, nu* lies
strictly between an integer lower bound and the last swept lam, and its
denominator is at most D = n * max(wt'). A Stern-Brocot search finds it:
the first run bisects the integer part under ceil(lam), and each later run
gallops (doubling, then bisecting) along one run of same-side steps, so
nu* = a/b takes O(log(ceil(lam) - lo) + log b) sweeps. A probe that reads
0 is nu*; passing denominator D raises InvariantError. The approximate mean
runs the same zero test and Newton steps under its own cap (approx_mean)
and bisects its bracket past it. All sweeps are counted in SearchStats by
phase: zero-test, newton, rational-refine, decide and bisect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (
    INF,
    InvariantError,
    WeightedDigraph,
    _gc_paused,
    induced_subgraph,
    tarjan_scc,
)
from .mincycle import min_cycle
from .treedec import TreeDecomposition, build_decomposition


@dataclass
class SearchStats:
    decisions: int = 0
    probes: list[tuple[str, Fraction]] = field(default_factory=list)

    def record(self, phase: str, nu: Fraction) -> None:
        self.decisions += 1
        self.probes.append((phase, nu))

    def count(self, phase: str) -> int:
        return sum(1 for p, _ in self.probes if p == phase)


class _RatioSearch:
    """Shared probe machinery over one graph + decomposition."""

    def __init__(self, g, t, stats, unit_wtp=False):
        self.g = g
        self.t = t if t is not None else build_decomposition(g)
        self.stats = stats if stats is not None else SearchStats()
        self.wtp = [1] * g.m if unit_wtp else g.wtp
        self.acyclic = f"graph has no cycle; {'mean' if unit_wtp else 'ratio'} value undefined"
        self.t_max = max(self.wtp, default=1)
        self.pack = 2 ** (self.t_max.bit_length() + self.t.height + 3)

    def step(self, lam: Fraction, phase: str):
        """One packed sweep at lam: None when the graph is acyclic, else
        (c, lam') with c the sweep's reweighted value and lam' the smallest
        ratio among the closed walks it read (None when c = 0)."""
        p, q = lam.numerator, lam.denominator
        k = self.pack
        a, b = q * k, p * k - 1  # (q*wt - p*wt')*k + wt' = a*wt - b*wt'
        w = [a * x - b * y for x, y in zip(self.g.wt, self.wtp)]
        r = min_cycle(self.g, self.t, weights=w)
        self.stats.record(phase, lam)
        if r.value == INF:
            return None
        c = r.value // k
        if c == 0:
            return 0, None
        best_c, best_s = divmod(r.closed_walks[0], k)
        for v in r.closed_walks:
            wc, ws = divmod(v, k)
            if wc * best_s < best_c * ws:
                best_c, best_s = wc, ws
        return c, Fraction(best_c + p * best_s, q * best_s)

    def sign(self, nu: Fraction, phase: str):
        """cmp(nu*, nu): +1 / 0 / -1, or None when the graph is acyclic."""
        found = self.step(nu, phase)
        return None if found is None else (found[0] > 0) - (found[0] < 0)


def _newton_cap(n: int, w_max: int, t_max: int) -> int:
    """Newton steps allowed before the Stern-Brocot fallback: as many sweeps
    as bisecting |nu*| <= w_max to width 1/(n*t_max)**2 would take."""
    return (w_max * (n * t_max) ** 2).bit_length() + 2


def _newton(s: _RatioSearch, cap: int, close=lambda c0, hi: False):
    """The zero test, then at most cap Newton steps past the start, or fewer
    once close(c0, hi) holds for the walk ratio hi next in line. Returns
    (c0, lam, hi): c0 the zero test's value, lam the last lam swept, and
    nu* <= hi < lam, or hi = lam = nu* when the last sweep read 0."""
    found = s.step(Fraction(0), "zero-test")
    if found is None:
        raise ValueError(s.acyclic)
    c0, hi = found
    lam, c = Fraction(0), c0
    if c0 > 0:  # hi is a closed walk's ratio, so nu* <= hi
        lam = hi
        c, hi = s.step(lam, "newton")
    steps = 0
    while c < 0 and steps < cap and not close(c0, hi):
        if not hi < lam:
            raise InvariantError("a Newton step failed to lower the ratio value")
        lam = hi
        c, hi = s.step(lam, "newton")
        steps += 1
    if c > 0:
        raise InvariantError("the Newton search ended on a positive sweep")
    return c0, lam, lam if c == 0 else hi


def _search_value(s: _RatioSearch) -> Fraction:
    cap = _newton_cap(s.g.n, max(1, s.g.max_abs_weight()), s.t_max)
    c0, lam, hi = _newton(s, cap)
    if hi == lam:
        return lam
    # lo < nu* < lam, as min wt/wt' <= nu* when not positive
    lo = 0 if c0 > 0 else min(a // b for a, b in zip(s.g.wt, s.wtp)) - 1
    d_max = s.g.n * s.t_max  # bounds the wt' sum of a cycle
    return _stern_brocot(lambda x: s.sign(x, "rational-refine"), lo, math.ceil(lam), d_max)


def _stern_brocot(sign, lo: int, hi: int, d_max: int) -> Fraction:
    """The fraction nu* with lo < nu* < hi and denominator <= d_max, read
    from sign(x) = cmp(nu*, x) by a Stern-Brocot descent that gallops along
    each run of same-side steps (Kwek and Mehlhorn, IPL 86, 2003)."""
    # nu* lies between the tree neighbours p/q (near) and r/t (far), with
    # 1/0 for infinity; side is sign() on the near side. A run moves the
    # near end to (p + k*r)/(q + k*t) for the largest k still on its side.
    p, q, r, t, side = lo, 1, 1, 0, 1
    k_ok, k_bad = 0, hi - lo  # the first run is the integer part, under hi
    while True:
        while k_bad is None or k_bad - k_ok > 1:
            # nu* lies strictly beyond (p + k_ok*r)/(q + k_ok*t), so its
            # denominator is larger than that node's
            if q + k_ok * t > d_max:
                raise InvariantError("the ratio search passed every denominator a cycle can have")
            k = 2 * k_ok if k_bad is None else (k_ok + k_bad) // 2
            x = Fraction(p + k * r, q + k * t)
            sg = sign(x)
            if sg == 0:
                return x
            if sg == side:
                k_ok = k
            else:
                k_bad = k
        # k_ok + 1 is on the far side, so the next run, which moves the far
        # end, starts with k = 1 known
        p, q, r, t = r, t, p + k_ok * r, q + k_ok * t
        side, k_ok, k_bad = -side, 1, None


def ratio_value(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    stats: SearchStats | None = None,
) -> tuple[Fraction, SearchStats]:
    """Exact minimum cycle ratio of g. Raises ValueError on acyclic input."""
    s = _RatioSearch(g, t, stats)
    return _search_value(s), s.stats


def mean_value(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    stats: SearchStats | None = None,
) -> tuple[Fraction, SearchStats]:
    """Exact minimum cycle mean of g. Raises ValueError on acyclic input."""
    s = _RatioSearch(g, t, stats, unit_wtp=True)
    return _search_value(s), s.stats


def _decide(g, t, nu, stats, unit_wtp):
    s = _RatioSearch(g, t, stats, unit_wtp=unit_wtp)
    sg = s.sign(Fraction(nu), "decide")
    if sg is None:
        raise ValueError(s.acyclic)
    return sg >= 0


def decide_ratio_geq(g, t, nu, stats=None) -> bool:
    """Is the ratio value >= nu? Raises ValueError on acyclic input."""
    return _decide(g, t, nu, stats, unit_wtp=False)


def decide_mean_geq(g, t, nu, stats=None) -> bool:
    """Is the mean value >= nu? Raises ValueError on acyclic input."""
    return _decide(g, t, nu, stats, unit_wtp=True)


# -- per-node values ---------------------------------------------------------------


@_gc_paused
def values_all_nodes(g: WeightedDigraph, solve) -> list:
    """Per start node: the best value among cycles reachable from it.

    One pass over Tarjan's components, sinks first: a component's value is
    the least of its successors' values, final already, and, when one of its
    edges stays inside it (a self-loop for a singleton), of ``solve`` on its
    induced subgraph (g itself when that is all of g); INF if neither.
    """
    scc = tarjan_scc(g)
    comp_of, dst, out = scc.comp_of, g.dst, g.out
    best: list = []  # per component, in Tarjan order
    for ci, comp in enumerate(scc.components):
        val, cyclic = INF, False
        for u in comp:
            for i in out[u]:
                cj = comp_of[dst[i]]
                if cj == ci:
                    cyclic = True
                elif best[cj] < val:
                    val = best[cj]
        if cyclic:  # solve's value wins a tie
            val = min(solve(g if len(comp) == g.n else induced_subgraph(g, comp)[0]), val)
        best.append(val)
    return [best[c] for c in comp_of]


def ratio_values_all_nodes(g: WeightedDigraph, t_builder=None, stats=None) -> list:
    build = t_builder or build_decomposition
    return values_all_nodes(g, lambda sub: ratio_value(sub, build(sub), stats)[0])


def mean_values_all_nodes(g: WeightedDigraph, t_builder=None, stats=None) -> list:
    build = t_builder or build_decomposition
    return values_all_nodes(g, lambda sub: mean_value(sub, build(sub), stats)[0])


# -- approximation ---------------------------------------------------------------


def _approx_cap(n: int, eps: Fraction) -> int:
    """Newton steps approx_mean allows before it bisects: ceil(log2(n/eps)) + 2."""
    return (math.ceil(n / eps) - 1).bit_length() + 2


def approx_mean(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    eps=Fraction(1, 10),
    stats: SearchStats | None = None,
) -> tuple[Fraction, SearchStats]:
    """Mean value mu* within relative error eps in O(log(n/eps)) sweeps.

    The zero test and at most _approx_cap(n, eps) Newton steps run as in
    the exact search, and a sweep that reads 0 gives mu* exactly. Else
    lo <= mu* <= hi for hi the last Newton point (a closed walk's mean) and
    mag <= |mu*|, with c the zero test's value: c > 0 gives lo = mag = c/n
    (a cycle weighs >= c over <= n edges); c < 0 gives lo = c and
    mag = max(|hi|, |c| / (n*m*2^h)), as c <= c* <= mu* < 0 for c* the
    least cycle weight, |c| <= |c*| * m * 2^h (the sweep's undershoot) and
    |c*| <= n * |mu*|. Once hi - lo <= eps * mag, hi is returned; past the
    cap the bracket is bisected to that width, in at most ceil(log2(n/eps))
    probes when c > 0 (as hi <= c) and ceil(log2(n*m*2^h/eps)) when c < 0.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    s = _RatioSearch(g, t, stats, unit_wtp=True)
    undershoot = g.n * max(1, g.m) * 2**s.t.height

    def bracket(c0, hi):  # (lo, mag): lower bounds on mu* and on |mu*|
        lo = Fraction(c0, g.n) if c0 > 0 else Fraction(c0)
        return lo, max(lo, -hi, -lo / undershoot)

    def close(c0, hi):
        lo, mag = bracket(c0, hi)
        return hi - lo <= eps * mag

    c0, lam, hi = _newton(s, _approx_cap(g.n, eps), close)
    if hi == lam:
        return hi, s.stats
    lo, mag = bracket(c0, hi)
    while hi - lo > eps * mag:
        mid = (lo + hi) / 2
        sg = s.sign(mid, "bisect")
        if sg == 0:
            return mid, s.stats
        if sg > 0:
            lo = mid
        else:
            hi = mid
    return hi, s.stats
