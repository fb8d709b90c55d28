"""Minimum cycle mean and minimum cycle ratio.

The ratio value of a graph is the minimum over its cycles C of
wt(C) / wt'(C), where the secondary weights wt' are >= 1 per edge; the mean
value is the special case wt' = 1. Everything here reduces to sign questions
about reweighted minimum cycles: for nu = p/q the cycle inequality
wt(C)/wt'(C) >= nu is equivalent to sum(q*wt(e) - p*wt'(e)) >= 0 over C, so
one reweighted sweep decides nu* vs nu exactly (the sweep has exact sign
even when its value is inexact).

The exact value search probes nu = 0, brackets |nu*| by doubling, binary
searches the integer part, then bisects the remaining unit interval down to
width < 1/D**2 with D = n * max(wt'), at which point at most one fraction
with denominator <= D fits in the interval and a Stern-Brocot walk
reconstructs it. All probes are counted in SearchStats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (
    INF,
    InvariantError,
    WeightedDigraph,
    component_has_cycle,
    induced_subgraph,
    propagate_component_values,
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
        self.wt = [e.wt for e in g.edges]
        self.wtp = [1] * g.m if unit_wtp else [e.wtp for e in g.edges]
        self.t_max = max(self.wtp, default=1)

    def sign(self, nu: Fraction, phase: str):
        """cmp(nu*, nu): +1 / 0 / -1, or None when the graph is acyclic."""
        p, q = nu.numerator, nu.denominator
        w = [q * a - p * b for a, b in zip(self.wt, self.wtp)]
        r = min_cycle(self.g, self.t, weights=w)
        self.stats.record(phase, nu)
        if r.value == INF:
            return None
        return (r.value > 0) - (r.value < 0)


def simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """The unique smallest-denominator fraction strictly between a and b."""
    if a >= b:
        raise ValueError("need a < b")
    if b <= 0:
        return -simplest_between(-b, -a)
    if a < 0:
        return Fraction(0)
    ia = a.numerator // a.denominator
    if Fraction(ia + 1) < b:
        return Fraction(ia + 1)
    fa, fb = a - ia, b - ia
    if fa == 0:
        # Simplest in (0, fb) is 1/k for the smallest k with 1/k < fb.
        return ia + Fraction(1, fb.denominator // fb.numerator + 1)
    return ia + 1 / simplest_between(1 / fb, 1 / fa)


def _search_value(s: _RatioSearch) -> Fraction:
    g = s.g
    sign0 = s.sign(Fraction(0), "zero-test")
    if sign0 is None:
        raise ValueError("graph has no cycle; ratio value undefined")
    if sign0 == 0:
        return Fraction(0)

    # Exponential bracketing of the integer part. |nu*| <= max|wt| because
    # wt' >= 1 per edge, so the doubling must stop within the cap.
    w_max = max(1, g.max_abs_weight())
    cap = max(1, g.n * w_max).bit_length() + 2
    direction = sign0  # +1: nu* > 0, search right; -1: nu* < 0, search left
    lo, hi = (Fraction(0), None) if direction > 0 else (None, Fraction(0))
    for i in range(cap + 1):
        probe = Fraction(direction * 2**i)
        sg = s.sign(probe, "exponential")
        if sg == 0:
            return probe
        if direction > 0:
            if sg < 0:
                hi = probe
                break
            lo = probe
        else:
            if sg > 0:
                lo = probe
                break
            hi = probe
    if lo is None or hi is None:
        raise InvariantError("ratio value escaped its magnitude bound")

    # Binary search for the floor; invariant lo < nu* < hi throughout.
    while hi - lo > 1:
        mid = Fraction((lo + hi) // 2)
        sg = s.sign(mid, "binary")
        if sg == 0:
            return mid
        if sg > 0:
            lo = mid
        else:
            hi = mid

    # Bisect (floor, floor+1) until only one candidate denominator <= D fits.
    d_bound = g.n * s.t_max
    while (hi - lo) * d_bound * d_bound >= 1:
        mid = (lo + hi) / 2
        sg = s.sign(mid, "rational-refine")
        if sg == 0:
            return mid
        if sg > 0:
            lo = mid
        else:
            hi = mid
    cand = simplest_between(lo, hi)
    if s.sign(cand, "rational-refine") != 0:
        raise InvariantError("rational reconstruction missed the ratio value")
    return cand


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
    sg = _RatioSearch(g, t, stats, unit_wtp=unit_wtp).sign(Fraction(nu), "decide")
    if sg is None:
        raise ValueError("graph has no cycle; ratio value undefined")
    return sg >= 0


def decide_ratio_geq(g, t, nu, stats=None) -> bool:
    """Is the ratio value >= nu? Raises ValueError on acyclic input."""
    return _decide(g, t, nu, stats, unit_wtp=False)


def decide_mean_geq(g, t, nu, stats=None) -> bool:
    """Is the mean value >= nu? Raises ValueError on acyclic input."""
    return _decide(g, t, nu, stats, unit_wtp=True)


# -- per-node values ---------------------------------------------------------------


def values_all_nodes(g: WeightedDigraph, solve) -> list:
    """Per start node: the best value among cycles reachable from it.

    ``solve`` maps the induced subgraph of one cyclic strongly connected
    component to its value; component values then flow backward over the
    condensation.
    """
    scc = tarjan_scc(g)
    per = []
    for ci, comp in enumerate(scc.components):
        if not component_has_cycle(g, scc, ci):
            per.append(INF)
            continue
        sub, _ = induced_subgraph(g, comp)
        per.append(solve(sub))
    return propagate_component_values(g, scc, per)


def ratio_values_all_nodes(g: WeightedDigraph, t_builder=None, stats=None) -> list:
    build = t_builder or build_decomposition
    return values_all_nodes(g, lambda sub: ratio_value(sub, build(sub), stats)[0])


def mean_values_all_nodes(g: WeightedDigraph, t_builder=None, stats=None) -> list:
    build = t_builder or build_decomposition
    return values_all_nodes(g, lambda sub: mean_value(sub, build(sub), stats)[0])


# -- approximation ---------------------------------------------------------------


def approx_mean(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    eps=Fraction(1, 10),
    stats: SearchStats | None = None,
) -> tuple[Fraction, SearchStats]:
    """Mean value within relative error eps in O(log(n/eps)) decision sweeps.

    One plain sweep classifies the sign of the value. A nonnegative sweep
    value c is bisected directly on [0, c]. For a negative c the weights are
    shifted by |c| (making every cycle mean nonnegative), the precision is
    tightened by the sweep's worst-case undershoot factor alpha, and the
    result is shifted back. Bisection stops once the bracket is narrower
    than eps' times a lower bound on the (shifted) value, so the returned
    right endpoint obeys |mu - mu*| <= eps * |mu*|.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if t is None:
        t = build_decomposition(g)
    s = _RatioSearch(g, t, stats, unit_wtp=True)
    base = min_cycle(g, t)
    s.stats.record("sweep", Fraction(0))
    if base.value == INF:
        raise ValueError("graph has no cycle; mean value undefined")
    if base.value == 0:
        return Fraction(0), s.stats

    if base.value > 0:
        lo, hi = Fraction(0), Fraction(base.value)
        shift = Fraction(0)
        eps_eff = eps
    else:
        # Tightening eps by alpha = 1 + n*m*2^h covers the sweep's
        # worst-case undershoot |c| <= |c*| * m * 2^h and |c*| <= n * |mu*|.
        alpha = 1 + g.n * base.blowup_bound(g.m)
        eps_eff = eps / alpha
        shift = Fraction(-base.value)
        s.wt = [a - base.value for a in s.wt]
        shifted = min_cycle(g, t, weights=s.wt)
        s.stats.record("sweep", Fraction(0))
        if shifted.value == INF or shifted.value < 0:
            raise InvariantError("weight shift failed to clear negative cycles")
        if shifted.value == 0:
            return -shift, s.stats
        lo, hi = Fraction(0), Fraction(shifted.value)

    floor_bound = Fraction(hi, g.n)  # shifted value >= c/n since |C| <= n
    while hi - lo > eps_eff * floor_bound:
        mid = (lo + hi) / 2
        sg = s.sign(mid, "bisect")
        if sg == 0:
            return mid - shift, s.stats
        if sg > 0:
            lo = mid
        else:
            hi = mid
    return hi - shift, s.stats
