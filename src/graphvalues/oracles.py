"""Small, independent reference implementations used to verify the fast code.

Everything here favors obviousness over speed: explicit cycle enumeration,
the classical O(n*m) mean-cycle recurrence, a value-iteration fixpoint for
initial credits, and plain Bellman-Ford with witness extraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import INF, WeightedDigraph, tarjan_scc


# Karp's table has (n + 1) * n cells; past this many a strongly connected
# graph is refused before any is allocated (about 2000 nodes).
KARP_MAX_CELLS = 4_000_000


class OracleTooBigError(RuntimeError):
    """Raised when the instance exceeds a reference's size cap; pick a smaller one."""


@dataclass(frozen=True)
class CycleRecord:
    """One simple cycle: its node sequence (first node repeated at the end is
    omitted), total weights and length."""

    nodes: tuple[int, ...]
    wt: int
    wtp: int

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def mean(self) -> Fraction:
        return Fraction(self.wt, len(self.nodes))

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.wt, self.wtp)


def enumerate_cycles(g: WeightedDigraph, cap: int = 10**6) -> list[CycleRecord]:
    """All simple cycles, each reported once starting from its smallest node.

    Iterative DFS with on-path marking, so long cycles need no recursion;
    raises OracleTooBigError past ``cap`` cycles.
    """
    found: list[CycleRecord] = []
    adj = [[(g.dst[i], g.wt[i], g.wtp[i]) for i in out] for out in g.out]
    on_path = [False] * g.n
    for s in range(g.n):
        on_path[s] = True
        path = [s]
        # per path node: its remaining out-edges and the path weights up to it
        stack = [(iter(adj[s]), 0, 0)]
        while stack:
            it, wt, wtp = stack[-1]
            for (v, w, wp) in it:
                if v == s:
                    if len(found) >= cap:
                        raise OracleTooBigError(f"more than {cap} simple cycles")
                    found.append(CycleRecord(tuple(path), wt + w, wtp + wp))
                elif v > s and not on_path[v]:
                    on_path[v] = True
                    path.append(v)
                    stack.append((iter(adj[v]), wt + w, wtp + wp))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return found


def min_mean_by_enumeration(cycles: Iterable[CycleRecord]):
    return min((c.mean for c in cycles), default=INF)


def min_ratio_by_enumeration(cycles: Iterable[CycleRecord]):
    return min((c.ratio for c in cycles), default=INF)


def min_cycle_weight_by_enumeration(cycles: Iterable[CycleRecord]):
    return min((c.wt for c in cycles), default=INF)


def karp_mean(g: WeightedDigraph) -> Fraction:
    """Minimum cycle mean of a strongly connected graph.

    Classical table D[k][v] = least weight of a walk with exactly k edges
    from a fixed source; the answer is min over v with D[n][v] finite of
    max over k with D[k][v] finite of (D[n][v] - D[k][v]) / (n - k).
    Raises OracleTooBigError when the table would exceed KARP_MAX_CELLS.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph has no cycles")
    if (n + 1) * n > KARP_MAX_CELLS:
        raise OracleTooBigError(f"Karp's table needs {(n + 1) * n} cells, more than {KARP_MAX_CELLS}")
    scc = tarjan_scc(g)
    if len(scc) != 1:
        raise ValueError("karp_mean requires a strongly connected graph")
    if n == 1 and g.m == 0:
        raise ValueError("acyclic graph: mean undefined")

    D = [[None] * n for _ in range(n + 1)]
    D[0][0] = 0
    for k in range(1, n + 1):
        prev, cur = D[k - 1], D[k]
        for u, v, w in zip(g.src, g.dst, g.wt):
            du = prev[u]
            if du is None:
                continue
            cand = du + w
            if cur[v] is None or cand < cur[v]:
                cur[v] = cand
    best = None
    for v in range(n):
        dn = D[n][v]
        if dn is None:
            continue
        worst = None
        for k in range(n):
            dk = D[k][v]
            if dk is None:
                continue
            val = Fraction(dn - dk, n - k)
            if worst is None or val > worst:
                worst = val
        if worst is not None and (best is None or worst < best):
            best = worst
    if best is None:
        raise ValueError("no cycle found")
    return best


def energy_fixpoint(g: WeightedDigraph) -> list:
    """Minimum initial credit per node, standard convention (values >= 0).

    Least fixpoint of f(u) = min over edges (u,v) of max(0, f(v) - wt(u,v)),
    iterated from f == 0. Nodes with no outgoing edge get INF (no infinite
    path starts there), as does any node whose value climbs past n*W.
    """
    n = g.n
    clamp = n * g.max_abs_weight()
    f: list = [0 if g.out[u] else INF for u in range(n)]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            if not g.out[u] or f[u] == INF:
                continue
            best = INF
            for i in g.out[u]:
                fv = f[g.dst[i]]
                cand = INF if fv == INF else max(0, fv - g.wt[i])
                if cand < best:
                    best = cand
            if best != INF and best > clamp:
                best = INF
            if best != f[u]:
                f[u] = best
                changed = True
    return f


def bellman_ford_edges(
    n: int,
    edges: Sequence[tuple[int, int, int]],
    source: int | None = None,
) -> tuple[list, list, list[int] | None]:
    """Shortest walk distances over (u, v, w) triples, with predecessor links
    and a cycle witness.

    source=None starts every node at distance 0 (virtual super-source), which
    detects negative cycles anywhere. Returns (dist, pred, cycle); ``cycle``
    is a node list c0..ck with ck == c0 of negative total weight, or None.
    Distances are only shortest-path values when ``cycle`` is None.
    """
    dist: list = [INF] * n
    pred: list = [None] * n
    if source is None:
        for u in range(n):
            dist[u] = 0
    else:
        dist[source] = 0
    for _ in range(max(0, n - 1)):
        changed = False
        for (u, v, w) in edges:
            du = dist[u]
            if du == INF:
                continue
            cand = du + w
            if cand < dist[v]:
                dist[v] = cand
                pred[v] = u
                changed = True
        if not changed:
            return dist, pred, None
    start = None
    for (u, v, w) in edges:
        du = dist[u]
        if du != INF and du + w < dist[v]:
            dist[v] = du + w
            pred[v] = u
            start = v
            break
    if start is None:
        return dist, pred, None
    # Walk predecessors n steps to land inside the cycle, then unwind it.
    u = start
    for _ in range(n):
        u = pred[u]
    cycle = [u]
    v = pred[u]
    while v != u:
        cycle.append(v)
        v = pred[v]
    cycle.append(u)
    cycle.reverse()
    return dist, pred, cycle
