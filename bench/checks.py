"""Answer checks for the benchmark, sharing no code with graphvalues.

Each check reads the DIMACS text the solver was given with its own parser
and decides from certificates it computes itself whether a list of per-node
values is the exact answer:

* cycle values (mean or ratio): every strongly connected component C gets
  the value of its nodes x_C. With x_C = p/q, the weights q*wt - p*wt' on
  C's internal edges must admit potentials (no cycle below x_C), and when
  x_C is smaller than every value C can reach through an out-edge, the
  potential-tight internal edges must contain a cycle (a cycle at x_C);
* energies: the values must be a fixpoint of
  E(u) = min over u->v of max(0, E(v) - wt), tight edges among nodes with
  0 < E < inf must be acyclic, and the nodes at inf must induce no cycle of
  nonnegative weight. The fixpoint is an upper bound on the true minimum
  credit; the two other conditions rule out every larger fixpoint.

Every function returns None for an accepted answer and a one-line reason
otherwise.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

INF = math.inf


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, int, int, int]]]:
    """(n, [(src, dst, wt, wtp)]) with 0-based ids from 'p mrc' / 'a' lines."""
    n = None
    edges = []
    seen = set()
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "a":
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            edges.append((u, v, int(parts[3]), int(parts[4]) if len(parts) > 4 else 1))
        else:
            raise ValueError(f"unexpected line {line!r}")
    if n is None:
        raise ValueError("no problem line")
    return n, edges


def strong_components(n: int, edges) -> tuple[list[int], list[list[int]]]:
    """Kosaraju: (component id per node, members per component)."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, v, *_ in edges:
        succ[u].append(v)
        pred[v].append(u)
    order = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(succ[s]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(succ[v])))
                    break
            else:
                stack.pop()
                order.append(u)
    comp = [-1] * n
    members: list[list[int]] = []
    for s in reversed(order):
        if comp[s] != -1:
            continue
        c = len(members)
        comp[s] = c
        group = [s]
        stack = [s]
        while stack:
            u = stack.pop()
            for v in pred[u]:
                if comp[v] == -1:
                    comp[v] = c
                    group.append(v)
                    stack.append(v)
        members.append(group)
    return comp, members


def potentials(k: int, arcs) -> list[int] | None:
    """Potentials pi with pi[v] <= pi[u] + w for every arc (u, v, w) over
    nodes 0..k-1, or None when some cycle has negative weight (SPFA from a
    virtual source joined to every node by a 0 arc)."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for u, v, w in arcs:
        out[u].append((v, w))
    dist = [0] * k
    hops = [0] * k
    queued = [True] * k
    queue = deque(range(k))
    while queue:
        u = queue.popleft()
        queued[u] = False
        du = dist[u]
        for v, w in out[u]:
            if du + w < dist[v]:
                dist[v] = du + w
                hops[v] = hops[u] + 1
                if hops[v] >= k:
                    return None  # a shortest path repeats a node
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    return dist


def has_cycle(k: int, arcs) -> bool:
    """Does the digraph on 0..k-1 with these (u, v) arcs contain a cycle?"""
    indeg = [0] * k
    out: list[list[int]] = [[] for _ in range(k)]
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    ready = [u for u in range(k) if indeg[u] == 0]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return removed < k


def _exact(value) -> bool:
    return value == INF or isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def check_cycle_values(text: str, vals, ratio: bool) -> str | None:
    """Check per-node minimum cycle means (ratio=False: every wt' is 1) or
    minimum cycle ratios reachable from each node; acyclic reach is inf."""
    n, edges = parse_dimacs(text)
    if len(vals) != n:
        return f"{len(vals)} values for {n} nodes"
    bad = next((u for u in range(n) if not _exact(vals[u])), None)
    if bad is not None:
        return f"node {bad}: value {vals[bad]!r} is not exact"
    comp, members = strong_components(n, edges)
    internal: list[list[tuple[int, int, int, int]]] = [[] for _ in members]
    reach = [INF] * len(members)  # best value over edges leaving the component
    for e in edges:
        cu, cv = comp[e[0]], comp[e[1]]
        if cu == cv:
            internal[cu].append(e)
        elif vals[e[1]] < reach[cu]:
            reach[cu] = vals[e[1]]
    for c, group in enumerate(members):
        x = vals[group[0]]
        if any(vals[u] != x for u in group):
            return f"component of node {group[0]}: nodes disagree"
        if not internal[c]:  # a single node without a self-loop
            if x != reach[c]:
                return f"acyclic node {group[0]}: {x} != best successor {reach[c]}"
            continue
        if x == INF or x > reach[c]:
            return f"component of node {group[0]}: {x} above what it reaches ({reach[c]})"
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        local = {u: i for i, u in enumerate(group)}
        arcs = [
            (local[u], local[v], q * w - p * (wp if ratio else 1)) for u, v, w, wp in internal[c]
        ]
        pi = potentials(len(group), arcs)
        if pi is None:
            return f"component of node {group[0]}: a cycle lies below {x}"
        if x < reach[c]:
            tight = [(a, b) for a, b, w in arcs if w + pi[a] - pi[b] == 0]
            if not has_cycle(len(group), tight):
                return f"component of node {group[0]}: no cycle attains {x}"
    return None


def check_energy(text: str, vals) -> str | None:
    """Check per-node minimum initial credits (>= 0, or inf)."""
    n, edges = parse_dimacs(text)
    if len(vals) != n:
        return f"{len(vals)} values for {n} nodes"
    for u in range(n):
        if not (vals[u] == INF or isinstance(vals[u], int) and vals[u] >= 0):
            return f"node {u}: {vals[u]!r} is not a credit"
    best = [INF] * n
    for u, v, w, _ in edges:
        need = max(0, vals[v] - w)
        if need < best[u]:
            best[u] = need
    bad = next((u for u in range(n) if vals[u] != best[u]), None)
    if bad is not None:
        return f"node {bad}: {vals[bad]} is not min over out-edges of max(0, E(v) - wt) = {best[bad]}"
    positive = [u for u in range(n) if 0 < vals[u] < INF]
    local = {u: i for i, u in enumerate(positive)}
    tight = [
        (local[u], local[v])
        for u, v, w, _ in edges
        if u in local and v in local and vals[u] == vals[v] - w
    ]
    if has_cycle(len(positive), tight):
        return "tight edges among positive finite credits form a cycle"
    # wt(C) >= 0 on a cycle of length k <= n iff (n+1)*(-wt(C)) - k < 0.
    stuck = [u for u in range(n) if vals[u] == INF]
    local = {u: i for i, u in enumerate(stuck)}
    arcs = [(local[u], local[v], -(n + 1) * w - 1) for u, v, w, _ in edges if u in local and v in local]
    if potentials(len(stuck), arcs) is None:
        return "nodes at inf hold a cycle of nonnegative weight"
    return None
