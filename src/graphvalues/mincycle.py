"""Minimum cycle weight by a bottom-up sweep of a tree decomposition.

Each bag carries a map of local distances: weights of the best known walks
between pairs of its nodes, keyed ``u * n + v``, built from the maps of its
children plus the edges folded at the bag. When the sweep reaches the root
bag of a node x it removes every entry that involves x, closes the pairs
through x, (u, x) + (x, v) for u, v != x, and reads the diagonal entry
(x, x): the weight of the best closed walk through x seen so far. The
parent bag does not contain x, so what it receives holds no x at all.

Which bag each edge folds at depends on the graph and the tree, not on the
weights, so the per-bag fold lists of edge indices are built once per
(graph, decomposition) and cached on the decomposition, with the node
rooted at each bag and the most maps a sweep holds at once. The mean and
ratio searches, which sweep one decomposition with new weights per
decision, build them once.

The resulting value c is exact whenever c >= 0 (and c is +inf exactly when
the graph is acyclic). A negative c certifies a negative cycle but may
undershoot the true minimum: closing through x can splice walks that share
edges, so c only satisfies c <= c* and |c| <= |c*| * m * 2**height. Sign
questions are therefore answered exactly, which is all the decision
procedures built on top of this need.

Besides the minimum, a sweep reports every diagonal entry (x, x) it reads
at a root bag, before the doubling (MinCycleResult.closed_walks): each is
the weight of one closed walk through x, which the exact ratio search packs
with the walk's wt' sum to pick its first and each next Newton point (see
ratio.py).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import INF, WeightedDigraph
from .treedec import TreeDecomposition, build_decomposition, edge_fold_table


@dataclass
class MinCycleResult:
    value: object  # int, or INF when the graph has no cycle
    height: int
    peak_maps: int  # most maps simultaneously retained during the sweep
    exact: bool  # True iff value >= 0 or value is INF
    # Every diagonal entry (x, x) read at a root bag, before the doubling:
    # each is the weight of one closed walk through x. Empty iff value is INF.
    closed_walks: list = field(default_factory=list)

    @property
    def negative(self) -> bool:
        return self.value < 0  # False for INF

    def blowup_bound(self, m: int) -> int:
        """|value| <= |true minimum| * this factor (1 when exact)."""
        return 1 if self.exact else max(1, m) * 2**self.height


def _peak_maps(t: TreeDecomposition) -> int:
    """Most maps held at once when the bags are swept in t.postorder()."""
    live = peak = 0
    children = t.children
    for b in t.postorder():
        live += 1 - len(children[b])
        if live > peak:
            peak = live
    return peak


def _sweep(g: WeightedDigraph, t: TreeDecomposition, fold: list, rooted: list, wt) -> tuple:
    """``(best, walks)`` under weights ``wt``: the minimum closed-walk weight
    found, or INF, and the diagonal entries met at root bags."""
    n, src, dst = g.n, g.src, g.dst
    bags, children = t.bags, t.children
    maps: list = [None] * len(bags)
    best = INF
    walks = []
    for b in t.postorder():
        ch = children[b]
        if ch:
            cur = maps[ch[0]]
            get = cur.get
            for c in ch[1:]:
                for k, w in maps[c].items():
                    old = get(k)
                    if old is None or w < old:
                        cur[k] = w
                maps[c] = None
            maps[ch[0]] = None
        else:
            cur = {}
            get = cur.get
        for i in fold[b]:
            k = src[i] * n + dst[i]
            w = wt[i]
            old = get(k)
            if old is None or w < old:
                cur[k] = w
        x = rooted[b]
        if x is not None:
            pop = cur.pop
            base = x * n
            d = pop(base + x, None)
            ins, outs = [], []
            for v in bags[b]:
                if v != x:
                    w = pop(base + v, None)
                    if w is not None:
                        outs.append((v, w))
                    w = pop(v * n + x, None)
                    if w is not None:
                        ins.append((v * n, w))
            for ubase, a in ins:
                for v, c in outs:
                    w = a + c
                    k = ubase + v
                    old = get(k)
                    if old is None or w < old:
                        cur[k] = w
            if d is not None:
                walks.append(d)
                if d < 0:
                    d += d  # the cycle through x taken twice
                if d < best:
                    best = d
        maps[b] = cur
    return best, walks


def min_cycle(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    weights: list | None = None,
) -> MinCycleResult:
    """Minimum cycle weight of g (see module docstring for the guarantee).

    ``weights`` optionally replaces edge weights by index, so one
    decomposition can be reused across many reweighted sweeps. The fold
    lists are built on the first sweep of (g, t) and cached on ``t``;
    another graph object on the same tree builds its own. A ``t`` of
    another node count raises ValueError, one with a bag that is the root
    bag of two nodes InvariantError.
    """
    if t is None:
        t = build_decomposition(g)
    elif t.n_nodes != g.n:
        raise ValueError(f"decomposition has {t.n_nodes} nodes, graph has {g.n}")
    cache = t.fold_cache
    if cache is None or cache[0] is not g:
        fold = edge_fold_table(g, t)
        rooted = [t.single_rooted(b) for b in range(len(t.bags))]
        cache = t.fold_cache = (g, fold, rooted, _peak_maps(t))
    _, fold, rooted, peak = cache
    best, walks = _sweep(g, t, fold, rooted, g.wt if weights is None else weights)
    return MinCycleResult(best, t.height, peak, best >= 0, walks)
