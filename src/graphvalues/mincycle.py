"""Minimum cycle weight by a bottom-up sweep of a tree decomposition.

Each bag carries a map of local distances: weights of the best known walks
between pairs of its nodes, built from the maps of its children plus the
edges folded at the bag. When the sweep reaches the root bag of a node x it
closes all pairs through x and reads the diagonal entry (x, x), the weight
of the best closed walk through x seen so far.

Which map entries can ever hold a walk depends on the edges and the tree,
not on the weights. So the fold assignment, the bag-local slot layout of
every map and the index lists that move entries between maps are compiled
once per (graph, decomposition) into a :class:`SweepPlan`, cached on the
decomposition; every sweep on it, whatever the weights, only runs min-plus
over plain lists. A map holds exactly the entries that can be finite, and
entries through x that the parent can never see are not updated when
closing through x. The mean and ratio searches, which sweep one
decomposition with new weights per decision, therefore pay for the
compilation once.

The resulting value c is exact whenever c >= 0 (and c is +inf exactly when
the graph is acyclic). A negative c certifies a negative cycle but may
undershoot the true minimum: closing through x can splice walks that share
edges, so c only satisfies c <= c* and |c| <= |c*| * m * 2**height. Sign
questions are therefore answered exactly, which is all the decision
procedures built on top of this need.

Besides the minimum, a sweep reports every negative diagonal entry (x, x)
it reads at a root bag (MinCycleResult.closed_walks): each is the weight of
one closed walk through x, which the exact ratio search packs with the
walk's wt' sum to take Newton steps (see ratio.py).
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import add, itemgetter

from .graph import INF, WeightedDigraph
from .treedec import TreeDecomposition, build_decomposition, edge_fold_table


@dataclass
class MinCycleResult:
    value: object  # int, or INF when the graph has no cycle
    height: int
    peak_maps: int  # most maps simultaneously retained during the sweep
    exact: bool  # True iff value >= 0 or value is INF
    # Every negative diagonal entry (x, x) read at a root bag, before the
    # doubling: each is the weight of one closed walk through x.
    closed_walks: list = field(default_factory=list)

    @property
    def negative(self) -> bool:
        return self.value < 0  # False for INF

    def blowup_bound(self, m: int) -> int:
        """|value| <= |true minimum| * this factor (1 when exact)."""
        return 1 if self.exact else max(1, m) * 2**self.height


def _getter(slots: tuple):
    """A function from a list to the tuple of its entries at ``slots``, or
    None when there are none."""
    if not slots:
        return None
    if len(slots) == 1:
        i = slots[0]
        return lambda xs: (xs[i],)
    return itemgetter(*slots)


class SweepPlan:
    """The weight-independent part of a sweep over one (graph, decomposition).

    A bag's map is a list with one slot per node pair that can hold a walk
    there. ``steps`` holds one tuple per bag in postorder, ``(take, extra,
    fold, new, fresh, closed, diag)``, in slot numbers:

    - ``take``: gets the first source of each slot that the children's maps
      reach, out of those maps laid end to end; ``extra`` the (slot, source)
      pairs of every further source;
    - ``fold``: the slot of each folded edge whose pair a child already
      reaches, followed in ``edge_order`` by the ``new`` edges that open the
      next slots;
    - ``fresh``: None, or the two getters of the closure candidates
      (u, x) + (x, v), u, v != x, through the node x rooted here that open
      the next slots; ``closed``: None, or the slots that already hold a
      walk and the two getters of their candidates. Pairs through x itself
      are never updated: the parent does not contain x;
    - ``diag``: the slot (x, x), or -1.

    Which slots exist follows from the edges alone, so the sweep never
    touches a slot without a walk. Equal steps are shared, so the plan
    costs about one pointer per bag.
    """

    __slots__ = ("graph", "steps", "edge_order", "peak_maps", "height")

    def __init__(self, g: WeightedDigraph, t: TreeDecomposition):
        fold = edge_fold_table(g, t)
        shared: dict = {}
        getters: dict = {}

        def share(x):
            return shared.setdefault(x, x)

        def get(slots):
            slots = tuple(slots)
            if slots not in getters:
                getters[slots] = _getter(slots)
            return getters[slots]

        self.graph = g
        self.steps: list[tuple] = []
        self.edge_order = array("l")  # edge indices in fold order
        pending: dict[int, list] = {}  # bag -> the pair of each slot of its map
        live = peak = 0
        for b in t.postorder():
            bag = t.bags[b]
            keys: list[tuple[int, int]] = []
            index: dict[tuple[int, int], int] = {}
            take, extra = [], []
            src = 0
            for c in t.children[b]:
                for k in pending.pop(c):
                    if k[0] in bag and k[1] in bag:
                        if k in index:
                            extra.append((index[k], src))
                        else:
                            index[k] = len(keys)
                            keys.append(k)
                            take.append(src)
                    src += 1
                live -= 1
            old, new = [], []
            for u, v, ei in fold[b]:
                if (u, v) in index:
                    old.append((index[(u, v)], ei))
                else:
                    index[(u, v)] = len(keys)
                    keys.append((u, v))
                    new.append(ei)
            fold[b] = None
            self.edge_order.extend(ei for _, ei in old)
            self.edge_order.extend(new)
            x = t.single_rooted(b)
            fresh, closed = [], []
            ins = [u for u, v in keys if v == x and u != x]
            outs = [v for u, v in keys if u == x and v != x]
            for u in ins:
                for v in outs:
                    if (u, v) in index:
                        closed.append((index[(u, v)], index[(u, x)], index[(x, v)]))
                    else:
                        fresh.append((index[(u, x)], index[(x, v)]))
                        index[(u, v)] = len(keys)
                        keys.append((u, v))
            step = (
                get(take),
                share(tuple(extra)),
                share(tuple(i for i, _ in old)),
                len(new),
                share((get(a for a, _ in fresh), get(c for _, c in fresh))) if fresh else None,
                share(
                    (
                        share(tuple(i for i, _, _ in closed)),
                        get(a for _, a, _ in closed),
                        get(c for _, _, c in closed),
                    )
                )
                if closed
                else None,
                index.get((x, x), -1),
            )
            self.steps.append(share(step))
            pending[b] = keys
            live += 1
            if live > peak:
                peak = live
        self.peak_maps = peak
        self.height = t.height

    def run(self, t: TreeDecomposition, wt) -> tuple:
        """``(best, walks)`` under weights ``wt`` (indexed like the graph's
        edges): the minimum closed-walk weight found by the sweep, or INF,
        and the negative diagonal entries met at root bags."""
        ws = [wt[i] for i in self.edge_order]
        p = 0
        maps: list = [None] * len(t.bags)
        children = t.children
        best = INF
        walks = []
        for b, (take, extra, fold, new, fresh, closed, diag) in zip(t.postorder(), self.steps):
            ch = children[b]
            if len(ch) == 1:
                src = maps[ch[0]]
                maps[ch[0]] = None
            elif ch:
                src = []
                for c in ch:
                    src += maps[c]
                    maps[c] = None
            cur = list(take(src)) if take else []
            for i, j in extra:
                w = src[j]
                if w < cur[i]:
                    cur[i] = w
            for i in fold:
                w = ws[p]
                p += 1
                if w < cur[i]:
                    cur[i] = w
            if new:
                cur += ws[p : p + new]
                p += new
            if fresh:
                cur += map(add, fresh[0](cur), fresh[1](cur))
            if closed:
                for i, w in zip(closed[0], map(add, closed[1](cur), closed[2](cur))):
                    if w < cur[i]:
                        cur[i] = w
            if diag >= 0:
                d = cur[diag]
                if d < 0:
                    walks.append(d)
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
    decomposition can be reused across many reweighted sweeps. The plan is
    compiled on the first sweep of (g, t) and cached on ``t``; another graph
    object on the same tree compiles its own. A ``t`` of another node count
    raises ValueError.
    """
    if t is None:
        t = build_decomposition(g)
    elif t.n_nodes != g.n:
        raise ValueError(f"decomposition has {t.n_nodes} nodes, graph has {g.n}")
    plan = t.sweep_plan
    if plan is None or plan.graph is not g:
        plan = t.sweep_plan = SweepPlan(g, t)
    wt = weights if weights is not None else [e.wt for e in g.edges]
    best, walks = plan.run(t, wt)
    return MinCycleResult(best, plan.height, plan.peak_maps, best >= 0, walks)
