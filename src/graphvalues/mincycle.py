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


def _getter(slots: tuple, cache: dict):
    """A function from a list to the tuple of its entries at ``slots``, or
    None when there are none; one per slot tuple, kept in ``cache``."""
    f = cache.get(slots)
    if f is None and slots:
        if len(slots) == 1:
            i = slots[0]
            f = lambda xs: (xs[i],)
        else:
            f = itemgetter(*slots)
        cache[slots] = f
    return f


def _step(slots: tuple, getters: dict) -> tuple:
    """The :class:`SweepPlan` step of one bag's slot lists, with its getters
    shared through ``getters``."""
    take, extra, fold, new, fresh_a, fresh_c, closed, closed_a, closed_c, diag = slots
    return (
        _getter(take, getters),
        extra,
        fold,
        new,
        (_getter(fresh_a, getters), _getter(fresh_c, getters)) if fresh_a else None,
        (closed, _getter(closed_a, getters), _getter(closed_c, getters)) if closed else None,
        diag,
    )


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
        rooted = [t.single_rooted(b) for b in range(len(t.bags))]
        shared: dict = {}  # step by slot lists: equal steps are one object
        getters: dict = {}
        self.graph = g
        self.steps: list[tuple] = []
        self.edge_order = array("l")  # edge indices in fold order
        pending: dict[int, dict] = {}  # bag -> its slot of each pair, in slot order
        live = peak = 0
        for b in t.postorder():
            bag = t.bags[b]
            x = rooted[b]
            index: dict[tuple[int, int], int] = {}
            # (u, slot of (u, x)) and (v, slot of (x, v)) for u, v != x
            ins, outs = [], []
            take, extra = [], []
            src = 0
            for c in t.children[b]:
                for k in pending.pop(c):
                    u, v = k
                    if u in bag and v in bag:
                        i = index.get(k)
                        if i is None:
                            i = index[k] = len(index)
                            take.append(src)
                            if v == x:
                                if u != x:
                                    ins.append((u, i))
                            elif u == x:
                                outs.append((v, i))
                        else:
                            extra.append((i, src))
                    src += 1
                live -= 1
            old, new = [], []
            for u, v, ei in fold[b]:
                k = (u, v)
                i = index.get(k)
                if i is None:
                    i = index[k] = len(index)
                    new.append(ei)
                    if v == x:
                        if u != x:
                            ins.append((u, i))
                    elif u == x:
                        outs.append((v, i))
                else:
                    old.append(i)
                    self.edge_order.append(ei)
            fold[b] = None
            self.edge_order.extend(new)
            fresh_a, fresh_c, closed, closed_a, closed_c = [], [], [], [], []
            for u, a in ins:
                for v, c in outs:
                    k = (u, v)
                    i = index.get(k)
                    if i is None:
                        fresh_a.append(a)
                        fresh_c.append(c)
                        index[k] = len(index)
                    else:
                        closed.append(i)
                        closed_a.append(a)
                        closed_c.append(c)
            slots = (
                tuple(take), tuple(extra), tuple(old), len(new), tuple(fresh_a), tuple(fresh_c),
                tuple(closed), tuple(closed_a), tuple(closed_c), index.get((x, x), -1),
            )
            step = shared.get(slots)
            if step is None:
                step = shared[slots] = _step(slots, getters)
            self.steps.append(step)
            pending[b] = index
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
    best, walks = plan.run(t, g.wt if weights is None else weights)
    return MinCycleResult(best, plan.height, plan.peak_maps, best >= 0, walks)
