"""Energy values by dynamic programming over a tree decomposition.

This mirrors :mod:`.energy` (same augmented graph, same kill rule, same
final shortest-path-to-sink step) but replaces every Bellman-Ford scan with
bag-local work. Walks are summarized by *triples* (a, b, c): a is the walk
weight, c the maximum prefix sum over the walk's eligible positions (every
position whose node is not the sink z; the empty prefix counts), and b the
anchor — a node attaining that maximum. A closed walk with a <= 0 certifies
a non-positive cycle, and its anchor is a highest-energy node of that cycle,
so it can be killed directly without re-running any global detection.

The bags are those of the caller's decomposition t of the original nodes.
The sink z is an implicit member of every bag, rooted above t's root, so no
second tree is built. Each edge weight enters at one fold bag: a real edge
(u, v) at the root bag of its deeper-rooted endpoint, a sink edge (u, z) or
(z, u) at the root bag of u.

A bag b rooting node x summarizes the best known walks between its nodes
(z included) whose intermediates are rooted in b's subtree, in two parts:

- the *exported map*, keyed by u * (z + 1) + v, holds the pairs (u, v)
  with u, v != x. In a normalized tree the bag minus x is a subset of the
  parent bag, so the parent takes this map as it is. The root's map holds
  at most the pair (z, z) and is dropped: a non-positive closed walk
  through z was reported where it was closed;
- the *row* ``(diag, outs)`` holds the (x, x) diagonal and the (x, v)
  entries as ``(v, triple)`` pairs, which the distance pass reads.

A bag is recomputed from its children's exported maps and its fold set, a
dict of the lifted triples of the edges folded there (each lifted once,
when its edge is assigned or lowered): merge, fold, pop the entries that
involve x, and close the pairs (u, x) + (x, v). Pairs through x itself are
never closed: the parent does not contain x.

Kills run in rounds. A round takes every anchor reported since the last
one: each has zero energy, and kills do not change the energy of the
surviving nodes, so all of them are killed at once, an anchor reported
twice or already dead being skipped. Each kill touches only the bags where
its deleted and redirected edges fold, and the round then recomputes the
union of the touched bags' ancestor chains once, deepest first: O(touched *
height) bag updates per round, however many kills it holds. Anchors
reported during that repair form the next round. Every bag whose map holds
a walk through a killed node is recomputed after the kill, so a
non-positive cycle that survives the round reports itself again.

When no anchor is left, the weight parts of the rows are the min-plus
closure of the final graph, so the distances to the sink are read off them
in one top-down pass that starts from d(z) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .energy import NEG_INF, AugmentedGraph, sink_distance_values
from .graph import INF, InvariantError, WeightedDigraph
from .treedec import TreeDecomposition, build_decomposition, fold_bag_of_edge

# -- walk triples ------------------------------------------------------------------


def triple_plus(t1, t2):
    """Concatenate two walk triples (end of t1 = start of t2).

    The combined maximum is either reached inside t1 (prefix c1) or inside
    t2, shifted by the whole weight of t1 (prefix a1 + c2); ties keep the
    earlier anchor.
    """
    a1, b1, c1 = t1
    a2, b2, c2 = t2
    s = a1 + c2
    if c1 >= s:
        return (a1 + a2, b1, c1)
    return (a1 + a2, b2, s)


def _lift(f, u, v, z):
    """Triple of the single-edge walk u -> v of weight f.

    Eligible positions are u (when u != z, prefix 0) and v (when v != z,
    prefix f). The sink never anchors: its augmented out-edges all weigh 0,
    so a successor position always ties it.
    """
    if v == z:
        return (f, u, 0)
    if u == z or f >= 0:
        return (f, v, f)
    return (f, u, 0)


def lift(weight_of, u, v, z):
    """Triple of the single-edge walk u -> v, or None when there is no edge."""
    f = weight_of(u, v)
    return None if f is None else _lift(f, u, v, z)


# -- decomposition plumbing ---------------------------------------------------------


def _fold_bag(t: TreeDecomposition, u: int, v: int, z: int) -> int:
    """The bag of ``t`` where the augmented edge (u, v) folds.

    A real edge folds where :func:`fold_bag_of_edge` puts it. The sink z is
    an implicit member of every bag, rooted above the root, so an edge
    (u, z) or (z, u) folds at the root bag of u.
    """
    if u == z or v == z:
        w = v if u == z else u
        b = t.root_bag_of[w]
        if b < 0:
            raise InvariantError(f"node {w} is in no bag")
        return b
    return fold_bag_of_edge(t, u, v)


@dataclass
class TwStats:
    kills: int = 0
    initial_bags: int = 0
    update_bags: int = 0  # bags recomputed during kill repairs
    hot_discarded: int = 0  # reported anchors not killed: already dead, or repeated in a round
    rounds: int = 0  # repair rounds: one batch of kills, then one repair


class _TwState:
    """Exported maps, rows, fold sets and reported anchors for one augmented graph."""

    __slots__ = ("ag", "t", "stats", "stride", "rooted", "exported", "rows", "fold", "hot")

    def __init__(self, ag: AugmentedGraph, t: TreeDecomposition, stats: TwStats):
        self.ag = ag
        self.t = t
        self.stats = stats
        self.stride = stride = ag.z + 1
        nb = len(t.bags)
        self.rooted = [t.single_rooted(b) for b in range(nb)]
        self.exported: list = [None] * nb
        self.rows: list = [None] * nb
        self.fold: list[dict] = [{} for _ in range(nb)]
        fold, z = self.fold, ag.z
        for (u, v), f in ag.weights.items():
            fold[_fold_bag(t, u, v, z)][u * stride + v] = _lift(f, u, v, z)
        self.hot: list[int] = []  # anchors of newly seen non-positive closed walks

    def recompute_bag(self, b: int) -> None:
        exported = self.exported
        ch = self.t.children[b]
        cur = dict(exported[ch[0]]) if ch else {}
        get = cur.get
        for c in ch[1:]:
            for k, tri in exported[c].items():
                old = get(k)
                if old is None or tri[0] < old[0]:
                    cur[k] = tri
        fold = self.fold[b]
        for k, tri in fold.items():
            old = get(k)
            if old is None or tri[0] < old[0]:
                cur[k] = tri
        x = self.rooted[b]
        if x is None:
            exported[b] = cur
            return
        stride = self.stride
        pop = cur.pop
        base = x * stride
        diag = pop(base + x, None)
        # a non-positive (x, x) out of a child map was reported where it was
        # made; only a self-loop folded here is new
        if diag is not None and diag[0] <= 0 and fold.get(base + x) is diag:
            self.hot.append(diag[1])
        ins = []
        outs = []
        for v in (*self.t.bags[b], self.ag.z):  # the sink is in every bag
            if v != x:
                tri = pop(base + v, None)
                if tri is not None:
                    outs.append((v, tri))
                tri = pop(v * stride + x, None)
                if tri is not None:
                    ins.append((v, tri))
        if outs:
            hot = self.hot
            for u, (a1, b1, c1) in ins:
                ubase = u * stride
                for v, (a2, b2, c2) in outs:
                    a = a1 + a2
                    k = ubase + v
                    old = get(k)
                    if old is None or a < old[0]:
                        s = a1 + c2
                        tri = (a, b1, c1) if c1 >= s else (a, b2, s)
                        cur[k] = tri
                        if a <= 0 and u == v:
                            hot.append(tri[1])
        exported[b] = cur
        self.rows[b] = (diag, outs)

    def initial_pass(self) -> None:
        for b in self.t.postorder():
            self.recompute_bag(b)
        self.stats.initial_bags += len(self.t.bags)

    def kill(self, w: int, touched: set) -> None:
        """Kill w and keep the fold sets in step, adding the bags it touched."""
        ag, t, stride, z = self.ag, self.t, self.stride, self.ag.z
        edges = {(x, w) for x in ag.inc[w]} | {(w, y) for y in ag.out[w]}
        removed_in, _ = ag.kill(w)
        for u, v in edges:
            b = _fold_bag(t, u, v, z)
            del self.fold[b][u * stride + v]
            touched.add(b)
        for x, wt, lowered in removed_in:
            if lowered:  # (x, z) now weighs wt
                b = _fold_bag(t, x, z, z)
                self.fold[b][x * stride + z] = _lift(wt, x, z, z)
                touched.add(b)
        self.stats.kills += 1

    def repair(self, touched: set) -> None:
        """Recompute the union of the touched bags' ancestor chains, deepest first."""
        parent = self.t.parent
        dirty = set()
        for b in touched:
            while b is not None and b not in dirty:
                dirty.add(b)
                b = parent[b]
        for b in sorted(dirty, key=self.t.level.__getitem__, reverse=True):
            self.recompute_bag(b)
        self.stats.update_bags += len(dirty)
        self.stats.rounds += 1


def zero_energy_nodes_tw(
    ag: AugmentedGraph,
    t: TreeDecomposition,
    stats: TwStats | None = None,
) -> tuple[list[int], list]:
    """Kill every zero-energy node of the augmented graph, bag-locally.

    Returns the killed nodes in kill order and the final rows, which
    :func:`sssp_to_z_treedec` reads. ``ag`` is mutated in place. ``t``
    decomposes the original nodes 0..z-1 and must be normalized
    (InvariantError if not); the sink z is taken as a member of every bag.
    Run on an augmented graph that has no zero-energy node left, it kills
    nothing.
    """
    st = _TwState(ag, t, stats if stats is not None else TwStats())
    st.initial_pass()
    alive = ag.alive
    xs: list[int] = []
    while st.hot:
        batch, st.hot = st.hot, []
        touched: set[int] = set()
        for w in batch:
            if alive[w]:
                st.kill(w, touched)
                xs.append(w)
            else:
                st.stats.hot_discarded += 1
        st.repair(touched)
    return xs, st.rows


def sssp_to_z_treedec(ag: AugmentedGraph, t: TreeDecomposition, rows: list) -> list:
    """Exact distance from every node to the sink in the final graph.

    ``rows`` are the rows left by :func:`zero_energy_nodes_tw` on ``t``; the
    weight part of each triple is the min-plus closure of the final graph
    over the bag's subtree. One top-down sweep from d(z) = 0 reads the
    distances: the node x rooted at a bag closes over the bag's other
    members, the sink included, which are all rooted at strict ancestors
    (the sink above the root) and therefore already final. A non-positive
    (x, x) diagonal means a surviving non-positive cycle and raises.
    """
    dist: list = [INF] * (ag.z + 1)
    dist[ag.z] = 0
    for b in t.bfs_order:
        row = rows[b]
        if row is None:
            continue
        diag, outs = row
        if diag is not None and diag[0] <= 0:
            raise InvariantError("non-positive cycle in shortest-path pass")
        best = INF
        for v, e in outs:
            d = dist[v]
            if d != INF:
                cand = e[0] + d
                if cand < best:
                    best = cand
        dist[t.single_rooted(b)] = best
    return dist


# -- public value pipelines ---------------------------------------------------------


def nonpositive_values_tw(
    g: WeightedDigraph | AugmentedGraph,
    t: TreeDecomposition | None = None,
    stats: TwStats | None = None,
) -> list:
    """Energy per node, non-positive convention; decomposition-based.

    ``g`` may also be a fresh AugmentedGraph, which the kills use up; ``t``
    must then be given, decomposing its original nodes (ValueError if it is
    not). A ``t`` of another node count raises ValueError.
    """
    if t is None and isinstance(g, AugmentedGraph):
        raise ValueError("an AugmentedGraph needs the decomposition t of its original nodes")
    ag = g if isinstance(g, AugmentedGraph) else AugmentedGraph(g)
    if t is not None and t.n_nodes != ag.z:
        raise ValueError(f"decomposition has {t.n_nodes} nodes, graph has {ag.z}")
    if ag.z == 0:
        return []
    if t is None:
        t = build_decomposition(g)
    _, rows = zero_energy_nodes_tw(ag, t, stats)
    return sink_distance_values(ag, sssp_to_z_treedec(ag, t, rows))


def energy_values_tw(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    stats: TwStats | None = None,
) -> list:
    """Minimum initial credit per node, standard convention (>= 0 or inf)."""
    if t is None:
        t = build_decomposition(g)
    vals = nonpositive_values_tw(AugmentedGraph(g, negate=True), t, stats)
    return [INF if v == NEG_INF else -v for v in vals]
