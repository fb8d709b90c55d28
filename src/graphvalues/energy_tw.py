"""Energy values by dynamic programming over a tree decomposition.

This mirrors :mod:`.energy` (same augmented graph, same kill rule, same
final shortest-path-to-sink step) but replaces every Bellman-Ford scan with
bag-local work. Each bag keeps a sparse map from node pairs (u, v) to a
*triple* (a, b, c) summarizing the best known walk u -> v whose
intermediates are rooted in the bag's subtree: a is the walk weight, c the
maximum prefix sum over the walk's eligible positions (every position whose
node is not the sink z; the empty prefix counts), and b the anchor — a node
attaining that maximum. A diagonal entry (u, u) with a <= 0 certifies a
non-positive cycle, and its anchor is a highest-energy node of that cycle,
so it can be killed directly without re-running any global detection.

Kills are processed from a queue. Each kill touches only the bags where the
deleted and redirected edges fold, so repairing the maps means recomputing
the ancestor closure of those bags, bottom-up — O(deg * height) bag updates
per kill. Queue entries whose anchor has already died are discarded: the
energies of surviving nodes are unchanged by kills, and any still-alive
non-positive cycle re-announces itself during the repair of every kill that
touches it.

When the queue is empty, the weight parts of the final maps are the
min-plus closure of the final graph, so the distances to the sink are read
off them in one top-down pass.
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


def lift(weight_of, u, v, z):
    """Triple of the single-edge walk u -> v, or None when there is no edge.

    Eligible positions are u (when u != z, prefix 0) and v (when v != z,
    prefix f). The sink never anchors: its augmented out-edges all weigh 0,
    so a successor position always ties it.
    """
    f = weight_of(u, v)
    if f is None:
        return None
    if v == z:
        return (f, u, 0)
    if u == z or f >= 0:
        return (f, v, f)
    return (f, u, 0)


# -- decomposition plumbing ---------------------------------------------------------


def extend_decomposition_with_z(t: TreeDecomposition) -> TreeDecomposition:
    """Adjoin the sink z = n to every bag and hang a new root bag {z} on top,
    so z is rooted at the root and every augmented edge stays covered."""
    z = t.n_nodes
    bags = [b | {z} for b in t.bags]
    parent = list(t.parent)
    bags.append(frozenset({z}))
    parent.append(None)
    parent[t.root] = len(bags) - 1
    return TreeDecomposition(bags, parent, z + 1)


@dataclass
class TwStats:
    kills: int = 0
    initial_bags: int = 0
    update_bags: int = 0  # bags recomputed during kill repairs
    hot_discarded: int = 0  # queue entries whose anchor was already dead


class _TwState:
    """Bag maps, fold assignments and the hot queue for one augmented graph."""

    __slots__ = ("ag", "t2", "stats", "stride", "maps", "fold", "edge_bag", "post_index", "hot")

    def __init__(self, ag: AugmentedGraph, t2: TreeDecomposition, stats: TwStats):
        self.ag = ag
        self.t2 = t2
        self.stats = stats
        self.stride = ag.z + 1
        self.maps: list = [None] * len(t2.bags)
        self.fold: list[set] = [set() for _ in t2.bags]
        self.edge_bag: dict[tuple[int, int], int] = {}
        for (u, v) in ag.weights:
            b = fold_bag_of_edge(t2, u, v)
            self.edge_bag[(u, v)] = b
            self.fold[b].add((u, v))
        self.post_index = {b: i for i, b in enumerate(t2.postorder())}
        self.hot: list[int] = []  # anchors of newly seen non-positive diagonals

    def recompute_bag(self, b: int) -> None:
        t2, stride = self.t2, self.stride
        bag = t2.bags[b]
        z = self.ag.z
        wts = self.ag.weights
        cur: dict[int, tuple] = {}
        for ch in t2.children[b]:
            for k, tri in self.maps[ch].items():
                u, v = divmod(k, stride)
                if u in bag and v in bag:
                    old = cur.get(k)
                    if old is None or tri[0] < old[0]:
                        cur[k] = tri
        for (u, v) in sorted(self.fold[b]):
            tri = lift(lambda a, c: wts[(a, c)], u, v, z)
            k = u * stride + v
            old = cur.get(k)
            if old is None or tri[0] < old[0]:
                cur[k] = tri
                if u == v and tri[0] <= 0:
                    self.hot.append(tri[1])
        x = t2.single_rooted(b)
        if x is not None:
            into = []
            out = []
            for k, tri in cur.items():
                u, v = divmod(k, stride)
                if v == x:
                    into.append((u, tri))
                if u == x:
                    out.append((v, tri))
            for u, t1 in into:
                a1, b1, c1 = t1
                base = u * stride
                for v, t2_ in out:
                    a = a1 + t2_[0]
                    k = base + v
                    old = cur.get(k)
                    if old is None or a < old[0]:
                        s = a1 + t2_[2]
                        tri = (a, b1, c1) if c1 >= s else (a, t2_[1], s)
                        cur[k] = tri
                        if u == v and a <= 0:
                            self.hot.append(tri[1])
        self.maps[b] = cur

    def initial_pass(self) -> None:
        for b in self.t2.postorder():
            self.recompute_bag(b)
        self.stats.initial_bags += len(self.t2.bags)

    def apply_kill(self, w: int) -> None:
        ag, t2 = self.ag, self.t2
        pairs = {(x, w) for x in ag.inc[w]} | {(w, y) for y in ag.out[w]}
        removed_in, _ = ag.kill(w)
        touched = set()
        for k in pairs:
            b = self.edge_bag.pop(k)
            self.fold[b].discard(k)
            touched.add(b)
        for x, _, lowered in removed_in:
            if not lowered:
                continue
            k = (x, ag.z)
            b = self.edge_bag.get(k)
            if b is None:
                b = fold_bag_of_edge(t2, x, ag.z)
                self.edge_bag[k] = b
                self.fold[b].add(k)
            touched.add(b)
        dirty = set()
        for b in touched:
            while b is not None and b not in dirty:
                dirty.add(b)
                b = t2.parent[b]
        for b in sorted(dirty, key=self.post_index.__getitem__):
            self.recompute_bag(b)
        self.stats.update_bags += len(dirty)
        self.stats.kills += 1


def zero_energy_nodes_tw(
    ag: AugmentedGraph,
    t2: TreeDecomposition,
    stats: TwStats | None = None,
) -> tuple[list[int], dict]:
    """Kill every zero-energy node of the augmented graph, bag-locally.

    Returns the killed nodes in discovery order and the final bag maps,
    which :func:`sssp_to_z_treedec` reads. ``ag`` is mutated in place; ``t2``
    must be the extended decomposition.
    """
    st = _TwState(ag, t2, stats if stats is not None else TwStats())
    st.initial_pass()
    xs: list[int] = []
    head = 0
    while head < len(st.hot):
        w = st.hot[head]
        head += 1
        if not ag.alive[w]:
            st.stats.hot_discarded += 1
            continue
        st.apply_kill(w)
        xs.append(w)
        if len(xs) > ag.z:
            raise InvariantError("kill loop outlived the node budget")
    return xs, st.maps


def recompute_all_maps(ag: AugmentedGraph, t2: TreeDecomposition) -> tuple[list, list[int]]:
    """Fresh bottom-up pass over the current graph: (bag maps, hot anchors).

    After the kill loop finished, the hot list of a fresh pass must be empty
    — no non-positive cycle survives. Exposed for exactly that check.
    """
    st = _TwState(ag, t2, TwStats())
    st.initial_pass()
    return st.maps, st.hot


def sssp_to_z_treedec(ag: AugmentedGraph, t2: TreeDecomposition, maps: list) -> list:
    """Exact distance from every node to the sink in the final graph.

    ``maps`` are the bag maps left by :func:`zero_energy_nodes_tw`; the
    weight part of each triple is the min-plus closure of the final graph
    over the bag's subtree. One top-down sweep reads the distances: the
    node rooted at a bag closes over the bag's other members, which are all
    rooted at strict ancestors and therefore already final. A non-positive
    diagonal means a surviving non-positive cycle and raises.
    """
    stride = ag.z + 1
    dist: list = [INF] * stride
    for b in t2.bfs_order:
        x = t2.single_rooted(b)
        if x is None:
            continue
        m = maps[b]
        base = x * stride
        d = m.get(base + x)
        if d is not None and d[0] <= 0:
            raise InvariantError("non-positive cycle in shortest-path pass")
        if x == ag.z:
            dist[x] = 0
            continue
        best = INF
        for v in t2.bags[b]:
            if v == x:
                continue
            e = m.get(base + v)
            if e is not None and dist[v] != INF:
                cand = e[0] + dist[v]
                if cand < best:
                    best = cand
        dist[x] = best
    return dist


# -- public value pipelines ---------------------------------------------------------


def nonpositive_values_tw(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    stats: TwStats | None = None,
) -> list:
    """Energy per node, non-positive convention; decomposition-based."""
    if g.n == 0:
        return []
    if t is None:
        t = build_decomposition(g)
    ag = AugmentedGraph(g)
    t2 = extend_decomposition_with_z(t)
    _, maps = zero_energy_nodes_tw(ag, t2, stats)
    return sink_distance_values(ag, sssp_to_z_treedec(ag, t2, maps))


def energy_values_tw(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    stats: TwStats | None = None,
) -> list:
    """Minimum initial credit per node, standard convention (>= 0 or inf)."""
    vals = nonpositive_values_tw(g.negated(), t, stats)
    return [INF if v == NEG_INF else -v for v in vals]
