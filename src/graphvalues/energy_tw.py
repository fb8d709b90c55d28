"""Energy values by dynamic programming over a tree decomposition.

This mirrors :mod:`.energy` (same sink, same kill rule, same final
shortest-path-to-sink step) but replaces every Bellman-Ford scan with
bag-local work, and it never copies the input into an augmented graph: g's
own edge lists are read as they are, a sink edge is implied by its node and
a redirected edge is one weight in a dict. Walks are summarized by *triples*
(a, b, c): a is the walk weight, c the maximum prefix sum over the walk's
eligible positions (every position whose node is not the sink z; the empty
prefix counts), and b the anchor — a node attaining that maximum. A closed
walk with a <= 0 certifies a non-positive cycle, and its anchor is a
highest-energy node of that cycle, so it can be killed directly without
re-running any global detection.

The bags are those of the caller's decomposition t of the original nodes.
The sink z is an implicit member of every bag, rooted above t's root, so no
second tree is built. Each edge weight enters at one fold bag: a real edge
(u, v) at the root bag of its deeper-rooted endpoint, a sink edge (u, z) or
(z, u) at the root bag of u. It enters as the triple of its one-edge walk,
its *lift*. The eligible positions are u (prefix 0) and v (prefix f, the
edge weight), the sink excepted, so a real edge lifts to (f, v, f) when
f >= 0 and to (f, u, 0) otherwise, a sink edge (z, u) to (0, u, 0) and a
redirected edge (x, z) to (f, x, 0). The sink never anchors: its edges
(z, u) all weigh 0, so a successor position always ties it.

A bag b rooting node x summarizes the best known walks between its nodes
(z included) whose intermediates are rooted in b's subtree, in two parts:

- the *exported map*, keyed by u * (z + 1) + v, holds the pairs (u, v)
  with u, v != x. In a normalized tree the bag minus x is a subset of the
  parent bag, so the parent takes this map as it is. The root's map holds
  at most the pair (z, z) and is dropped: a non-positive closed walk
  through z was reported where it was closed;
- the *row* ``(diag, outs)`` holds the (x, x) diagonal and the (x, v)
  entries as ``(v, triple)`` pairs, which the distance pass reads.

A bag is recomputed from its children's exported maps and the edges folded
there, read off x's adjacency in g: merge, fold (an edge is lifted only when
its lift beats the merged entry, and no lift is stored), pop the entries
that involve x, and close the pairs (u, x) + (x, v). Pairs through x itself
are never closed: the parent does not contain x.

Kills run in rounds. A round takes every anchor reported since the last
one: each has zero energy, and kills do not change the energy of the
surviving nodes, so all of them are killed at once, an anchor reported
twice or already dead being skipped. A kill edits no bag: it marks its node
dead, lowers redirected weights and names the bags where its edges fold. The
round then recomputes the union of those bags' ancestor chains once, deepest
first: O(touched * height) bag updates per round, however many kills it
holds. Anchors reported during that repair form the next round. Every bag
whose map holds a walk through a killed node is recomputed after the kill,
so a non-positive cycle that survives the round reports itself again.

When no anchor is left, the weight parts of the rows are the min-plus
closure of the final graph, so the distances to the sink are read off them
in one top-down pass that starts from d(z) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .energy import NEG_INF, AugmentedGraph, sink_distance_values
from .graph import INF, InvariantError, WeightedDigraph, _gc_paused
from .treedec import TreeDecomposition, build_decomposition

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


@dataclass
class TwStats:
    kills: int = 0
    initial_bags: int = 0
    update_bags: int = 0  # bags recomputed during kill repairs
    hot_discarded: int = 0  # reported anchors not killed: already dead, or repeated in a round
    rounds: int = 0  # repair rounds: one batch of kills, then one repair


class _TwState:
    """The energy solve on g and t: exported maps, rows, reported anchors,
    and the kills applied so far.

    The solved graph is g with every weight times ``sign``, plus the sink z =
    g.n with an edge (z, u) of weight 0 per node u. It is never built: g's
    edge lists stay as they are, ``alive`` marks the killed nodes, whose
    edges are gone, and ``to_z`` holds the weight of each redirected edge
    (x, z). Bags lift their edges as they fold them, so kills edit no bag.
    """

    __slots__ = (
        "g", "t", "stats", "sign", "z", "stride", "alive", "to_z",
        "rooted", "exported", "rows", "hot",
    )

    def __init__(self, g: WeightedDigraph, t: TreeDecomposition, sign: int, stats: TwStats):
        self.g = g
        self.t = t
        self.stats = stats
        self.sign = sign
        self.z = z = g.n
        self.stride = z + 1
        self.alive = [True] * z
        self.to_z: dict[int, int] = {}
        nb = len(t.bags)
        self.rooted = [t.single_rooted(b) for b in range(nb)]
        self.exported: list = [None] * nb
        self.rows: list = [None] * nb
        bags, level, root_bag_of = t.bags, t.level, t.root_bag_of
        for u, v in zip(g.src, g.dst):  # fold_bag_of_edge, inline
            bu, bv = root_bag_of[u], root_bag_of[v]
            b = bu if level[bu] >= level[bv] else bv
            if u not in bags[b] or v not in bags[b]:
                raise InvariantError(f"edge ({u},{v}) not covered by fold bag {b}")
        if -1 in root_bag_of:
            raise InvariantError(f"node {root_bag_of.index(-1)} is in no bag")
        self.hot: list[int] = []  # anchors of newly seen non-positive closed walks

    def _fold(self, b: int, cur: dict):
        """Merge into cur, each only if it beats cur's entry, the lifts of the edges
        folded at b: those between b's node x and b's live nodes (x or rooted higher),
        (z, x) and (x, z). Returns the self-loop's lift if it was merged."""
        x = self.rooted[b]
        if x is None or not self.alive[x]:
            return None
        g, alive, stride, sign = self.g, self.alive, self.stride, self.sign
        src, dst, wt, bag = g.src, g.dst, g.wt, self.t.bags[b]
        get, base, loop = cur.get, x * stride, None
        for i in g.out[x]:
            y = dst[i]
            if y in bag and alive[y]:  # y is x or rooted higher
                f, k = sign * wt[i], base + y
                if (old := get(k)) is None or f < old[0]:
                    cur[k] = tri = (f, y, f) if f >= 0 else (f, x, 0)
                    loop = tri if y == x else loop
        for i in g.inc[x]:
            y = src[i]
            if y in bag and alive[y]:  # the self-loop again, which ties
                f, k = sign * wt[i], y * stride + x
                if (old := get(k)) is None or f < old[0]:
                    cur[k] = (f, x, f) if f >= 0 else (f, y, 0)
        zx, xz = self.z * stride + x, base + self.z
        if (old := get(zx)) is None or old[0] > 0:
            cur[zx] = (0, x, 0)  # the sink never anchors
        f = self.to_z.get(x)
        if f is not None and ((old := get(xz)) is None or f < old[0]):
            cur[xz] = (f, x, 0)
        return loop

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
        loop = self._fold(b, cur)
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
        if loop is not None and diag is loop and loop[0] <= 0:
            self.hot.append(loop[1])
        ins = []
        outs = []
        for v in (*self.t.bags[b], self.z):  # the sink is in every bag
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
        """Kill w as :meth:`.energy.AugmentedGraph.kill` does, adding the bags it touched.

        The edges of w to and from live nodes and the sink are deleted, a
        self-loop among them. Each live in-edge (x, w) is redirected: (x, z)
        takes the lighter of its old weight and the weight of (x, w).
        """
        g, t, alive, to_z = self.g, self.t, self.alive, self.to_z
        src, dst, level, root_bag_of = g.src, g.dst, t.level, t.root_bag_of
        bw = root_bag_of[w]
        lw = level[bw]
        touched.add(bw)
        to_z.pop(w, None)
        for i in g.out[w]:
            y = dst[i]
            if alive[y]:  # the self-loop too: w is still alive
                by = root_bag_of[y]
                touched.add(bw if lw >= level[by] else by)
        alive[w] = False
        for i in g.inc[w]:
            x = src[i]
            if alive[x]:
                bx = root_bag_of[x]
                touched.add(bx if level[bx] >= lw else bw)
                f = self.sign * g.wt[i]
                if (old := to_z.get(x)) is None or f < old:
                    to_z[x] = f
                    touched.add(bx)
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
    g: WeightedDigraph,
    t: TreeDecomposition,
    stats: TwStats | None = None,
    sign: int = 1,
) -> tuple[list[int], _TwState]:
    """Kill every zero-energy node of g with its weights times ``sign``, bag-locally.

    Returns the killed nodes in kill order and the final state, whose rows
    :func:`sssp_to_z_treedec` reads. ``t`` decomposes g's nodes 0..z-1 and
    must be normalized (InvariantError if not); the sink z is taken as a
    member of every bag. Rerun on the final state, :meth:`_TwState.initial_pass`
    reports no anchor.
    """
    st = _TwState(g, t, sign, stats if stats is not None else TwStats())
    st.initial_pass()
    alive = st.alive
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
    return xs, st


def sssp_to_z_treedec(st: _TwState) -> list:
    """Exact distance from every node to the sink in the final graph.

    ``st`` is the state left by :func:`zero_energy_nodes_tw`; the weight
    part of each triple in its rows is the min-plus closure of the final
    graph over the bag's subtree. One top-down sweep from d(z) = 0 reads the
    distances: the node x rooted at a bag closes over the bag's other
    members, the sink included, which are all rooted at strict ancestors
    (the sink above the root) and therefore already final. A non-positive
    (x, x) diagonal means a surviving non-positive cycle and raises.
    """
    dist: list = [INF] * (st.z + 1)
    dist[st.z] = 0
    rows, rooted = st.rows, st.rooted
    for b in st.t.bfs_order:
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
        dist[rooted[b]] = best
    return dist


# -- public value pipelines ---------------------------------------------------------


@_gc_paused
def _values_tw(
    g: WeightedDigraph, t: TreeDecomposition | None, stats: TwStats | None, sign: int
) -> list:
    """Energies of g with its weights times ``sign``, non-positive convention."""
    if t is not None and t.n_nodes != g.n:
        raise ValueError(f"decomposition has {t.n_nodes} nodes, graph has {g.n}")
    if g.n == 0:
        return []
    if t is None:
        t = build_decomposition(g)
    _, st = zero_energy_nodes_tw(g, t, stats, sign)
    return sink_distance_values(st, sssp_to_z_treedec(st))


def nonpositive_values_tw(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    stats: TwStats | None = None,
) -> list:
    """Energy per node, non-positive convention; decomposition-based.

    A ``t`` of another node count raises ValueError, and so does an
    AugmentedGraph in place of g.
    """
    if isinstance(g, AugmentedGraph):
        raise ValueError("pass the WeightedDigraph and its decomposition t, not an AugmentedGraph")
    return _values_tw(g, t, stats, 1)


def energy_values_tw(
    g: WeightedDigraph,
    t: TreeDecomposition | None = None,
    stats: TwStats | None = None,
) -> list:
    """Minimum initial credit per node, standard convention (>= 0 or inf)."""
    return [INF if v == NEG_INF else -v for v in _values_tw(g, t, stats, -1)]
