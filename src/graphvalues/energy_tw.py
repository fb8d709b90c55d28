"""Energy values by dynamic programming over a tree decomposition.

The solve takes g's strongly connected components one at a time in Tarjan's
emission order, so each comes after every component it can reach. A node on
no cycle takes one min-step: with d the least f - v(y) over its edges (x, y)
of weight f to successors y of finished energy v(y) > -inf, its energy is 0
when d <= 0, -d otherwise, and -inf when there is no such edge. A cyclic
component S is solved bag-locally, as below, on the caller's tree with every
node outside S dead. Each edge (x, y) that leaves S enters as the redirected
sink edge (x, z) of weight f - v(y), the lightest one per x: the kill rule's
redirect, which is the case v(y) = 0, extended to any finished v(y). Only
S's bags are in play: the root bags of its members and the bags between
them and S's top bag, the root bag of its highest-rooted member (every
member's root bag lies below it, since each edge's endpoints share the
deeper root bag). Every other bag exports one shared empty map, and no
graph is copied and no tree built per component.

Within one component this mirrors :mod:`.energy` (same sink, same kill
rule, same final shortest-path-to-sink step) but replaces every
Bellman-Ford scan with bag-local work, and it never copies the input into
an augmented graph: g's own edge lists are read as they are, a sink edge is
implied by its node and a redirected edge is one weight in a dict. Walks are
summarized by *triples* (a, b, c): a is the walk weight, c the maximum
prefix sum over the walk's eligible positions (every position whose node is
not the sink z; the empty prefix counts), and b the anchor — a node
attaining that maximum. A closed walk with a <= 0 certifies a non-positive
cycle, and its anchor is a highest-energy node of that cycle, so it can be
killed directly without re-running any global detection.

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
  parent bag, so the parent takes this map as it is. The top bag's map
  holds at most the pair (z, z) and is not read: a non-positive closed walk
  through z was reported where it was closed;
- the *row*, one flat tuple ``(d, v1, w1, v2, w2, ...)``, keeps what the
  distance pass reads: d the weight of the (x, x) diagonal (None when there
  is none), then each (x, v) entry's v and weight.

A bag is recomputed from its children's exported maps and the edges folded
there, read off x's adjacency in g: merge, fold (an edge is lifted only when
its lift beats the merged entry, and no lift is stored), pop the entries
that involve x, and close the pairs (u, x) + (x, v). Pairs through x itself
are never closed: the parent does not contain x. A bag whose node is dead,
or that roots none, only merges its children's maps and has no row; the one
nonempty child map is passed on uncopied, since no map is written once
exported.

Kills run in rounds. A round takes every anchor reported since the last
one: each has zero energy, and kills do not change the energy of the
surviving nodes, so all of them are killed at once, an anchor reported
twice or already dead being skipped. A kill edits no bag: it marks its node
dead, lowers redirected weights and names the bags where its edges fold. The
round then recomputes the union of those bags' ancestor chains, up to the
top bag, once, deepest first: O(touched * height) bag updates per round,
however many kills it holds. Anchors reported during that repair form the
next round. Every bag whose map holds a walk through a killed node is
recomputed after the kill, so a non-positive cycle that survives the round
reports itself again.

When no anchor is left, the weight parts of the rows are the min-plus
closure of the final graph, so the distances to the sink are read off them
in one top-down pass that starts from d(z) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .energy import NEG_INF, AugmentedGraph
from .graph import INF, InvariantError, WeightedDigraph, _gc_paused, tarjan_scc
from .treedec import TreeDecomposition, build_decomposition

_EMPTY: dict = {}  # the exported map of every bag out of play; never written

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
    """Counts of one energy solve, summed over the cyclic components solved
    on the tree. ``kills`` counts the nodes killed there only: a zero-energy
    node on no cycle is set by its min-step."""

    kills: int = 0
    initial_bags: int = 0  # bags in play, once per component
    update_bags: int = 0  # bags recomputed during kill repairs
    hot_discarded: int = 0  # reported anchors not killed: already dead, or repeated in a round
    rounds: int = 0  # repair rounds: one batch of kills, then one repair
    components: int = 0  # cyclic strongly connected components solved on the tree


class _TwState:
    """The energy solve on g and t: exported maps, rows, reported anchors,
    the kills applied so far, and the component in play.

    The solved graph is g with every weight times ``sign``, plus the sink z =
    g.n with an edge (z, u) of weight 0 per node u. It is never built: g's
    edge lists stay as they are, ``alive`` marks the live members of the
    component in play (every other node is dead and its edges gone), and
    ``to_z`` holds the weight of each redirected edge (x, z). Bags lift their
    edges as they fold them, so kills edit no bag. A new state has nothing
    in play until :meth:`open`: no node alive or a member, no bag in play,
    no top bag. ``t`` decomposes g's nodes 0..z-1 and must be normalized
    (InvariantError if not); the sink z is taken as a member of every bag.
    """

    __slots__ = (
        "g", "t", "stats", "sign", "z", "stride", "alive", "to_z", "rooted", "exported",
        "rows", "hot", "members", "order", "top", "dist",
    )

    def __init__(self, g: WeightedDigraph, t: TreeDecomposition, sign: int, stats: TwStats):
        self.g = g
        self.t = t
        self.stats = stats
        self.sign = sign
        self.z = z = g.n
        self.stride = z + 1
        self.to_z: dict[int, int] = {}
        nb = len(t.bags)
        self.rooted = [t.single_rooted(b) for b in range(nb)]
        self.exported: list = [_EMPTY] * nb
        self.rows: list = [None] * nb
        bags, level, root_bag_of = t.bags, t.level, t.root_bag_of
        if -1 in root_bag_of:  # first: a node in no bag has root bag -1, Python's last
            raise InvariantError(f"node {root_bag_of.index(-1)} is in no bag")
        for u, v in zip(g.src, g.dst):  # fold_bag_of_edge, inline: the deeper root bag holds both
            bu, bv = root_bag_of[u], root_bag_of[v]
            if not (v in bags[bu] if level[bu] >= level[bv] else u in bags[bv]):
                b = bu if level[bu] >= level[bv] else bv
                raise InvariantError(f"edge ({u},{v}) not covered by fold bag {b}")
        self.hot: list[int] = []  # anchors of newly seen non-positive closed walks
        self.alive = [False] * z
        self.members: list[int] = []
        self.order: list[int] = []  # the bags in play, deepest first
        self.top: int | None = None
        self.dist: list = [INF] * z + [0]  # distances to the sink, the sink's own last

    def open(self, comp: list[int], to_z: dict[int, int]) -> None:
        """Put the component comp in play: its members alive, ``order`` the
        bags from their root bags up to its top bag, deepest first, and
        ``to_z`` the weights of its redirected edges. Every other node must
        be dead and every other bag's map empty, as :meth:`close` leaves them."""
        t, alive = self.t, self.alive
        level, parent = t.level, t.parent
        roots = list(map(t.root_bag_of.__getitem__, comp))
        levels = list(map(level.__getitem__, roots))
        self.top = top = roots[levels.index(min(levels))]
        order = [top]
        walked = {top}  # the bags in play so far
        for u, b in zip(comp, roots):
            alive[u] = True
            while b not in walked:
                walked.add(b)
                order.append(b)
                b = parent[b]
                if b is None:
                    raise InvariantError(f"root bag of node {u} is not below its component's top bag {top}")
        order.sort(key=level.__getitem__, reverse=True)
        self.members, self.order, self.to_z = comp, order, to_z

    def close(self) -> None:
        """Take the component in play out: its members dead, its bags' maps
        emptied and rows dropped, its redirected edges gone. No other mark of
        it is kept; the next :meth:`open` replaces ``members`` and ``order``."""
        alive, exported, rows = self.alive, self.exported, self.rows
        for u in self.members:
            alive[u] = False
        for b in self.order:
            exported[b] = _EMPTY
            rows[b] = None
        self.to_z = {}

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
        cur = None  # the merged child maps; a child's own until copied
        owned = False
        for c in self.t.children[b]:
            m = exported[c]
            if not m:
                continue
            if cur is None:
                cur = m
                continue
            if not owned:
                cur, owned = dict(cur), True
            get = cur.get
            for k, tri in m.items():
                old = get(k)
                if old is None or tri[0] < old[0]:
                    cur[k] = tri
        x = self.rooted[b]
        if x is None or not self.alive[x]:
            exported[b] = _EMPTY if cur is None else cur
            self.rows[b] = None
            return
        cur = {} if cur is None else cur if owned else dict(cur)
        get = cur.get
        loop = self._fold(b, cur)
        stride = self.stride
        pop = cur.pop
        base = x * stride
        diag = pop(base + x, None)
        # a non-positive (x, x) out of a child map was reported where it was
        # made; only a self-loop folded here is new
        if loop is not None and diag is loop and loop[0] <= 0:
            self.hot.append(loop[1])
        row = [None if diag is None else diag[0]]
        ins = []
        outs = []
        alive = self.alive
        for v in self.t.bags[b]:
            if v != x and alive[v]:  # a dead node's walks are gone
                tri = pop(base + v, None)
                if tri is not None:
                    outs.append((v, tri))
                    row += v, tri[0]
                tri = pop(v * stride + x, None)
                if tri is not None:
                    ins.append((v, tri))
        z = self.z  # in every bag
        tri = pop(base + z, None)
        if tri is not None:
            outs.append((z, tri))
            row += z, tri[0]
        tri = pop(z * stride + x, None)
        if tri is not None:
            ins.append((z, tri))
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
        self.rows[b] = tuple(row)

    def initial_pass(self) -> None:
        for b in self.order:
            self.recompute_bag(b)
        self.stats.initial_bags += len(self.order)

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
        """Recompute the union of the touched bags' ancestor chains up to the
        top bag, deepest first."""
        parent, top = self.t.parent, self.top
        dirty = set()
        for b in touched:
            while b not in dirty:
                dirty.add(b)
                if b == top:
                    break
                b = parent[b]
        for b in sorted(dirty, key=self.t.level.__getitem__, reverse=True):
            self.recompute_bag(b)
        self.stats.update_bags += len(dirty)
        self.stats.rounds += 1


def zero_energy_nodes_tw(st: _TwState) -> list[int]:
    """Kill every zero-energy node of the component in play on ``st``,
    bag-locally, with the state's own stats and sign.

    ``st`` is a state with one component opened by :meth:`_TwState.open`.
    Returns the killed nodes in kill order; the final state's rows are what
    :func:`sssp_to_z_treedec` reads. Rerun on the final state,
    :meth:`_TwState.initial_pass` reports no anchor.
    """
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
    return xs


def sssp_to_z_treedec(st: _TwState) -> list:
    """Exact distance from every node of the component in play to the sink
    in the final graph, in a list indexed by node, the sink last.

    ``st`` is the state left by :func:`zero_energy_nodes_tw`; each weight in
    its rows ``(d, v1, w1, v2, w2, ...)`` is the min-plus closure of the
    final graph over the bag's subtree. One top-down sweep from d(z) = 0 reads the
    distances: the node x rooted at a bag closes over the bag's other live
    members, the sink included, which are all rooted at strict ancestors
    (the sink above the root) and therefore already final. A killed node
    keeps distance inf. A non-positive (x, x) diagonal means a surviving
    non-positive cycle and raises.
    """
    dist, rows, rooted = st.dist, st.rows, st.rooted
    for b in reversed(st.order):
        row = rows[b]
        if row is None:
            continue
        it = iter(row)
        diag = next(it)
        if diag is not None and diag <= 0:
            raise InvariantError("non-positive cycle in shortest-path pass")
        best = INF
        for v, e in zip(it, it):
            d = dist[v]
            if d != INF:
                cand = e + d
                if cand < best:
                    best = cand
        dist[rooted[b]] = best
    return dist


# -- public value pipelines ---------------------------------------------------------


@_gc_paused
def _values_tw(
    g: WeightedDigraph, t: TreeDecomposition | None, stats: TwStats | None, sign: int
) -> list:
    """Energies of g with its weights times ``sign``, non-positive convention.

    One strongly connected component at a time, sinks first: a node on no
    cycle takes one min-step over its edges, and a cyclic component is
    solved on t with its exits redirected to the sink. Without ``t``, a
    decomposition is built only when g has a cyclic component.
    """
    if t is not None and t.n_nodes != g.n:
        raise ValueError(f"decomposition has {t.n_nodes} nodes, graph has {g.n}")
    stats = stats if stats is not None else TwStats()
    st = None if t is None else _TwState(g, t, sign, stats)
    scc = tarjan_scc(g)
    comp_of, dst, wt, out = scc.comp_of, g.dst, g.wt, g.out
    vals: list = [NEG_INF] * g.n
    for ci, comp in enumerate(scc.components):
        exits = {}  # the lightest f - v(y) over each member's edges (x, y) leaving comp
        cyclic = len(comp) > 1
        for x in comp:
            best = INF
            for i in out[x]:
                y = dst[i]
                if comp_of[y] == ci:
                    cyclic = True
                elif (v := vals[y]) != NEG_INF and (f := sign * wt[i] - v) < best:
                    best = f
            if best != INF:
                exits[x] = best
        if not cyclic:  # one node on no cycle: the min-step
            if best != INF:
                vals[x] = 0 if best <= 0 else -best
            continue
        if st is None:
            st = _TwState(g, build_decomposition(g), sign, stats)
        st.open(comp, exits)
        zero_energy_nodes_tw(st)
        dist = sssp_to_z_treedec(st)
        alive = st.alive
        for u in comp:
            if not alive[u]:
                vals[u] = 0
            elif (d := dist[u]) <= 0:
                raise InvariantError("non-positive distance to the sink after kills")
            elif d != INF:
                vals[u] = -d
        st.close()
        stats.components += 1
    return vals


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
