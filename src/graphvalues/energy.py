"""Minimum initial credit (energy) values on general weighted digraphs.

Internally everything runs in the non-positive convention: the energy of a
node u is the largest credit c <= 0 such that some infinite walk from u keeps
every prefix sum at most 0 when started at c, i.e. E(u) = -max_prefix of the
best walk, or -inf when no walk survives. The public convention (credits
>= 0, prefixes kept >= 0) is the same problem on the negated graph, bridged
by :func:`energy_values` and :func:`decide_initial_credit`.

The value algorithm augments the graph with a sink z (0-weight edges z->u),
then repeatedly finds a non-positive cycle, kills its highest-energy node w
(the first prefix maximum of the cycle walk) by redirecting the in-edges of
w to z with unchanged weight, and deletes w. Killed nodes are exactly the
zero-energy nodes; once no non-positive cycle remains, every other energy is
-d(u, z) in the final graph.
"""
from __future__ import annotations

from .graph import INF, InvariantError, WeightedDigraph
from .oracles import bellman_ford_edges

NEG_INF = -INF


class AugmentedGraph:
    """A mutable copy of g plus sink z = g.n with a 0-weight edge z->u per u.

    Parallel edges collapse to their minimum weight, which is the only one
    shortest-walk or cycle-sign questions can use.
    """

    __slots__ = ("z", "weights", "out", "inc", "alive")

    def __init__(self, g: WeightedDigraph):
        self.z = g.n
        self.weights: dict[tuple[int, int], int] = {}
        self.out: list[set[int]] = [set() for _ in range(g.n + 1)]
        self.inc: list[set[int]] = [set() for _ in range(g.n + 1)]
        self.alive = [True] * (g.n + 1)
        for u, v, w in zip(g.src, g.dst, g.wt):
            self._set(u, v, w)
        for u in range(g.n):
            self._set(self.z, u, 0)

    def _set(self, u: int, v: int, w: int) -> bool:
        """Keep the lighter of the stored and new weight; True if it changed."""
        old = self.weights.get((u, v))
        if old is not None and old <= w:
            return False
        self.weights[(u, v)] = w
        self.out[u].add(v)
        self.inc[v].add(u)
        return True

    def _del(self, u: int, v: int) -> None:
        del self.weights[(u, v)]
        self.out[u].discard(v)
        self.inc[v].discard(u)

    def weight_of(self, u: int, v: int) -> int | None:
        """Current weight of the edge (u, v), or None when absent."""
        return self.weights.get((u, v))

    def edges_alive(self):
        return self.weights.items()

    def kill(self, w: int) -> tuple[list[tuple[int, int, bool]], list[tuple[int, int]]]:
        """Redirect in-edges of w onto z and delete w.

        Returns (removed_in, removed_out): removed_in holds (x, wt, lowered)
        per former edge (x, w) where ``lowered`` says the redirect created or
        lightened the edge (x, z); removed_out holds (y, wt) per former
        (w, y). In-edges from z just disappear, as do self-loops.
        """
        if w == self.z or not self.alive[w]:
            raise InvariantError(f"cannot kill node {w}")
        removed_in = []
        removed_out = []
        for x in sorted(self.inc[w]):
            wt = self.weights[(x, w)]
            self._del(x, w)
            if x != self.z and x != w:
                removed_in.append((x, wt, self._set(x, self.z, wt)))
        for y in sorted(self.out[w]):
            removed_out.append((y, self.weights[(w, y)]))
            self._del(w, y)
        self.alive[w] = False
        return removed_in, removed_out


def _nonpositive_cycle_edges(n: int, edges) -> list[int] | None:
    """A cycle of total weight <= 0 over (u, v, w) triples, as a closed node
    list, or None.

    Bellman-Ford from a virtual all-zero source either returns a strictly
    negative cycle or converged potentials under which every reduced weight
    w + d(u) - d(v) is >= 0. A weight-0 cycle then consists of 0-reduced
    edges only (its reduced total telescopes back to its real total), so a
    DFS over the 0-reduced subgraph finds one iff one exists.
    """
    dist, _, cycle = bellman_ford_edges(n, edges)
    if cycle is not None:
        return cycle
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v, w) in edges:
        if dist[u] + w == dist[v]:
            adj[u].append(v)
    color = [0] * n  # 0 unseen, 1 on the DFS path, 2 finished
    for s in range(n):
        if color[s]:
            continue
        color[s] = 1
        path = [s]
        stack = [(s, iter(adj[s]))]
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if color[v] == 1:
                    return path[path.index(v) :] + [v]
                if color[v] == 0:
                    color[v] = 1
                    path.append(v)
                    stack.append((v, iter(adj[v])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
                color[u] = 2
    return None


def detect_nonpositive_cycle(g) -> list[int] | None:
    """A cycle of total weight <= 0 as a closed node list, or None.

    Accepts a WeightedDigraph or an AugmentedGraph.
    """
    if isinstance(g, AugmentedGraph):
        n_ids = g.z + 1
        edges = [(u, v, w) for (u, v), w in g.edges_alive()]
    else:
        n_ids = g.n
        edges = list(zip(g.src, g.dst, g.wt))
    return _nonpositive_cycle_edges(n_ids, edges)


def highest_energy_node(cycle, weight_of, skip=()) -> tuple[int, int]:
    """The first prefix-sum maximum of a cycle walk, with its prefix weight.

    ``cycle`` is a node list (a repeated endpoint is tolerated); prefix i is
    the weight of the first i edges from cycle[0], so the empty prefix makes
    cycle[0] itself a candidate. Nodes in ``skip`` are passed over; a
    skipped node never strictly exceeds its successor here because its
    out-edges in the augmented graph weigh 0.
    """
    nodes = list(cycle)
    if len(nodes) > 1 and nodes[0] == nodes[-1]:
        nodes.pop()
    best_node = None
    best = 0
    prefix = 0
    for i, u in enumerate(nodes):
        if u not in skip and (best_node is None or prefix > best):
            best_node = u
            best = prefix
        prefix += weight_of(u, nodes[(i + 1) % len(nodes)])
    if best_node is None:
        raise InvariantError("cycle consists of skipped nodes only")
    return best_node, best


def zero_energy_nodes(g: WeightedDigraph) -> tuple[list[int], AugmentedGraph]:
    """Nodes with energy exactly 0 (non-positive convention), in the order
    they were discovered, along with the final augmented graph."""
    ag = AugmentedGraph(g)
    xs: list[int] = []
    for _ in range(g.n + 1):
        cyc = detect_nonpositive_cycle(ag)
        if cyc is None:
            return xs, ag
        w, _ = highest_energy_node(cyc, ag.weight_of, skip=(ag.z,))
        ag.kill(w)
        xs.append(w)
    raise InvariantError("kill loop outlived the node budget")


def sink_distance_values(ag, dist) -> list:
    """Energies (non-positive convention) of the original nodes from the
    distances to the sink in the final augmented graph: 0 for killed nodes,
    -d for the others, -inf where the sink is unreachable.

    Only ``ag``'s sink ``z`` and its ``alive`` flags are read."""
    vals: list = [0] * ag.z
    for u in range(ag.z):
        if not ag.alive[u]:
            continue
        d = dist[u]
        if d == INF:
            vals[u] = NEG_INF
        elif d <= 0:
            raise InvariantError("non-positive distance to the sink after kills")
        else:
            vals[u] = -d
    return vals


def nonpositive_values(g: WeightedDigraph) -> list:
    """Energy per node in the non-positive convention: 0, a negative int,
    or -inf when no infinite walk from the node survives."""
    _, ag = zero_energy_nodes(g)
    rev = [(v, u, w) for (u, v), w in ag.edges_alive()]
    dist, _, cycle = bellman_ford_edges(ag.z + 1, rev, source=ag.z)
    if cycle is not None:
        raise InvariantError("negative cycle survived the kill loop")
    return sink_distance_values(ag, dist)


def energy_values(g: WeightedDigraph) -> list:
    """Minimum initial credit per node, standard convention (>= 0 or inf)."""
    return [INF if v == NEG_INF else -v for v in nonpositive_values(g.negated())]


def decision_energy(g: WeightedDigraph, u: int, credit) -> bool:
    """Does node u survive with starting credit ``credit`` (<= 0), i.e. is
    E(u) >= credit in the non-positive convention?

    Guarded relaxation keeps only states reachable with every prefix <= 0;
    u survives iff the subgraph induced on those states has a cycle of
    weight <= 0 (its peak rotation is then traversable from any entry).
    """
    if credit > 0:
        raise ValueError("credit must be <= 0 in the non-positive convention")
    d = {u: credit}
    for _ in range(max(0, g.n - 1)):
        changed = False
        for a, b, w in zip(g.src, g.dst, g.wt):
            da = d.get(a)
            if da is None:
                continue
            cand = da + w
            if cand <= 0 and cand < d.get(b, 1):
                d[b] = cand
                changed = True
        if not changed:
            break
    keep = sorted(d)
    index = {x: i for i, x in enumerate(keep)}
    edges = [
        (index[a], index[b], w) for a, b, w in zip(g.src, g.dst, g.wt) if a in index and b in index
    ]
    return _nonpositive_cycle_edges(len(keep), edges) is not None


def decide_initial_credit(g: WeightedDigraph, u: int, credit) -> bool:
    """Standard convention: can u sustain an infinite walk from ``credit``
    (>= 0) without any prefix dropping below 0?"""
    if credit < 0:
        raise ValueError("credit must be >= 0 in the standard convention")
    return decision_energy(g.negated(), u, -credit)
