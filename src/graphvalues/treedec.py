"""Tree decompositions: greedy construction, validation, balancing.

A decomposition here is a rooted binary tree of bags satisfying the usual
three conditions (every node covered, every edge inside some bag, the bags
holding any fixed node form a connected subtree). After normalization each
bag is additionally the *root bag* of at most one node, where the root bag
of ``u`` is the smallest-level bag containing ``u``; the per-node traversal
algorithms in this package rely on that.

Construction is min-degree elimination on the undirected skeleton, in
rounds, as tree contraction does. Each round takes an independent set of the
nodes in a degree window, which starts at the least degree or at 2, so that
leaves and path nodes go together (rake and compress), and widens until it
holds an eighth of the live nodes. A node's parent bag is that of a
neighbour eliminated in a later round, so the raw tree is no taller than the
number of rounds, and inputs with few nodes of low degree, such as a long
ladder, a k-path or a strip of grid, are eaten from many places at once.
Balancing is then one pass, :func:`balance_and_binarize`, that never
changes the width: a comb hangs the children of a bag with more than two
under copies of it, lowest subtrees first, and a bag that roots several
nodes, which only a caller-built tree has, is split into a chain of nested
bags so that every node gets its own root bag.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import InvariantError, WeightedDigraph, _gc_paused

# Recorded height constant: the test suite asserts that the raw elimination
# trees of paths, forests, ladders, grid strips, k-trees and structured
# control flow have height <= HEIGHT_FACTOR * log2 n. Wide graphs, such as
# gen_cfg_like's, can exceed it, and nothing rebuilds their trees.
HEIGHT_FACTOR = 6

# An elimination round widens its degree window until it holds at least one
# live node in this many. At 4 the k-tree workloads' trees change; 8, 12 and
# 16 leave them unchanged, and 8 gives the shallowest trees.
_WINDOW_SHARE = 8


@dataclass
class Violation:
    condition: str  # coverage | edge-coverage | connectedness | binary | root-bags
    detail: str


class TreeDecomposition:
    """Rooted tree of bags. Structure is validated on construction; the
    decomposition conditions themselves are checked by :func:`validate`.
    ``children[b]`` and ``rooted[b]`` (the nodes whose root bag is b) are tuples."""

    __slots__ = (
        "bags",
        "parent",
        "children",
        "root",
        "n_nodes",
        "level",
        "root_bag_of",
        "rooted",
        "_postorder",
        "fold_cache",
    )

    def __init__(self, bags, parent, n_nodes: int):
        if len(bags) != len(parent) or not bags:
            raise ValueError("need one parent entry per bag and at least one bag")
        self.bags = [frozenset(b) for b in bags]
        self.parent = list(parent)
        self.n_nodes = n_nodes
        roots = [i for i, p in enumerate(self.parent) if p is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root bag, found {len(roots)}")
        self.root = roots[0]
        nb = len(self.bags)
        children = [[] for _ in range(nb)]
        for i, p in enumerate(self.parent):
            if p is not None:
                children[p].append(i)
        self.children = children = list(map(tuple, children))
        # BFS from the root assigns levels and detects stray components.
        self.level = level = [-1] * nb
        order = [self.root]
        level[self.root] = 0
        for b in order:
            for c in children[b]:
                level[c] = level[b] + 1
                order.append(c)
        if len(order) != nb:
            raise ValueError("parent pointers do not form a single tree")
        # Root bag of a node: the first bag containing it in BFS order, which
        # for a valid decomposition is the unique smallest-level such bag.
        self.root_bag_of = root_bag_of = [-1] * n_nodes
        rooted = [[] for _ in range(nb)]
        for b in order:
            for u in self.bags[b]:
                if 0 <= u < n_nodes and root_bag_of[u] == -1:
                    root_bag_of[u] = b
                    rooted[b].append(u)
        self.rooted = list(map(tuple, rooted))
        self._postorder = None
        # (graph, fold lists, rooted node per bag, peak maps) of the last
        # graph mincycle.min_cycle swept on this tree
        self.fold_cache = None

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def height(self) -> int:
        return max(self.level)

    def postorder(self) -> list[int]:
        """Children before parents, each subtree in one stretch: the reversed
        depth-first preorder, so a sweep holds at most height + 1 finished
        maps on a binary tree. Computed once and cached."""
        if self._postorder is None:
            order, stack = [], [self.root]
            while stack:
                b = stack.pop()
                order.append(b)
                stack.extend(self.children[b])
            order.reverse()
            self._postorder = order
        return self._postorder

    def single_rooted(self, b: int):
        """The unique node rooted at bag b, or None. Raises if not normalized."""
        r = self.rooted[b]
        if len(r) > 1:
            raise InvariantError(f"bag {b} is the root bag of {len(r)} nodes")
        return r[0] if r else None

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(bags={len(self.bags)}, width={self.width}, "
            f"height={self.height})"
        )


# -- validation ------------------------------------------------------------------


def validate(t: TreeDecomposition, g: WeightedDigraph, normalized: bool = True):
    """Check the decomposition conditions; returns None or the first Violation."""
    n = g.n
    node_bags: list[list[int]] = [[] for _ in range(n)]
    for b, bag in enumerate(t.bags):
        for u in bag:
            if not (0 <= u < n):
                return Violation("coverage", f"bag {b} contains unknown node {u}")
            node_bags[u].append(b)
    for u in range(n):
        if not node_bags[u]:
            return Violation("coverage", f"node {u} appears in no bag")
    for a, b in zip(g.src, g.dst):
        small, other = (a, b) if len(node_bags[a]) <= len(node_bags[b]) else (b, a)
        if not any(other in t.bags[bid] for bid in node_bags[small]):
            return Violation("edge-coverage", f"edge ({a},{b}) not inside any bag")
    links = [0] * n
    for b, bag in enumerate(t.bags):
        p = t.parent[b]
        if p is None:
            continue
        pbag = t.bags[p]
        for u in bag:
            if u in pbag:
                links[u] += 1
    for u in range(n):
        if len(node_bags[u]) - links[u] != 1:
            return Violation("connectedness", f"bags containing node {u} are disconnected")
    if normalized:
        for b in range(len(t.bags)):
            if len(t.children[b]) > 2:
                return Violation("binary", f"bag {b} has {len(t.children[b])} children")
        for b in range(len(t.bags)):
            if len(t.rooted[b]) > 1:
                return Violation(
                    "root-bags", f"bag {b} is the root bag of nodes {sorted(t.rooted[b])}"
                )
    return None


# -- construction ------------------------------------------------------------------


def _skeleton(g: WeightedDigraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in zip(g.src, g.dst):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _eliminate(g: WeightedDigraph):
    """Greedy elimination; returns (bags, parent) of the raw (unbalanced) tree.

    Eliminating ``u`` makes its live neighbours ``nb`` a clique, gives it the
    bag ``nb | {u}`` and, as parent, the bag of the first-eliminated node in
    ``nb``. A round's degree window starts at max(least degree, 2) and
    widens until it holds at least one live node in ``_WINDOW_SHARE``; the
    round reads the window's nodes, lowest degree first and node order within
    one, keeps each node that no node kept this round neighbours, and
    eliminates the kept ones in that order. This is Liu's multiple minimum
    degree widened into tree contraction's rake and compress rounds, so
    paths, forests, ladders and k-paths get raw height O(log n). Kept nodes
    are not adjacent, so eliminating one leaves the others' neighbourhoods
    as the round found them. Degrees live in buckets (degree -> set of
    nodes) and move once per round; a bucket is deleted only when it empties.
    """
    n = g.n
    adj = _skeleton(g)
    elim_pos: list[int] = [-1] * n
    bags: list[frozenset[int]] = []
    neighbors_at_elim: list[set[int]] = []
    deg = [len(a) for a in adj]
    buckets: dict[int, set[int]] = {}
    for u, d in enumerate(deg):
        buckets.setdefault(d, set()).add(u)
    live = n
    while buckets:
        least = min(buckets)
        top, held = least, len(buckets[least])
        while top < 2 or _WINDOW_SHARE * held < live:
            top += 1
            held += len(buckets.get(top, ()))
        chosen: list[int] = []
        touched: set[int] = set()  # live neighbours of the chosen nodes
        for d in range(least, top + 1):
            bucket = buckets.get(d, set())
            for u in sorted(bucket):
                if u not in touched:
                    chosen.append(u)
                    touched |= adj[u]
                    bucket.discard(u)  # the skipped nodes wait for the next round
            if not bucket:
                buckets.pop(d, None)
        live -= len(chosen)
        for u in chosen:
            nb = adj[u]  # not copied: once u leaves its neighbours' sets, nothing adds to it
            elim_pos[u] = len(bags)
            bags.append(frozenset(nb | {u}))
            neighbors_at_elim.append(nb)
            for v in nb:
                av = adj[v]
                av |= nb
                av.discard(v)
                av.discard(u)
        for v in touched:
            old, new = deg[v], len(adj[v])
            if old != new:
                deg[v] = new
                bucket = buckets[old]
                bucket.discard(v)
                if not bucket:
                    del buckets[old]
                buckets.setdefault(new, set()).add(v)

    parent: list[int | None] = [None] * len(bags)
    for i, nb in enumerate(neighbors_at_elim):
        if nb:
            parent[i] = min(elim_pos[v] for v in nb)
    # A disconnected skeleton yields several roots; stitch them under the
    # first one (their bags share no nodes, so all conditions survive).
    roots = [i for i, p in enumerate(parent) if p is None]
    for r in roots[1:]:
        parent[r] = roots[0]
    return bags, parent


@_gc_paused
def build_decomposition(
    g: WeightedDigraph,
    heuristic: str = "min-degree",  # kept only for bench/workloads.py's positional call
    balance: bool = True,
) -> TreeDecomposition:
    """Min-degree elimination decomposition, balanced and normalized by
    default. Any ``heuristic`` but ``"min-degree"`` raises ``ValueError``."""
    if heuristic != "min-degree":
        raise ValueError(f"unknown elimination heuristic {heuristic!r}")
    if g.n == 0:
        return TreeDecomposition([frozenset()], [None], 0)
    bags, parent = _eliminate(g)
    raw = TreeDecomposition(bags, parent, g.n)
    if not balance:
        return raw
    return balance_and_binarize(raw)


# -- balancing ------------------------------------------------------------------


@_gc_paused
def balance_and_binarize(t: TreeDecomposition) -> TreeDecomposition:
    """``t`` as a normalized binary tree of the same width.

    First a Huffman comb on subtree height: a bag with k > 2 children gets
    its two shallowest child subtrees hung under a fresh copy of it until
    two are left. The copies sit below the bag, so they root no node, and
    the comb's height is the least any binary comb over those subtrees can
    have. Then a bag that roots k > 1 nodes keeps the least of them and gets
    a chain of k - 1 nested bags below it, each adding the next node; its
    children, comb copies included, move under the chain's last bag, which
    holds the bag's whole content. Elimination trees root one node per bag,
    so only a caller's tree is split. New bags are appended, so the input's
    bags keep their numbers. The logarithmic height comes from elimination,
    whose rounds eat the input from many places at once; nothing here
    rebalances, so a tall tree that a caller builds by hand stays tall.
    """
    shared = [b for b, r in enumerate(t.rooted) if len(r) > 1]
    if not shared and all(len(c) <= 2 for c in t.children):
        return t
    bags = list(t.bags)
    parent = list(t.parent)
    height = [0] * len(bags)
    for b in t.postorder():
        subs = [(height[c], c) for c in t.children[b]]
        if len(subs) > 2:
            heapq.heapify(subs)
            while len(subs) > 2:
                h1, c1 = heapq.heappop(subs)
                h2, c2 = heapq.heappop(subs)
                copy = len(bags)
                bags.append(bags[b])
                parent.append(b)
                parent[c1] = parent[c2] = copy
                heapq.heappush(subs, (max(h1, h2) + 1, copy))
        height[b] = 1 + max(h for h, _ in subs) if subs else 0
    combed = len(bags)
    last: dict[int, int] = {}  # split bag -> its chain's last bag
    for b in shared:
        xs = sorted(t.rooted[b])
        content = bags[b] = bags[b] - frozenset(xs[1:])
        up = b
        for x in xs[1:]:
            content = content | {x}
            bags.append(content)
            parent.append(up)
            up = len(bags) - 1
        last[b] = up
    for c in range(combed):
        if parent[c] in last:
            parent[c] = last[parent[c]]
    return TreeDecomposition(bags, parent, t.n_nodes)


# -- helpers used by the traversal algorithms ---------------------------------------


def fold_bag_of_edge(t: TreeDecomposition, u: int, v: int) -> int:
    """The bag where an edge's weight enters the bottom-up traversals.

    This is the root bag of the deeper-rooted endpoint; it always contains
    both endpoints of a covered edge. An endpoint in no bag (root bag -1)
    never passes the membership test, which then names it.
    """
    bu, bv = t.root_bag_of[u], t.root_bag_of[v]
    b = bu if t.level[bu] >= t.level[bv] else bv
    if u not in t.bags[b] or v not in t.bags[b]:
        for w in (u, v):
            if t.root_bag_of[w] == -1:
                raise InvariantError(f"node {w} is in no bag")
        raise InvariantError(f"edge ({u},{v}) not covered by fold bag {b}")
    return b


def edge_fold_table(g: WeightedDigraph, t: TreeDecomposition) -> list[list[int]]:
    """Per-bag list of the indices of the edges folded at that bag."""
    table: list[list[int]] = [[] for _ in t.bags]
    for i, (u, v) in enumerate(zip(g.src, g.dst)):
        table[fold_bag_of_edge(t, u, v)].append(i)
    return table


def decomposition_to_text(t: TreeDecomposition) -> str:
    lines = []
    for b in range(len(t.bags)):
        p = t.parent[b]
        ptxt = "-" if p is None else str(p)
        nodes = " ".join(str(u) for u in sorted(t.bags[b]))
        lines.append(f"b {b} {ptxt} {nodes}".rstrip())
    return "\n".join(lines) + "\n"
