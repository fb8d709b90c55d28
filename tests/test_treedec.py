from __future__ import annotations

import hashlib
import math
import random
from collections import deque

import pytest
from conftest import reversed_tree, sc_ktree, small_random

from graphvalues.energy import energy_values
from graphvalues.energy_tw import energy_values_tw
from graphvalues.generate import gen_cfg_like, gen_ktree, gen_sparse_random
from graphvalues.graph import InvariantError, WeightedDigraph, tarjan_scc
from graphvalues.oracles import karp_mean
from graphvalues.ratio import mean_value, mean_values_all_nodes, ratio_values_all_nodes, values_all_nodes
from graphvalues.treedec import (
    HEIGHT_FACTOR,
    _WINDOW_SHARE,
    TreeDecomposition,
    balance_and_binarize,
    build_decomposition,
    decomposition_to_text,
    edge_fold_table,
    fold_bag_of_edge,
    validate,
)


def test_structure_validation_on_construction():
    with pytest.raises(ValueError, match="root"):
        TreeDecomposition([{0}, {0}], [None, None], 1)  # two roots
    with pytest.raises(ValueError, match="root"):
        TreeDecomposition([{0}, {0}], [1, 0], 1)  # no root
    with pytest.raises(ValueError, match="single tree"):
        TreeDecomposition([{0}, {0}, {0}], [None, 2, 1], 1)  # detached 2-cycle
    with pytest.raises(ValueError):
        TreeDecomposition([], [], 0)


def test_validate_catches_each_condition():
    g = WeightedDigraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
    ok = TreeDecomposition([{0, 1}, {1, 2}], [None, 0], 3)
    assert validate(ok, g, normalized=False) is None
    missing = TreeDecomposition([{0, 1}], [None], 3)
    assert validate(missing, g, normalized=False).condition == "coverage"
    uncovered = TreeDecomposition([{0, 1}, {2}], [None, 0], 3)
    assert validate(uncovered, g, normalized=False).condition == "edge-coverage"
    disconnected = TreeDecomposition([{0, 1}, {2}, {1, 2}], [None, 0, 1], 3)
    assert validate(disconnected, g, normalized=False).condition == "connectedness"
    ternary = TreeDecomposition(
        [{0, 1}, {1, 2}, {1}, {1}, {1}], [None, 0, 0, 0, 0], 3
    )
    assert validate(ternary, g, normalized=True).condition == "binary"
    assert validate(ternary, g, normalized=False) is None


def test_build_is_valid_on_generated_graphs():
    for seed in range(25):
        g = small_random(seed)
        t = build_decomposition(g)
        assert validate(t, g) is None, seed
    for seed in range(15):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        assert validate(t, g) is None, seed
    g = gen_cfg_like(60, seed=3)
    assert validate(build_decomposition(g), g) is None


def test_min_degree_is_the_only_heuristic():
    g = sc_ktree(3)
    t, default = build_decomposition(g, "min-degree"), build_decomposition(g)
    assert (t.bags, t.parent) == (default.bags, default.parent)
    for heuristic in ("min-fill", ""):
        with pytest.raises(ValueError, match="heuristic"):
            build_decomposition(g, heuristic)


def test_unbalanced_build_is_valid_unnormalized():
    g = gen_ktree(40, 2, seed=5)
    t = build_decomposition(g, balance=False)
    assert validate(t, g, normalized=False) is None


def test_width_bound_on_2_trees():
    # the raw trees fit the height bound, and combing keeps their width 2
    for seed in range(8):
        g = gen_ktree(50, 2, seed=seed)
        raw = build_decomposition(g, balance=False)
        assert raw.height <= HEIGHT_FACTOR * math.log2(g.n), seed
        assert build_decomposition(g).width == raw.width == 2, seed


def test_height_bound_logarithmic():
    for n in (16, 64, 256):
        edges = [(i, i + 1, 1) for i in range(n - 1)]
        g = WeightedDigraph.from_edges(n, edges)
        t = build_decomposition(g)
        assert validate(t, g) is None
        assert t.height <= HEIGHT_FACTOR * math.log2(n) + HEIGHT_FACTOR, (n, t.height)
    g = gen_ktree(500, 2, seed=1)
    t = build_decomposition(g)
    assert t.height <= HEIGHT_FACTOR * math.log2(500), t.height


# -- the fit path: a raw tree within the height bound is only binarized --------


@pytest.mark.parametrize("n", [500, 10_000])
def test_raw_2_tree_that_fits_keeps_width_2(n):
    g = gen_ktree(n, 2, seed=1)
    t = build_decomposition(g)
    assert t.width == 2
    assert t.height <= HEIGHT_FACTOR * math.log2(n), t.height
    assert validate(t, g, normalized=True) is None


@pytest.mark.parametrize("d", [3, 4, 5, 17, 100])
def test_star_bag_gets_a_logarithmic_comb(d):
    # hub d is eliminated last, so its bag is the root with one child per leaf
    g = WeightedDigraph.from_edges(d + 1, [(d, v, 1) for v in range(d)])
    raw = build_decomposition(g, balance=False)
    assert len(raw.children[raw.root]) == d
    t = build_decomposition(g)
    assert validate(t, g) is None
    assert t.width == 1
    assert t.height <= math.ceil(math.log2(d)) + 1, t.height


def _two_cycles(n, pairs, seed):
    """A 2-cycle of seeded weights in -12..1 on every pair: few nodes have
    energy 0, so the reference energy solver is quick."""
    rng = random.Random(seed)
    wt = (-12, 1)
    edges = [e for u, v in pairs for e in ((u, v, rng.randint(*wt)), (v, u, rng.randint(*wt)))]
    return WeightedDigraph.from_edges(n, edges)


def _ladder(rungs, pendants=0):
    """Two rails of 2-cycles, 0..rungs-1 and rungs..2*rungs-1, joined by a
    2-cycle rung at every position, plus `pendants` pendant 2-cycles on every
    fifth node of the first rail. Its treewidth is 2, but only its corners
    have degree 2."""
    n = 2 * rungs
    pairs = [(u, u + rungs) for u in range(rungs)]
    pairs += [(u, u + 1) for u in range(n - 1) if u != rungs - 1]
    for u in range(0, rungs, 5):
        pairs += [(u, v) for v in range(n, n + pendants)]
        n += pendants
    return _two_cycles(n, pairs, rungs)


def _k_path(n, k):
    """Every node joined to the k before it: a k-tree that is a path of
    (k+1)-cliques, whose inner nodes all have degree 2k."""
    return _two_cycles(n, [(u, v) for v in range(n) for u in range(max(0, v - k), v)], n)


def _grid(rows, cols):
    """A rows x cols grid: treewidth `rows`, and degree at least 3 off the
    corners."""
    pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    pairs += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return _two_cycles(rows * cols, pairs, cols)


def _recent_k_tree(n, k):
    """A k-tree in which each new node joins one of the 4 k-cliques made
    last, so it grows like a path of width k."""
    rng = random.Random(n)
    pairs = [(u, v) for v in range(k) for u in range(v)]
    cliques = [tuple(range(k))]
    for v in range(k, n):
        clique = cliques[-1 - rng.randrange(min(4, len(cliques)))]
        pairs += [(u, v) for u in clique]
        cliques += [tuple(u for u in clique if u != out) + (v,) for out in clique]
    return _two_cycles(n, pairs, n)


def _replay_rounds(g, raw):
    """Replay ``raw``'s elimination order on g's skeleton and split it into
    rounds. A round's window ends at the least degree, at least
    max(least degree, 2), that an eighth of the live nodes do not exceed; a
    round runs while the next node has degree within the window, comes later
    in (degree, node) order and neighbours no node taken this round, so each
    round's picks are independent by construction. Asserts that every round
    takes at least one node, that a node within the window is left out only
    when an earlier pick neighbours it, and the bag rule; returns the number
    of rounds."""
    assert len(raw.bags) == g.n
    last = {}
    for i, bag in enumerate(raw.bags):
        for u in bag:
            last[u] = i
    # the node eliminated at bag i is the one no later bag holds
    order = [next(u for u in bag if last[u] == i) for i, bag in enumerate(raw.bags)]
    adj = [set() for _ in range(g.n)]
    for u, v in zip(g.src, g.dst):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    live, i, rounds = set(range(g.n)), 0, 0
    while i < g.n:
        degrees = sorted(len(adj[u]) for u in live)
        cap = max(degrees[0], 2, degrees[-(-len(live) // _WINDOW_SHARE) - 1])
        key = {u: (len(adj[u]), u) for u in live if len(adj[u]) <= cap}
        picks = []
        while i < g.n:
            u = order[i]
            if u not in key or (picks and key[u] < key[picks[-1]]) or adj[u] & set(picks):
                break
            picks.append(u)
            i += 1
        assert picks, f"node {order[i]} eliminated with degree above {cap}"
        chosen = set(picks)
        for v in key:
            if v not in chosen:
                assert any(key[p] < key[v] for p in adj[v] & chosen), f"node {v} skipped"
        for b, u in enumerate(picks, start=i - len(picks)):
            assert raw.bags[b] == adj[u] | {u}
            for v in adj[u]:
                adj[v] |= adj[u]
                adj[v] -= {u, v}
            live.discard(u)
        rounds += 1
    return rounds


def test_min_degree_eliminates_independent_least_degree_rounds():
    graphs = [gen_cfg_like(60, seed=3)]
    for seed in range(50):
        graphs += [
            small_random(seed),
            gen_ktree(10 + seed, 2, seed=seed, ensure_sc=False),
            gen_ktree(12 + seed, 3, seed=seed, ensure_sc=False),
            gen_cfg_like(20 + seed, seed=seed),
        ]
    rounds = nodes = 0
    for g in graphs:
        raw = build_decomposition(g, balance=False)
        assert validate(raw, g, normalized=False) is None
        rounds += _replay_rounds(g, raw)
        nodes += g.n
    assert len(graphs) >= 200 and rounds < nodes / 2


def _structured_cfg(blocks, seed):
    """A sequence of nested if / if-else / while regions, each one entry and
    one exit, of about ``blocks`` blocks: series-parallel, so treewidth 2."""
    rng = random.Random(seed)
    edges = []
    n = 0

    def block():
        nonlocal n
        n += 1
        return n - 1

    def region(depth):
        kind = rng.randrange(4) if depth < 4 and n < blocks else 0
        head = block()
        if kind == 0:
            return head, head
        arms = [sequence(depth + 1) for _ in range(2 if kind == 2 else 1)]
        tail = block()
        edges.extend((head, entry, 1) for entry, _ in arms)
        if kind == 3:  # while: the body's end jumps back to the header
            edges.extend([(arms[0][1], head, 1), (head, tail, 1)])
        else:
            edges.extend((exit_, tail, 1) for _, exit_ in arms)
            if kind == 1:
                edges.append((head, tail, 1))
        return head, tail

    def sequence(depth):
        entry, exit_ = region(depth)
        while depth == 0 and n < blocks or depth and rng.random() < 0.6:
            e, x = region(depth)
            edges.append((exit_, e, 1))
            exit_ = x
        return entry, exit_

    sequence(0)
    return WeightedDigraph.from_edges(n, edges)


def test_structured_cfg_raw_tree_fits_at_width_2():
    g = _structured_cfg(2000, seed=1)
    raw = build_decomposition(g, balance=False)
    assert raw.width == 2
    assert raw.height <= HEIGHT_FACTOR * math.log2(g.n), raw.height
    t = balance_and_binarize(raw)
    assert t.width == raw.width
    assert validate(t, g) is None


def _broom(path=200, pendants=3, wt=(-12, 1)):
    """A path of 2-cycles with `pendants` pendant 2-cycles on every fifth
    node."""
    rng = random.Random(path)
    edges, n = [], path
    for u in range(path - 1):
        edges += [(u, u + 1, rng.randint(*wt)), (u + 1, u, rng.randint(*wt))]
    for u in range(0, path, 5):
        for v in range(n, n + pendants):
            edges += [(u, v, rng.randint(*wt)), (v, u, rng.randint(*wt))]
        n += pendants
    return WeightedDigraph.from_edges(n, edges)


def _caterpillar(spine=10_000, legs=4):
    """A path of `spine` nodes with `legs` leaves on every one of them."""
    edges = [(u, u + 1, 1) for u in range(spine - 1)]
    edges += [(u, spine + legs * u + j, 1) for u in range(spine) for j in range(legs)]
    return WeightedDigraph.from_edges(spine * (legs + 1), edges)


@pytest.mark.parametrize(
    "make",
    [
        lambda: WeightedDigraph.from_edges(50_000, [(i, i + 1, 1) for i in range(49_999)]),
        lambda: _broom(31_250),
        _caterpillar,
    ],
    ids=["path", "broom", "caterpillar"],
)
def test_paths_and_forests_get_shallow_raw_trees(make):
    # each round rakes the leaves and compresses an independent set of the
    # degree-2 nodes, so the raw tree already fits and is only binarized
    g = make()
    raw = build_decomposition(g, balance=False)
    assert raw.width <= 2
    assert raw.height <= HEIGHT_FACTOR * math.log2(g.n), raw.height
    t = build_decomposition(g)
    assert t.width == raw.width
    assert validate(t, g) is None


_STALLED = {  # family: (treewidth, instance of about the given size)
    "ladder": (2, lambda n: _ladder(n // 2)),
    "ladder with pendants": (2, lambda n: _ladder(n // 2, pendants=3)),
    "2-path": (2, lambda n: _k_path(n, 2)),
    "3-path": (3, lambda n: _k_path(n, 3)),
    "4-path": (4, lambda n: _k_path(n, 4)),
    "3 x L grid": (3, lambda n: _grid(3, n // 3)),
    "5 x L grid": (5, lambda n: _grid(5, n // 5)),
    "recent 2-tree": (2, lambda n: _recent_k_tree(n, 2)),
    "recent 3-tree": (3, lambda n: _recent_k_tree(n, 3)),
}


def test_families_with_few_low_degree_nodes_get_shallow_raw_trees():
    # Rounds that stopped at degree max(least, 2) took a handful of nodes
    # from these (a ladder's four corners), so their raw trees were as tall
    # as the input is long; a window holding an eighth of the live nodes
    # makes the raw tree shallow, at width within 3(k+1) - 1.
    for family, (k, make) in _STALLED.items():
        g = make(4000)
        raw = build_decomposition(g, balance=False)
        assert validate(raw, g, normalized=False) is None, family
        assert raw.height <= HEIGHT_FACTOR * math.log2(g.n), (family, raw.height)
        assert raw.width <= 3 * (k + 1) - 1, (family, raw.width)
        small = make(60)
        t = build_decomposition(small)
        assert validate(t, small) is None, family
        assert mean_values_all_nodes(small) == values_all_nodes(small, karp_mean), family
        assert energy_values_tw(small, t) == energy_values(small), family


def _one_bag(g):
    """The whole graph in one bag, combed: a chain of n nested bags."""
    return balance_and_binarize(TreeDecomposition([range(g.n)], [None], g.n))


def _differential_graphs():
    for seed in range(6):
        yield gen_ktree(40 + 20 * seed, 2, seed=seed, wt=(-10, 10), wtp=(1, 5), ensure_sc=False)
        yield gen_cfg_like(40 + 10 * seed, seed=seed)
        yield gen_sparse_random(60, 1, seed=seed, wt=(-5, 10), wtp=(1, 4))


def test_values_match_on_reversed_and_one_bag_trees():
    several = 0
    for g in _differential_graphs():
        several += sum(len(c) > 1 for c in tarjan_scc(g).components) > 1
        one = _one_bag(g)
        assert one.width == one.height == g.n - 1 and validate(one, g) is None
        means = mean_values_all_nodes(g)
        ratios = ratio_values_all_nodes(g)
        credits = energy_values_tw(g, build_decomposition(g))
        for shape in (reversed_tree, _one_bag):
            assert means == mean_values_all_nodes(g, shape)
            assert ratios == ratio_values_all_nodes(g, shape)
            assert credits == energy_values_tw(g, shape(g))
        assert means == values_all_nodes(g, karp_mean)
        if all(wp == 1 for wp in g.wtp):
            assert ratios == means
        assert credits == energy_values(g)
    assert several == 6


def _merged(g, seed):
    """g's raw elimination tree with a third of its non-root bags, picked at
    random, and one child of the root merged into their nearest kept
    ancestor: a caller-built tree in which the merged-into bags, the root
    among them, root several nodes and may have more than two children."""
    raw = build_decomposition(g, balance=False)
    rng = random.Random(seed)
    up = list(raw.parent)
    content = [set(b) for b in raw.bags]
    merged = set(rng.sample([b for b, p in enumerate(up) if p is not None], len(up) // 3))
    merged.add(raw.children[raw.root][0])  # so that the root bag roots several nodes
    top_down = sorted(range(len(up)), key=raw.level.__getitem__)
    for b in reversed(top_down):
        if b in merged:
            content[up[b]] |= content[b]
    for b in top_down:
        if up[b] in merged:
            up[b] = up[up[b]]  # the parent's own entry already skips merged bags
    kept = [b for b in range(len(up)) if b not in merged]
    new_id = {b: i for i, b in enumerate(kept)}
    return TreeDecomposition(
        [content[b] for b in kept], [None if up[b] is None else new_id[up[b]] for b in kept], g.n
    )


def test_caller_trees_with_shared_root_bags_are_normalized():
    wide = 0
    for seed in range(40):
        g = (gen_ktree(30 + seed, 2 + seed % 2, seed=seed, wt=(-8, 8), wtp=(1, 4), ensure_sc=False)
             if seed % 2 else sc_ktree(seed, n_max=30))
        t = _merged(g, seed)
        assert validate(t, g, normalized=False) is None, seed
        assert len(t.rooted[t.root]) > 1, seed
        wide += any(len(c) > 2 for c in t.children)
        n = balance_and_binarize(t)
        assert validate(n, g) is None and n.width == t.width, seed
        assert energy_values_tw(g, n) == energy_values_tw(g), seed
        if seed % 2 == 0:
            assert mean_value(g, n)[0] == mean_value(g)[0], seed
    assert wide >= 30  # 35 of the 40 trees have a bag with more than two children


def test_every_bag_roots_at_most_one_node():
    for seed in range(12):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        for b in range(len(t.bags)):
            t.single_rooted(b)  # raises if two nodes share a root bag
        covered = sorted(u for b in range(len(t.bags)) for u in t.rooted[b])
        assert covered == list(range(g.n))


def test_build_is_deterministic():
    g = sc_ktree(7)
    t1 = build_decomposition(g)
    t2 = build_decomposition(g)
    assert t1.bags == t2.bags and t1.parent == t2.parent


def test_root_bag_is_minimum_level():
    for seed in range(12):
        g = small_random(seed)
        t = build_decomposition(g)
        for u in range(g.n):
            rb = t.root_bag_of[u]
            assert u in t.bags[rb]
            best = min(t.level[b] for b in range(len(t.bags)) if u in t.bags[b])
            assert t.level[rb] == best, (seed, u)


def test_fold_bag_contains_edge_and_is_an_endpoint_root():
    for seed in range(12):
        g = sc_ktree(seed)
        t = build_decomposition(g)
        for u, v in zip(g.src, g.dst):
            b = fold_bag_of_edge(t, u, v)
            assert {u, v} <= t.bags[b]
            assert b in (t.root_bag_of[u], t.root_bag_of[v])
            # the deeper root bag of the two endpoints
            assert t.level[b] == max(t.level[t.root_bag_of[u]], t.level[t.root_bag_of[v]])


def test_fold_bag_raises_on_uncovered_pair():
    n = 40
    g = WeightedDigraph.from_edges(n, [(i, i + 1, 0) for i in range(n - 1)])
    t = build_decomposition(g)
    distant = [(u, v) for u in range(n) for v in range(n) if u != v
               and not any({u, v} <= bag for bag in t.bags)]
    assert distant, "long-path decomposition should not cover all pairs"
    u, v = distant[0]
    with pytest.raises(InvariantError):
        fold_bag_of_edge(t, u, v)


def test_edge_fold_table_partitions_edges():
    g = sc_ktree(3)
    t = build_decomposition(g)
    table = edge_fold_table(g, t)
    seen = sorted(i for row in table for i in row)
    assert seen == list(range(g.m))
    for b, row in enumerate(table):
        for i in row:
            assert fold_bag_of_edge(t, g.src[i], g.dst[i]) == b


def test_decomposition_to_text_format():
    t = TreeDecomposition([{0, 1}, {1, 2}], [None, 0], 3)
    text = decomposition_to_text(t)
    assert text == "b 0 - 0 1\nb 1 0 1 2\n"


def _connected_avoiding(g: WeightedDigraph, a: int, b: int, banned: frozenset) -> bool:
    """Is there an undirected path a..b avoiding `banned` (a, b not banned)?"""
    adj = [set() for _ in range(g.n)]
    for u, v in zip(g.src, g.dst):
        adj[u].add(v)
        adj[v].add(u)
    seen = {a}
    q = deque([a])
    while q:
        x = q.popleft()
        if x == b:
            return True
        for y in adj[x]:
            if y not in seen and y not in banned:
                seen.add(y)
                q.append(y)
    return False


def test_bags_are_separators():
    """Tree edges separate the graph: for a tree edge (p, b), removing the
    intersection bag disconnects nodes rooted inside b's subtree from nodes
    rooted outside."""
    for seed in range(20):
        g = small_random(seed, n_max=12)
        t = build_decomposition(g)
        nb = len(t.bags)
        # nodes rooted in each subtree
        sub_nodes = [set(t.rooted[b]) for b in range(nb)]
        for b in t.postorder():
            for c in t.children[b]:
                sub_nodes[b] |= sub_nodes[c]
        for b in range(nb):
            p = t.parent[b]
            if p is None:
                continue
            sep = t.bags[b] & t.bags[p]
            inside = sub_nodes[b] - sep
            outside = set(range(g.n)) - sub_nodes[b] - sep
            for a in inside:
                for z in outside:
                    assert not _connected_avoiding(g, a, z, sep), (seed, b, a, z)


def test_elimination_trees_are_pinned():
    """The raw elimination trees, bag for bag, so the elimination order stays
    as it is: rounds of independent nodes within a degree window of at least
    max(least degree, 2) that holds an eighth of the live nodes, taken
    lowest degree first and in node order within one."""
    h = hashlib.sha256()
    for seed in range(4):
        for g in (gen_ktree(200, k=2 + seed % 2, seed=seed), gen_cfg_like(150, seed=seed)):
            t = build_decomposition(g, balance=False)
            h.update(decomposition_to_text(t).encode())
    assert h.hexdigest() == "affe53e76ca44c55924651123eddcc18df586c36a3472ba5ca6a7d8e30ccd9f9"


def test_balanced_trees_are_pinned():
    """The same eight graphs' trees after the comb, bag for bag: balancing
    hangs copies in the same order and splits no elimination tree's bag."""
    h = hashlib.sha256()
    for seed in range(4):
        for g in (gen_ktree(200, k=2 + seed % 2, seed=seed), gen_cfg_like(150, seed=seed)):
            h.update(decomposition_to_text(build_decomposition(g)).encode())
    assert h.hexdigest() == "98981888e34c9ddf990b883fdf89c67a48e34fd3fc47aaeaea11cf3ce69c54b4"
