from __future__ import annotations

import hashlib
import math
import random
from collections import deque

import pytest
from conftest import sc_ktree, small_random

from graphvalues import treedec
from graphvalues.energy import energy_values
from graphvalues.energy_tw import energy_values_tw
from graphvalues.generate import gen_cfg_like, gen_ktree, gen_sparse_random
from graphvalues.graph import InvariantError, WeightedDigraph, tarjan_scc
from graphvalues.oracles import karp_mean
from graphvalues.ratio import mean_values_all_nodes, ratio_values_all_nodes, values_all_nodes
from graphvalues.treedec import (
    HEIGHT_FACTOR,
    TreeDecomposition,
    _binarize,
    _heavy_path_balance,
    _split_multi_rooted,
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
    # Balancing may triple bag sizes: width <= 3*(w+1) - 1 = 8 for w = 2;
    # a raw tree that fits the height bound is only binarized and keeps 2.
    fit = 0
    for seed in range(8):
        g = gen_ktree(50, 2, seed=seed)
        t = build_decomposition(g)
        assert t.width <= 8, (seed, t.width)
        if build_decomposition(g, balance=False).height <= HEIGHT_FACTOR * math.log2(g.n):
            assert t.width == 2, seed
            fit += 1
    assert fit == 8


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


def _chain(n):
    """The path 0 - 1 - ... - n-1 eaten from one end: bag {i, i+1} under
    bag {i+1, i+2}, a tree of height n - 1."""
    g = WeightedDigraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])
    bags = [{i, i + 1} for i in range(n - 1)] + [{n - 1}]
    return g, TreeDecomposition(bags, list(range(1, n)) + [None], n)


def _ladder(rungs, pendants=0, wt=(-12, 1)):
    """Two rails of 2-cycles, 0..rungs-1 and rungs..2*rungs-1, joined by a
    2-cycle rung at every position, plus `pendants` pendant 2-cycles on every
    fifth node of the first rail. Its treewidth is 2, but elimination eats it
    from its two ends only, so its raw height is `rungs`."""
    rng = random.Random(rungs)
    n = 2 * rungs
    pairs = [(u, u + rungs) for u in range(rungs)]
    pairs += [(u, u + 1) for u in range(n - 1) if u != rungs - 1]
    for u in range(0, rungs, 5):
        pairs += [(u, v) for v in range(n, n + pendants)]
        n += pendants
    edges = [e for u, v in pairs for e in ((u, v, rng.randint(*wt)), (v, u, rng.randint(*wt)))]
    return WeightedDigraph.from_edges(n, edges)


def _count_rebuilds(monkeypatch):
    """The trees handed to the heavy-path rebuild from now on."""
    rebuilt = []
    real = treedec._heavy_path_balance
    monkeypatch.setattr(treedec, "_heavy_path_balance", lambda t: rebuilt.append(t) or real(t))
    return rebuilt


def test_tall_raw_tree_falls_back_to_heavy_paths(monkeypatch):
    for n in (64, 256):
        g, raw = _chain(n)
        assert raw.height > HEIGHT_FACTOR * math.log2(n)
        t = balance_and_binarize(raw)
        heavy = _heavy_path_balance(raw)
        assert (t.bags, t.parent) == (heavy.bags, heavy.parent)
    g = _ladder(2000)
    raw = build_decomposition(g, balance=False)
    assert raw.width == 2 and raw.height == 2000 > HEIGHT_FACTOR * math.log2(g.n)
    rebuilt = _count_rebuilds(monkeypatch)
    t = build_decomposition(g)
    assert len(rebuilt) == 1 and validate(t, g) is None
    assert t.height <= HEIGHT_FACTOR * math.ceil(math.log2(len(t.bags))) + HEIGHT_FACTOR


def test_wide_graph_keeps_the_binarized_tree_when_the_rebuild_is_taller():
    g = gen_sparse_random(400, 1.5, seed=0)
    raw = build_decomposition(g, balance=False)
    fit = _split_multi_rooted(_binarize(raw))
    heavy = _heavy_path_balance(raw)
    assert HEIGHT_FACTOR * math.log2(g.n) < fit.height < heavy.height
    assert fit.width < heavy.width
    t = balance_and_binarize(raw)
    assert (t.bags, t.parent) == (fit.bags, fit.parent)
    assert validate(t, g) is None


def test_raw_tree_that_outgrows_the_bound_when_binarized_falls_back():
    # A spider: centre 0 and three legs of `leg` nodes. Its chain tree has
    # height `leg`, just within the bound; the root's three equally deep
    # branches make the binarized tree one level taller, just over it.
    leg = 41
    n = 3 * leg + 1
    edges, bags, parent = [], [{0}], [None]
    for i in range(3):
        prev, prev_bag = 0, 0
        for j in range(leg):
            u = 1 + i * leg + j
            edges.append((prev, u, 1))
            bags.append({prev, u})
            parent.append(prev_bag)
            prev, prev_bag = u, len(bags) - 1
    g = WeightedDigraph.from_edges(n, edges)
    raw = TreeDecomposition(bags, parent, n)
    limit = HEIGHT_FACTOR * math.log2(n)
    assert raw.height <= limit < _binarize(raw).height
    t = balance_and_binarize(raw)
    heavy = _heavy_path_balance(raw)
    assert (t.bags, t.parent) == (heavy.bags, heavy.parent)
    assert validate(t, g) is None and t.height <= limit


def _replay_rounds(g, raw):
    """Replay ``raw``'s elimination order on g's skeleton and split it into
    rounds: a round runs while the next node has degree at most
    max(least degree, 2), comes later in (degree, node) order and neighbours
    no node taken this round, so each round's picks are independent by
    construction. Asserts that every round takes at least one node, that a
    node of such a degree is left out only when an earlier pick neighbours
    it, and the bag rule; returns the number of rounds."""
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
        cap = max(min(len(adj[u]) for u in live), 2)
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
def test_paths_and_forests_get_shallow_raw_trees(monkeypatch, make):
    # each round rakes the leaves and compresses an independent set of the
    # degree-2 nodes, so the raw tree already fits and is only binarized
    g = make()
    raw = build_decomposition(g, balance=False)
    assert raw.width <= 2
    assert raw.height <= HEIGHT_FACTOR * math.log2(g.n), raw.height
    rebuilt = _count_rebuilds(monkeypatch)
    t = build_decomposition(g)
    assert rebuilt == [] and t.width == raw.width
    assert validate(t, g) is None


def test_ladder_gets_the_heavy_path_rebuild_finished_by_binarize(monkeypatch):
    # few of its nodes have energy 0, so the reference solvers are quick
    g = _ladder(100, pendants=3)
    raw = build_decomposition(g, balance=False)
    assert raw.height == 100 > HEIGHT_FACTOR * math.log2(g.n)
    combed = []
    monkeypatch.setattr(treedec, "_binarize", lambda t: combed.append(t) or _binarize(t))
    t = build_decomposition(g)
    # the raw tree is combed first; the rebuild, which is shallower, leaves
    # bags of more than two children, combed too
    assert len(combed) == 2 and (combed[0].bags, combed[0].parent) == (raw.bags, raw.parent)
    assert max(len(c) for c in combed[1].children) > 2
    assert validate(t, g, normalized=True) is None
    assert t.height <= HEIGHT_FACTOR * math.ceil(math.log2(len(t.bags))) + HEIGHT_FACTOR
    assert t.width <= 3 * (raw.width + 1) - 1
    assert mean_values_all_nodes(g) == values_all_nodes(g, karp_mean)
    assert energy_values_tw(g, t) == energy_values(g)


def _heavy(g):
    return _heavy_path_balance(build_decomposition(g, balance=False))


def _differential_graphs():
    for seed in range(6):
        yield gen_ktree(40 + 20 * seed, 2, seed=seed, wt=(-10, 10), wtp=(1, 5), ensure_sc=False)
        yield gen_cfg_like(40 + 10 * seed, seed=seed)
        yield gen_sparse_random(60, 1, seed=seed, wt=(-5, 10), wtp=(1, 4))


def test_values_on_fit_trees_match_heavy_path_trees():
    kept = several = 0
    for g in _differential_graphs():
        kept += build_decomposition(g).width < _heavy(g).width
        several += sum(len(c) > 1 for c in tarjan_scc(g).components) > 1
        means = mean_values_all_nodes(g)
        assert means == mean_values_all_nodes(g, _heavy)
        assert means == values_all_nodes(g, karp_mean)
        ratios = ratio_values_all_nodes(g)
        assert ratios == ratio_values_all_nodes(g, _heavy)
        if all(wp == 1 for wp in g.wtp):
            assert ratios == means
        credits = energy_values_tw(g, build_decomposition(g))
        assert credits == energy_values_tw(g, _heavy(g))
        assert credits == energy_values(g)
    assert (kept, several) == (18, 6)


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
    as it is: rounds of independent nodes of degree at most max(least
    degree, 2), taken lowest degree first and in node order within one."""
    h = hashlib.sha256()
    for seed in range(4):
        for g in (gen_ktree(200, k=2 + seed % 2, seed=seed), gen_cfg_like(150, seed=seed)):
            t = build_decomposition(g, balance=False)
            h.update(decomposition_to_text(t).encode())
    assert h.hexdigest() == "ef0535943a7717d92e9999721e705f5ef8b1e25f592d3229eada94d755b48363"
