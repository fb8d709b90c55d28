"""Seeded test-instance generators: k-trees, sparse digraphs, CFG-shaped graphs.

All generators are deterministic functions of their arguments (one private
``random.Random(seed)`` each), so the same call produces byte-identical
files. k-tree skeletons have treewidth <= k by construction, which is what
the decomposition-based algorithms are fast on; cfg-like graphs imitate the
sequential-blocks-plus-branches-plus-loops shape of compiled control flow,
but their back edges may jump to any earlier block, so their treewidth grows
with n: a min-degree elimination of the seed-0 graphs has width 23 at
n=500 and 106 at n=2000.
"""
from __future__ import annotations

import random

from .graph import Edge, WeightedDigraph, tarjan_scc


def _weights(rng: random.Random, wt: tuple[int, int], wtp: tuple[int, int]) -> tuple[int, int]:
    return rng.randint(*wt), rng.randint(*wtp)


def _is_strongly_connected(g: WeightedDigraph) -> bool:
    return g.n <= 1 or len(tarjan_scc(g)) == 1


def _every_node_enters_and_leaves(n: int, raw: list[tuple]) -> bool:
    """Whether every node has an in-edge and an out-edge, which a strongly
    connected digraph on n > 1 nodes needs."""
    has_out = [False] * n
    has_in = [False] * n
    for u, v, *_ in raw:
        has_out[u] = has_in[v] = True
    return all(has_out) and all(has_in)


def ktree_skeleton(n: int, k: int, seed: int = 0) -> list[tuple[int, int]]:
    """Undirected edge list of a random k-tree on n nodes (a clique if n <= k+1)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    rng = random.Random(seed)
    base = min(n, k + 1)
    edges = [(i, j) for i in range(base) for j in range(i + 1, base)]
    if n <= k + 1:
        return edges
    cliques = [tuple(range(k + 1))[:i] + tuple(range(k + 1))[i + 1 :] for i in range(k + 1)]
    for v in range(k + 1, n):
        c = cliques[rng.randrange(len(cliques))]
        for u in c:
            edges.append((u, v))
        for i in range(k):
            cliques.append(c[:i] + c[i + 1 :] + (v,))
    return edges


def gen_ktree(
    n: int,
    k: int = 2,
    seed: int = 0,
    wt: tuple[int, int] = (-10, 10),
    wtp: tuple[int, int] = (1, 1),
    ensure_sc: bool = True,
    retries: int = 30,
) -> WeightedDigraph:
    """Random k-tree, oriented per skeleton edge (forward, backward, or both).

    With ensure_sc the orientation is redrawn up to ``retries`` times until
    the digraph is strongly connected, then falls back to orienting every
    skeleton edge both ways (always strongly connected). A draw that leaves
    some node without an in-edge or an out-edge is rejected before any graph
    is built; the random numbers drawn are the same either way.

    Few draws pass: each 2-tree leaf has only two skeleton edges to give it
    an in-edge and an out-edge. Over 40 seeds of 2-trees the fallback was
    taken 2 times at n=8, 37 times at n=20 and every time at each n from 30
    to 2500. So an ensure_sc k-tree of that size is bidirected, and its
    optimum cycle is a 2-cycle.
    """
    skel = ktree_skeleton(n, k, seed)
    rng = random.Random(seed + 1)
    for _ in range(max(1, retries)):
        raw = []
        for (u, v) in skel:
            r = rng.random()
            if r < 0.45:
                raw.append((u, v, *_weights(rng, wt, wtp)))
            elif r < 0.9:
                raw.append((v, u, *_weights(rng, wt, wtp)))
            else:
                raw.append((u, v, *_weights(rng, wt, wtp)))
                raw.append((v, u, *_weights(rng, wt, wtp)))
        if ensure_sc and n > 1 and not _every_node_enters_and_leaves(n, raw):
            continue  # cannot be strongly connected; skip building it
        g = WeightedDigraph(n, [Edge(*e) for e in raw])
        if not ensure_sc or _is_strongly_connected(g):
            return g
    edges = []
    for (u, v) in skel:
        edges.append(Edge(u, v, *_weights(rng, wt, wtp)))
        edges.append(Edge(v, u, *_weights(rng, wt, wtp)))
    return WeightedDigraph(n, edges)


def gen_sparse_random(
    n: int,
    avg_degree: int = 2,
    seed: int = 0,
    wt: tuple[int, int] = (-10, 10),
    wtp: tuple[int, int] = (1, 1),
) -> WeightedDigraph:
    """n nodes, about avg_degree*n distinct random edges, no self-loops."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    target = min(avg_degree * n, n * (n - 1))
    pairs: set[tuple[int, int]] = set()
    edges: list[Edge] = []
    attempts = 0
    while len(edges) < target and attempts < 50 * target + 100:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in pairs:
            continue
        pairs.add((u, v))
        edges.append(Edge(u, v, *_weights(rng, wt, wtp)))
    return WeightedDigraph(n, edges)


def gen_cfg_like(
    n: int,
    seed: int = 0,
    wt: tuple[int, int] = (-10, 10),
) -> WeightedDigraph:
    """Sequential blocks 0..n-1 with fallthrough edges, forward branches and
    backward loop edges — sparse, but not low-treewidth: a back edge from
    block i targets any earlier block, so loops cross instead of nesting."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    unit = (1, 1)
    pairs: set[tuple[int, int]] = set()
    edges: list[Edge] = []

    def add(u: int, v: int) -> None:
        if u != v and (u, v) not in pairs:
            pairs.add((u, v))
            edges.append(Edge(u, v, *_weights(rng, wt, unit)))

    for i in range(n - 1):
        add(i, i + 1)
    for i in range(n):
        if n > 2 and rng.random() < 0.3:  # conditional branch over some blocks
            add(i, min(i + 2 + rng.randrange(3), n - 1))
        if i > 0 and rng.random() < 0.15:  # loop back edge
            add(i, rng.randrange(i))
    return WeightedDigraph(n, edges)


def generate(kind: str, n: int, k: int = 2, seed: int = 0, **kw) -> WeightedDigraph:
    if kind == "ktree":
        return gen_ktree(n, k, seed, **kw)
    if kind == "sparse-random":
        return gen_sparse_random(n, k, seed, **kw)
    if kind == "cfg-like":
        return gen_cfg_like(n, seed, **kw)
    raise ValueError(f"unknown generator kind {kind!r}")
