"""Seeded test-instance generators: k-trees, sparse digraphs, CFG-shaped graphs.

All generators are deterministic functions of their arguments (one private
``random.Random(seed)`` each), so the same call produces byte-identical
files. Every integer drawn is the one ``randint``/``randrange`` would return
from the same state, read through ``getrandbits`` at a third of the cost;
an empty weight range is refused before anything is drawn. k-tree skeletons
have treewidth <= k by construction, which is what the decomposition-based
algorithms are fast on; cfg-like graphs imitate the
sequential-blocks-plus-branches-plus-loops shape of compiled control flow,
but their back edges may jump to any earlier block, so their treewidth grows
with n: a min-degree elimination of the seed-0 graphs has width 24 at
n=500 and 107 at n=2000.
"""
from __future__ import annotations

import random
from operator import itemgetter

from .graph import WeightedDigraph, tarjan_scc


def _weight_range(name: str, rng_range: tuple[int, int]) -> tuple[int, int, int]:
    """(low, width, width.bit_length()) of an inclusive integer range, or a
    ValueError naming an empty one (whose draw would never end)."""
    lo, hi = rng_range
    if lo > hi:
        raise ValueError(f"empty weight range {name}=({lo}, {hi}): need {name}[0] <= {name}[1]")
    width = hi - lo + 1
    return lo, width, width.bit_length()


def _below(getrandbits, width: int, k: int) -> int:
    """What ``random.Random.randrange(width)`` returns, with k =
    width.bit_length(): CPython's ``_randbelow_with_getrandbits``, which
    ``randint`` and ``randrange`` call, so the same words are consumed in
    the same order without their argument checks."""
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return r


def _is_strongly_connected(g: WeightedDigraph) -> bool:
    return g.n <= 1 or len(tarjan_scc(g)) == 1


def _every_node_enters_and_leaves(n: int, raw: list[tuple]) -> bool:
    """Whether every node has an in-edge and an out-edge, which a strongly
    connected digraph on n > 1 nodes needs."""
    return len(set(map(itemgetter(0), raw))) == n and len(set(map(itemgetter(1), raw))) == n


def ktree_skeleton(n: int, k: int, seed: int = 0) -> list[tuple[int, int]]:
    """Undirected edge list of a random k-tree on n nodes (a clique if n <= k+1)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    getrandbits = random.Random(seed).getrandbits
    base = min(n, k + 1)
    edges = [(i, j) for i in range(base) for j in range(i + 1, base)]
    if n <= k + 1:
        return edges
    cliques = [tuple(range(k + 1))[:i] + tuple(range(k + 1))[i + 1 :] for i in range(k + 1)]
    for v in range(k + 1, n):
        c = cliques[_below(getrandbits, len(cliques), len(cliques).bit_length())]
        for u in c:
            edges.append((u, v))
        for i in range(k):
            cliques.append(c[:i] + c[i + 1 :] + (v,))
    return edges


KTREE_RETRIES = 30  # orientations gen_ktree draws before its bidirected fallback


def gen_ktree(
    n: int,
    k: int = 2,
    seed: int = 0,
    wt: tuple[int, int] = (-10, 10),
    wtp: tuple[int, int] = (1, 1),
    ensure_sc: bool = True,
    retries: int = KTREE_RETRIES,
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

    Weights are the numbers ``rng.randint(*wt)`` and ``rng.randint(*wtp)``
    would return, drawn straight through ``getrandbits`` (see ``_below``),
    so outputs match the randint-based generator byte for byte. That makes
    the 30 rejected draws about three times cheaper than through randint:
    at n=1e5 (k=2, 2 cores, Python 3.11.7) the whole call takes about 8 s
    instead of 24 s, nearly all of it spent on the rejected draws.
    """
    lo, width, bits = _weight_range("wt", wt)
    lop, widthp, bitsp = _weight_range("wtp", wtp)
    skel = ktree_skeleton(n, k, seed)
    rng = random.Random(seed + 1)
    rand, getrandbits = rng.random, rng.getrandbits
    for _ in range(max(1, retries)):
        raw = []
        append = raw.append
        for (u, v) in skel:
            # _below inlined: this loop draws every orientation, rejected or not
            r = rand()
            w = getrandbits(bits)
            while w >= width:
                w = getrandbits(bits)
            wp = getrandbits(bitsp)
            while wp >= widthp:
                wp = getrandbits(bitsp)
            if r < 0.45:
                append((u, v, lo + w, lop + wp))
            elif r < 0.9:
                append((v, u, lo + w, lop + wp))
            else:
                append((u, v, lo + w, lop + wp))
                w = _below(getrandbits, width, bits)
                append((v, u, lo + w, lop + _below(getrandbits, widthp, bitsp)))
        if ensure_sc and n > 1 and not _every_node_enters_and_leaves(n, raw):
            continue  # cannot be strongly connected; skip building it
        g = WeightedDigraph(n, raw)
        if not ensure_sc or _is_strongly_connected(g):
            return g
    edges = []
    for (u, v) in skel:
        for a, b in ((u, v), (v, u)):
            w = _below(getrandbits, width, bits)
            edges.append((a, b, lo + w, lop + _below(getrandbits, widthp, bitsp)))
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
    if avg_degree < 0:
        raise ValueError(f"need avg_degree >= 0, got {avg_degree}")
    lo, width, bits = _weight_range("wt", wt)
    lop, widthp, bitsp = _weight_range("wtp", wtp)
    getrandbits = random.Random(seed).getrandbits
    nbits = n.bit_length()
    target = min(avg_degree * n, n * (n - 1))
    pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int, int]] = []
    attempts = 0
    while len(edges) < target and attempts < 50 * target + 100:
        attempts += 1
        u = _below(getrandbits, n, nbits)
        v = _below(getrandbits, n, nbits)
        if u == v or (u, v) in pairs:
            continue
        pairs.add((u, v))
        w = _below(getrandbits, width, bits)
        edges.append((u, v, lo + w, lop + _below(getrandbits, widthp, bitsp)))
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
    lo, width, bits = _weight_range("wt", wt)
    rng = random.Random(seed)
    rand, getrandbits = rng.random, rng.getrandbits
    pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int, int]] = []

    def add(u: int, v: int) -> None:
        if u != v and (u, v) not in pairs:
            pairs.add((u, v))
            w = lo + _below(getrandbits, width, bits)
            _below(getrandbits, 1, 1)  # the unit wt', drawn to keep the stream
            edges.append((u, v, w, 1))

    for i in range(n - 1):
        add(i, i + 1)
    for i in range(n):
        if n > 2 and rand() < 0.3:  # conditional branch over some blocks
            add(i, min(i + 2 + _below(getrandbits, 3, 2), n - 1))
        if i > 0 and rand() < 0.15:  # loop back edge
            add(i, _below(getrandbits, i, i.bit_length()))
    return WeightedDigraph(n, edges)


def generate(kind: str, n: int, k: int = 2, seed: int = 0, **kw) -> WeightedDigraph:
    if kind == "ktree":
        return gen_ktree(n, k, seed, **kw)
    if kind == "sparse-random":
        return gen_sparse_random(n, k, seed, **kw)
    if kind == "cfg-like":
        return gen_cfg_like(n, seed, **kw)
    raise ValueError(f"unknown generator kind {kind!r}")
