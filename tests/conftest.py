"""Shared fixtures: small hand graphs with known values, seeded generators."""
from __future__ import annotations

import random

import pytest
from hypothesis import settings

from graphvalues.generate import gen_ktree, gen_sparse_random
from graphvalues.graph import WeightedDigraph
from graphvalues.treedec import TreeDecomposition, build_decomposition

settings.register_profile("suite", deadline=None, max_examples=60, print_blob=True)
settings.load_profile("suite")


@pytest.fixture
def triangle() -> WeightedDigraph:
    """Single 3-cycle with weights 1, 2, 3: cycle weight 6, mean 2."""
    return WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)])


@pytest.fixture
def five_chain() -> WeightedDigraph:
    """u->v:-2, v->w:-1, w->x:3, x->y:-1, y->v:-1.

    Non-positive-convention energies are (u,v,w,x,y) = (0,-2,-3,0,-1).
    """
    return WeightedDigraph.from_edges(
        5,
        [(0, 1, -2), (1, 2, -1), (2, 3, 3), (3, 4, -1), (4, 1, -1)],
        labels=["u", "v", "w", "x", "y"],
    )


@pytest.fixture
def two_gadget() -> WeightedDigraph:
    """Two 2-cycles sharing t: s<->t at -1/-1, t<->r at 2/2.

    Cycle weights -2 and +4; minimum mean -1.
    """
    return WeightedDigraph.from_edges(
        3, [(0, 1, -1), (1, 0, -1), (1, 2, 2), (2, 1, 2)], labels=["s", "t", "r"]
    )


@pytest.fixture
def ratio_pair() -> WeightedDigraph:
    """One 2-cycle with wt (1, 2), wt' (1, 1): unique ratio 3/2."""
    return WeightedDigraph.from_edges(2, [(0, 1, 1, 1), (1, 0, 2, 1)])


def sc_ktree(
    seed: int,
    n_max: int = 10,
    k_max: int = 3,
    wt: tuple[int, int] = (-20, 20),
    wtp: tuple[int, int] = (1, 5),
) -> WeightedDigraph:
    """Small strongly connected k-tree drawn deterministically from seed."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max, n - 1))
    return gen_ktree(n, k, seed=seed, wt=wt, wtp=wtp, ensure_sc=True)


def small_random(seed: int, n_max: int = 12, wt: tuple[int, int] = (-8, 8)) -> WeightedDigraph:
    """Sparse random digraph, not necessarily connected or cyclic."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    deg = rng.choice([1.0, 1.5, 2.0, 3.0])
    return gen_sparse_random(n, avg_degree=deg, seed=seed, wt=wt)


def reversed_tree(g: WeightedDigraph, balance: bool = True) -> TreeDecomposition:
    """The decomposition built on g with every node u renamed n-1-u, its bags
    mapped back to g's nodes: a second tree shape for the same graph, since
    elimination breaks ties in node order."""
    n = g.n
    flipped = WeightedDigraph.from_edges(
        n, [(n - 1 - u, n - 1 - v, w, wp) for u, v, w, wp in zip(g.src, g.dst, g.wt, g.wtp)]
    )
    t = build_decomposition(flipped, balance=balance)
    return TreeDecomposition([{n - 1 - u for u in bag} for bag in t.bags], t.parent, n)
