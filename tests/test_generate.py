from __future__ import annotations

import hashlib
import random

import pytest

from graphvalues import generate
from graphvalues.generate import gen_cfg_like, gen_ktree, gen_sparse_random
from graphvalues.graph import Edge, WeightedDigraph, tarjan_scc, to_dimacs

# sha256 of to_dimacs(gen_ktree(n, k, seed=seed, **kw)), recorded before
# rejected orientations were screened by degree. The cases cover a first
# draw that is accepted, draws accepted after 1 to 5 rejections, the
# bidirected fallback after all retries, and ensure_sc=False.
DIGESTS = [
    (1, 1, 0, {}, "e2783725f88a62f9814bab3d169842e4dcd4afc27e48b8dc36cffc5f9d01e639"),
    (2, 1, 5, {}, "0fbcff315fe63822cc9ae72d3ad155aca5e0850e4e02e432edf950eafcb957e9"),
    (5, 2, 1, {}, "2f47c4d998257ac24cd4b33c2a79663c31187b8642cdf5c5ef1cec03385374cc"),
    (7, 3, 2, dict(wt=(-8, 8), wtp=(1, 4)),
     "1fabd3a074867e85eb26030826e8bffe12c512f7f7ae8c9a23afefd125520850"),
    (9, 2, 4, {}, "6d6acdacdfe3f1eea51b6bd8529213ef1be4ae9952c0710b8e21c84cca553b0a"),
    (12, 2, 7, dict(ensure_sc=False),
     "b6f65d64b80698e20cff5d7cff428dd50df54e6f07ef7d3a115978fd87b38e0a"),
    (40, 3, 11, dict(wt=(-25, 1)), "873f6196a9e0c1ba8457208c8c22f1e2d524af2ae4abe56316feebceb64fbdc5"),
    (300, 2, 1, dict(wt=(1, 20), wtp=(17, 20)),
     "1c8df2fe7e01cda4b88b5ef2c7377b220872aceac21d81a166575ffc1053f4cc"),
    (500, 2, 9, dict(wt=(-25, 1), ensure_sc=False),
     "6c58badc1a55598a64cdafdb3c20d3da5e466a192a11ba3c4825e9ae97e54dd1"),
    (30, 1, 6, dict(retries=3), "7c198b6d928e1fdfbd5bf4e1f85d93b512915dd588061152b853a4f534438f65"),
]


@pytest.mark.parametrize("n, k, seed, kw, digest", DIGESTS)
def test_gen_ktree_output_is_pinned(n, k, seed, kw, digest):
    g = gen_ktree(n, k, seed=seed, **kw)
    assert hashlib.sha256(to_dimacs(g).encode()).hexdigest() == digest
    if kw.get("ensure_sc", True):
        assert len(tarjan_scc(g)) == 1


def test_rejected_orientations_build_no_graph(monkeypatch):
    """A draw with a node lacking an in- or out-edge never reaches Tarjan."""
    checked = []
    real = generate._is_strongly_connected

    def recording(g):
        checked.append(g)
        return real(g)

    monkeypatch.setattr(generate, "_is_strongly_connected", recording)
    gen_ktree(300, 2, seed=1, wt=(1, 20), wtp=(17, 20))
    assert checked == []  # all 30 draws fail the degree screen; fallback used
    gen_ktree(9, 2, seed=4)
    assert len(checked) == 1  # the first draw fails the screen, the second is tested


# sha256 of to_dimacs(gen_sparse_random(n, avg_degree, seed=seed, **kw)) and
# of to_dimacs(gen_cfg_like(n, seed=seed, **kw)), recorded while both still
# drew through rng.randint and rng.randrange.
SPARSE_DIGESTS = [
    (1, 2, 0, {}, "e2783725f88a62f9814bab3d169842e4dcd4afc27e48b8dc36cffc5f9d01e639"),
    (2, 1, 5, {}, "ed22344c093eb2beb98dd2f177bb3405aab22e13d64949fc31acb7858901d21d"),
    (50, 2, 3, {}, "2b58a5173c017bb69f11de96d9af8e86e47feb4856e9011e232a458cec51f93b"),
    (200, 3, 7, dict(wt=(-25, 1), wtp=(17, 20)),
     "84de00cb71ef1ea04461020ab149581060e0e355e1550411d9daec4ef8b258e9"),
    (120, 2, 1, dict(wt=(4, 4)), "e3ff95d7ddad93c2b8631f0d35b8b5a7e011af262bbfbfda97a65b8903b7ef2d"),
    (300, 4, 11, dict(wt=(-27, -1), wtp=(1, 20)),
     "0698d46479eaf506b6a4c9de78e1dbc77d248f70969dfb139fd6e49b9e135210"),
]
CFG_DIGESTS = [
    (1, 0, {}, "e2783725f88a62f9814bab3d169842e4dcd4afc27e48b8dc36cffc5f9d01e639"),
    (2, 5, {}, "1099b7de5693cc9413cc02679f8799d35165a6f2387e0e1346841f5bbc7a096e"),
    (60, 2, {}, "7877fa9c64c1c752143265ae5b321a5512f17b46f6eed39eed11575eaf091d7b"),
    (500, 7, dict(wt=(-25, 1)), "61c245f05cca142caea0b6e2f31f82053c5ff01d25be30432b291e293d4a47ad"),
    (2000, 1, dict(wt=(5, 5)), "ea1a89eb05247e6e03b4d37d86dcba849538c4c15a64a5e571fcd04699986dc0"),
    (300, 3, dict(wt=(-13, 13)), "d3ec2c9c01adeaf84a75bf6c418d204581646f79a8d2a7724147640aca402b6e"),
]


def _digest(g):
    return hashlib.sha256(to_dimacs(g).encode()).hexdigest()


@pytest.mark.parametrize("n, avg_degree, seed, kw, digest", SPARSE_DIGESTS)
def test_gen_sparse_random_output_is_pinned(n, avg_degree, seed, kw, digest):
    assert _digest(gen_sparse_random(n, avg_degree, seed=seed, **kw)) == digest


@pytest.mark.parametrize("n, seed, kw, digest", CFG_DIGESTS)
def test_gen_cfg_like_output_is_pinned(n, seed, kw, digest):
    assert _digest(gen_cfg_like(n, seed=seed, **kw)) == digest


# -- the randint-based generators, the reference for the getrandbits draws:
# the same loop bodies on rng.randint and rng.randrange. The k-tree reference
# also reports which draw it returned (None for the bidirected fallback).


def _ref_weights(rng, wt, wtp):
    return rng.randint(*wt), rng.randint(*wtp)


def _ref_ktree_skeleton(n, k, seed=0):
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


def _ref_gen_ktree(n, k, seed, wt, wtp, ensure_sc, retries):
    skel = _ref_ktree_skeleton(n, k, seed)
    rng = random.Random(seed + 1)
    for attempt in range(max(1, retries)):
        raw = []
        for (u, v) in skel:
            r = rng.random()
            if r < 0.45:
                raw.append((u, v, *_ref_weights(rng, wt, wtp)))
            elif r < 0.9:
                raw.append((v, u, *_ref_weights(rng, wt, wtp)))
            else:
                raw.append((u, v, *_ref_weights(rng, wt, wtp)))
                raw.append((v, u, *_ref_weights(rng, wt, wtp)))
        g = WeightedDigraph(n, [Edge(*e) for e in raw])
        if not ensure_sc or g.n <= 1 or len(tarjan_scc(g)) == 1:
            return g, attempt
    edges = []
    for (u, v) in skel:
        edges.append(Edge(u, v, *_ref_weights(rng, wt, wtp)))
        edges.append(Edge(v, u, *_ref_weights(rng, wt, wtp)))
    return WeightedDigraph(n, edges), None


def _ref_gen_sparse_random(n, avg_degree, seed, wt, wtp):
    rng = random.Random(seed)
    target = min(avg_degree * n, n * (n - 1))
    pairs = set()
    edges = []
    attempts = 0
    while len(edges) < target and attempts < 50 * target + 100:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in pairs:
            continue
        pairs.add((u, v))
        edges.append(Edge(u, v, *_ref_weights(rng, wt, wtp)))
    return WeightedDigraph(n, edges)


def _ref_gen_cfg_like(n, seed, wt):
    rng = random.Random(seed)
    unit = (1, 1)
    pairs = set()
    edges = []

    def add(u, v):
        if u != v and (u, v) not in pairs:
            pairs.add((u, v))
            edges.append(Edge(u, v, *_ref_weights(rng, wt, unit)))

    for i in range(n - 1):
        add(i, i + 1)
    for i in range(n):
        if n > 2 and rng.random() < 0.3:
            add(i, min(i + 2 + rng.randrange(3), n - 1))
        if i > 0 and rng.random() < 0.15:
            add(i, rng.randrange(i))
    return WeightedDigraph(n, edges)


# (wt, wtp) pairs covering range widths 1, 2, 4, 20 and 27 with negative
# lows; wtp=(1, 1) has width 1 and still consumes a word per draw, and
# wtp=(17, 20) rejects half of all draws.
RANGES = [
    ((-7, -7), (1, 1)),
    ((-1, 0), (17, 20)),
    ((-25, -6), (1, 2)),
    ((-13, 13), (1, 20)),
    ((-3, 0), (4, 30)),
]
SIZES = (1, 2, 3, 4, 6, 9, 14, 25, 60, 300)


def test_gen_ktree_matches_randint_reference():
    reached = set()
    for i, (wt, wtp) in enumerate(RANGES):
        for n in SIZES:
            for ensure_sc in (True, False):
                for retries in (1, 3, 30):
                    k, seed = 1 + (i + n) % 3, 7 * i + n
                    kw = dict(wt=wt, wtp=wtp, ensure_sc=ensure_sc, retries=retries)
                    want, attempt = _ref_gen_ktree(n, k, seed, **kw)
                    got = gen_ktree(n, k, seed, **kw)
                    assert to_dimacs(got) == to_dimacs(want), (n, k, seed, kw)
                    if ensure_sc:
                        reached.add("fallback" if attempt is None else min(attempt, 1))
    assert reached == {0, 1, "fallback"}  # first draw, a later draw, fallback


def test_gen_sparse_random_and_cfg_like_match_randint_reference():
    for i, (wt, wtp) in enumerate(RANGES):
        for n in SIZES:
            seed = 5 * i + n
            for avg_degree in (1, 3):
                want = _ref_gen_sparse_random(n, avg_degree, seed, wt, wtp)
                got = gen_sparse_random(n, avg_degree, seed, wt=wt, wtp=wtp)
                assert to_dimacs(got) == to_dimacs(want), (n, avg_degree, seed, wt, wtp)
            want = _ref_gen_cfg_like(n, seed, wt)
            assert to_dimacs(gen_cfg_like(n, seed, wt=wt)) == to_dimacs(want), (n, seed, wt)


def test_generators_never_call_randint_or_randrange(monkeypatch):
    """They reproduce randint's draw from getrandbits and never call it, so
    a Python release that changes randint's draw fails the reference tests
    above instead of silently changing the generated inputs."""

    def refuse(*args, **kw):
        raise AssertionError("generators must draw through getrandbits")

    monkeypatch.setattr(random.Random, "randint", refuse)
    monkeypatch.setattr(random.Random, "randrange", refuse)
    gen_ktree(300, 2, seed=1, wt=(1, 20), wtp=(17, 20))
    gen_ktree(9, 2, seed=4)
    gen_ktree(40, 3, seed=2, ensure_sc=False)
    gen_sparse_random(50, 3, seed=2, wtp=(1, 5))
    gen_cfg_like(80, seed=3)


EMPTY = [
    ("wt", dict(wt=(5, 1))),
    ("wtp", dict(wtp=(3, 2))),
]


@pytest.mark.parametrize("n", [1, 12])
@pytest.mark.parametrize("name, kw", EMPTY)
def test_empty_weight_range_is_refused(n, name, kw):
    for gen in (gen_ktree, gen_sparse_random):
        with pytest.raises(ValueError, match=rf"empty weight range {name}="):
            gen(n, 2, seed=1, **kw)
    if name == "wt":
        with pytest.raises(ValueError, match=r"empty weight range wt=\(5, 1\)"):
            gen_cfg_like(n, seed=1, **kw)
