from __future__ import annotations

import hashlib

import pytest

from graphvalues import generate
from graphvalues.generate import gen_ktree
from graphvalues.graph import tarjan_scc, to_dimacs

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
