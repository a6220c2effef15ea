"""Singular values carried as a vector.

``SvdFactors`` and ``SideInfo`` store ``sigma``, the min(M, N) singular
values; ``s`` is a dense M x N copy derived from it.  Both constructors
take ``s=`` as the vector or as the dense diagonal matrix, and check
either form the same way.
"""

import numpy as np
import pytest

import svdmark as sm
from svdmark.errors import DimensionError, InvalidInput

from conftest import seeded_matrix

SHAPES = [(24, 24), (48, 64), (64, 48), (1, 40), (40, 1)]


def _rank_deficient(rows, cols, rank, seed):
    return seeded_matrix(seed, rows, rank) @ seeded_matrix(seed + 1, rank, cols)


@pytest.mark.parametrize("shape", SHAPES)
def test_factors_from_vector_match_dense(shape):
    f = sm.svd(seeded_matrix(1, *shape))
    assert f.sigma.shape == (min(shape),)
    from_vector = sm.SvdFactors(u=f.u, s=f.sigma, v=f.v)
    from_dense = sm.SvdFactors(u=f.u, s=f.s, v=f.v)
    for g in (from_vector, from_dense):
        assert g.sigma.tobytes() == f.sigma.tobytes()
        assert g.s.tobytes() == f.s.tobytes()
        assert g.s.shape == shape
    assert np.array_equal(np.diagonal(f.s), f.sigma)
    assert np.count_nonzero(f.s) == np.count_nonzero(f.sigma)


@pytest.mark.parametrize("shape", SHAPES)
def test_side_info_from_vector_matches_dense(shape):
    cover, wm = seeded_matrix(1, *shape), seeded_matrix(2, *shape)
    _, info = sm.embed(cover, wm, 0.1)
    args = dict(u=info.u, v=info.v, v_w=info.v_w, alpha=0.1, rows=shape[0], cols=shape[1])
    from_vector = sm.SideInfo(s=info.sigma, **args)
    from_dense = sm.SideInfo(s=info.s, **args)
    assert isinstance(info, sm.SvdFactors)
    assert from_vector.s.tobytes() == from_dense.s.tobytes() == info.s.tobytes()
    assert from_vector.sigma.tobytes() == from_dense.sigma.tobytes()


def test_dense_s_is_a_fresh_copy():
    f = sm.svd(seeded_matrix(3, 6, 4))
    s = f.s
    s[0, 0] = -1.0
    assert f.sigma[0] > 0 and f.s[0, 0] == f.sigma[0]


@pytest.mark.parametrize("length", [0, 3, 5])
def test_wrong_length_sigma_rejected(length):
    f = sm.svd(seeded_matrix(4, 4, 6))
    sigma = np.linspace(5.0, 1.0, length)
    with pytest.raises(DimensionError):
        sm.SvdFactors(u=f.u, s=sigma, v=f.v)
    with pytest.raises(DimensionError):
        sm.SideInfo(u=f.u, s=sigma, v=f.v, v_w=f.v, alpha=0.1, rows=4, cols=6)


@pytest.mark.parametrize("sigma", [
    [3.0, np.nan, 1.0],
    [3.0, np.inf, 1.0],
    [1.0, 2.0, 0.5],    # unsorted
    [3.0, 2.0, -1.0],   # negative
])
def test_bad_sigma_rejected(sigma):
    with pytest.raises(InvalidInput):
        sm.SvdFactors(u=np.eye(3), s=sigma, v=np.eye(3))
    with pytest.raises(InvalidInput):
        sm.SideInfo(u=np.eye(3), s=sigma, v=np.eye(3), v_w=np.eye(3), alpha=0.1,
                    rows=3, cols=3)


def test_negative_zero_off_diagonal_accepted():
    s = np.diag([2.0, 1.0])
    s[0, 1] = -0.0
    f = sm.SvdFactors(u=np.eye(2), s=s, v=np.eye(2))
    assert f.sigma.tolist() == [2.0, 1.0]


def test_loaded_sigma_is_an_aligned_view(tmp_path, cover64, watermark64):
    _, info = sm.embed(cover64, watermark64, 0.1)
    path = str(tmp_path / "key.svdk")
    sm.save_sideinfo(info, path)
    back = sm.load_sideinfo(path)
    assert back.sigma.flags.aligned and not back.sigma.flags.owndata
    assert back.sigma.tobytes() == info.sigma.tobytes()


def test_bundle_sigma_is_an_aligned_view(tmp_path):
    img = sm.synthetic_rgb(24, 20, seed=4)
    _, bundle = sm.embed_color(img, seeded_matrix(2, 24, 20),
                               sm.ChannelStrategy.PER_CHANNEL, sm.SchemeTag.SEMI_BLIND)
    path = str(tmp_path / "bundle.svdk")
    sm.save_bundle(bundle, path)
    for info, back in zip(bundle.infos, sm.load_bundle(path).infos):
        assert back.sigma.flags.aligned and not back.sigma.flags.owndata
        assert back.sigma.tobytes() == info.sigma.tobytes()


@pytest.mark.parametrize("w", [
    seeded_matrix(5, 32, 32),
    seeded_matrix(6, 48, 64),
    seeded_matrix(7, 64, 48),
    seeded_matrix(8, 1, 40),
    seeded_matrix(9, 40, 1),
    _rank_deficient(20, 24, 2, 10),
    _rank_deficient(24, 20, 3, 12),
    np.ones((6, 6)),  # exact zero singular values
    np.hstack([seeded_matrix(14, 6, 3), np.zeros((6, 3))]),
    np.zeros((5, 7)),
], ids=["square", "48x64", "64x48", "1x40", "40x1", "rank2-wide", "rank3-tall",
        "constant", "zero-columns", "zero"])
def test_split_watermark_matches_dense_product(w):
    f = sm.svd(w)
    a_wa, v_w = sm.split_watermark(w)
    assert a_wa.tobytes() == (f.u @ f.s).tobytes()
    assert a_wa.shape == w.shape and a_wa.flags.c_contiguous
    assert v_w.tobytes() == f.v.tobytes()
