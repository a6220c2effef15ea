"""Singular values carried as a vector.

``SvdFactors`` and ``SideInfo`` hold ``sigma``, the min(M, N) singular
values, as the only form of ``S``.  Their constructors take ``s=`` as
that vector; a dense M x N ``S`` fails with ``DimensionError``, so tests
that want the matrix build it from ``sigma`` (``conftest.dense_s``).
An embed builds its ``SideInfo`` unchecked from fresh factors, and that
must be the object the checking constructor builds from the same values.
"""

import numpy as np
import pytest

import svdmark as sm
from svdmark.errors import DimensionError, InvalidInput

from conftest import dense_s, seeded_matrix

SHAPES = [(24, 24), (48, 64), (64, 48), (1, 40), (40, 1)]


def _rank_deficient(rows, cols, rank, seed):
    return seeded_matrix(seed, rows, rank) @ seeded_matrix(seed + 1, rank, cols)


@pytest.mark.parametrize("shape", SHAPES)
def test_factors_from_vector_match_dense(shape):
    a = seeded_matrix(1, *shape)
    f = sm.svd(a)
    assert f.sigma.shape == (min(shape),)
    g = sm.SvdFactors(u=f.u, s=f.sigma, v=f.v)
    assert vars(g).keys() == vars(f).keys()
    for name in ("u", "sigma", "v"):
        assert getattr(g, name).tobytes() == getattr(f, name).tobytes()
    np.testing.assert_allclose(g.u @ dense_s(g) @ g.v.T, a, rtol=0, atol=1e-10 * a.max())
    with pytest.raises(DimensionError, match="do not form a full SVD"):
        sm.SvdFactors(u=f.u, s=dense_s(f), v=f.v)


@pytest.mark.parametrize("shape", SHAPES)
def test_side_info_from_vector_matches_dense(shape):
    cover, wm = seeded_matrix(1, *shape), seeded_matrix(2, *shape)
    _, info = sm.embed(cover, wm, 0.1)
    args = dict(u=info.u, v=info.v, v_w=info.v_w, alpha=0.1, rows=shape[0], cols=shape[1])
    from_vector = sm.SideInfo(s=info.sigma, **args)
    assert isinstance(info, sm.SvdFactors)
    assert from_vector.sigma.tobytes() == info.sigma.tobytes()
    np.testing.assert_allclose(info.u @ dense_s(info) @ info.v.T, cover, rtol=0,
                               atol=1e-10 * cover.max())
    with pytest.raises(DimensionError, match="do not form a full SVD"):
        sm.SideInfo(s=dense_s(info), **args)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("scheme", list(sm.SchemeTag))
def test_embed_side_info_matches_checked_constructor(identity, scheme, shape):
    cover, wm = seeded_matrix(1, *shape), seeded_matrix(2, *shape)
    keyed = scheme is sm.SchemeTag.HASH_CODE
    if keyed:
        _, info = sm.embed_invisible(cover, wm, identity, 0.1)
    else:
        _, info = sm.embed(cover, wm, 0.1)
    f = sm.svd(cover)
    a_wa, v_w = sm.split_watermark(wm)
    checked = sm.SideInfo(u=f.u, s=f.sigma, v=f.v, v_w=v_w, alpha=0.1, rows=shape[0],
                          cols=shape[1], scheme=scheme,
                          quant=sm.quantize(a_wa)[1] if keyed else None)
    got, want = vars(info), vars(checked)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert type(got[name]) is type(value), name
        if isinstance(value, np.ndarray):
            assert got[name].shape == value.shape, name
            assert got[name].tobytes() == value.tobytes(), name
        else:
            assert got[name] == value, name


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
    assert a_wa.tobytes() == (f.u @ dense_s(f)).tobytes()
    assert a_wa.shape == w.shape and a_wa.flags.c_contiguous
    assert v_w.tobytes() == f.v.tobytes()
