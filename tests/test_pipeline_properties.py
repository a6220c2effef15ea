"""Property tests of the whole pipeline off the square happy path.

``embed`` -> ``save_sideinfo`` -> ``load_sideinfo`` -> ``extract`` for both
schemes, over covers that are rectangular, 1xN, Nx1, rank-deficient or
constant, with sides up to 16.  The semi-blind extraction must be as
clean as on the canonical scene, and the keyed scheme must recover the
committed bytes exactly.  The same holds for colour covers, whose planes
are each drawn as one of those kinds over the full 0..255 range, for
every channel strategy through ``save_bundle`` -> ``load_bundle``: no
step clips in memory, so no marked plane loses what the algebra needs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svdmark as sm

import thresholds as th

SIDE = st.integers(1, 16)
SHAPES = st.one_of(st.tuples(SIDE, SIDE), st.tuples(st.just(1), SIDE), st.tuples(SIDE, st.just(1)))
ALPHAS = st.sampled_from([0.05, 0.1, 0.5])


def _plane(draw, rng, rows, cols):
    """A plane over 0..255 of one of three kinds."""
    kind = draw(st.sampled_from(("full-rank", "rank-deficient", "constant")))
    if kind == "full-rank":
        return rng.uniform(0.0, 255.0, (rows, cols))
    if kind == "rank-deficient":
        rank = draw(st.integers(0, min(rows, cols) - 1))  # rank 0: all zeros
        return rng.uniform(0.0, 1.0, (rows, rank)) @ rng.uniform(0.0, 255.0 / max(rank, 1),
                                                                   (rank, cols))
    return np.full((rows, cols), draw(st.floats(0.0, 255.0)))


@st.composite
def scenes(draw, planes=1):
    """``planes`` cover planes, each of its own kind, and a seeded
    watermark of their shape."""
    rows, cols = draw(SHAPES)
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    covers = [_plane(draw, rng, rows, cols) for _ in range(planes)]
    return (*covers, rng.uniform(0.0, 255.0, (rows, cols)))


@pytest.fixture(scope="module")
def key_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("props") / "key.svdk")


def reload(info, path):
    sm.save_sideinfo(info, path)
    return sm.load_sideinfo(path)


def committed_bytes(wm, identity):
    """The masked bytes the keyed scheme embeds for ``wm``."""
    payload, _ = sm.quantize(sm.split_watermark(wm)[0])
    return sm.xor_mask(payload, sm.derive_mask(identity, *wm.shape))


def reload_bundle(bundle, path):
    sm.save_bundle(bundle, path)
    return sm.load_bundle(path)


@settings(max_examples=80, deadline=None)
@given(scene=scenes(), alpha=ALPHAS)
def test_semiblind_round_trip(key_path, scene, alpha):
    cover, wm = scene
    marked, info = sm.embed(cover, wm, alpha)
    w_star = sm.extract(marked, reload(info, key_path))
    assert np.abs(w_star - wm).max() <= th.SEMIBLIND_CLEAN_MAX_ABS


@settings(max_examples=80, deadline=None)
@given(scene=scenes(), alpha=ALPHAS)
def test_keyed_round_trip(key_path, identity, scene, alpha):
    cover, wm = scene
    marked, info = sm.embed_invisible(cover, wm, identity, alpha)
    loaded = reload(info, key_path)
    np.testing.assert_array_equal(sm.recover_masked_bytes(marked, loaded),
                                  committed_bytes(wm, identity))
    np.testing.assert_array_equal(sm.extract_invisible(marked, loaded, identity),
                                  sm.extract_invisible(marked, info, identity))


# The planes each strategy marks, read back from a colour image.
MARKED_PLANES = {
    sm.ChannelStrategy.LUMINANCE: lambda img: (sm.luminance_split(img),),
    sm.ChannelStrategy.BLUE_CHANNEL: lambda img: (img.b,),
    sm.ChannelStrategy.PER_CHANNEL: sm.RgbImage.channels,
}


@pytest.mark.parametrize("strategy", list(sm.ChannelStrategy))
@settings(max_examples=80, deadline=None)
@given(scene=scenes(planes=3), alpha=ALPHAS)
def test_colour_semiblind_round_trip(key_path, strategy, scene, alpha):
    *planes, wm = scene
    marked, bundle = sm.embed_color(sm.RgbImage(*planes), wm, strategy,
                                    sm.SchemeTag.SEMI_BLIND, alpha)
    w_star = sm.extract_color(marked, reload_bundle(bundle, key_path), strategy)
    assert np.abs(w_star - wm).max() <= th.SEMIBLIND_CLEAN_MAX_ABS


@pytest.mark.parametrize("strategy", list(sm.ChannelStrategy))
@settings(max_examples=80, deadline=None)
@given(scene=scenes(planes=3), alpha=ALPHAS)
def test_colour_keyed_round_trip(key_path, identity, strategy, scene, alpha):
    *planes, wm = scene
    marked, bundle = sm.embed_color(sm.RgbImage(*planes), wm, strategy,
                                    sm.SchemeTag.HASH_CODE, alpha, identity)
    committed = committed_bytes(wm, identity)
    loaded = reload_bundle(bundle, key_path)
    for plane, info in zip(MARKED_PLANES[strategy](marked), loaded.infos, strict=True):
        np.testing.assert_array_equal(sm.recover_masked_bytes(plane, info), committed)
    np.testing.assert_array_equal(sm.extract_color(marked, loaded, strategy, identity),
                                  sm.extract_color(marked, bundle, strategy, identity))
