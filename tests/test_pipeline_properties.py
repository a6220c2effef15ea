"""Property tests of the whole pipeline off the square happy path.

``embed`` -> ``save_sideinfo`` -> ``load_sideinfo`` -> ``extract`` for both
schemes, over covers that are rectangular, 1xN, Nx1, rank-deficient or
constant, with sides up to 16.  The semi-blind extraction must be as
clean as on the canonical scene, and the keyed scheme must recover the
committed bytes exactly.
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


@st.composite
def scenes(draw):
    """A cover of one of three kinds and a seeded watermark of its shape."""
    rows, cols = draw(SHAPES)
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(("full-rank", "rank-deficient", "constant")))
    if kind == "full-rank":
        cover = rng.uniform(0.0, 255.0, (rows, cols))
    elif kind == "rank-deficient":
        rank = draw(st.integers(0, min(rows, cols) - 1))  # rank 0: all zeros
        cover = rng.uniform(0.0, 1.0, (rows, rank)) @ rng.uniform(0.0, 255.0 / max(rank, 1),
                                                                    (rank, cols))
    else:
        cover = np.full((rows, cols), draw(st.floats(0.0, 255.0)))
    return cover, rng.uniform(0.0, 255.0, (rows, cols))


@pytest.fixture(scope="module")
def key_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("props") / "key.svdk")


def reload(info, path):
    sm.save_sideinfo(info, path)
    return sm.load_sideinfo(path)


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
    payload, _ = sm.quantize(sm.split_watermark(wm)[0])
    committed = sm.xor_mask(payload, sm.derive_mask(identity, *cover.shape))
    loaded = reload(info, key_path)
    np.testing.assert_array_equal(sm.recover_masked_bytes(marked, loaded), committed)
    np.testing.assert_array_equal(sm.extract_invisible(marked, loaded, identity),
                                  sm.extract_invisible(marked, info, identity))
