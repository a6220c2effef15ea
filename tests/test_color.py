import numpy as np
import pytest

import svdmark as sm
from svdmark.errors import DimensionError, InvalidKey, InvalidParameter, MalformedSideInfo

import thresholds as th


@pytest.fixture(scope="module")
def rgb128():
    return sm.synthetic_rgb(128, 128, seed=55)


@pytest.fixture(scope="module")
def wm128():
    return sm.synthetic_image(128, 128, 66, roughness=1.2, contrast=70.0)


def pixel_image(r, g, b):
    return sm.RgbImage(r=np.full((1, 1), float(r)), g=np.full((1, 1), float(g)),
                       b=np.full((1, 1), float(b)))


class TestLuminance:
    @pytest.mark.parametrize("pixel,expected", [
        ((100, 100, 100), 200.0),
        ((0, 0, 0), 0.0),
        ((255, 0, 0), 255.0),
        ((10, 20, 30), 40.0),
    ])
    def test_split_values(self, pixel, expected):
        assert sm.luminance_split(pixel_image(*pixel))[0, 0] == expected

    def test_merge_split_is_identity(self, rgb128):
        merged = sm.luminance_merge(rgb128, sm.luminance_split(rgb128))
        for before, after in zip(rgb128.channels(), merged.channels()):
            assert np.array_equal(before, after)

    def test_merge_uniform_shift(self):
        img = pixel_image(10, 20, 30)
        merged = sm.luminance_merge(img, np.full((1, 1), 42.0))
        assert (merged.r[0, 0], merged.g[0, 0], merged.b[0, 0]) == (11.0, 21.0, 31.0)

    def test_merge_clipping(self, tmp_path):
        # Merging keeps the exact shift; only the 8-bit write clips.
        img = pixel_image(250, 250, 250)
        merged = sm.luminance_merge(img, np.full((1, 1), 520.0))
        assert (merged.r[0, 0], merged.g[0, 0], merged.b[0, 0]) == (260.0, 260.0, 260.0)
        assert sm.luminance_split(merged)[0, 0] == 520.0
        path = tmp_path / "merged.ppm"
        sm.write_ppm(merged, str(path))
        assert path.read_bytes()[-3:] == bytes([255, 255, 255])

    def test_preclip_luminance_exact(self, rgb128):
        # integral L' keeps the arithmetic exact: max' + min' must equal L'
        l_new = sm.luminance_split(rgb128) + 2.0
        merged_unclipped = sm.RgbImage(
            r=rgb128.r + 1.0, g=rgb128.g + 1.0, b=rgb128.b + 1.0
        )
        assert np.array_equal(sm.luminance_split(merged_unclipped), l_new)
        merged = sm.luminance_merge(rgb128, l_new)
        assert np.array_equal(sm.luminance_split(merged), l_new)

    def test_merge_dimension_mismatch(self, rgb128):
        with pytest.raises(DimensionError):
            sm.luminance_merge(rgb128, np.zeros((4, 4)))


class TestEmbedColor:
    def test_blue_channel_isolation(self, rgb128, wm128):
        marked, _ = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.BLUE_CHANNEL,
                                   sm.SchemeTag.SEMI_BLIND, alpha=0.1)
        assert np.array_equal(marked.r, rgb128.r)
        assert np.array_equal(marked.g, rgb128.g)
        assert not np.array_equal(marked.b, rgb128.b)

    def test_luminance_roundtrip_float(self, rgb128, wm128):
        marked, bundle = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.LUMINANCE,
                                        sm.SchemeTag.SEMI_BLIND, alpha=0.05)
        w_star = sm.extract_color(marked, bundle, sm.ChannelStrategy.LUMINANCE)
        assert sm.normalized_correlation(w_star, wm128) >= th.COLOR_LUMINANCE_NC_FLOAT_MIN

    def test_luminance_roundtrip_8bit(self, rgb128, wm128):
        marked, bundle = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.LUMINANCE,
                                        sm.SchemeTag.SEMI_BLIND, alpha=0.05)
        rounded = sm.RgbImage(*(np.clip(np.rint(p), 0, 255) for p in marked.channels()))
        w_star = sm.extract_color(rounded, bundle, sm.ChannelStrategy.LUMINANCE)
        assert sm.normalized_correlation(w_star, wm128) >= th.COLOR_LUMINANCE_NC_8BIT_MIN

    def test_per_channel_grey_symmetry(self, wm128):
        plane = sm.synthetic_image(128, 128, 77, roughness=1.8, contrast=30.0)
        grey = sm.RgbImage(r=plane, g=plane, b=plane)
        marked, bundle = sm.embed_color(grey, wm128, sm.ChannelStrategy.PER_CHANNEL,
                                        sm.SchemeTag.SEMI_BLIND, alpha=0.05)
        estimates = [
            sm.extract(p, info) for p, info in zip(marked.channels(), bundle.infos)
        ]
        assert np.abs(estimates[0] - estimates[1]).max() <= 1e-8
        assert np.abs(estimates[1] - estimates[2]).max() <= 1e-8
        averaged = sm.extract_color(marked, bundle, sm.ChannelStrategy.PER_CHANNEL)
        assert np.abs(averaged - estimates[0]).max() <= 1e-8

    def test_exact_inverse_blue(self, rgb128, wm128):
        marked, bundle = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.BLUE_CHANNEL,
                                        sm.SchemeTag.SEMI_BLIND, alpha=0.1)
        w_star = sm.extract_color(marked, bundle, sm.ChannelStrategy.BLUE_CHANNEL)
        assert np.abs(w_star - wm128).max() <= 1e-8

    def test_hash_scheme_requires_id(self, rgb128, wm128):
        with pytest.raises(InvalidKey):
            sm.embed_color(rgb128, wm128, sm.ChannelStrategy.BLUE_CHANNEL,
                           sm.SchemeTag.HASH_CODE, alpha=0.05)

    def test_semiblind_rejects_id(self, rgb128, wm128, identity):
        with pytest.raises(InvalidKey):
            sm.embed_color(rgb128, wm128, sm.ChannelStrategy.BLUE_CHANNEL,
                           sm.SchemeTag.SEMI_BLIND, alpha=0.05, identity=identity)

    def test_watermark_shape_mismatch(self, rgb128):
        with pytest.raises(DimensionError):
            sm.embed_color(rgb128, np.zeros((4, 4)), sm.ChannelStrategy.BLUE_CHANNEL,
                           sm.SchemeTag.SEMI_BLIND)


    @pytest.mark.parametrize("scheme", list(sm.SchemeTag))
    def test_per_channel_matches_per_plane_embed(self, rgb128, wm128, identity, scheme):
        ident = identity if scheme is sm.SchemeTag.HASH_CODE else None
        marked, bundle = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.PER_CHANNEL,
                                        scheme, alpha=0.1, identity=ident)
        for plane, got_plane, got in zip(rgb128.channels(), marked.channels(), bundle.infos):
            if ident is None:
                want_plane, want = sm.embed(plane, wm128, 0.1)
            else:
                want_plane, want = sm.embed_invisible(plane, wm128, ident, 0.1)
            assert np.array_equal(got_plane, want_plane)
            for name in ("u", "sigma", "v", "v_w"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert (got.alpha, got.rows, got.cols, got.scheme, got.quant) == \
                (want.alpha, want.rows, want.cols, want.scheme, want.quant)

    @pytest.mark.parametrize("scheme", list(sm.SchemeTag))
    def test_non_finite_alpha_rejected(self, rgb128, wm128, identity, scheme):
        ident = identity if scheme is sm.SchemeTag.HASH_CODE else None
        with pytest.raises(InvalidParameter):
            sm.embed_color(rgb128, wm128, sm.ChannelStrategy.PER_CHANNEL, scheme,
                           alpha=float("nan"), identity=ident)


class TestExtractColor:
    def test_strategy_mismatch(self, rgb128, wm128):
        marked, bundle = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.BLUE_CHANNEL,
                                        sm.SchemeTag.SEMI_BLIND, alpha=0.1)
        with pytest.raises(MalformedSideInfo):
            sm.extract_color(marked, bundle, sm.ChannelStrategy.LUMINANCE)

    def test_hash_wrong_id_uncorrelated(self, rgb128, wm128, identity):
        marked, bundle = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.BLUE_CHANNEL,
                                        sm.SchemeTag.HASH_CODE, alpha=0.05,
                                        identity=identity)
        right = sm.extract_color(marked, bundle, sm.ChannelStrategy.BLUE_CHANNEL,
                                 identity=identity)
        assert sm.normalized_correlation(right, wm128) >= th.HASH_NC_MIN
        for i in range(5):
            wrong = sm.Identity.from_string(f"color-wrong-{i:03d}|n")
            w_bad = sm.extract_color(marked, bundle, sm.ChannelStrategy.BLUE_CHANNEL,
                                     identity=wrong)
            assert abs(sm.normalized_correlation(w_bad, wm128)) <= th.COLOR_WRONG_ID_MAX

    def test_hash_extraction_requires_id(self, rgb128, wm128, identity):
        marked, bundle = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.BLUE_CHANNEL,
                                        sm.SchemeTag.HASH_CODE, alpha=0.05,
                                        identity=identity)
        with pytest.raises(InvalidKey):
            sm.extract_color(marked, bundle, sm.ChannelStrategy.BLUE_CHANNEL)


class TestBundleAndImageValidation:
    def test_bundle_count_enforced(self, rgb128, wm128):
        _, bundle = sm.embed_color(rgb128, wm128, sm.ChannelStrategy.BLUE_CHANNEL,
                                   sm.SchemeTag.SEMI_BLIND, alpha=0.1)
        with pytest.raises(MalformedSideInfo):
            sm.SideInfoBundle(strategy=sm.ChannelStrategy.PER_CHANNEL,
                              infos=bundle.infos)

    def test_rgb_plane_shapes_must_match(self):
        with pytest.raises(DimensionError):
            sm.RgbImage(r=np.zeros((2, 2)), g=np.zeros((2, 2)), b=np.zeros((3, 3)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("strategy", list(sm.ChannelStrategy))
def test_embed_color_rejects_overflowing_alpha(rgb128, strategy):
    w = sm.synthetic_image(128, 128, 66, roughness=1.2, contrast=70.0)
    with pytest.raises(sm.InvalidInput, match="marked contains NaN or Inf entries"):
        sm.embed_color(rgb128, w, strategy, sm.SchemeTag.SEMI_BLIND, alpha=1e308)


@pytest.mark.parametrize("scheme", list(sm.SchemeTag))
@pytest.mark.parametrize("strategy", list(sm.ChannelStrategy))
def test_embed_color_rejects_alpha_overflowing_squared_error(strategy, scheme):
    img = sm.synthetic_rgb(16, 16, seed=7)
    w = sm.synthetic_image(16, 16, 8, roughness=1.2, contrast=70.0)
    identity = sm.Identity.from_string("alice|1") if scheme is sm.SchemeTag.HASH_CODE else None
    with pytest.raises(InvalidParameter, match="alpha 1e\\+155 overflows"):
        sm.embed_color(img, w, strategy, scheme, alpha=1e155, identity=identity)
