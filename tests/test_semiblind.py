import numpy as np
import pytest
import scipy.linalg

import svdmark as sm
from svdmark.cli import cli_main
from svdmark.errors import (
    DimensionError,
    InvalidInput,
    InvalidParameter,
    MalformedSideInfo,
)
from svdmark.matrix import _canonical_signs

import thresholds as th
from conftest import make_reference, seeded_matrix
from keyfiles import key_parts, write_key_parts


class TestSplitWatermark:
    def test_diagonal_watermark(self):
        a_wa, v_w = sm.split_watermark(np.diag([5.0, 1.0]))
        np.testing.assert_allclose(a_wa, np.diag([5.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(v_w, np.eye(2), atol=1e-14)

    def test_definitional_roundtrip(self):
        for seed in range(4):
            w = seeded_matrix(seed, 20, 20)
            a_wa, v_w = sm.split_watermark(w)
            rel = np.linalg.norm(a_wa @ v_w.T - w) / np.linalg.norm(w)
            assert rel <= 1e-10

    def test_seed7_against_oracle(self):
        w = seeded_matrix(7, 64, 64)
        a_wa, v_w = sm.split_watermark(w)
        u_o, sv_o, vt_o = scipy.linalg.svd(w, lapack_driver="gesvd")
        v_o = np.ascontiguousarray(vt_o.T)
        _canonical_signs(u_o, v_o)
        s_o = np.zeros(w.shape)
        np.fill_diagonal(s_o, sv_o)
        np.testing.assert_allclose(a_wa, u_o @ s_o, atol=1e-8)
        np.testing.assert_allclose(v_w, v_o, atol=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            sm.split_watermark([[np.nan]])


class TestEmbed:
    def test_roundtrip_nc(self, cover64, watermark64):
        marked, info = sm.embed(cover64, watermark64, 0.1)
        w_star = sm.extract(marked, info)
        assert sm.normalized_correlation(w_star, watermark64) >= 0.9999

    def test_side_info_holds_embed_time_factors(self, cover64, watermark64):
        marked, info = sm.embed(cover64, watermark64, 0.1)
        f = sm.svd(cover64)
        assert np.array_equal(info.u, f.u)
        assert np.array_equal(info.sigma, f.sigma)
        assert np.array_equal(info.v, f.v)
        assert info.scheme is sm.SchemeTag.SEMI_BLIND
        assert info.quant is None

    def test_dimension_mismatch(self, cover64):
        with pytest.raises(DimensionError):
            sm.embed(cover64, np.zeros((32, 32)))

    def test_negative_alpha(self, cover64, watermark64):
        with pytest.raises(InvalidParameter):
            sm.embed(cover64, watermark64, -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_alpha(self, cover64, watermark64, bad):
        with pytest.raises(InvalidParameter, match="finite and positive"):
            sm.embed(cover64, watermark64, bad)


class TestExtract:
    def test_exact_inverse(self, cover64, watermark64):
        for alpha in (1e-3, 0.01, 0.1, 1.0):
            marked, info = sm.embed(cover64, watermark64, alpha)
            w_star = sm.extract(marked, info)
            assert np.abs(w_star - watermark64).max() <= 1e-8

    def test_unmarked_cover_extracts_zero(self, cover64, watermark64):
        _, info = sm.embed(cover64, watermark64, 0.1)
        w_star = sm.extract(cover64, info)
        assert np.abs(w_star).max() <= 1e-8

    def test_noise_robustness(self, cover256, watermark256):
        marked, info = sm.embed(cover256, watermark256, 0.1)
        noisy = sm.apply_attack(
            marked,
            sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=2.0,
                          seed=th.NOISE_SIGMA2_SEED),
        )
        nc = sm.normalized_correlation(sm.extract(noisy, info), watermark256)
        assert nc >= th.NOISE_SIGMA2_NC_MIN

    def test_alpha_zero_info_rejected(self, cover64, watermark64):
        # Recovery divides by alpha, so no side info holds an alpha of 0.
        _, info = sm.embed(cover64, watermark64, 0.1)
        with pytest.raises(InvalidParameter, match="finite and positive"):
            sm.SideInfo(u=info.u, s=info.sigma, v=info.v, v_w=info.v_w, alpha=0.0,
                        rows=64, cols=64)

    def test_scheme_mismatch(self, cover64, watermark64, identity):
        marked, info = sm.embed_invisible(cover64, watermark64, identity, 0.05)
        with pytest.raises(MalformedSideInfo):
            sm.extract(marked, info)

    def test_dimension_mismatch(self, cover64, watermark64):
        _, info = sm.embed(cover64, watermark64, 0.1)
        with pytest.raises(DimensionError):
            sm.extract(np.zeros((32, 32)), info)

    def test_linearity_in_alpha(self, cover64, watermark64):
        marked1, _ = sm.embed(cover64, watermark64, 0.05)
        marked2, _ = sm.embed(cover64, watermark64, 0.2)
        a1 = marked1 - cover64
        a2 = marked2 - cover64
        # a2 should be exactly 4x a1 up to float residue
        resid = np.linalg.norm(a2 - 4.0 * a1) / np.linalg.norm(a2)
        assert resid <= 1e-8


class TestDetectReference:
    def test_true_basis_reproduces_extraction(self, cover64, watermark64):
        # The watermark as reference projects onto its own V_w.
        marked, info = sm.embed(cover64, watermark64, 0.1)
        p_star = sm.detect_reference(marked, info, watermark64)
        np.testing.assert_array_equal(p_star, sm.extract(marked, info))

    def test_unrelated_reference_scores_lower(self, cover64, watermark64):
        marked, info = sm.embed(cover64, watermark64, 0.1)
        nc_true = sm.normalized_correlation(sm.extract(marked, info), watermark64)
        for seed in th.REF_SEEDS[:5]:
            ref = make_reference(seed, 64)
            p_star = sm.detect_reference(marked, info, ref)
            assert sm.normalized_correlation(p_star, ref) < nc_true

    def test_dimension_mismatch(self, cover64, watermark64):
        marked, info = sm.embed(cover64, watermark64, 0.1)
        for shape in [(32, 32), (64, 32), (32, 64)]:
            with pytest.raises(DimensionError, match=r"reference \(.*does not match side info"):
                sm.detect_reference(marked, info, np.ones(shape))

    def test_keyed_side_info_refused(self, cover64, watermark64, identity):
        # The scheme is checked first, so a wrong-shape reference does not matter.
        marked, info = sm.embed_invisible(cover64, watermark64, identity, 0.1)
        with pytest.raises(MalformedSideInfo):
            sm.detect_reference(marked, info, np.ones((3, 3)))


class TestSideInfoValidation:
    def test_quant_required_for_hash(self, cover64, watermark64):
        _, info = sm.embed(cover64, watermark64, 0.1)
        with pytest.raises(MalformedSideInfo):
            sm.SideInfo(u=info.u, s=info.sigma, v=info.v, v_w=info.v_w, alpha=0.1,
                        rows=64, cols=64, scheme=sm.SchemeTag.HASH_CODE, quant=None)

    def test_quant_forbidden_for_semiblind(self, cover64, watermark64):
        _, info = sm.embed(cover64, watermark64, 0.1)
        with pytest.raises(MalformedSideInfo):
            sm.SideInfo(u=info.u, s=info.sigma, v=info.v, v_w=info.v_w, alpha=0.1,
                        rows=64, cols=64, scheme=sm.SchemeTag.SEMI_BLIND,
                        quant=sm.QuantParams(0.0, 1.0))

    def test_rejects_non_orthogonal_factors(self, cover64, watermark64):
        _, info = sm.embed(cover64, watermark64, 0.1)
        with pytest.raises(InvalidInput):
            sm.SideInfo(u=np.full((64, 64), 0.1), s=info.sigma, v=info.v, v_w=info.v_w,
                        alpha=0.1, rows=64, cols=64)

    @pytest.mark.parametrize("rows, cols, v_w", [
        (64, 63, None), (63, 64, None), (64, 64, np.eye(63)),
    ])
    def test_rejects_shape_that_does_not_conform(self, cover64, watermark64, rows, cols, v_w):
        _, info = sm.embed(cover64, watermark64, 0.1)
        with pytest.raises(DimensionError, match=f"do not conform to {rows}x{cols}"):
            sm.SideInfo(u=info.u, s=info.sigma, v=info.v,
                        v_w=info.v_w if v_w is None else v_w, alpha=0.1, rows=rows, cols=cols)

    def test_rejects_negative_alpha(self, cover64, watermark64):
        _, info = sm.embed(cover64, watermark64, 0.1)
        with pytest.raises(InvalidParameter):
            sm.SideInfo(u=info.u, s=info.sigma, v=info.v, v_w=info.v_w, alpha=-1.0,
                        rows=64, cols=64)

    @pytest.mark.parametrize("corruption", [
        "v_w-entry", "unsorted-s", "negative-s",
    ])
    def test_rejects_corrupt_factors(self, cover64, watermark64, corruption):
        _, info = sm.embed(cover64, watermark64, 0.1)
        s, v_w = _corrupt(info, corruption)
        with pytest.raises(InvalidInput):
            sm.SideInfo(u=info.u, s=s, v=info.v, v_w=v_w, alpha=0.1, rows=64, cols=64)

    def test_cli_rejects_key_file_with_corrupt_v_w(self, cover64, watermark64,
                                                   tmp_path, capsys):
        marked, info = sm.embed(cover64, watermark64, 0.1)
        marked_path, key_path = str(tmp_path / "m.svdf"), tmp_path / "key.json"
        sm.write_float_image(marked, marked_path)
        sm.save_sideinfo(info, str(key_path))
        meta, payload = key_parts(key_path)
        v_w = _corrupt(info, "v_w-entry")[1].astype("<f8").tobytes()
        write_key_parts(key_path, meta, payload[: -len(v_w)] + v_w)
        assert cli_main(["extract", "--marked", marked_path, "--key", str(key_path),
                         "--out", str(tmp_path / "w.svdf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInput") and "Traceback" not in err


def _corrupt(info, corruption):
    """Copies of ``info.sigma`` and ``info.v_w`` with one structural fault."""
    s, v_w = info.sigma.copy(), info.v_w.copy()
    if corruption == "v_w-entry":
        v_w[0, 0] += 5.0
    elif corruption == "unsorted-s":
        s[0], s[1] = s[1], s[0]
    elif corruption == "negative-s":
        s[-1] = -1.0
    return s, v_w


# The shared mark core checks the marked image, so an alpha that overflows
# it fails in the library, not later in a file writer.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_embed_rejects_overflowing_alpha(cover64, watermark64):
    with pytest.raises(InvalidInput, match="marked contains NaN or Inf entries"):
        sm.embed(cover64, watermark64, 1e308)


# A finite marked image can still be too far from the cover for its
# squared error, and so its PSNR, to be a number; the embed core rejects
# such an alpha instead of writing a mark no metric can score.
def test_embed_rejects_alpha_overflowing_squared_error():
    cover, wm = seeded_matrix(1, 16, 16), seeded_matrix(2, 16, 16)
    with pytest.raises(InvalidParameter, match="alpha 1e\\+155 overflows"):
        sm.embed(cover, wm, 1e155)
    marked, _ = sm.embed(cover, wm, 1e150)
    assert np.isfinite(sm.psnr(cover, marked))


# LAPACK scales the singular values back up after the SVD, so a finite
# cover near the float64 limit can overflow them.  ``svd`` itself refuses
# them, so no caller (an embed, the sweep) builds anything on them.
@pytest.mark.parametrize("shape", [(4, 3), (8, 8)])
def test_embed_rejects_cover_whose_singular_values_overflow(identity, shape):
    cover, wm = np.full(shape, 1e308), seeded_matrix(2, *shape)
    attacks = [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)]
    for call in (lambda: sm.svd(cover),
                 lambda: sm.embed(cover, wm, 0.1),
                 lambda: sm.embed_invisible(cover, wm, identity, 0.1),
                 lambda: sm.robustness_sweep(cover, wm, [0.1], attacks)):
        with pytest.raises(InvalidInput, match="^s contains NaN or Inf entries$"):
            call()
