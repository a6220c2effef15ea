import hashlib
import re

import numpy as np
import pytest

import svdmark as sm
from svdmark.errors import DimensionError, InvalidInput, InvalidParameter

import thresholds as th
from conftest import seeded_matrix


class TestPsnr:
    def test_equal_inputs_infinite(self):
        a = seeded_matrix(1, 8, 8)
        assert sm.psnr(a, a) == float("inf")

    def test_zero_vs_full_scale(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 255.0)
        assert sm.psnr(a, b) == 0.0

    def test_unit_mse_closed_form(self):
        a = np.zeros((4, 4))
        b = np.ones((4, 4))
        assert round(sm.psnr(a, b), 4) == 48.1308

    def test_symmetry(self):
        a = seeded_matrix(2, 8, 8)
        b = seeded_matrix(3, 8, 8)
        assert sm.psnr(a, b) == sm.psnr(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sm.psnr(np.zeros((2, 2)), np.zeros((3, 3)))


class TestNormalizedCorrelation:
    def test_self_correlation_is_one(self):
        a = seeded_matrix(4, 8, 8)
        assert sm.normalized_correlation(a, a) == 1.0

    def test_negation_is_minus_one(self):
        a = seeded_matrix(5, 8, 8)
        assert sm.normalized_correlation(a, -a) == -1.0

    def test_orthogonal_patterns_zero(self):
        i, j = np.indices((8, 8))
        checker = np.where((i + j) % 2 == 0, 1.0, -1.0)
        stripes = np.where(i % 2 == 0, 1.0, -1.0)
        assert sm.normalized_correlation(checker, stripes) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("c,d", [(0.5, 0.0), (2.0, -20.0), (7.25, 33.5)])
    def test_positive_affine_invariance(self, c, d):
        a = seeded_matrix(6, 16, 16)
        b = seeded_matrix(7, 16, 16)
        base = sm.normalized_correlation(a, b)
        assert abs(sm.normalized_correlation(a, c * b + d) - base) <= 1e-10

    def test_constant_input_warns_and_returns_zero(self):
        a = seeded_matrix(8, 4, 4)
        with pytest.warns(RuntimeWarning):
            assert sm.normalized_correlation(a, np.full((4, 4), 9.0)) == 0.0

    def test_range(self):
        for seed in range(4):
            nc = sm.normalized_correlation(seeded_matrix(seed, 8, 8),
                                           seeded_matrix(seed + 100, 8, 8))
            assert -1.0 <= nc <= 1.0


class TestAttacks:
    def test_noise_sigma_zero_identity(self):
        a = seeded_matrix(9, 8, 8)
        spec = sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=0.0, seed=1)
        np.testing.assert_array_equal(sm.apply_attack(a, spec), a)

    def test_noise_seeded_stats(self):
        spec = sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=5.0, seed=42)
        noise = sm.apply_attack(np.zeros((256, 256)), spec)
        assert abs(noise.std() - 5.0) <= th.GAUSS_SIGMA5_STD_TOL

    def test_noise_prng_identity_frozen(self):
        # PCG64 is the pinned generator; these values must never drift
        rng = np.random.Generator(np.random.PCG64(42))
        np.testing.assert_allclose(rng.normal(0.0, 5.0, 4),
                                   th.PCG64_SEED42_NORMAL_SIGMA5_FIRST4, rtol=0, atol=0)

    def test_noise_reproducible_bitwise(self):
        a = seeded_matrix(10, 16, 16)
        spec = sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=3.0, seed=99)
        assert sm.apply_attack(a, spec).tobytes() == sm.apply_attack(a, spec).tobytes()

    def test_noise_requires_seed(self):
        with pytest.raises(InvalidParameter):
            sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=1.0)

    def test_quantize_identity_on_integral(self):
        a = np.array([[0.0, 128.0], [255.0, 7.0]])
        np.testing.assert_array_equal(
            sm.apply_attack(a, sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)), a
        )

    def test_quantize_rounds_and_clips(self):
        a = np.array([[-3.2, 128.6], [300.0, 1.4]])
        out = sm.apply_attack(a, sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT))
        np.testing.assert_array_equal(out, [[0.0, 129.0], [255.0, 1.0]])

    def test_crop_replaces_rect_with_mean(self):
        a = seeded_matrix(11, 8, 8)
        spec = sm.AttackSpec(kind=sm.AttackKind.CROP, rect=(2, 3, 4, 2))
        out = sm.apply_attack(a, spec)
        assert np.all(out[2:6, 3:5] == a.mean())
        mask = np.ones_like(a, dtype=bool)
        mask[2:6, 3:5] = False
        np.testing.assert_array_equal(out[mask], a[mask])

    def test_crop_out_of_bounds(self):
        a = seeded_matrix(12, 8, 8)
        spec = sm.AttackSpec(kind=sm.AttackKind.CROP, rect=(6, 6, 4, 4))
        with pytest.raises(InvalidParameter):
            sm.apply_attack(a, spec)

    def test_crop_invalid_rect_rejected_early(self):
        with pytest.raises(InvalidParameter):
            sm.AttackSpec(kind=sm.AttackKind.CROP, rect=(-1, 0, 2, 2))
        with pytest.raises(InvalidParameter):
            sm.AttackSpec(kind=sm.AttackKind.CROP, rect=(0, 0, 0, 2))

    def test_rescale_scale_one_identity(self):
        a = seeded_matrix(13, 8, 8)
        out = sm.apply_attack(a, sm.AttackSpec(kind=sm.AttackKind.RESCALE, scale=1.0))
        np.testing.assert_allclose(out, a, atol=1e-12)

    def test_rescale_preserves_shape_and_degrades(self):
        a = seeded_matrix(14, 32, 32)
        out = sm.apply_attack(a, sm.AttackSpec(kind=sm.AttackKind.RESCALE, scale=0.5))
        assert out.shape == a.shape
        assert not np.array_equal(out, a)

    def test_rescale_range_validated(self):
        with pytest.raises(InvalidParameter):
            sm.AttackSpec(kind=sm.AttackKind.RESCALE, scale=0.0)
        with pytest.raises(InvalidParameter):
            sm.AttackSpec(kind=sm.AttackKind.RESCALE, scale=1.5)


class TestResize:
    def test_nearest_identity(self):
        a = seeded_matrix(15, 6, 6)
        np.testing.assert_array_equal(sm.resize_nearest(a, 6, 6), a)

    def test_nearest_upscale_shape(self):
        a = seeded_matrix(16, 4, 6)
        assert sm.resize_nearest(a, 8, 12).shape == (8, 12)
        assert set(np.unique(sm.resize_nearest(a, 8, 12))) <= set(np.unique(a))

    def test_bilinear_identity(self):
        a = seeded_matrix(17, 5, 5)
        np.testing.assert_allclose(sm.resize_bilinear(a, 5, 5), a, atol=1e-12)

    def test_bilinear_constant_preserved(self):
        a = np.full((4, 4), 3.5)
        np.testing.assert_allclose(sm.resize_bilinear(a, 9, 7), np.full((9, 7), 3.5))

    @pytest.mark.parametrize("shape, target", [
        ((16, 16), (8, 8)),      # down
        ((16, 16), (37, 29)),    # up
        ((256, 256), (128, 128)),
        ((128, 128), (256, 256)),
        ((12, 20), (5, 31)),     # rectangular, down one axis and up the other
        ((20, 12), (33, 7)),
        ((1, 9), (1, 4)),        # 1xN
        ((1, 9), (3, 17)),
        ((9, 1), (4, 1)),        # Nx1
        ((9, 1), (13, 2)),
        ((10, 14), (10, 14)),    # same size
        ((7, 5), (1, 1)),
    ])
    def test_bilinear_matches_four_corner_formula(self, shape, target):
        a = seeded_matrix(18, *shape)
        out = sm.resize_bilinear(a, *target)
        assert out.shape == target
        assert np.array_equal(out, four_corner_bilinear(a, *target))


def four_corner_bilinear(a, rows, cols):
    """Bilinear resampling by gathering all four corners of every target
    pixel: the reference ``resize_bilinear`` must reproduce bit for bit."""
    r = np.linspace(0.0, a.shape[0] - 1.0, rows)
    c = np.linspace(0.0, a.shape[1] - 1.0, cols)
    r0 = np.floor(r).astype(int)
    c0 = np.floor(c).astype(int)
    r1 = np.minimum(r0 + 1, a.shape[0] - 1)
    c1 = np.minimum(c0 + 1, a.shape[1] - 1)
    fr = (r - r0)[:, None]
    fc = (c - c0)[None, :]
    top = a[np.ix_(r0, c0)] * (1.0 - fc) + a[np.ix_(r0, c1)] * fc
    bottom = a[np.ix_(r1, c0)] * (1.0 - fc) + a[np.ix_(r1, c1)] * fc
    return top * (1.0 - fr) + bottom * fr


@pytest.fixture(scope="module")
def small_scene():
    cover = sm.synthetic_image(64, 64, th.COVER_SEED, roughness=2.0, contrast=52.0)
    wm = sm.synthetic_image(64, 64, th.WM_SEED, roughness=1.2, contrast=70.0)
    return cover, wm


class TestSweep:
    def test_row_count(self, small_scene):
        cover, wm = small_scene
        attacks = [
            sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=1.0, seed=5),
            sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT),
        ]
        report = sm.robustness_sweep(cover, wm, [0.05, 0.1, 0.2], attacks)
        assert len(report.rows) == 6

    def test_zero_noise_gives_clean_nc(self, small_scene):
        cover, wm = small_scene
        attacks = [sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=0.0, seed=1)]
        report = sm.robustness_sweep(cover, wm, [0.05, 0.1], attacks)
        assert all(row.nc >= 0.9999 for row in report.rows)

    def test_psnr_non_increasing_in_alpha(self, small_scene):
        cover, wm = small_scene
        attacks = [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)]
        report = sm.robustness_sweep(cover, wm, [0.02, 0.05, 0.1, 0.2], attacks)
        psnrs = [row.psnr_db for row in report.rows]
        for earlier, later in zip(psnrs, psnrs[1:]):
            assert later <= earlier + th.PSNR_MONOTONE_SLACK_DB

    def test_csv_deterministic_and_formatted(self, small_scene):
        cover, wm = small_scene
        attacks = [
            sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=2.0, seed=7),
            sm.AttackSpec(kind=sm.AttackKind.CROP, rect=(4, 4, 8, 8)),
        ]
        csv1 = sm.robustness_sweep(cover, wm, [0.1], attacks).to_csv()
        csv2 = sm.robustness_sweep(cover, wm, [0.1], attacks).to_csv()
        assert csv1 == csv2
        lines = csv1.strip().split("\n")
        assert lines[0] == "alpha,attack,params,seed,psnr_db,nc"
        assert lines[1].startswith("0.100000,gaussian-noise,sigma=2.000000,7,")
        assert lines[2].startswith("0.100000,crop,r0=4;c0=4;h=8;w=8,,")

    def test_empty_lists_rejected(self, small_scene):
        cover, wm = small_scene
        with pytest.raises(InvalidParameter):
            sm.robustness_sweep(cover, wm, [], [])
        with pytest.raises(InvalidParameter):
            sm.robustness_sweep(cover, wm, [0.0],
                                [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_alpha_rejected(self, small_scene, bad):
        cover, wm = small_scene
        with pytest.raises(InvalidParameter, match="finite and positive"):
            sm.robustness_sweep(cover, wm, [0.1, bad],
                                [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)])

    # The sweep validates the arrays it makes from a caller's alpha once:
    # a subnormal alpha overflows the recovery, a huge one the marked image.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [5e-324, 1e308])
    def test_overflowing_alpha_rejected(self, small_scene, alpha):
        cover, wm = small_scene
        with pytest.raises(InvalidInput, match="NaN or Inf"):
            sm.robustness_sweep(cover, wm, [alpha],
                                [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)])

    def test_shape_mismatch_rejected(self, small_scene):
        cover, wm = small_scene
        with pytest.raises(DimensionError):
            sm.robustness_sweep(cover, wm[:, :32], [0.1],
                                [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)])


def reference_rows(cover, wm, alphas, attacks):
    """The sweep's rows computed through the public per-alpha route."""
    rows = []
    for alpha in alphas:
        marked, info = sm.embed(cover, wm, alpha)
        fidelity = sm.psnr(cover, marked)
        for spec in attacks:
            w_star = sm.extract(sm.apply_attack(marked, spec), info)
            rows.append((alpha, spec, fidelity, sm.normalized_correlation(w_star, wm)))
    return rows


class TestSweepEquivalence:
    ALPHAS = [0.02, 0.05, 0.1, 0.2, 0.5]
    ATTACKS = [
        sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=2.0, seed=7),
        sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT),
        sm.AttackSpec(kind=sm.AttackKind.CROP, rect=(4, 4, 8, 8)),
        sm.AttackSpec(kind=sm.AttackKind.RESCALE, scale=0.5),
    ]

    def assert_rows_equal(self, cover, wm):
        report = sm.robustness_sweep(cover, wm, self.ALPHAS, self.ATTACKS)
        expected = reference_rows(cover, wm, self.ALPHAS, self.ATTACKS)
        assert len(report.rows) == len(expected)
        for row, (alpha, spec, fidelity, nc) in zip(report.rows, expected):
            assert row.alpha == alpha and row.attack == spec
            assert row.psnr_db == fidelity
            assert row.nc == nc

    def test_canonical_scene_bit_identical(self, cover256, watermark256):
        self.assert_rows_equal(cover256, watermark256)

    @pytest.mark.parametrize("shape", [(48, 64), (64, 48)])
    def test_rectangular_bit_identical(self, shape):
        self.assert_rows_equal(seeded_matrix(11, *shape), seeded_matrix(12, *shape))


def test_sweep_csv_digest_pinned(cover256, watermark256):
    # The sweep-256 benchmark's grid on the canonical scene; the CSV bytes
    # are part of the output contract, not just the rows' values.
    q = 256 // 8
    attacks = [
        sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=2.0, seed=7),
        sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT),
        sm.AttackSpec(kind=sm.AttackKind.CROP, rect=(q, q, 2 * q, 2 * q)),
        sm.AttackSpec(kind=sm.AttackKind.RESCALE, scale=0.5),
    ]
    alphas = [round(0.05 * k, 2) for k in range(1, 11)]
    csv = sm.robustness_sweep(cover256, watermark256, alphas, attacks).to_csv()
    assert len(csv.splitlines()) == 41
    assert hashlib.sha256(csv.encode("ascii")).hexdigest() == th.SWEEP_256_CSV_SHA256


def test_bilinear_short_wide_target_matches_four_corner_formula():
    # Reads only some of the source rows, so only those get interpolated.
    a = seeded_matrix(19, 256, 256)
    assert np.array_equal(sm.resize_bilinear(a, 37, 300), four_corner_bilinear(a, 37, 300))


# An alpha whose marked image stays finite but whose squared error
# overflows has no PSNR to report (it printed -inf and nc = 0 before).
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("alpha", [1e155, 1e300])
def test_sweep_rejects_alpha_with_overflowing_psnr(small_scene, alpha):
    cover, wm = small_scene
    with pytest.raises(InvalidParameter, match=re.escape(f"alpha {alpha} overflows")):
        sm.robustness_sweep(cover, wm, [0.1, alpha],
                            [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)])
