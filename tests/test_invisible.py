import numpy as np
import pytest

import svdmark as sm
from svdmark.errors import InvalidKey, InvalidParameter, MalformedSideInfo

import thresholds as th


@pytest.fixture(scope="module")
def marked64(cover64, watermark64, identity):
    return sm.embed_invisible(cover64, watermark64, identity, 0.05)


class TestEmbedInvisible:
    def test_roundtrip_bytes_exact(self, cover64, watermark64, identity, marked64):
        marked, info = marked64
        a_wa, _ = sm.split_watermark(watermark64)
        payload, quant = sm.quantize(a_wa)
        expected = sm.xor_mask(payload, sm.derive_mask(identity, 64, 64))
        assert np.array_equal(sm.recover_masked_bytes(marked, info), expected)
        assert (info.quant.lo, info.quant.hi) == (quant.lo, quant.hi)

    def test_roundtrip_watermark_quantization_limited(self, watermark64, identity,
                                                      marked64):
        marked, info = marked64
        w_star = sm.extract_invisible(marked, info, identity)
        # dequantized payload is within a half step entrywise; the rotation
        # by v_w spreads it by at most sqrt(cols)
        half_step = (info.quant.hi - info.quant.lo) / 510
        assert np.abs(w_star - watermark64).max() <= half_step * np.sqrt(64)
        assert sm.normalized_correlation(w_star, watermark64) >= th.HASH_NC_MIN

    def test_side_info_never_stores_key_material(self, marked64, identity):
        _, info = marked64
        blobs = [info.u.tobytes(), info.sigma.tobytes(), info.v.tobytes(),
                 info.v_w.tobytes()]
        mask = sm.derive_mask(identity, 64, 64).tobytes()
        assert all(mask not in blob for blob in blobs)
        assert info.scheme is sm.SchemeTag.HASH_CODE
        assert not hasattr(info, "identity") and not hasattr(info, "mask")

    def test_distinct_ids_give_unrelated_payloads(self, cover64, watermark64):
        id_a = sm.Identity.from_string("alice|1")
        id_b = sm.Identity.from_string("bob|9")
        marked_a, info_a = sm.embed_invisible(cover64, watermark64, id_a, 0.05)
        marked_b, info_b = sm.embed_invisible(cover64, watermark64, id_b, 0.05)
        assert not np.array_equal(marked_a, marked_b)
        bytes_a = sm.recover_masked_bytes(marked_a, info_a)
        bytes_b = sm.recover_masked_bytes(marked_b, info_b)
        nc = sm.normalized_correlation(bytes_a.astype(float), bytes_b.astype(float))
        assert abs(nc) <= 0.1

    def test_alpha_zero_rejected(self, cover64, watermark64, identity):
        with pytest.raises(InvalidParameter):
            sm.embed_invisible(cover64, watermark64, identity, 0.0)
        with pytest.raises(InvalidParameter):
            sm.embed_invisible(cover64, watermark64, identity, -0.5)

    def test_empty_id_rejected(self, cover64, watermark64):
        with pytest.raises(InvalidKey):
            sm.embed_invisible(cover64, watermark64, sm.Identity.from_string(""), 0.05)


class TestExtractInvisible:
    def test_wrong_id_uncorrelated(self, watermark64, marked64):
        marked, info = marked64
        scores = []
        for i in range(10):
            wrong = sm.Identity.from_string(f"wrong-{i:04d}|nonce")
            w_bad = sm.extract_invisible(marked, info, wrong)
            scores.append(sm.normalized_correlation(w_bad, watermark64))
        assert np.abs(scores).max() <= th.WRONG_ID_MAX_ABS

    def test_deterministic_per_id(self, identity, marked64):
        marked, info = marked64
        w1 = sm.extract_invisible(marked, info, identity)
        w2 = sm.extract_invisible(marked, info, identity)
        assert np.array_equal(w1, w2)

    def test_noise_within_budget_recovers_exactly(self, cover64, watermark64,
                                                  identity):
        marked, info = sm.embed_invisible(cover64, watermark64, identity,
                                          th.NOISE_BUDGET_ALPHA)
        clean_bytes = sm.recover_masked_bytes(marked, info)
        noisy = sm.apply_attack(
            marked,
            sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE,
                          sigma=th.NOISE_BUDGET_SIGMA, seed=th.NOISE_BUDGET_SEED),
        )
        assert np.array_equal(sm.recover_masked_bytes(noisy, info), clean_bytes)
        assert np.array_equal(
            sm.extract_invisible(noisy, info, identity),
            sm.extract_invisible(marked, info, identity),
        )

    def test_semiblind_info_rejected(self, cover64, watermark64, identity):
        marked, info = sm.embed(cover64, watermark64, 0.1)
        with pytest.raises(MalformedSideInfo):
            sm.extract_invisible(marked, info, identity)

    def test_mask_collision_free_corpus(self):
        # distinct masked payloads across ids reduce to distinct masks
        seen = set()
        for i in range(1000):
            mask = sm.derive_mask(sm.Identity.from_string(f"customer-{i:05d}|n"), 32, 32)
            seen.add(mask.tobytes())
        assert len(seen) == 1000


class TestVerifyInvisible:
    def test_correct_id_verifies(self, watermark64, identity, marked64):
        marked, info = marked64
        report = sm.verify_invisible(marked, info, identity, watermark64, 0.9)
        assert report.decision is sm.Verdict.VERIFIED
        assert report.nc_score >= 0.9
        assert report.threshold == 0.9

    def test_wrong_id_rejected(self, watermark64, marked64):
        marked, info = marked64
        wrong = sm.Identity.from_string("mallory|777")
        report = sm.verify_invisible(marked, info, wrong, watermark64, 0.9)
        assert report.decision is sm.Verdict.REJECTED

    def test_self_claim_scores_one(self, identity, marked64):
        marked, info = marked64
        w_star = sm.extract_invisible(marked, info, identity)
        report = sm.verify_invisible(marked, info, identity, w_star, 0.9)
        assert report.nc_score == 1.0
        assert report.decision is sm.Verdict.VERIFIED

    def test_threshold_range_enforced(self, watermark64, identity, marked64):
        marked, info = marked64
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidParameter):
                sm.verify_invisible(marked, info, identity, watermark64, bad)

    def test_decision_matches_threshold_invariant(self, watermark64, marked64):
        marked, info = marked64
        wrong = sm.Identity.from_string("mallory|778")
        report = sm.verify_invisible(marked, info, wrong, watermark64, 0.9)
        assert (report.decision is sm.Verdict.VERIFIED) == (
            report.nc_score >= report.threshold
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_embed_invisible_rejects_overflowing_alpha(cover64, watermark64, identity):
    with pytest.raises(sm.InvalidInput, match="marked contains NaN or Inf entries"):
        sm.embed_invisible(cover64, watermark64, identity, 1e308)


def test_embed_invisible_rejects_alpha_overflowing_squared_error(identity):
    cover = sm.synthetic_image(16, 16, 5, roughness=2.0, contrast=52.0)
    wm = sm.synthetic_image(16, 16, 6, roughness=1.2, contrast=70.0)
    with pytest.raises(InvalidParameter, match="alpha 1e\\+155 overflows"):
        sm.embed_invisible(cover, wm, identity, 1e155)
