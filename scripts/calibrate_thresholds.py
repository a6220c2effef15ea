#!/usr/bin/env python3
"""Pre-build calibration: measure every derived quantity the test suite
asserts against, using brute-force/independent routes where possible,
and print a ready-to-freeze constants block for tests/thresholds.py.

Run from the repo root:

    python scripts/calibrate_thresholds.py

The printed OBSERVED values document the measurement; the FROZEN values
add safety slack and are the ones the tests enforce.  Re-run after any
change to the synthetic image generators or the embedding defaults.
"""

import time

import numpy as np
import scipy.linalg
import scipy.stats

import svdmark as sm
from svdmark.matrix import as_matrix

COVER_SEED = 1001
WM_SEED = 2002
REF_SEEDS = list(range(3000, 3020))
WRONG_ID_COUNT = 100
FORGER_SEEDS = list(range(5000, 5040))
FORGED_VW_KEYED_NC_MAX = 0.15  # these two frozen in tests/thresholds.py;
FORGED_VW_SEMIBLIND_NC_BEST_MIN = 0.5  # their margins are printed
AVALANCHE_TRIALS = 1000

EMBED_ID = "alice|8f3a9c"


def cover256():
    return sm.synthetic_image(256, 256, COVER_SEED, roughness=2.0, contrast=52.0)


def watermark256():
    return sm.synthetic_image(256, 256, WM_SEED, roughness=1.2, contrast=70.0)


def reference(seed):
    return sm.synthetic_image(256, 256, seed, roughness=1.9, contrast=55.0)


def forged_key(info, v_w):
    """``info`` with its ``V_w`` swapped for ``v_w``, through every key check."""
    return sm.SideInfo(u=info.u, s=info.sigma, v=info.v, v_w=v_w, alpha=info.alpha,
                       rows=info.rows, cols=info.cols, scheme=info.scheme, quant=info.quant)


def main():
    t0 = time.monotonic()
    cover = cover256()
    wm = watermark256()
    ident = sm.Identity.from_string(EMBED_ID)

    print("# --- semi-blind round trip (256x256, alpha=0.1) ---")
    marked, info = sm.embed(cover, wm, 0.1)
    w_star = sm.extract(marked, info)
    nc_clean = sm.normalized_correlation(w_star, wm)
    max_abs = float(np.abs(w_star - wm).max())
    fidelity = sm.psnr(cover, marked)
    print(f"OBSERVED nc_clean={nc_clean!r} max_abs={max_abs:.3e} psnr={fidelity:.4f}")

    print("# --- noise robustness (sigma=2, seed=4242) ---")
    noisy = sm.apply_attack(
        marked, sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=2.0, seed=4242)
    )
    nc_noise = sm.normalized_correlation(sm.extract(noisy, info), wm)
    print(f"OBSERVED nc_noise_sigma2={nc_noise!r}")

    print("# --- reference detection gaps (20 seeds) ---")
    gaps = []
    ref_ncs = []
    for seed in REF_SEEDS:
        ref = reference(seed)
        p_star = sm.detect_reference(marked, info, ref)
        nc_ref = sm.normalized_correlation(p_star, ref)
        ref_ncs.append(nc_ref)
        gaps.append(nc_clean - nc_ref)
    print(f"OBSERVED ref_nc min/mean/max = {min(ref_ncs):.4f}/"
          f"{np.mean(ref_ncs):.4f}/{max(ref_ncs):.4f}")
    print(f"OBSERVED min_gap={min(gaps):.4f}")

    print("# --- hash scheme exactness (alpha in 1e-3, 0.05, 0.1) ---")
    a_wa, _ = sm.split_watermark(wm)
    payload, quant = sm.quantize(a_wa)
    true_masked = sm.xor_mask(payload, sm.derive_mask(ident, 256, 256))
    hash_ncs = {}
    for alpha in (1e-3, 0.05, 0.1):
        mh, ih = sm.embed_invisible(cover, wm, ident, alpha)
        exact = bool(np.array_equal(sm.recover_masked_bytes(mh, ih), true_masked))
        nc_h = sm.normalized_correlation(sm.extract_invisible(mh, ih, ident), wm)
        hash_ncs[alpha] = nc_h
        print(f"OBSERVED alpha={alpha}: bytes_exact={exact} nc={nc_h!r}")
    print(f"OBSERVED quant lo={quant.lo:.4f} hi={quant.hi:.4f} "
          f"half_step={(quant.hi - quant.lo) / 510:.4f}")

    print("# --- keyed float margin against eps*sigma_0*sqrt(max(M, N))/alpha ---")
    # The keyed embed refuses an alpha at which this predictor exceeds 0.1
    # (semiblind._embed_planes); the worst ratio below says how much of
    # the 0.5 rounding budget that leaves.
    worst, refused, tried = 0.0, 0, 0
    for rows, cols in ((16, 16), (32, 32), (48, 64), (64, 48), (64, 64), (32, 200),
                       (256, 256)):
        c = sm.synthetic_image(rows, cols, COVER_SEED, roughness=2.0, contrast=52.0)
        w = sm.synthetic_image(rows, cols, WM_SEED, roughness=1.2, contrast=70.0)
        for alpha in (1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
            tried += 1
            try:
                mh, ih = sm.embed_invisible(c, w, ident, alpha)
            except sm.InvalidParameter:
                refused += 1
                continue
            r = sm.recover_principal_components(mh, ih)
            predictor = np.finfo(float).eps * ih.sigma[0] * np.sqrt(max(rows, cols)) / alpha
            worst = max(worst, float(np.abs(r - np.rint(r)).max()) / predictor)
    print(f"OBSERVED worst margin/predictor = {worst:.3f} over the embeds made "
          f"({refused} of {tried} refused); margin at the bound <= {0.1 * worst:.3f} of 0.5")

    print("# --- wrong-id band (100 ids) + uniformity ---")
    mh, ih = sm.embed_invisible(cover, wm, ident, 0.05)
    wrong_ncs = []
    for i in range(WRONG_ID_COUNT):
        other = sm.Identity.from_string(f"wrong-{i:04d}|nonce")
        w_bad = sm.extract_invisible(mh, ih, other)
        wrong_ncs.append(sm.normalized_correlation(w_bad, wm))
    wrong_ncs = np.array(wrong_ncs)
    print(f"OBSERVED wrong_id mean={wrong_ncs.mean():+.5f} "
          f"max_abs={np.abs(wrong_ncs).max():.5f}")
    counts = np.bincount(true_masked.ravel(), minlength=256)
    chi2 = scipy.stats.chisquare(counts)
    print(f"OBSERVED masked-bytes chi2 p={chi2.pvalue:.4f}")

    print("# --- forged V_w (128x128, alpha=0.1, 40 forger images) ---")
    # The owner's key with V_w swapped for that of the forger's image, and,
    # keyed, the forger's own identity; each scored against that image.
    c128 = sm.synthetic_image(128, 128, COVER_SEED, roughness=2.0, contrast=52.0)
    w128 = sm.synthetic_image(128, 128, WM_SEED, roughness=1.2, contrast=70.0)
    (m128, i128), (mh128, ih128) = sm.embed(c128, w128, 0.1), sm.embed_invisible(
        c128, w128, ident, 0.1)
    semi_forged, keyed_forged = [], []
    for seed in FORGER_SEEDS:
        image = sm.synthetic_image(128, 128, seed, roughness=1.9, contrast=55.0)
        v_w = sm.split_watermark(image)[1]
        semi_forged.append(sm.normalized_correlation(
            sm.extract(m128, forged_key(i128, v_w)), image))
        w_forged = sm.extract_invisible(mh128, forged_key(ih128, v_w),
                                        sm.Identity.from_string(f"forger-{seed}|nonce"))
        keyed_forged.append(sm.normalized_correlation(w_forged, image))
    keyed_max = float(np.abs(keyed_forged).max())
    print(f"OBSERVED forged semi-blind nc min/median/max = {min(semi_forged):.4f}/"
          f"{np.median(semi_forged):.4f}/{max(semi_forged):.4f}, best "
          f"{max(semi_forged) / FORGED_VW_SEMIBLIND_NC_BEST_MIN:.2f}x over the frozen "
          f"{FORGED_VW_SEMIBLIND_NC_BEST_MIN}")
    print(f"OBSERVED forged keyed max_abs={keyed_max:.4f}, "
          f"{FORGED_VW_KEYED_NC_MAX / keyed_max:.2f}x under the frozen {FORGED_VW_KEYED_NC_MAX}")

    print("# --- mask statistics ---")
    m1 = sm.derive_mask(sm.Identity.from_string("alice|1"), 64, 64)
    m2 = sm.derive_mask(sm.Identity.from_string("alice|2"), 64, 64)
    diff_frac = float(np.mean(m1 != m2))
    print(f"OBSERVED mask byte-diff fraction (alice|1 vs alice|2, 64x64) = {diff_frac:.5f}")
    for probe in ("alice|1", "bob|9", "probe|0000"):
        mask16 = sm.derive_mask(sm.Identity.from_string(probe), 16, 16)
        print(f"OBSERVED mask mean ({probe!r}, 16x16) = {mask16.mean():.3f}")

    print("# --- avalanche (1000 single-bit id flips, 64x64 masks) ---")
    base = b"avalanche-base|00"
    base_mask = sm.derive_mask(sm.Identity(base), 64, 64)
    base_bits = np.unpackbits(base_mask.ravel())
    fracs = []
    for t in range(AVALANCHE_TRIALS):
        pos = t % (len(base) * 8)
        flipped = bytearray(base)
        flipped[pos // 8] ^= 1 << (pos % 8)
        # vary a suffix too so trials beyond one pass over the bits differ
        suffix = (t // (len(base) * 8)).to_bytes(2, "big")
        mask = sm.derive_mask(sm.Identity(bytes(flipped) + suffix), 64, 64)
        fracs.append(float(np.mean(np.unpackbits(mask.ravel()) != base_bits)))
    fracs = np.array(fracs)
    print(f"OBSERVED avalanche mean={fracs.mean():.5f} "
          f"min={fracs.min():.5f} max={fracs.max():.5f}")

    print("# --- PSNR monotonicity in alpha ---")
    alphas = [0.01, 0.02, 0.05, 0.1, 0.2]
    psnrs = []
    for alpha in alphas:
        m_a, _ = sm.embed(cover, wm, alpha)
        psnrs.append(sm.psnr(cover, m_a))
    print("OBSERVED psnr by alpha:", [f"{p:.3f}" for p in psnrs])

    print("# --- invisible noise budget ---")
    alpha_budget = 0.05
    sigma_budget = 0.49 * alpha_budget / 5.5
    mh, ih = sm.embed_invisible(cover, wm, ident, alpha_budget)
    noisy_h = sm.apply_attack(
        mh, sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=sigma_budget, seed=777)
    )
    survived = bool(np.array_equal(sm.recover_masked_bytes(noisy_h, ih), true_masked))
    w_noisy = sm.extract_invisible(noisy_h, ih, ident)
    w_clean = sm.extract_invisible(mh, ih, ident)
    print(f"OBSERVED sigma_budget={sigma_budget:.6f} bytes_survive={survived} "
          f"identical_w={bool(np.array_equal(w_noisy, w_clean))}")

    print("# --- color strategies ---")
    img = sm.synthetic_rgb(128, 128, seed=55)
    wm_small = sm.synthetic_image(128, 128, 66, roughness=1.2, contrast=70.0)
    marked_img, bundle = sm.embed_color(
        img, wm_small, sm.ChannelStrategy.LUMINANCE, sm.SchemeTag.SEMI_BLIND, alpha=0.05
    )
    nc_lum = sm.normalized_correlation(
        sm.extract_color(marked_img, bundle, sm.ChannelStrategy.LUMINANCE), wm_small
    )
    rounded = sm.RgbImage(*(np.clip(np.rint(p), 0, 255) for p in marked_img.channels()))
    nc_lum_8bit = sm.normalized_correlation(
        sm.extract_color(rounded, bundle, sm.ChannelStrategy.LUMINANCE), wm_small
    )
    print(f"OBSERVED color luminance nc_float={nc_lum!r} nc_8bit={nc_lum_8bit!r}")
    clipped = [
        (float(p.min()), float(p.max())) for p in marked_img.channels()
    ]
    print(f"OBSERVED marked channel ranges: {clipped}")

    marked_hash, bundle_hash = sm.embed_color(
        img, wm_small, sm.ChannelStrategy.BLUE_CHANNEL, sm.SchemeTag.HASH_CODE,
        alpha=0.05, identity=ident,
    )
    wrong_color = []
    for i in range(20):
        other = sm.Identity.from_string(f"color-wrong-{i:03d}|n")
        w_bad = sm.extract_color(
            marked_hash, bundle_hash, sm.ChannelStrategy.BLUE_CHANNEL, identity=other
        )
        wrong_color.append(sm.normalized_correlation(w_bad, wm_small))
    print(f"OBSERVED color wrong-id max_abs={np.abs(wrong_color).max():.5f}")

    print("# --- independent SVD oracle (scipy gesvd vs numpy gesdd) ---")
    worst_sv = 0.0
    for seed in range(100):
        a = np.random.Generator(np.random.PCG64(seed)).uniform(0, 255, (16, 16))
        sv_mine = sm.svd(a).sigma
        sv_oracle = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
        worst_sv = max(worst_sv, float(np.abs(sv_mine - sv_oracle).max()))
    for seed in range(100, 110):
        a = np.random.Generator(np.random.PCG64(seed)).uniform(0, 255, (256, 256))
        sv_mine = sm.svd(a).sigma
        sv_oracle = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
        worst_sv = max(worst_sv, float(np.abs(sv_mine - sv_oracle).max()))
    print(f"OBSERVED worst |sv - oracle| = {worst_sv:.3e}")

    print("# --- frozen test vectors ---")
    a8 = np.random.Generator(np.random.PCG64(42)).uniform(0, 255, (8, 8))
    sv8 = scipy.linalg.svd(as_matrix(a8), compute_uv=False, lapack_driver="gesvd")
    print("SEED42_8X8_SINGULAR_VALUES =", [round(float(x), 9) for x in sv8])
    rng = np.random.Generator(np.random.PCG64(42))
    print("PCG64_SEED42_NORMAL_SIGMA5_FIRST4 =",
          [float(x) for x in rng.normal(0.0, 5.0, 4)])
    probe = sm.derive_mask(sm.Identity(b"alice|1"), 2, 4)
    print("MASK_ALICE1_2X4 =", probe.tolist())
    noise = sm.apply_attack(
        np.zeros((256, 256)),
        sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=5.0, seed=42),
    )
    print(f"OBSERVED gaussian sigma=5 empirical std = {noise.std():.5f}")

    print(f"# total calibration time: {time.monotonic() - t0:.1f}s")


if __name__ == "__main__":
    main()
