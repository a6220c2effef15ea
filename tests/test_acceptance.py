"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with -s to see them inline).

Derived bounds live in thresholds.py, frozen from the calibration run
(scripts/calibrate_thresholds.py).
"""

import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import svdmark as sm

import thresholds as th
from conftest import dense_s, make_cover, make_reference, make_watermark, seeded_matrix


def report(n, text):
    print(f"ACCEPTANCE {n} PASS - {text}")


def test_criterion_1_svd_contract():
    start = time.monotonic()
    worst_recon, worst_orth, worst_sv = 0.0, 0.0, 0.0
    cases = [(seed, 16) for seed in range(100)] + [(100 + k, 256) for k in range(10)]
    for seed, n in cases:
        a = seeded_matrix(seed, n, n)
        f = sm.svd(a)
        worst_recon = max(worst_recon,
                          np.linalg.norm(f.u @ dense_s(f) @ f.v.T - a) / np.linalg.norm(a))
        worst_orth = max(worst_orth, sm.orthogonality_residual(f.u),
                         sm.orthogonality_residual(f.v))
        sv_oracle = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
        worst_sv = max(worst_sv, float(np.abs(f.sigma - sv_oracle).max()))
    elapsed = time.monotonic() - start
    assert worst_recon <= 1e-10
    assert worst_orth <= 1e-8
    assert worst_sv <= 1e-9
    assert elapsed < 10.0
    report(1, f"recon<={worst_recon:.2e} orth<={worst_orth:.2e} "
              f"sv-vs-oracle<={worst_sv:.2e} in {elapsed:.1f}s")


def test_criterion_2_semiblind_roundtrip(cover256, watermark256):
    start = time.monotonic()
    marked, info = sm.embed(cover256, watermark256, 0.1)
    w_star = sm.extract(marked, info)
    nc = sm.normalized_correlation(w_star, watermark256)
    max_abs = float(np.abs(w_star - watermark256).max())
    fidelity = sm.psnr(cover256, marked)
    elapsed = time.monotonic() - start
    assert nc >= 0.999
    assert max_abs <= 1e-8
    assert elapsed < 5.0
    report(2, f"nc={nc:.6f} max_abs={max_abs:.2e} marked_psnr={fidelity:.2f}dB "
              f"in {elapsed:.1f}s")


def test_criterion_3_reference_negative(cover256, watermark256):
    marked, info = sm.embed(cover256, watermark256, 0.1)
    nc_true = sm.normalized_correlation(sm.extract(marked, info), watermark256)
    worst_gap = float("inf")
    for seed in th.REF_SEEDS:
        ref = make_reference(seed)
        p_star = sm.detect_reference(marked, info, ref)
        gap = nc_true - sm.normalized_correlation(p_star, ref)
        worst_gap = min(worst_gap, gap)
        assert gap >= th.REFERENCE_GAP_MIN
    report(3, f"all {len(th.REF_SEEDS)} reference gaps >= {th.REFERENCE_GAP_MIN} "
              f"(worst {worst_gap:.4f})")


def test_criterion_4_hash_exactness(cover256, watermark256, identity):
    a_wa, _ = sm.split_watermark(watermark256)
    payload, quant = sm.quantize(a_wa)
    expected = sm.xor_mask(payload, sm.derive_mask(identity, 256, 256))
    ncs = []
    for alpha in th.HASH_ALPHAS:
        marked, info = sm.embed_invisible(cover256, watermark256, identity, alpha)
        recovered = sm.recover_masked_bytes(marked, info)
        assert np.array_equal(recovered, expected), f"byte recovery broke at alpha={alpha}"
        w_star = sm.extract_invisible(marked, info, identity)
        half_step = (info.quant.hi - info.quant.lo) / 510
        assert np.abs(sm.dequantize(recovered ^ sm.derive_mask(identity, 256, 256),
                                    info.quant) - a_wa).max() <= half_step
        nc = sm.normalized_correlation(w_star, watermark256)
        assert nc >= 0.99
        ncs.append(nc)
    report(4, f"bytes exact at alphas {th.HASH_ALPHAS}, nc={min(ncs):.6f}")


def test_criterion_5_key_binding_and_uniformity(cover256, watermark256, identity):
    marked, info = sm.embed_invisible(cover256, watermark256, identity, 0.05)
    scores = []
    for i in range(th.WRONG_ID_COUNT):
        wrong = sm.Identity.from_string(f"wrong-{i:04d}|nonce")
        w_bad = sm.extract_invisible(marked, info, wrong)
        scores.append(sm.normalized_correlation(w_bad, watermark256))
    scores = np.array(scores)
    mean = float(scores.mean())
    worst = float(np.abs(scores).max())
    assert abs(mean) <= th.WRONG_ID_MEAN_ABS_MAX
    assert worst <= th.WRONG_ID_MAX_ABS
    masked = sm.recover_masked_bytes(marked, info)
    counts = np.bincount(masked.ravel(), minlength=256)
    pvalue = float(scipy.stats.chisquare(counts).pvalue)
    assert pvalue >= th.CHI2_SIGNIFICANCE
    report(5, f"wrong-id mean={mean:+.4f} max|nc|={worst:.4f} chi2 p={pvalue:.3f}")


def test_criterion_6_xor_and_avalanche():
    rng = np.random.Generator(np.random.PCG64(2024))
    xs = rng.integers(0, 256, size=(10_000, 16, 16), dtype=np.uint8)
    ms = rng.integers(0, 256, size=(10_000, 16, 16), dtype=np.uint8)
    failures = 0
    for x, m in zip(xs, ms):
        if not np.array_equal(sm.xor_mask(sm.xor_mask(x, m), m), x):
            failures += 1
    assert failures == 0

    ident = sm.Identity.from_string("determinism|check")
    assert np.array_equal(sm.derive_mask(ident, 32, 32), sm.derive_mask(ident, 32, 32))

    base = b"avalanche-base|00"
    base_bits = np.unpackbits(sm.derive_mask(sm.Identity(base), 64, 64).ravel())
    fracs = np.empty(th.AVALANCHE_TRIALS)
    for t in range(th.AVALANCHE_TRIALS):
        pos = t % (len(base) * 8)
        flipped = bytearray(base)
        flipped[pos // 8] ^= 1 << (pos % 8)
        suffix = (t // (len(base) * 8)).to_bytes(2, "big")
        bits = np.unpackbits(
            sm.derive_mask(sm.Identity(bytes(flipped) + suffix), 64, 64).ravel()
        )
        fracs[t] = np.mean(bits != base_bits)
    assert abs(fracs.mean() - 0.5) <= th.AVALANCHE_MEAN_TOL
    assert np.abs(fracs - 0.5).max() <= th.AVALANCHE_TRIAL_TOL
    report(6, f"10^4 involutions clean; avalanche mean={fracs.mean():.5f} "
              f"worst dev={np.abs(fracs - 0.5).max():.4f}")


def test_criterion_7_color_strategies():
    img = sm.synthetic_rgb(128, 128, seed=55)
    wm = sm.synthetic_image(128, 128, 66, roughness=1.2, contrast=70.0)

    merged = sm.luminance_merge(img, sm.luminance_split(img))
    for before, after in zip(img.channels(), merged.channels()):
        assert np.array_equal(before, after)

    marked_blue, _ = sm.embed_color(img, wm, sm.ChannelStrategy.BLUE_CHANNEL,
                                    sm.SchemeTag.SEMI_BLIND, alpha=0.1)
    assert np.array_equal(marked_blue.r, img.r)
    assert np.array_equal(marked_blue.g, img.g)

    plane = sm.synthetic_image(128, 128, 77, roughness=1.8, contrast=30.0)
    grey = sm.RgbImage(r=plane, g=plane, b=plane)
    marked_grey, bundle = sm.embed_color(grey, wm, sm.ChannelStrategy.PER_CHANNEL,
                                         sm.SchemeTag.SEMI_BLIND, alpha=0.05)
    estimates = [sm.extract(p, i) for p, i in zip(marked_grey.channels(), bundle.infos)]
    spread = max(np.abs(estimates[0] - estimates[1]).max(),
                 np.abs(estimates[1] - estimates[2]).max())
    assert spread <= 1e-8
    report(7, f"luminance identity bitwise, blue isolation bitwise, "
              f"grey per-channel spread={spread:.2e}")


def test_criterion_8_sweep_determinism(cover256, watermark256):
    alphas = [0.02, 0.05, 0.1, 0.2]
    attacks = [
        sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=2.0, seed=7),
        sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT),
    ]
    csv1 = sm.robustness_sweep(cover256, watermark256, alphas, attacks).to_csv()
    csv2 = sm.robustness_sweep(cover256, watermark256, alphas, attacks).to_csv()
    assert csv1.encode() == csv2.encode()
    psnrs = [float(line.split(",")[4]) for line in csv1.strip().split("\n")[1:]]
    per_alpha = psnrs[:: len(attacks)]
    for earlier, later in zip(per_alpha, per_alpha[1:]):
        assert later <= earlier + th.PSNR_MONOTONE_SLACK_DB
    report(8, f"identical CSV bytes across runs; psnr by alpha "
              f"{[f'{p:.2f}' for p in per_alpha]}")


def test_criterion_9_cli_end_to_end(tmp_path):
    start = time.monotonic()
    paths = {name: str(tmp_path / name) for name in (
        "cover.pgm", "wm.pgm", "ref.pgm", "marked.svdf", "key.json", "w.svdf")}
    sm.write_pgm(make_cover(), paths["cover.pgm"])
    sm.write_pgm(make_watermark(), paths["wm.pgm"])
    sm.write_pgm(make_reference(th.REF_SEEDS[0]), paths["ref.pgm"])

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "svdmark.cli", *argv],
                              capture_output=True, text=True)

    r = cli("embed", "--cover", paths["cover.pgm"], "--watermark", paths["wm.pgm"],
            "--alpha", "0.1", "--out", paths["marked.svdf"], "--key", paths["key.json"])
    assert r.returncode == 0, r.stderr
    r = cli("extract", "--marked", paths["marked.svdf"], "--key", paths["key.json"],
            "--out", paths["w.svdf"])
    assert r.returncode == 0, r.stderr

    w_star = sm.read_float_image(paths["w.svdf"])
    wm = sm.read_pgm(paths["wm.pgm"])
    nc_true = sm.normalized_correlation(w_star, wm)
    assert nc_true >= 0.999
    assert np.abs(w_star - wm).max() <= 1e-8

    r = cli("detect-reference", "--marked", paths["marked.svdf"],
            "--key", paths["key.json"], "--reference", paths["ref.pgm"])
    assert r.returncode == 0, r.stderr
    nc_ref = float(r.stdout.split("nc=")[1])
    assert nc_true - nc_ref >= th.REFERENCE_GAP_MIN

    r = cli("metrics", "--a", paths["cover.pgm"], "--b", paths["marked.svdf"])
    assert r.returncode == 0, r.stderr
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(9, f"cli nc={nc_true:.6f} ref_nc={nc_ref:.4f} in {elapsed:.1f}s")
