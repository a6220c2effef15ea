"""Frozen bounds from the pre-build calibration run.

Produced by ``python scripts/calibrate_thresholds.py``; the OBSERVED
comments record the measured values, the constants add safety slack and
are what the tests enforce.  Regenerate after changing the synthetic
image generators or embedding defaults.
"""

# Seeds defining the canonical 256x256 test scene.
COVER_SEED = 1001
WM_SEED = 2002
REF_SEEDS = list(range(3000, 3020))
EMBED_ID = "alice|8f3a9c"

# Semi-blind scheme.
SEMIBLIND_CLEAN_NC_MIN = 0.999       # observed 1.0
SEMIBLIND_CLEAN_MAX_ABS = 1e-8       # observed 9.7e-12
NOISE_SIGMA2_SEED = 4242
NOISE_SIGMA2_NC_MIN = 0.95           # observed 0.956753
REFERENCE_GAP_MIN = 0.30             # observed min gap 0.3433 over 20 seeds

# Hash-code scheme.
HASH_ALPHAS = (1e-3, 0.05, 0.1)
HASH_NC_MIN = 0.99                   # observed 0.998115 at every alpha
HASH_NC_CANONICAL_MIN = 0.995        # tighter bound for the canonical scene
WRONG_ID_COUNT = 100
WRONG_ID_MEAN_ABS_MAX = 0.05         # observed |mean| = 0.0117
WRONG_ID_MAX_ABS = 0.2               # observed max |nc| = 0.0179
CHI2_SIGNIFICANCE = 0.01             # observed p = 0.8121
NOISE_BUDGET_ALPHA = 0.05
NOISE_BUDGET_SIGMA = 0.004455        # observed: bytes exact, extraction identical
NOISE_BUDGET_SEED = 777

# Forged V_w (tests/test_security_claims.py): the owner's 128x128 canonical
# embeds at alpha 0.1, V_w swapped for that of each forger's image (the
# reference generator at these seeds), scored against that image.
FORGER_SEEDS = list(range(5000, 5040))
FORGED_VW_KEYED_NC_MAX = 0.15           # observed max |nc| = 0.0718, forger's own id
FORGED_VW_SEMIBLIND_NC_BEST_MIN = 0.5   # observed best nc = 0.645 (median 0.196)

# Mask statistics.
MASK_DIFF_FRACTION_MIN = 0.97        # observed 0.99756 (alice|1 vs alice|2, 64x64)
MASK_MEAN_CENTER = 127.5
MASK_MEAN_TOL = 12.0                 # observed worst deviation 6.36
AVALANCHE_TRIALS = 1000
AVALANCHE_MEAN_TOL = 0.005           # observed |mean - 0.5| = 2e-5
AVALANCHE_TRIAL_TOL = 0.02           # observed worst per-trial deviation 0.0104

# Analysis / attacks.
PSNR_MONOTONE_SLACK_DB = 0.1         # observed strictly decreasing
GAUSS_SIGMA5_STD_TOL = 0.15          # observed empirical std 5.01422 (seed 42)

# Color strategies.
COLOR_LUMINANCE_NC_FLOAT_MIN = 0.999  # observed 1.0
COLOR_LUMINANCE_NC_8BIT_MIN = 0.98    # observed 0.985264
COLOR_WRONG_ID_MAX = 0.2              # observed max |nc| = 0.0276

# Independent SVD oracle (scipy gesvd vs the packaged decomposition).
SV_ORACLE_ABS_TOL = 1e-9             # observed worst difference 7.3e-12

# Fixed vectors pinning the PRNG, digest, and generator identities.
SEED42_8X8_SINGULAR_VALUES = [
    1111.036440383, 311.460311595, 247.489590761, 208.976169693,
    128.520137029, 96.86864958, 51.853815309, 14.0861419,
]
PCG64_SEED42_NORMAL_SIGMA5_FIRST4 = [
    1.5235853987721568, -5.199920531202478,
    3.7522559790322862, 4.7028235819560695,
]
MASK_ALICE1_2X4 = [[55, 158, 50, 40], [133, 152, 95, 141]]

# SHA-256 of ``robustness_sweep(...).to_csv()`` on the canonical 256x256
# scene with the sweep-256 benchmark's grid at seed 0: alphas 0.05, 0.10,
# ..., 0.50 and attacks gaussian-noise (sigma 2, seed 7), quantize-8bit,
# crop (32, 32, 64, 64) and rescale 0.5.  Recorded before the sweep's
# recovery moved from subtracting the rebuilt cover to ``U^T M V - S``.
SWEEP_256_CSV_SHA256 = "8d32d79feb7b66d9713bcd47fcb87de7314d12d92fb13b69764686d81fc0da45"
