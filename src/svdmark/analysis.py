"""Fidelity metrics, attack simulation, and robustness sweeps.

All stochastic attacks draw from numpy's PCG64 generator seeded per
attack spec, so a sweep reproduces bit-for-bit from its inputs.  The
detection statistic everywhere is mean-centered (Pearson) correlation:
extraction residue has a non-zero mean after quantization, and centering
keeps wrong-key scores concentrated near zero.
"""

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, InvalidParameter
from .matrix import as_matrix, reconstruct, svd
from .semiblind import _conforming_pair, _mark, _unmark, split_watermark

PEAK = 255.0


def psnr(a, b):
    """Peak signal-to-noise ratio in dB with peak 255; +inf when equal."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(PEAK * PEAK / mse))


def normalized_correlation(a, b):
    """Pearson correlation of the mean-centered, flattened matrices.

    Constant inputs have no correlation structure; the score is defined
    as 0.0 and a RuntimeWarning is emitted.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    ac = (a - a.mean()).ravel()
    bc = (b - b.mean()).ravel()
    da = float(ac @ ac)
    db = float(bc @ bc)
    if da == 0.0 or db == 0.0:
        warnings.warn("normalized_correlation of a constant matrix is defined as 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    # Exact fixed points; the general formula can miss them by one ulp.
    if np.array_equal(ac, bc):
        return 1.0
    if np.array_equal(ac, -bc):
        return -1.0
    nc = float(ac @ bc) / float(np.sqrt(da * db))
    return float(min(1.0, max(-1.0, nc)))


class AttackKind(str, Enum):
    GAUSSIAN_NOISE = "gaussian-noise"
    QUANTIZE_8BIT = "quantize-8bit"
    CROP = "crop"
    RESCALE = "rescale"


@dataclass(frozen=True)
class AttackSpec:
    """One attack with its parameters; stochastic kinds require a seed."""

    kind: AttackKind
    sigma: float | None = None
    rect: tuple[int, int, int, int] | None = None  # row0, col0, height, width
    scale: float | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", AttackKind(self.kind))
        if self.kind is AttackKind.GAUSSIAN_NOISE:
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma < 0:
                raise InvalidParameter("gaussian-noise needs sigma >= 0")
            if self.seed is None:
                raise InvalidParameter("gaussian-noise needs an explicit seed")
        elif self.kind is AttackKind.CROP:
            if self.rect is None or len(self.rect) != 4:
                raise InvalidParameter("crop needs rect = (row0, col0, height, width)")
            object.__setattr__(self, "rect", tuple(int(x) for x in self.rect))
            r0, c0, h, w = self.rect
            if r0 < 0 or c0 < 0 or h < 1 or w < 1:
                raise InvalidParameter(f"invalid crop rect {self.rect}")
        elif self.kind is AttackKind.RESCALE:
            if self.scale is None or not 0.0 < self.scale <= 1.0:
                raise InvalidParameter("rescale needs scale in (0, 1]")

    def params_label(self):
        """Canonical parameter string used in CSV reports."""
        if self.kind is AttackKind.GAUSSIAN_NOISE:
            return f"sigma={self.sigma:.6f}"
        if self.kind is AttackKind.CROP:
            r0, c0, h, w = self.rect
            return f"r0={r0};c0={c0};h={h};w={w}"
        if self.kind is AttackKind.RESCALE:
            return f"scale={self.scale:.6f}"
        return ""


def apply_attack(a, spec):
    """Apply one attack to an image matrix, returning a new matrix."""
    a = as_matrix(a, "a")
    if spec.kind is AttackKind.GAUSSIAN_NOISE:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        return a + rng.normal(0.0, spec.sigma, a.shape)
    if spec.kind is AttackKind.QUANTIZE_8BIT:
        return np.clip(np.rint(a), 0.0, 255.0)
    if spec.kind is AttackKind.CROP:
        r0, c0, h, w = spec.rect
        if r0 + h > a.shape[0] or c0 + w > a.shape[1]:
            raise InvalidParameter(f"crop rect {spec.rect} exceeds image {a.shape}")
        out = a.copy()
        out[r0 : r0 + h, c0 : c0 + w] = a.mean()
        return out
    if spec.kind is AttackKind.RESCALE:
        rows, cols = a.shape
        down_r = max(1, int(round(rows * spec.scale)))
        down_c = max(1, int(round(cols * spec.scale)))
        return resize_bilinear(resize_bilinear(a, down_r, down_c), rows, cols)
    raise InvalidParameter(f"unknown attack kind {spec.kind}")


def resize_bilinear(a, rows, cols):
    """Bilinear resample onto a rows x cols grid (endpoints aligned)."""
    a = as_matrix(a, "a")
    if rows < 1 or cols < 1:
        raise InvalidParameter(f"target shape must be positive, got {rows}x{cols}")
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


def resize_nearest(a, rows, cols):
    """Nearest-neighbor resample; explicit preprocessing for size mismatch."""
    a = as_matrix(a, "a")
    if rows < 1 or cols < 1:
        raise InvalidParameter(f"target shape must be positive, got {rows}x{cols}")
    r = np.minimum(((np.arange(rows) + 0.5) * a.shape[0] / rows).astype(int), a.shape[0] - 1)
    c = np.minimum(((np.arange(cols) + 0.5) * a.shape[1] / cols).astype(int), a.shape[1] - 1)
    return a[np.ix_(r, c)]


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    attack: AttackSpec
    psnr_db: float
    nc: float


@dataclass(frozen=True)
class RobustnessReport:
    """Sweep results; row order follows the input (alpha outer, attack inner)."""

    rows: tuple[SweepRow, ...]

    CSV_HEADER = "alpha,attack,params,seed,psnr_db,nc"

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for row in self.rows:
            seed = "" if row.attack.seed is None else str(row.attack.seed)
            lines.append(
                f"{row.alpha:.6f},{row.attack.kind.value},{row.attack.params_label()},"
                f"{seed},{row.psnr_db:.6f},{row.nc:.6f}"
            )
        return "\n".join(lines) + "\n"


def robustness_sweep(cover, watermark, alphas, attacks):
    """Embed, attack, extract for every (alpha, attack) combination.

    Deterministic given the attack seeds; the marked-image PSNR is
    measured before the attack, the correlation after extraction from
    the attacked image.  The cover and watermark SVDs and the rebuilt
    cover are computed once and shared by every alpha, so a sweep costs
    two SVDs whatever its length; each row equals what ``embed`` and
    ``extract`` give for its alpha, to the bit.
    """
    cover, watermark = _conforming_pair(cover, watermark)
    alphas = [float(x) for x in alphas]
    attacks = list(attacks)
    if not alphas or not attacks:
        raise InvalidParameter("alphas and attacks must be non-empty")
    if not all(math.isfinite(x) and x > 0 for x in alphas):
        raise InvalidParameter("sweep alphas must be finite and positive")
    f = svd(cover)
    a_wa, v_w = split_watermark(watermark)
    rebuilt = reconstruct(f)
    rows = []
    for alpha in alphas:
        marked = _mark(f.u, f.s, f.v, a_wa, alpha)
        fidelity = psnr(cover, marked)
        for spec in attacks:
            attacked = apply_attack(marked, spec)
            w_star = _unmark(f.u, f.v, attacked, rebuilt, alpha) @ v_w.T
            rows.append(
                SweepRow(
                    alpha=float(alpha),
                    attack=spec,
                    psnr_db=fidelity,
                    nc=normalized_correlation(w_star, watermark),
                )
            )
    return RobustnessReport(rows=tuple(rows))
