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
from .matrix import as_matrix, svd
from .semiblind import _conforming_pair, _mark, _unmark, split_watermark

PEAK = 255.0


def psnr(a, b):
    """Peak signal-to-noise ratio in dB with peak 255; +inf when equal."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _psnr(a, b)


def _psnr(a, b):
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    if mse == math.inf:  # the squared error overflowed; log10(0) would warn
        return -math.inf
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
    return _correlate(_centred(a), _centred(b), stacklevel=3)


def _centred(a):
    """The flattened, mean-centred matrix and its squared norm."""
    ac = (a - a.mean()).ravel()
    return ac, float(ac @ ac)


def _correlate(a, b, stacklevel):
    """``normalized_correlation`` of two ``_centred`` matrices."""
    (ac, da), (bc, db) = a, b
    if da == 0.0 or db == 0.0:
        warnings.warn("normalized_correlation of a constant matrix is defined as 0",
                      RuntimeWarning, stacklevel=stacklevel)
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
    return _attack(spec, a.shape)(a)


def _attack(spec, shape):
    """Check ``spec`` against an image shape and return the attack as a
    function of a valid matrix of that shape.

    Everything that does not depend on the image, such as the seeded
    noise, is computed here once, so a sweep can reuse it for every alpha.
    """
    if spec.kind is AttackKind.GAUSSIAN_NOISE:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        noise = rng.normal(0.0, spec.sigma, shape)
        return lambda a: a + noise
    if spec.kind is AttackKind.QUANTIZE_8BIT:
        return lambda a: np.clip(np.rint(a), 0.0, 255.0)
    if spec.kind is AttackKind.CROP:
        r0, c0, h, w = spec.rect
        if r0 + h > shape[0] or c0 + w > shape[1]:
            raise InvalidParameter(f"crop rect {spec.rect} exceeds image {shape}")

        def crop(a):
            out = a.copy()
            out[r0 : r0 + h, c0 : c0 + w] = a.mean()
            return out

        return crop
    if spec.kind is AttackKind.RESCALE:
        rows, cols = shape
        down_r = max(1, int(round(rows * spec.scale)))
        down_c = max(1, int(round(cols * spec.scale)))
        return lambda a: resize_bilinear(resize_bilinear(a, down_r, down_c), rows, cols)
    raise InvalidParameter(f"unknown attack kind {spec.kind}")


def resize_bilinear(a, rows, cols):
    """Bilinear resample onto a rows x cols grid (endpoints aligned)."""
    a = as_matrix(a, "a")
    if rows < 1 or cols < 1:
        raise InvalidParameter(f"target shape must be positive, got {rows}x{cols}")
    # Columns first, then rows: ``t`` holds the column-interpolated source
    # rows that the output reads (``slot`` renumbers them), so rows r0 and
    # r1 of ``t`` are the four-corner formula's top and bottom terms, bit
    # for bit, at fewer gathers.  The in-place updates round exactly like
    # ``x * w0 + y * w1``.
    r0, r1, fr = _bilinear_axis(a.shape[0], rows)
    c0, c1, fc = _bilinear_axis(a.shape[1], cols)
    read = np.zeros(a.shape[0], bool)
    read[r0] = read[r1] = True
    if not read.all():
        a = a[read]
        slot = np.cumsum(read) - 1
        r0, r1 = slot[r0], slot[r1]
    t = np.take(a, c0, axis=1)
    t *= 1.0 - fc
    t += np.take(a, c1, axis=1) * fc
    fr = fr[:, None]
    out = np.take(t, r0, axis=0)
    out *= 1.0 - fr
    out += np.take(t, r1, axis=0) * fr
    return out


def _bilinear_axis(n, size):
    """Source indices either side of ``size`` points spanning ``0..n-1``,
    and the fractional weight of the upper one."""
    x = np.linspace(0.0, n - 1.0, size)
    i0 = np.floor(x).astype(int)
    return i0, np.minimum(i0 + 1, n - 1), x - i0


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
    the attacked image.  Everything that does not depend on alpha is
    done once per sweep: the cover and watermark SVDs, each attack's
    checks and seeded noise, and the centred watermark.  A sweep thus
    costs two SVDs whatever its length, and each row equals what
    ``embed``, ``apply_attack``, ``extract`` and ``normalized_correlation``
    give for its alpha, to the bit.
    """
    cover, watermark = _conforming_pair(cover, watermark)
    alphas = [float(x) for x in alphas]
    attacks = list(attacks)
    if not alphas or not attacks:
        raise InvalidParameter("alphas and attacks must be non-empty")
    if not all(math.isfinite(x) and x > 0 for x in alphas):
        raise InvalidParameter("sweep alphas must be finite and positive")
    attack_fns = [_attack(spec, cover.shape) for spec in attacks]
    f = svd(cover)
    a_wa, v_w = split_watermark(watermark)
    centred_wm = _centred(watermark)
    rows = []
    for alpha in alphas:
        marked = _mark(f.u, f.sigma, f.v, a_wa, alpha)
        fidelity = _psnr(cover, marked)
        if fidelity == -math.inf:
            raise InvalidParameter(f"sweep alpha {alpha} overflows the marked image's PSNR")
        for spec, attack in zip(attacks, attack_fns):
            w_star = _unmark(f.u, f.sigma, f.v, attack(marked), alpha) @ v_w.T
            centred = _centred(w_star)
            if not math.isfinite(centred[1]):
                # A NaN or Inf entry lands here (so does a norm that merely
                # overflows); reject the former as normalized_correlation does.
                as_matrix(w_star, "a")
            rows.append(
                SweepRow(
                    alpha=alpha,
                    attack=spec,
                    psnr_db=fidelity,
                    nc=_correlate(centred, centred_wm, stacklevel=2),
                )
            )
    return RobustnessReport(rows=tuple(rows))
