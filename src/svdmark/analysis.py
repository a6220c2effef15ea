"""Fidelity metrics, attack simulation, and robustness sweeps.

All stochastic attacks draw from numpy's PCG64 generator seeded per
attack spec, so a sweep reproduces bit-for-bit from its inputs.  The
detection statistic everywhere is mean-centered (Pearson) correlation:
extraction residue has a non-zero mean after quantization, and centering
keeps wrong-key scores concentrated near zero.
"""

import contextvars
import math
import threading
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import DimensionError, InvalidParameter
from .matrix import as_matrix, svd
from .semiblind import _check_alpha, _conforming_pair, _mark, _unmark, split_watermark

PEAK = 255.0


def psnr(a, b):
    """Peak signal-to-noise ratio in dB with peak 255; +inf when equal."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _psnr(float(np.mean((a - b) ** 2)))


def _psnr(mse):
    if mse == 0.0:
        return float("inf")
    if mse == math.inf:  # the squared error overflowed; log10(0) would warn
        return -math.inf
    return float(10.0 * np.log10(PEAK * PEAK / mse))


def _fixed6(x):
    """``x`` in 6-decimal fixed point, unsigned when it rounds to zero."""
    text = f"{x:.6f}"
    return "0.000000" if text == "-0.000000" else text


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
    # The first entries rule most pairs out before a full scan.
    if ac[0] == bc[0] and np.array_equal(ac, bc):
        return 1.0
    if ac[0] == -bc[0] and np.array_equal(ac, -bc):
        return -1.0
    nc = float(ac @ bc) / float(np.sqrt(da * db))
    return float(min(1.0, max(-1.0, nc)))


class AttackKind(str, Enum):
    GAUSSIAN_NOISE = "gaussian-noise"
    QUANTIZE_8BIT = "quantize-8bit"
    CROP = "crop"
    RESCALE = "rescale"


# The parameters each attack kind reads, in AttackSpec field order.
_ATTACK_PARAMS = {
    AttackKind.GAUSSIAN_NOISE: ("sigma", "seed"),
    AttackKind.QUANTIZE_8BIT: (),
    AttackKind.CROP: ("rect",),
    AttackKind.RESCALE: ("scale",),
}


@dataclass(frozen=True)
class AttackSpec:
    """One attack with exactly the parameters its kind reads (a seed, if stochastic)."""

    kind: AttackKind
    sigma: float | None = None
    rect: tuple[int, int, int, int] | None = None  # row0, col0, height, width
    scale: float | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", AttackKind(self.kind))
        wanted = _ATTACK_PARAMS[self.kind]
        given = tuple(f.name for f in fields(self)[1:] if getattr(self, f.name) is not None)
        if given != wanted:
            takes = " and ".join(wanted) or "no parameters"
            raise InvalidParameter(f"{self.kind.value} takes {takes}, "
                                   f"got {', '.join(given) or 'none'}")
        if self.kind is AttackKind.GAUSSIAN_NOISE:
            if not np.isfinite(self.sigma) or self.sigma < 0:
                raise InvalidParameter("gaussian-noise needs sigma >= 0")
            if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
                raise InvalidParameter(f"gaussian-noise needs an integer seed >= 0, "
                                       f"got {self.seed!r}")
        elif self.kind is AttackKind.CROP:
            if len(self.rect) != 4:
                raise InvalidParameter("crop needs rect = (row0, col0, height, width)")
            object.__setattr__(self, "rect", tuple(int(x) for x in self.rect))
            r0, c0, h, w = self.rect
            if r0 < 0 or c0 < 0 or h < 1 or w < 1:
                raise InvalidParameter(f"invalid crop rect {self.rect}")
        elif self.kind is AttackKind.RESCALE:
            if not 0.0 < self.scale <= 1.0:
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

        def quantize(a):
            r = np.rint(a)
            return np.clip(r, 0.0, 255.0, out=r)

        return quantize
    if spec.kind is AttackKind.CROP:
        r0, c0, h, w = spec.rect
        if r0 + h > shape[0] or c0 + w > shape[1]:
            raise InvalidParameter(f"crop rect {spec.rect} exceeds image {shape}")

        def crop(a):
            out = a.copy()
            out[r0 : r0 + h, c0 : c0 + w] = a.mean()
            return out

        return crop
    rows, cols = shape  # AttackKind.RESCALE: AttackSpec admits no other kind
    down_r = max(1, int(round(rows * spec.scale)))
    down_c = max(1, int(round(cols * spec.scale)))
    return lambda a: resize_bilinear(resize_bilinear(a, down_r, down_c), rows, cols)


def resize_bilinear(a, rows, cols):
    """Bilinear resample onto a rows x cols grid (endpoints aligned)."""
    a = as_matrix(a, "a")
    if rows < 1 or cols < 1:
        raise InvalidParameter(f"target shape must be positive, got {rows}x{cols}")
    # Columns first, then rows: ``t`` holds the column-interpolated source
    # rows, so rows r0 and r1 of ``t`` are the four-corner formula's top
    # and bottom terms, bit for bit, at fewer gathers.  The in-place
    # updates round exactly like ``x * w0 + y * w1``.
    r0, r1, fr = _bilinear_axis(a.shape[0], rows)
    c0, c1, fc = _bilinear_axis(a.shape[1], cols)
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
                f"{seed},{_fixed6(row.psnr_db)},{_fixed6(row.nc)}"
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
    return _sweep(cover, watermark, alphas, attacks, workers=1)


def _sweep(cover, watermark, alphas, attacks, workers):
    """``robustness_sweep`` with its alphas spread over up to ``workers``
    threads.  Its rows equal the sequential sweep's only when BLAS runs
    on one thread, so the caller pins it for the whole sweep."""
    cover, watermark = _conforming_pair(cover, watermark)
    alphas = [_check_alpha(x) for x in alphas]
    attacks = list(attacks)
    if not alphas or not attacks:
        raise InvalidParameter("alphas and attacks must be non-empty")
    attack_fns = [_attack(spec, cover.shape) for spec in attacks]
    f = svd(cover)
    a_wa, v_w = split_watermark(watermark)
    centred_wm = _centred(watermark)

    def alpha_row(alpha):
        """The marked image's PSNR and each attack's NC at ``alpha``."""
        marked, mse = _mark(f, cover, a_wa, alpha)
        return _psnr(mse), [attack_nc(attack, marked, alpha) for attack in attack_fns]

    def attack_nc(attack, marked, alpha):
        # A function of its own, so that one attack's arrays are freed
        # before the next attack allocates its own.
        w_star = _unmark(f, attack(marked), alpha, v_w)
        return _correlate(_centred(w_star), centred_wm, stacklevel=2)

    return RobustnessReport(rows=tuple(
        SweepRow(alpha=alpha, attack=spec, psnr_db=fidelity, nc=nc)
        for alpha, (fidelity, ncs) in zip(alphas, _map(alpha_row, alphas, workers))
        for spec, nc in zip(attacks, ncs)
    ))


def _map(fn, items, workers):
    """``[fn(x) for x in items]`` on ``w = min(workers, len(items))``
    threads, the calling one included: thread ``k`` runs items ``k``,
    ``k + w``, ... and stops at its own first failure; the others finish
    theirs.  After the joins the lowest failing item's error is raised.
    Every item before it ran, since a thread stops only at its own failure."""
    w = max(1, min(workers, len(items)))
    results, failures = [None] * len(items), {}

    def work(k):
        for i in range(k, len(items), w):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised again below, in the calling thread
                failures[i] = exc
                return

    # Each helper runs in a copy of this thread's context: NumPy 2 keeps
    # errstate there, so the caller's ignored warnings stay ignored.
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work, k))
               for k in range(1, w)]
    for t in helpers:
        t.start()
    try:
        work(0)
    finally:
        for t in helpers:
            t.join()
    if failures:
        raise failures[min(failures)]
    return results
