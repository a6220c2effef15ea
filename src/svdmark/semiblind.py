"""Semi-blind watermarking: principal components of the watermark are
added to the cover's singular values.

Embedding computes ``marked = U (S + alpha * A_wa) V^T`` where ``U S V^T``
is the cover's SVD and ``A_wa = U_w S_w`` collects the watermark's
principal components.  Recovery projects back onto the cover's bases,
``A*_wa = (U^T marked V - S) / alpha``, and never rebuilds the cover.
The detector does not need the cover or watermark images, only the side
info captured at embed time (the exact cover factors, the watermark's
right singular vectors ``V_w``, and ``alpha``).
"""

import math
from enum import Enum

import numpy as np

from .errors import (
    DegenerateKey,
    DimensionError,
    InvalidInput,
    InvalidParameter,
    MalformedSideInfo,
)
from .matrix import ORTHOGONALITY_TOL, SvdFactors, as_matrix, orthogonality_residual, svd

# Default embedding strength; strong enough to survive mild distortion
# while keeping the marked image visually close to the cover.
DEFAULT_ALPHA = 0.1

# Looser orthogonality gate for externally supplied reference factors.
REFERENCE_ORTHOGONALITY_TOL = 1e-6


class SchemeTag(str, Enum):
    SEMI_BLIND = "semi-blind"
    HASH_CODE = "hash-code"


class SideInfo(SvdFactors):
    """Everything the detector needs, captured at embed time.

    Stores the exact cover factors (``u``, ``sigma``, ``v``, checked as
    ``SvdFactors`` are) rather than the cover image: recomputing the SVD
    later could flip singular-vector signs and break the inversion.
    Never contains the identity or the derived mask.  Treat as read-only
    once constructed.
    """

    def __init__(self, u, s, v, v_w, alpha, rows, cols,
                 scheme=SchemeTag.SEMI_BLIND, quant=None):
        super().__init__(u, s, v)
        self.v_w = as_matrix(v_w, "v_w")
        self.scheme = SchemeTag(scheme)
        self.rows, self.cols, self.quant = rows, cols, quant
        if (len(self.u), len(self.v)) != (rows, cols) or self.v_w.shape != self.v.shape:
            raise DimensionError(f"factor shapes do not conform to {rows}x{cols}")
        if orthogonality_residual(self.v_w) > ORTHOGONALITY_TOL:
            raise InvalidInput("v_w is not orthogonal")
        self.alpha = float(alpha)
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise InvalidParameter(f"alpha must be finite and non-negative, got {self.alpha}")
        if self.scheme is SchemeTag.HASH_CODE and quant is None:
            raise MalformedSideInfo("hash-code side info requires quantization params")
        if self.scheme is SchemeTag.SEMI_BLIND and quant is not None:
            raise MalformedSideInfo("semi-blind side info must not carry quantization params")


def split_watermark(w):
    """Split the watermark into principal components and ``V_w``.

    Returns ``(a_wa, v_w)`` with ``a_wa = U_w @ S_w``, so that
    ``a_wa @ v_w.T`` reproduces the watermark.
    """
    f = svd(w)
    k = f.sigma.size
    # ``+ 0.0`` turns a zero singular value times a negative entry from
    # -0.0 into the +0.0 that ``U_w @ S_w`` gives, so keys keep their bits.
    return np.pad(f.u[:, :k] * f.sigma + 0.0, ((0, 0), (0, len(f.v) - k))), f.v


def _conforming_pair(cover, watermark):
    """Coerce ``cover`` and ``watermark`` to matrices of one shape."""
    cover = as_matrix(cover, "cover")
    watermark = as_matrix(watermark, "watermark")
    if cover.shape != watermark.shape:
        raise DimensionError(
            f"cover {cover.shape} and watermark {watermark.shape} must have equal shape"
        )
    return cover, watermark


def _mark(u, sigma, v, payload, alpha):
    """The scheme's forward algebra on precomputed cover factors,
    ``U (S + alpha payload) V^T``; a marked image that overflows is
    rejected here."""
    t = alpha * payload
    t[np.diag_indices(sigma.size)] += sigma
    return as_matrix(u @ t @ v.T, "marked")


def _unmark(u, sigma, v, marked, alpha):
    """Inverse of ``_mark``: ``U`` and ``V`` are orthogonal, so projecting
    onto them leaves ``S + alpha * payload``."""
    t = u.T @ marked @ v
    t[np.diag_indices(sigma.size)] -= sigma
    return t / alpha


def embed(cover, watermark, alpha=DEFAULT_ALPHA):
    """Embed ``watermark`` into ``cover`` with strength ``alpha``.

    Returns ``(marked, side_info)``.  The marked image is real-valued;
    clipping to an 8-bit range is a file-format concern, not part of the
    scheme.  ``alpha = 0`` produces the cover unchanged and yields side
    info that extraction refuses (useful only in tests).
    """
    cover, watermark = _conforming_pair(cover, watermark)
    return _embed_payload(cover, *split_watermark(watermark), alpha, SchemeTag.SEMI_BLIND)


def _embed_payload(cover, payload, v_w, alpha, scheme, quant=None):
    """Both schemes' embed core: mark ``cover`` with a prepared payload.
    The side info is built first, so its alpha check runs before marking."""
    f = svd(cover)
    info = SideInfo(f.u, f.sigma, f.v, v_w, alpha, *cover.shape, scheme, quant)
    marked = _mark(f.u, f.sigma, f.v, payload, info.alpha)
    with np.errstate(over="ignore"):
        if np.mean((marked - cover) ** 2) == math.inf:
            raise InvalidParameter(f"alpha {info.alpha} overflows the marked image's PSNR")
    return marked, info


def recover_principal_components(marked, info):
    """Undo the embedding algebra, returning the recovered ``A*_wa``.

    Computes ``A*_wa = (U^T marked V - S) / alpha``: U and V are
    orthogonal, so their inverses are the transposes, and the cover is
    never rebuilt.  Shared by both schemes; callers enforce the scheme tag.
    """
    marked = as_matrix(marked, "marked")
    if marked.shape != (info.rows, info.cols):
        raise DimensionError(
            f"marked image {marked.shape} does not match side info "
            f"{(info.rows, info.cols)}"
        )
    if info.alpha == 0:
        raise DegenerateKey("side info has alpha = 0; embedding is not invertible")
    return _unmark(info.u, info.sigma, info.v, marked, info.alpha)


def extract(marked, info):
    """Recover the watermark from a (possibly distorted) marked image."""
    _require_scheme(info, SchemeTag.SEMI_BLIND)
    a_wa_star = recover_principal_components(marked, info)
    return a_wa_star @ info.v_w.T


def _require_scheme(info, scheme):
    if info.scheme is not scheme:
        raise MalformedSideInfo(f"expected {scheme.value} side info, got {info.scheme.value}")


def detect_reference(a_wa_star, v_ref):
    """Project recovered principal components onto a reference basis.

    With the true watermark's ``V_w`` this reproduces the extracted
    watermark; with the right singular vectors of an unrelated image it
    yields a heavily distorted rendition whose correlation against that
    image stays well below the true-watermark score.
    """
    a = as_matrix(a_wa_star, "a_wa_star")
    v = as_matrix(v_ref, "v_ref")
    if v.shape[0] != v.shape[1] or a.shape[1] != v.shape[0]:
        raise DimensionError(f"reference basis {v.shape} does not conform to {a.shape}")
    if orthogonality_residual(v) > REFERENCE_ORTHOGONALITY_TOL:
        raise InvalidInput("reference basis is not orthogonal")
    return a @ v.T
