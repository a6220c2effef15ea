"""Semi-blind watermarking: principal components of the watermark are
added to the cover's singular values.

Embedding computes ``marked = U (S + alpha * A_wa) V^T`` where ``U S V^T``
is the cover's SVD and ``A_wa = U_w S_w`` collects the watermark's
principal components.  Recovery projects back onto the cover's bases,
``A*_wa = (U^T marked V - S) / alpha``, and never rebuilds the cover.
The detector does not need the cover or watermark images, only the side
info captured at embed time (the exact cover factors, the watermark's
right singular vectors ``V_w``, and ``alpha``).
The keyed scheme's payload ``quantize(A_wa) XOR h_id`` takes the place
of ``A_wa`` in the same algebra, so one core here embeds both schemes,
and the robustness sweep marks through its ``_mark`` step.
"""

import functools
import math
from enum import Enum

import numpy as np

from .errors import DimensionError, InvalidInput, InvalidKey, InvalidParameter, MalformedSideInfo
from .hashstream import derive_mask, quantize, xor_mask
from .matrix import (ORTHOGONALITY_TOL, SvdFactors, _map, _trusted, as_matrix,
                     orthogonality_residual, svd)

# Default embedding strength; strong enough to survive mild distortion
# while keeping the marked image visually close to the cover.
DEFAULT_ALPHA = 0.1


class SchemeTag(str, Enum):
    SEMI_BLIND = "semi-blind"
    HASH_CODE = "hash-code"


def _check_alpha(alpha):
    """``alpha`` as a float, or ``InvalidParameter``: recovery divides by
    it, so it must be finite and positive.  The one alpha check, run by
    ``SideInfo`` (so by every key load), the embed core and the sweep."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidParameter(f"alpha must be finite and positive, got {alpha}")
    return alpha


class SideInfo(SvdFactors):
    """Everything the detector needs, captured at embed time.

    Stores the exact cover factors (``u``, ``sigma``, ``v``) rather than
    the cover image: recomputing the SVD later could flip singular-vector
    signs and break the inversion.  ``alpha`` is finite and positive, so
    the embedding is invertible.  Never contains the identity or the
    derived mask.  Treat as read-only.  Built by a caller or a key load, it
    runs every ``SvdFactors`` check and more; an embed builds it unchecked.
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
        self.alpha = _check_alpha(alpha)
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


def _mark(f, cover, payload, alpha):
    """The schemes' forward algebra on the cover's factors ``f``,
    ``U (S + alpha payload) V^T``.  Returns the marked image and its mean
    squared error against ``cover``; an alpha that overflows either is
    rejected here."""
    t = alpha * payload
    t[np.diag_indices(f.sigma.size)] += f.sigma
    marked = as_matrix(f.u @ t @ f.v.T, "marked")
    with np.errstate(over="ignore"):
        d = marked - cover
        mse = float(np.mean(np.square(d, out=d)))
    if mse == math.inf:
        raise InvalidParameter(f"alpha {alpha} overflows the marked image's PSNR")
    return marked, mse


def _unmark(f, marked, alpha, basis=None):
    """Inverse of ``_mark``, then projected onto ``basis`` (``V_w``) if given.
    The one check of every reader's and the sweep's recovery: NaN or Inf
    entries (an overflowing marked image, a tiny alpha) are refused here."""
    t = f.u.T @ marked @ f.v
    t[np.diag_indices(f.sigma.size)] -= f.sigma
    t /= alpha
    if basis is not None:
        t = t @ basis.T
    return as_matrix(t, f"the watermark recovered at alpha {alpha}")


def embed(cover, watermark, alpha=DEFAULT_ALPHA):
    """Embed ``watermark`` into ``cover`` with strength ``alpha``.

    Returns ``(marked, side_info)``, the marked image real-valued (clipping
    to 8 bits is a file-format concern).  ``alpha`` must be finite, positive
    and large enough to recover from (``InvalidParameter``).
    """
    (marked,), (info,) = _embed_planes([cover], watermark, SchemeTag.SEMI_BLIND, alpha, None)
    return marked, info


def _embed_planes(planes, watermark, scheme, alpha, identity):
    """Either scheme's embed of one watermark into same-shaped cover planes.

    The one place that decides between the schemes: the keyed scheme takes
    an identity and builds its masked payload once for every plane.  All
    arguments are checked before the first SVD, bar an alpha too small for
    a plane's sigma (or, keyed, to round back from); side infos are built
    unchecked from fresh ``svd`` factors.  The watermark's split and the
    planes' SVDs run side by side through ``_map``, the watermark's on the
    calling thread; the marking products follow in order on that thread.
    Returns ``(marked_planes, side_infos)``.
    """
    scheme = SchemeTag(scheme)
    cover, w = _conforming_pair(planes[0], watermark)
    keyed = scheme is SchemeTag.HASH_CODE
    if keyed != (identity is not None):
        need = "requires an" if keyed else "takes no"
        raise InvalidKey(f"{scheme.value} embedding {need} identity")
    mask = derive_mask(identity, *w.shape) if keyed else None
    alpha = _check_alpha(alpha)
    # The keyed scheme rounds its recovery, whose float error reached 1.6x
    # eps sigma_0 sqrt(max(M, N)) / alpha (scripts/calibrate_thresholds.py):
    # keeping that below 0.1 leaves the 0.5 rounding budget a wide margin.
    limit = 0.1 / (np.finfo(float).eps * math.sqrt(max(w.shape))) if keyed else math.inf
    covers = (cover, *planes[1:])

    def factor(p):
        f = svd(p)
        if not float(f.sigma[0]) / alpha < limit:
            raise InvalidParameter(f"alpha {alpha} is too small to recover a mark from")
        return f

    # The lowest failing job's error is raised: the watermark's, then each plane's in turn.
    jobs = [lambda: split_watermark(w)] + [functools.partial(factor, p) for p in covers]
    (payload, v_w), *factors = _map(lambda job: job(), jobs)
    quant = None
    if keyed:
        payload, quant = quantize(payload)
        payload = xor_mask(payload, mask).astype(np.float64)
    marked, infos = [], []
    for p, f in zip(covers, factors):
        infos.append(_trusted(SideInfo, **vars(f), v_w=v_w, alpha=alpha, rows=p.shape[0],
                              cols=p.shape[1], scheme=scheme, quant=quant))
        marked.append(_mark(f, p, payload, alpha)[0])
    return marked, infos


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
    return _unmark(info, marked, info.alpha)


def extract(marked, info):
    """Recover the watermark from a (possibly distorted) marked image."""
    _require_scheme(info, SchemeTag.SEMI_BLIND)
    a_wa_star = recover_principal_components(marked, info)
    return a_wa_star @ info.v_w.T


def _require_scheme(info, scheme):
    if info.scheme is not scheme:
        raise MalformedSideInfo(f"expected {scheme.value} side info, got {info.scheme.value}")


def detect_reference(marked, info, reference):
    """Project the components recovered from ``marked`` onto the right
    singular vectors of ``reference``, whose shape must be the key's (checked
    before its SVD).  The true watermark reproduces the extraction; an
    unrelated image correlates with the result well below that score."""
    return _detect_reference(marked, info, reference, lambda: svd(reference).v)


def _detect_reference(marked, info, reference, basis):
    """``detect_reference``, the reference's ``V`` from ``basis()`` once every check passed."""
    _require_scheme(info, SchemeTag.SEMI_BLIND)
    reference = as_matrix(reference, "reference")
    if reference.shape != (info.rows, info.cols):
        raise DimensionError(f"reference {reference.shape} does not match side info "
                             f"{(info.rows, info.cols)}")
    return recover_principal_components(marked, info) @ basis().T
