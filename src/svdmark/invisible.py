"""Keyed invisible watermarking on top of the semi-blind scheme.

The watermark's principal components are quantized to bytes, XORed with
a mask derived from a secret identity, and only then embedded:
``S_1 = S + alpha * (quantize(A_wa) XOR h_id)``.  Without the identity
the committed payload is indistinguishable from uniform noise; with it,
extraction recovers the exact byte matrix and the watermark up to the
quantization half-step.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import semiblind
from .analysis import normalized_correlation
from .errors import DimensionError, InvalidKey, InvalidParameter
from .hashstream import dequantize, derive_mask, quantize, xor_mask
from .matrix import as_matrix
from .semiblind import (
    DEFAULT_ALPHA,
    SchemeTag,
    _embed_payload,
    _require_scheme,
    recover_principal_components,
    split_watermark,
)

DEFAULT_THRESHOLD = 0.9


class Verdict(str, Enum):
    VERIFIED = "verified"
    REJECTED = "rejected"


@dataclass(frozen=True)
class VerificationReport:
    nc_score: float
    decision: Verdict
    threshold: float


def embed_invisible(cover, watermark, identity, alpha=DEFAULT_ALPHA):
    """Commit ``watermark`` to ``identity`` inside ``cover``.

    Returns ``(marked, side_info)``.  The side info records the embed-time
    factors and quantization range but never the identity or the mask;
    the identity is the secret key.
    """
    planes = [as_matrix(cover, "cover")]
    (marked,), (info,) = _embed_planes(planes, watermark, SchemeTag.HASH_CODE, alpha, identity)
    return marked, info


def _embed_planes(planes, watermark, scheme, alpha, identity):
    """Either scheme's embed of one watermark into same-shaped cover planes.

    The one place that decides between the schemes: the keyed scheme takes
    an identity and a non-zero alpha, and its masked payload is built once
    and shared by every plane.  Returns ``(marked_planes, side_infos)``.
    """
    scheme = SchemeTag(scheme)
    w = as_matrix(watermark, "watermark")
    if w.shape != planes[0].shape:
        raise DimensionError(f"watermark {w.shape} does not match cover {planes[0].shape}")
    keyed = scheme is SchemeTag.HASH_CODE
    if keyed != (identity is not None):
        need = "requires an" if keyed else "takes no"
        raise InvalidKey(f"{scheme.value} embedding {need} identity")
    if keyed and float(alpha) == 0:
        raise InvalidParameter("hash-code embedding needs a non-zero alpha")
    payload, v_w = split_watermark(w)
    quant = None
    if keyed:
        payload, quant = quantize(payload)
        payload = xor_mask(payload, derive_mask(identity, *w.shape)).astype(np.float64)
    return tuple(zip(*(_embed_payload(p, payload, v_w, alpha, scheme, quant) for p in planes)))


def _extract_plane(marked, info, identity):
    """Either scheme's extract: the keyed path runs when ``identity`` is given."""
    if identity is not None:
        return extract_invisible(marked, info, identity)
    if info.scheme is SchemeTag.HASH_CODE:
        raise InvalidKey("hash-code extraction requires an identity")
    return semiblind.extract(marked, info)


def recover_masked_bytes(marked, info):
    """Recover the committed byte matrix from a marked image.

    Rounds the real-valued recovery to the nearest integer and clamps to
    0..255 so that small float residue cannot corrupt the XOR layer.  In
    the float pipeline the result equals the embedded bytes exactly.
    """
    _require_scheme(info, SchemeTag.HASH_CODE)
    masked_real = recover_principal_components(marked, info)
    return np.clip(np.rint(masked_real), 0, 255).astype(np.uint8)


def extract_invisible(marked, info, identity):
    """Recover the watermark; needs the identity used at embed time.

    A wrong identity unmasks to effectively random bytes and the result
    is uncorrelated with the committed watermark.
    """
    bytes_star = recover_masked_bytes(marked, info)
    payload = xor_mask(bytes_star, derive_mask(identity, info.rows, info.cols))
    a_wa = dequantize(payload, info.quant)
    return a_wa @ info.v_w.T


def verify_invisible(marked, info, identity, claimed, threshold=DEFAULT_THRESHOLD):
    """Extract with ``identity`` and compare against a claimed watermark."""
    threshold = float(threshold)
    if not 0.0 < threshold < 1.0:
        raise InvalidParameter(f"threshold must lie in (0, 1), got {threshold}")
    w_star = extract_invisible(marked, info, identity)
    nc = normalized_correlation(w_star, as_matrix(claimed, "claimed"))
    decision = Verdict.VERIFIED if nc >= threshold else Verdict.REJECTED
    return VerificationReport(nc_score=nc, decision=decision, threshold=threshold)
