"""Keyed invisible watermarking on top of the semi-blind scheme.

The watermark's principal components are quantized to bytes, XORed with
a mask derived from a secret identity, and only then embedded:
``S_1 = S + alpha * (quantize(A_wa) XOR h_id)``.  Without the identity
the committed payload is indistinguishable from uniform noise; with it,
extraction recovers the exact byte matrix and the watermark up to the
quantization half-step.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import normalized_correlation
from .errors import InvalidParameter, MalformedSideInfo
from .hashstream import dequantize, derive_mask, quantize, xor_mask
from .matrix import as_matrix
from .semiblind import (
    DEFAULT_ALPHA,
    SchemeTag,
    _conforming_pair,
    _embed_payload,
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
    cover, watermark = _conforming_pair(cover, watermark)
    return _embed_split(cover, split_watermark(watermark), identity, alpha)


def _embed_split(cover, split, identity, alpha):
    """``embed_invisible`` for a conforming cover and a ``split_watermark`` result."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    a_wa, v_w = split
    payload, quant = quantize(a_wa)
    masked = xor_mask(payload, derive_mask(identity, *cover.shape))
    return _embed_payload(
        cover, masked.astype(np.float64), v_w, alpha, SchemeTag.HASH_CODE, quant
    )


def recover_masked_bytes(marked, info):
    """Recover the committed byte matrix from a marked image.

    Rounds the real-valued recovery to the nearest integer and clamps to
    0..255 so that small float residue cannot corrupt the XOR layer.  In
    the float pipeline the result equals the embedded bytes exactly.
    """
    _require_hash_info(info)
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


def _require_hash_info(info):
    if info.scheme is not SchemeTag.HASH_CODE:
        raise MalformedSideInfo(f"expected hash-code side info, got {info.scheme.value}")
