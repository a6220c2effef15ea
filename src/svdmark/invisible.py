"""Keyed invisible watermarking on top of the semi-blind scheme.

The watermark's principal components are quantized to bytes, XORed with
a mask derived from a secret identity, and only then embedded:
``S_1 = S + alpha * (quantize(A_wa) XOR h_id)``.  Without the identity
the committed payload is indistinguishable from uniform noise; with it,
extraction recovers the exact byte matrix and the watermark up to the
quantization half-step.  Both schemes embed through ``semiblind``'s one
core, which builds this payload; this module adds the keyed extraction
and verification.
"""

import functools
from dataclasses import dataclass
from enum import Enum

from . import semiblind
from .analysis import normalized_correlation
from .errors import InvalidKey, InvalidParameter
from .hashstream import dequantize, derive_mask, xor_mask
from .matrix import _to_bytes_255, as_matrix
from .semiblind import (
    DEFAULT_ALPHA,
    SchemeTag,
    _embed_planes,
    _require_scheme,
    recover_principal_components,
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
    (marked,), (info,) = _embed_planes([cover], watermark, SchemeTag.HASH_CODE, alpha, identity)
    return marked, info


def _extract_plane(marked, info, masks):
    """Either scheme's extract: the keyed path runs when ``masks`` (from
    ``_masks``) is given."""
    if masks is not None:
        return _extract_keyed(marked, info, masks)
    if info.scheme is SchemeTag.HASH_CODE:
        raise InvalidKey("hash-code extraction requires an identity")
    return semiblind.extract(marked, info)


def recover_masked_bytes(marked, info):
    """Recover the committed byte matrix from a marked image.

    Keeps what an 8-bit write keeps of the real-valued recovery, rounding
    and clipping to 0..255, so that small float residue cannot corrupt the
    XOR layer.  In the float pipeline the result equals the embedded bytes
    exactly.
    """
    _require_scheme(info, SchemeTag.HASH_CODE)
    return _to_bytes_255(recover_principal_components(marked, info))


def extract_invisible(marked, info, identity):
    """Recover the watermark; needs the identity used at embed time.

    A wrong identity unmasks to effectively random bytes and the result
    is uncorrelated with the committed watermark.
    """
    return _extract_keyed(marked, info, functools.partial(derive_mask, identity))


def _masks(identity):
    """``masks(rows, cols)``: ``identity``'s mask of that shape, derived once
    per shape, so that a reader of several planes derives it once; ``None``
    without an identity."""
    return None if identity is None else functools.cache(functools.partial(derive_mask, identity))


def _extract_keyed(marked, info, masks):
    """``extract_invisible``, the identity's mask taken from ``masks(rows, cols)``."""
    bytes_star = recover_masked_bytes(marked, info)
    payload = xor_mask(bytes_star, masks(info.rows, info.cols))
    a_wa = dequantize(payload, info.quant)
    return a_wa @ info.v_w.T


def verify_invisible(marked, info, identity, claimed, threshold=DEFAULT_THRESHOLD):
    """Extract with ``identity`` and compare against a claimed watermark."""
    return _judge(extract_invisible(marked, info, identity), claimed, threshold)


def _judge(w_star, claimed, threshold):
    """Score ``w_star`` against ``claimed``; it verifies at ``threshold``, in (0, 1)."""
    threshold = float(threshold)
    if not 0.0 < threshold < 1.0:
        raise InvalidParameter(f"threshold must lie in (0, 1), got {threshold}")
    nc = normalized_correlation(w_star, as_matrix(claimed, "claimed"))
    decision = Verdict.VERIFIED if nc >= threshold else Verdict.REJECTED
    return VerificationReport(nc_score=nc, decision=decision, threshold=threshold)
