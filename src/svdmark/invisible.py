"""Keyed invisible watermarking on top of the semi-blind scheme.

The watermark's principal components are quantized to bytes, XORed with
a mask derived from a secret identity, and only then embedded:
``S_1 = S + alpha * (quantize(A_wa) XOR h_id)``.  Without the identity
the committed payload is indistinguishable from uniform noise; with it,
extraction recovers the exact byte matrix and the watermark up to the
quantization half-step.  Both schemes embed through ``semiblind``'s one
core, which builds this payload, and read back through its other, which
unmasks it; this module adds the keyed entry points and verification.
"""

from dataclasses import dataclass
from enum import Enum

from .analysis import normalized_correlation
from .errors import InvalidParameter
from .matrix import _to_bytes_255, as_matrix
from .semiblind import (
    DEFAULT_ALPHA,
    SchemeTag,
    _embed_planes,
    _recover_planes,
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
    _require_scheme(info, SchemeTag.HASH_CODE)
    return _recover_planes([marked], [info], identity)


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
