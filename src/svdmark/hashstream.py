"""Keyed byte masks and the quantize/XOR bridge between real matrices
and byte matrices.

The mask generator expands SHA-256 in counter mode: the digest of
``id_bytes || counter`` (counter as a 64-bit big-endian block index,
starting at 0) is concatenated block after block and truncated to
``rows * cols`` bytes, laid out row-major.  The construction is
deterministic and the output is computationally indistinguishable from
uniform bytes, which is all the keyed scheme needs from it.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput, InvalidKey, InvalidParameter
from .matrix import as_matrix

_DIGEST_SIZE = hashlib.sha256().digest_size


@dataclass(frozen=True)
class Identity:
    """Secret key material: a caller-chosen identity string plus nonce.

    The library never generates the nonce; bake it into ``id_bytes``
    (for example ``b"alice|8f3a"``).
    """

    id_bytes: bytes

    def __post_init__(self):
        if not isinstance(self.id_bytes, bytes) or len(self.id_bytes) == 0:
            raise InvalidKey("identity must be a non-empty byte string")

    @classmethod
    def from_string(cls, text):
        return cls(text.encode("utf-8"))


@dataclass(frozen=True)
class QuantParams:
    """Affine 8-bit quantization range captured at embed time."""

    lo: float
    hi: float
    degenerate: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParameter("quantization range must be finite")
        if self.hi < self.lo:
            raise InvalidParameter(f"quantization range inverted: lo={self.lo} hi={self.hi}")
        if self.degenerate != (self.hi == self.lo):
            raise InvalidParameter("degenerate flag inconsistent with lo/hi")


def as_byte_matrix(b, name="bytes"):
    """Coerce ``b`` to a 2-D uint8 array, rejecting out-of-range values."""
    arr = np.asarray(b)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInput(f"{name} must be a non-empty 2-D array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidInput(f"{name} must hold integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > 255:
            raise InvalidInput(f"{name} entries must lie in 0..255")
        arr = arr.astype(np.uint8)
    return arr


def derive_mask(identity, rows, cols):
    """Derive the ``rows x cols`` byte mask bound to ``identity``.

    Same identity and shape always give bitwise-identical masks.
    """
    if not isinstance(identity, Identity):
        raise InvalidKey("identity must be an Identity value")
    if rows < 1 or cols < 1:
        raise InvalidParameter(f"mask shape must be positive, got {rows}x{cols}")
    need = rows * cols
    base = hashlib.sha256(identity.id_bytes)
    blocks = []
    for counter in range((need + _DIGEST_SIZE - 1) // _DIGEST_SIZE):
        h = base.copy()
        h.update(counter.to_bytes(8, "big"))
        blocks.append(h.digest())
    stream = b"".join(blocks)[:need]
    return np.frombuffer(stream, dtype=np.uint8).reshape(rows, cols).copy()


def quantize(a_wa):
    """Map a real matrix onto the byte grid 0..255.

    Returns ``(bytes, params)`` with ``q = round(255 * (a - lo) / (hi - lo))``
    where ``lo``/``hi`` are the matrix minimum and maximum.  A constant
    matrix quantizes to all zeros with the degenerate flag set.
    """
    a = as_matrix(a_wa, "a_wa")
    lo = float(a.min())
    hi = float(a.max())
    if hi == lo:
        return np.zeros(a.shape, dtype=np.uint8), QuantParams(lo, hi, degenerate=True)
    q = np.rint(255.0 * (a - lo) / (hi - lo))
    return q.astype(np.uint8), QuantParams(lo, hi)


def dequantize(b, params):
    """Invert :func:`quantize` up to the half-step bound ``(hi - lo) / 510``."""
    arr = as_byte_matrix(b)
    if params.degenerate:
        return np.full(arr.shape, params.lo)
    return params.lo + arr.astype(np.float64) * (params.hi - params.lo) / 255.0


def xor_mask(b, mask):
    """Entrywise bitwise XOR of two byte matrices of equal shape."""
    left = as_byte_matrix(b, "b")
    right = as_byte_matrix(mask, "mask")
    if left.shape != right.shape:
        raise DimensionError(f"shape mismatch: {left.shape} vs {right.shape}")
    return np.bitwise_xor(left, right)
