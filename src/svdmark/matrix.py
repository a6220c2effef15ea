"""Dense float64 matrices and a deterministic full-SVD contract.

Matrices are plain 2-D ``numpy.ndarray`` values in 64-bit precision.
The singular value decomposition used throughout the toolkit is pinned
down to a single canonical representative: singular values descending,
and the sign of each singular-vector pair fixed by the largest-magnitude
entry of the U column.  Identical input bits always produce identical
output bits, which is what makes stored side info replayable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput

# Frobenius residual allowed for "orthogonal" factor matrices.
ORTHOGONALITY_TOL = 1e-8


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a finite, non-empty float64 2-D array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInput(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} contains NaN or Inf entries")
    return m


@dataclass
class SvdFactors:
    """Full SVD triple: ``u`` (M x M), ``s`` (M x N dense), ``v`` (N x N).

    ``u @ s @ v.T`` reproduces the decomposed matrix.  The diagonal of
    ``s`` is non-negative and non-increasing, off-diagonal entries are
    exactly zero, and both ``u`` and ``v`` are orthogonal within
    ``ORTHOGONALITY_TOL``.  Treat all three arrays as read-only.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u, self.s, self.v = _check_svd_triple(self.u, self.s, self.v)

    @property
    def singular_values(self):
        return np.diagonal(self.s).copy()


def _check_svd_triple(u, s, v):
    """Coerce ``(u, s, v)`` to matrices that hold the ``SvdFactors``
    invariants, or raise; the one check for factors from any source."""
    u = as_matrix(u, "u")
    s = as_matrix(s, "s")
    v = as_matrix(v, "v")
    m, n = s.shape
    if u.shape != (m, m) or v.shape != (n, n):
        raise DimensionError(
            f"factor shapes {u.shape}, {s.shape}, {v.shape} do not form a full SVD"
        )
    if orthogonality_residual(u) > ORTHOGONALITY_TOL:
        raise InvalidInput("u is not orthogonal")
    if orthogonality_residual(v) > ORTHOGONALITY_TOL:
        raise InvalidInput("v is not orthogonal")
    diag = np.diagonal(s)
    if np.any(diag < 0) or np.any(np.diff(diag) > 0):
        raise InvalidInput("singular values must be non-negative and non-increasing")
    off = s.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off != 0.0):
        raise InvalidInput("s must be diagonal (off-diagonal entries exactly zero)")
    return u, s, v


def svd(a):
    """Full singular value decomposition with a canonical sign convention.

    Parameters
    ----------
    a : array
        Real 2-D array with finite entries.

    Returns
    -------
    SvdFactors
        Factors such that ``u @ s @ v.T`` equals ``a`` up to roundoff.

    The sign ambiguity of each singular-vector pair is resolved by making
    the largest-magnitude entry of every U column non-negative (first
    occurrence wins ties) and flipping the paired V column to compensate.
    Unpaired columns (when the input is rectangular) get the same rule
    applied directly.  The call is deterministic: identical input bits
    yield identical output bits.
    """
    a = as_matrix(a, "a")
    u, sv, vt = np.linalg.svd(a, full_matrices=True)
    v = np.ascontiguousarray(vt.T)
    _canonical_signs(u, v)
    s = np.zeros(a.shape)
    np.fill_diagonal(s, sv)
    # LAPACK output holds the SvdFactors invariants by construction, so it
    # skips __post_init__; factors from anywhere else go through the checks.
    f = object.__new__(SvdFactors)
    f.u, f.s, f.v = u, s, v
    return f


def _canonical_signs(u, v):
    # In-place sign fix; flips paired columns together so u @ s @ v.T
    # is unchanged.  np.argmax returns the first occurrence of the max,
    # which settles ties at the lowest row index.
    paired = min(u.shape[1], v.shape[1])
    idx = np.argmax(np.abs(u), axis=0)
    flip = u[idx, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    v[:, np.flatnonzero(flip[:paired])] *= -1.0
    # Columns of v beyond the paired range multiply zero singular values;
    # canonicalize them with the same rule so the whole triple is unique.
    for j in range(paired, v.shape[1]):
        if v[np.argmax(np.abs(v[:, j])), j] < 0:
            v[:, j] *= -1.0


def reconstruct(factors):
    """Multiply the factors back together: ``u @ s @ v.T``."""
    u, s, v = factors.u, factors.s, factors.v
    if u.shape[1] != s.shape[0] or s.shape[1] != v.shape[1]:
        raise DimensionError(
            f"cannot multiply factors with shapes {u.shape}, {s.shape}, {v.shape}"
        )
    return u @ s @ v.T


def orthogonality_residual(m):
    """Frobenius norm of ``m.T @ m - I`` for a square matrix."""
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"orthogonality residual needs a square matrix, got {m.shape}")
    gram = m.T @ m
    return float(np.linalg.norm(gram - np.eye(m.shape[0])))
