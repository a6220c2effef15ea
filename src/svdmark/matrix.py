"""Dense float64 matrices and a deterministic full-SVD contract.

Matrices are plain 2-D ``numpy.ndarray`` values in 64-bit precision.
The singular value decomposition used throughout the toolkit is pinned
down to a single canonical representative: singular values descending,
and the sign of each singular-vector pair fixed by the largest-magnitude
entry of the U column.  Identical input bits always produce identical
output bits, which is what makes stored side info replayable.
"""

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


class SvdFactors:
    """Full SVD triple: ``u`` (M x M), ``sigma`` (the min(M, N) singular
    values) and ``v`` (N x N).

    ``sigma`` is the stored form of ``S``: non-negative and
    non-increasing, and ``u`` and ``v`` are orthogonal within
    ``ORTHOGONALITY_TOL``.  ``s=`` takes either ``sigma`` or the dense
    M x N diagonal matrix, whose off-diagonal entries must be exactly
    zero.  Treat all arrays as read-only.
    """

    def __init__(self, u, s, v):
        self.u, self.sigma, self.v = _check_svd_triple(u, s, v)

    @property
    def s(self):
        """The dense M x N ``S``: a new array on every access, for readers
        that want the matrix form; the library itself uses ``sigma``."""
        s = np.zeros((self.u.shape[0], self.v.shape[0]))
        np.fill_diagonal(s, self.sigma)
        return s

    @property
    def singular_values(self):
        return self.sigma.copy()


def _check_svd_triple(u, s, v):
    """Coerce ``(u, s, v)`` to ``(u, sigma, v)`` holding the ``SvdFactors``
    invariants, or raise; the one check for factors from any source."""
    u = as_matrix(u, "u")
    sigma = np.asarray(s, dtype=np.float64)
    dense = sigma.ndim != 1
    if dense:
        sigma = as_matrix(sigma, "s")
    elif not np.all(np.isfinite(sigma)):
        raise InvalidInput("s contains NaN or Inf entries")
    v = as_matrix(v, "v")
    m, n = sigma.shape if dense else (u.shape[0], v.shape[0])
    diag = np.diagonal(sigma) if dense else sigma
    if u.shape != (m, m) or v.shape != (n, n) or diag.size != min(m, n):
        raise DimensionError(
            f"factor shapes {u.shape}, {sigma.shape}, {v.shape} do not form a full SVD"
        )
    if orthogonality_residual(u) > ORTHOGONALITY_TOL:
        raise InvalidInput("u is not orthogonal")
    if orthogonality_residual(v) > ORTHOGONALITY_TOL:
        raise InvalidInput("v is not orthogonal")
    if np.any(diag < 0) or np.any(np.diff(diag) > 0):
        raise InvalidInput("singular values must be non-negative and non-increasing")
    # count_nonzero counts neither sign of zero, so this holds exactly
    # when every off-diagonal entry of a dense ``s`` is zero.
    if np.count_nonzero(sigma) != np.count_nonzero(diag):
        raise InvalidInput("s must be diagonal (off-diagonal entries exactly zero)")
    return u, diag.copy() if dense else sigma, v


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
    # LAPACK output holds the SvdFactors invariants by construction, so it
    # skips __init__; factors from anywhere else go through the checks.
    f = object.__new__(SvdFactors)
    f.u, f.sigma, f.v = u, sv, v
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
