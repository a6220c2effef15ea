"""Dense float64 matrices and a deterministic full-SVD contract.

Matrices are plain 2-D ``numpy.ndarray`` values in 64-bit precision.
The singular value decomposition used throughout the toolkit is pinned
down to a single canonical representative: singular values descending,
and the sign of each singular-vector pair fixed by the largest-magnitude
entry of the U column.  Identical input bits always produce identical
output bits, which is what makes stored side info replayable.

One trust rule: ``svd`` output is valid by construction and built
unchecked, once its singular values are known to be finite; factors from
a caller or a key file are checked on construction.  ``svd`` also bounds
what one decomposition may cost, and ``_single_threaded_blas`` lets a
caller that brings its own threads (``_map``) keep numpy's OpenBLAS off
its cores.
"""

import contextlib
import contextvars
import ctypes
import threading

import numpy as np

from .errors import DimensionError, InvalidInput

# Frobenius residual allowed for "orthogonal" factor matrices.
ORTHOGONALITY_TOL = 1e-8

# The most entries ``svd`` lets the factors of one input have, M² + N²:
# 2 GiB of float64.  An M x N input costs that much however small it is
# (a 1 x 20000 strip asks for a 3 GiB ``V``); every square input up to
# 11585 x 11585 passes.
MAX_FACTOR_ENTRIES = 2**28


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a finite, non-empty float64 2-D array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInput(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} contains NaN or Inf entries")
    return m


def _to_bytes_255(m):
    """What an 8-bit write keeps of ``m``: each entry rounded to the nearest
    integer and clipped to 0..255, as ``uint8`` in row order whatever
    ``m``'s layout, since writers stream the array."""
    r = np.rint(m)
    return np.clip(r, 0.0, 255.0, out=r).astype(np.uint8, order="C")


class SvdFactors:
    """Full SVD triple: ``u`` (M x M), ``sigma`` (the min(M, N) singular
    values) and ``v`` (N x N).

    ``sigma`` is the only form of ``S``: non-negative and non-increasing,
    and ``u`` and ``v`` are orthogonal within ``ORTHOGONALITY_TOL``.
    ``s=`` takes that vector; any other shape fails with
    ``DimensionError``.  Treat all arrays as read-only.
    """

    def __init__(self, u, s, v):
        u = as_matrix(u, "u")
        sigma = np.asarray(s, dtype=np.float64)
        if not np.all(np.isfinite(sigma)):
            raise InvalidInput("s contains NaN or Inf entries")
        v = as_matrix(v, "v")
        m, n = u.shape[0], v.shape[0]
        if u.shape != (m, m) or v.shape != (n, n) or sigma.shape != (min(m, n),):
            raise DimensionError(
                f"factor shapes {u.shape}, {sigma.shape}, {v.shape} do not form a full SVD"
            )
        if orthogonality_residual(u) > ORTHOGONALITY_TOL:
            raise InvalidInput("u is not orthogonal")
        if orthogonality_residual(v) > ORTHOGONALITY_TOL:
            raise InvalidInput("v is not orthogonal")
        if np.any(sigma < 0) or np.any(np.diff(sigma) > 0):
            raise InvalidInput("singular values must be non-negative and non-increasing")
        self.u, self.sigma, self.v = u, sigma, v


def _trusted(cls, **fields):
    """A ``cls`` holding ``fields`` as given, without running ``__init__``'s
    checks: only for factors valid by construction, such as LAPACK's."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def svd(a):
    """Full singular value decomposition with a canonical sign convention.

    Parameters
    ----------
    a : array
        Real 2-D array with finite entries.

    Returns
    -------
    SvdFactors
        Factors such that ``u @ S @ v.T`` equals ``a`` up to roundoff,
        where ``S`` is the M x N matrix with ``sigma`` on its diagonal.

    The sign ambiguity of each singular-vector pair is resolved by making
    the largest-magnitude entry of every U column non-negative (first
    occurrence wins ties) and flipping the paired V column to compensate.
    Unpaired columns (when the input is rectangular) get the same rule
    applied directly.  The call is deterministic: identical input bits
    yield identical output bits.  LAPACK scales the singular values back
    up after the decomposition, so a finite input near the float64 limit
    can overflow them; such an input fails with ``InvalidInput``.  So
    does one whose factors would exceed ``MAX_FACTOR_ENTRIES``, before
    LAPACK runs.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m * m + n * n > MAX_FACTOR_ENTRIES:
        raise InvalidInput(f"the SVD of a {m}x{n} matrix needs {8 * (m * m + n * n)} bytes "
                           f"of factors, over the {8 * MAX_FACTOR_ENTRIES}-byte bound")
    u, sv, vt = np.linalg.svd(a, full_matrices=True)
    if not np.all(np.isfinite(sv)):  # LAPACK's rescaling can overflow
        raise InvalidInput("s contains NaN or Inf entries")
    v = np.ascontiguousarray(vt.T)
    _canonical_signs(u, v)
    return _trusted(SvdFactors, u=u, sigma=sv, v=v)


def _canonical_signs(u, v):
    # In-place sign fix: the largest-magnitude entry of every U column, and
    # of every V column beyond the paired range (those multiply zero
    # singular values), ends non-negative, so the whole triple is unique.
    # Paired V columns flip with their U column, so u @ s @ v.T is
    # unchanged.  np.argmax returns the first occurrence of the max, which
    # settles ties at the lowest row index.
    def signs(m):
        return np.where(m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])] < 0, -1.0, 1.0)

    paired = min(u.shape[1], v.shape[1])
    su = signs(u)
    u *= su
    v *= np.concatenate((su[:paired], signs(v[:, paired:])))


def orthogonality_residual(m):
    """Frobenius norm of ``m.T @ m - I`` for a square matrix."""
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"orthogonality residual needs a square matrix, got {m.shape}")
    gram = m.T @ m
    gram.flat[:: m.shape[0] + 1] -= 1.0  # gram - I, without building I
    return float(np.linalg.norm(gram))


_openblas = None  # then (get, set, stop or None) or ()


def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy 2's
    wheels bundle, and its worker stop if it exports one, looked up on
    first use; ``()`` under any other BLAS."""
    global _openblas
    if _openblas is None:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)  # its symbols and its libraries'
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        stop = getattr(lib, "blas_thread_shutdown_", None)
        _openblas = ()
        if get and set_:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            if stop:
                stop.argtypes, stop.restype = [], ctypes.c_int
            _openblas = (get, set_, stop)
    return _openblas


@contextlib.contextmanager
def _single_threaded_blas(jobs):
    """Context manager for a caller with ``jobs`` tasks to spread over its
    own threads; it gives how many to use, BLAS's thread count capped by
    ``jobs``.  When that is 2 or more, BLAS runs on one thread inside it
    and gets its count back on the way out, even on an exception; else,
    or without numpy's bundled OpenBLAS, it gives 1 and changes nothing
    (fewer than 2 jobs do not even look BLAS up).  Pinning also stops
    OpenBLAS's idle workers, which spin for about 0.1 s after a threaded
    call on the very cores the caller's threads are about to use; OpenBLAS
    starts them again at its next threaded call."""
    blas = _openblas_threads() if jobs >= 2 else ()
    threads = blas[0]() if blas else 1
    if min(threads, jobs) < 2:
        yield 1
        return
    _, set_, stop = blas
    set_(1)
    if stop:
        stop()
    try:
        yield min(threads, jobs)
    finally:
        set_(threads)


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
