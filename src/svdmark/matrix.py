"""Dense float64 matrices and a deterministic full-SVD contract.

Matrices are plain 2-D ``numpy.ndarray`` values in 64-bit precision.
The singular value decomposition used throughout the toolkit is pinned
down to a single canonical representative: singular values descending,
and the sign of each singular-vector pair fixed by the largest-magnitude
entry of the U column.  Identical input bits always produce identical
output bits, which is what makes stored side info replayable.

One trust rule: ``svd`` output is valid by construction and built
unchecked, once its singular values are known to be finite; factors from
a caller or a key file are checked on construction.  ``svd`` calls the
LAPACK in numpy's bundled OpenBLAS itself and bounds what one
decomposition may cost.  ``svd`` alone pins that OpenBLAS to one thread for
LAPACK, through ``_map`` unless inside a batch, so factors keep their bits at
any thread count; the pin is process-wide, so concurrent calls take turns.
"""

import contextvars
import ctypes
import functools
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
    """Full SVD of ``a``, a real 2-D array with finite entries, with a
    canonical sign convention: ``SvdFactors`` such that ``u @ S @ v.T``
    equals ``a`` up to roundoff, ``S`` being the M x N matrix with
    ``sigma`` on its diagonal.

    The sign ambiguity of each singular-vector pair is resolved by making
    the largest-magnitude entry of every U column non-negative (first
    occurrence wins ties) and flipping the paired V column to compensate.
    Unpaired columns (when the input is rectangular) get the same rule
    applied directly.  Identical input bits yield identical output bits
    at any BLAS thread count, as LAPACK runs with BLAS on one thread.
    LAPACK scales the singular values back up after the decomposition, so
    a finite input near the float64 limit can overflow them; that fails
    with ``InvalidInput``, as do an input LAPACK cannot decompose and,
    before LAPACK runs, one whose factors would exceed ``MAX_FACTOR_ENTRIES``.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m * m + n * n > MAX_FACTOR_ENTRIES:
        raise InvalidInput(f"the SVD of a {m}x{n} matrix needs {8 * (m * m + n * n)} bytes "
                           f"of factors, over the {8 * MAX_FACTOR_ENTRIES}-byte bound")
    try:  # pinned to one BLAS thread by the enclosing batch, or by its own
        u, sv, v = _lapack_svd(a) if _batched.get() else _map(_lapack_svd, [a])[0]
    except np.linalg.LinAlgError:
        raise InvalidInput(f"the SVD of a {m}x{n} matrix did not converge") from None
    if not np.all(np.isfinite(sv)):  # LAPACK's rescaling can overflow
        raise InvalidInput("s contains NaN or Inf entries")
    _canonical_signs(u, v)
    return _trusted(SvdFactors, u=u, sigma=sv, v=v)


def _lapack_svd(a):
    """``(U, sigma, V)`` from the bundled OpenBLAS's ``dgesdd``, called as
    ``np.linalg.svd`` (the fallback) calls it, but freeing the input copy and
    workspaces before ``U`` is copied out; an F-order ``VT`` is a C-order ``V``."""
    gesdd = _bundled_openblas()[3]
    if not gesdd:
        u, sv, vt = np.linalg.svd(a)
        return u, sv, np.ascontiguousarray(vt.T)
    (m, n), k = a.shape, min(a.shape)
    a = np.array(a, order="F")  # dgesdd overwrites it
    sv, iwork, work = np.empty(k), np.empty(8 * k, dtype=np.int64), np.empty(1)
    u, vt = np.empty((m, m), order="F"), np.empty((n, n), order="F")
    im, in_, lwork, info = map(ctypes.c_int64, (m, n, -1, 0))
    for _ in range(2):  # a workspace query (lwork -1), then the decomposition
        gesdd(b"A", im, in_, a.ctypes, im, sv.ctypes, u.ctypes, im, vt.ctypes, in_,
              work.ctypes, lwork, iwork.ctypes, info, 1)
        if info.value:
            raise np.linalg.LinAlgError(f"dgesdd failed with info {info.value}")
        if lwork.value < 0:
            lwork.value = int(work[0])
            work = np.empty(lwork.value)
    del a, work, iwork
    return np.ascontiguousarray(u), sv, vt.T


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


@functools.cache
def _bundled_openblas():
    """The thread-count getter and setter, worker stop and ILP64 ``dgesdd`` of
    the OpenBLAS in numpy 2's wheels, looked up once; ``None`` if not exported."""
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)  # its symbols and its libraries'
    i, p, c_int = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_int
    found = []
    for name, restype, argtypes in (
            ("scipy_openblas_get_num_threads64_", c_int, []),
            ("scipy_openblas_set_num_threads64_", None, [c_int]),
            ("blas_thread_shutdown_", c_int, []),
            # jobz m n a lda s u ldu vt ldvt work lwork iwork info, then len(jobz)
            ("scipy_dgesdd_64_", None, [ctypes.c_char_p, i, i, p, i, p, p, i, p, i, p, i, p, i,
                                        ctypes.c_size_t])):
        f = getattr(lib, name, None)
        if f:
            f.restype, f.argtypes = restype, argtypes
        found.append(f)
    return found


_pin = threading.Lock()  # held by ``_map``, so no two callers interleave set and restore
_batched = contextvars.ContextVar("_batched", default=False)  # set inside a ``_map`` batch


def _map(fn, items):
    """``[fn(x) for x in items]`` with numpy's bundled OpenBLAS off the
    items' cores.  Under its lock, when that OpenBLAS runs on ``n >= 2``
    threads, ``_map`` sets it to one, stops its idle workers if no other
    Python thread is alive (they spin for about 0.1 s after a threaded call,
    on the very cores about to be used), runs the items on
    ``w = min(n, len(items))`` threads, the calling one included, and gives
    BLAS ``n`` back, even on an exception; else the items run in order on
    the calling thread.  Thread ``k`` runs items ``k``, ``k + w``, ... and
    stops at its own first failure; the others finish theirs.  After the
    joins the lowest failing item's error is raised.  Every item before it
    ran, since a thread stops only at its own failure."""
    get, set_, stop, _ = _bundled_openblas()
    results, failures = [None] * len(items), {}

    def work(k):
        for i in range(k, len(items), w):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised again below, in the calling thread
                failures[i] = exc
                return

    with _pin:
        threads = get() if get and set_ else 1
        w = max(1, min(threads, len(items)))
        if threads > 1:
            set_(1)
            if stop and threading.active_count() == 1:  # else it can hang another's call
                stop()
        # Each helper runs in a copy of this thread's context: NumPy 2 keeps
        # errstate there, so the caller's ignored warnings stay ignored.
        batch = _batched.set(True)  # the helpers' context copies inherit it
        helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work, k))
                   for k in range(1, w)]
        try:
            for t in helpers:
                t.start()
            try:
                work(0)
            finally:
                for t in helpers:
                    t.join()
        finally:
            _batched.reset(batch)
            if threads > 1:
                set_(threads)
    if failures:
        raise failures[min(failures)]
    return results
