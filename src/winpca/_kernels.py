"""Hot loops in numpy, and a partial symmetric eigensolver.

Two kernels dominate runtime at simulation scale: rescaling every row of a
data matrix onto a centered ball (winsorization), and accumulating the
per-coordinate terms of the winsorized second-moment estimator over a
stream of draws, block by block.  Every row norm comes from ``row_norms``,
which stays accurate where a sum of squares overflows or underflows into
the subnormal range; ``perfbench/`` measures the package end to end.

``top_eigh`` solves for the leading eigenpairs only, through LAPACK's
``dsyevr`` (MRRR) in numpy's bundled OpenBLAS when that library exports it,
and through a full ``numpy.linalg.eigh`` otherwise.

``one_blas_thread`` pins that OpenBLAS to one thread for the duration of a
block or call.  Gram and ``dsyevr`` results change in their last bits with
the BLAS thread count, so every fit, public covariance, eigensolve and
angle routine, and replication pool of the package runs under the pin:
output bytes do not depend on ``OPENBLAS_NUM_THREADS`` or ``--jobs``.  The
library is opened once, and ``dsyevr`` and the thread symbols come from
that one handle; without them the pin leaves the threads alone.

``thread_map`` is the package's one source of threads.  Its helpers come
from one standard-library thread pool that waits between maps, because a
pool made per map cost fig1 7 % more CPU time.  A replication's radius
paths spread their eigensolves over the CPUs the process may run on, and
``--jobs`` spreads replications; a map inside a worker of another map runs
serially, so the two never multiply.  Every matrix is still solved alone
on one BLAS thread, so output bytes do not depend on the number of CPUs:
``taskset -c 0`` keeps a run on one CPU and changes no byte.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import glob
import itertools
import os
import threading

import numpy as np

__all__ = ["using_numba", "row_norms", "unit_rows", "winsorize_rows",
           "winsorized_term_sums", "top_eigh", "blas_threads", "one_blas_thread",
           "thread_map"]

# Rows whose norm exceeds the radius by less than this relative slack are
# left untouched, so reapplying the transform is an exact no-op.
BOUNDARY_REL_TOL = 1e-12

_TINY = np.finfo(np.float64).tiny
# Below this norm a sum of squares is subnormal and has lost digits.
_SQRT_TINY = np.sqrt(_TINY)


def using_numba() -> bool:
    """Always False: the kernels are numpy only; kept for environment records."""
    return False


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a finite matrix.

    ``sqrt(sum x^2)`` serves each row it gets right.  A row whose sum of
    squares overflows to inf, or is subnormal or zero although an entry is
    nonzero (plain norm below ``sqrt(tiny)``), is recomputed after scaling
    by its largest magnitude (Blue 1978, as in LAPACK ``dnrm2``); a norm is
    then inf only when it exceeds the float64 range.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    redo = np.flatnonzero(np.isinf(norms) | (norms < _SQRT_TINY))
    if redo.size:
        top = np.max(np.abs(X[redo]), axis=1)
        keep = top > 0.0  # rows of zeros keep their zero norm
        redo, top = redo[keep], top[keep]
        unit = X[redo] / top[:, None]
        with np.errstate(over="ignore"):
            norms[redo] = top * np.sqrt(np.einsum("ij,ij->i", unit, unit))
    return norms


def unit_rows(values: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``values / norms[:, None]``, also where a norm is inf.

    A row whose norm exceeds the float64 range is divided by its largest
    magnitude first and then by the norm of what remains.
    """
    out = values / norms[:, None]
    huge = np.isinf(norms)
    if np.any(huge):
        scaled = values[huge] / np.max(np.abs(values[huge]), axis=1)[:, None]
        out[huge] = scaled / row_norms(scaled)[:, None]
    return out


def winsorize_rows(values: np.ndarray, limit: float) -> np.ndarray:
    """Scale every row with Euclidean norm above ``limit`` back onto the ball.

    ``values`` must be a C-contiguous float64 matrix; validation lives in the
    calling layer.  Returns a new array, input is never modified.
    """
    norms = row_norms(values)
    clip = norms > limit * (1.0 + BOUNDARY_REL_TOL)
    factor = np.divide(limit, norms, out=np.ones_like(norms), where=clip)
    out = values * factor[:, None]
    # A factor that is subnormal or zero has lost digits or the whole row;
    # such rows (norm beyond the float64 range included) are divided onto
    # the unit sphere first.
    far = np.flatnonzero(factor < _TINY)
    if far.size:
        out[far] = limit * unit_rows(values[far], norms[far])
    return out


def winsorized_term_sums(blocks, lam: np.ndarray, r2: np.ndarray):
    """Accumulate winsorized second-moment terms over blocks of whitened draws.

    For each draw ``y_i`` and squared radius ``r2[j]`` the term vector is
    ``lam * y_i**2 * f_i`` with ``f_i = min(1, r2[j] / sum(lam * y_i**2))``.
    Returns the coordinatewise sum and sum of squares across draws, each of
    shape (R, p) for R squared radii, from which the caller forms Monte
    Carlo means and standard errors.  ``blocks`` is an iterable of (rows, p)
    arrays, so a stream of draws never exists at once; the caller picks the
    block size.  Each block is squared once for all radii; the sums
    ``sum_i f_i y_i**2`` and ``sum_i f_i**2 y_i**4`` are scaled by ``lam``
    and ``lam**2`` once at the end, so equal blocks give equal bits however
    the stream was drawn.
    """
    sums, sumsq = np.zeros((r2.size, lam.size)), np.zeros((r2.size, lam.size))
    for block in blocks:
        sq = block * block
        q = sq * sq
        s2 = sq @ lam
        for j, r2j in enumerate(r2):
            factor = np.ones_like(s2)
            np.divide(r2j, s2, out=factor, where=s2 > r2j)
            sums[j] += factor @ sq
            factor *= factor
            sumsq[j] += factor @ q
    return lam * sums, lam * lam * sumsq


# Negative eigenvalues of a positive semidefinite matrix within this
# relative roundoff of the largest are reported as exactly zero.
NEG_EIG_REL_TOL = 1e-10


def _descending_eigenpairs(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs turned descending, roundoff negatives clamped to
    zero, and each column oriented so its largest-magnitude entry is
    positive: the one orientation step of every eigensolver route."""
    w = w[::-1].copy()
    if w[0] > 0:
        w[(w < 0) & (w >= -NEG_EIG_REL_TOL * w[0])] = 0.0
    V = V[:, ::-1]
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return w, V * np.where(top < 0, -1.0, 1.0)


def _load_openblas():
    """numpy's bundled ``libscipy_openblas64_``, or None.

    Only numpy wheels bundle it; builds against Accelerate, MKL or a system
    BLAS get None, and with it the ``eigh`` fallback and a pin that leaves
    the BLAS threads alone.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbol(lib, name: str, restype, argtypes):
    """The typed function ``name`` of ``lib``, or None where it is missing."""
    fn = getattr(lib, name, None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, argtypes
    return fn


_OPENBLAS = _load_openblas()
_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
# LAPACKE_dsyevr with 64-bit integers.
_LAPACKE_DSYEVR = _symbol(
    _OPENBLAS, "scipy_LAPACKE_dsyevr64_", _I64,
    [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, _I64, _PTR, _I64,
     ctypes.c_double, ctypes.c_double, _I64, _I64, ctypes.c_double,
     ctypes.POINTER(_I64), _PTR, _PTR, _I64, _PTR])
_SET_THREADS = _symbol(_OPENBLAS, "scipy_openblas_set_num_threads64_", None, [ctypes.c_int])
_GET_THREADS = _symbol(_OPENBLAS, "scipy_openblas_get_num_threads64_", ctypes.c_int, [])


def blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS, or None without it."""
    return None if _GET_THREADS is None else _GET_THREADS()


class _OneBlasThread(contextlib.ContextDecorator):
    """Run a block with numpy's bundled OpenBLAS on one thread.

    The thread count is a setting of the whole process, so there is one
    pin per process, ``one_blas_thread``.  A lock-guarded depth counter
    makes nested and concurrent entries safe: the first entry saves the
    count and sets it to 1, the last exit restores the saved count, and
    entries in between touch nothing.  Without the OpenBLAS symbols the pin
    leaves the threads alone.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: int | None = None

    def __enter__(self) -> "_OneBlasThread":
        with self._lock:
            if self._depth == 0 and _SET_THREADS is not None and _GET_THREADS is not None:
                self._saved = _GET_THREADS()
                _SET_THREADS(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved is not None:
                _SET_THREADS(self._saved)
                self._saved = None


one_blas_thread = _OneBlasThread()


_LAPACK_COL_MAJOR = 102


def top_eigh(S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading ``k`` eigenpairs of a finite symmetric matrix, eigenvalues descending.

    Only the lower triangle of ``S`` is read.  Returns ``(w, V)`` with ``w``
    of length k and ``V`` of shape p x k.  Roundoff negatives within 1e-10
    of the largest eigenvalue are clamped to zero and each column's
    largest-magnitude entry is positive; ``k = p`` gives the full
    decomposition.  A NaN or infinite entry in the lower triangle raises
    ``LinAlgError`` on both routes.  Fits of wide matrices (d <= n < p)
    take a thin SVD instead, and the fig3 grid of sample spectra a stacked
    ``eigvalsh``.
    """
    # A private copy: dsyevr overwrites its input.
    A = np.array(S, dtype=np.float64, order="F")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    p, k = A.shape[0], int(k)
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p={p} eigenpairs, got k={k}")
    if _LAPACKE_DSYEVR is None:
        w, V = np.linalg.eigh(A)
        if not np.all(np.isfinite(w)):  # dsyevr fails on such input too
            raise np.linalg.LinAlgError("eigh found non-finite eigenvalues")
        return _descending_eigenpairs(w[p - k:], V[:, p - k:])
    w = np.empty(p)
    Z = np.empty((p, k), order="F")
    isuppz = np.empty(2 * k, dtype=np.int64)
    found = ctypes.c_int64(0)
    info = _LAPACKE_DSYEVR(
        _LAPACK_COL_MAJOR, b"V", b"I", b"L", p, A.ctypes.data, p, 0.0, 0.0,
        p - k + 1, p, 0.0, ctypes.byref(found), w.ctypes.data, Z.ctypes.data, p,
        isuppz.ctypes.data)
    if info != 0 or found.value != k:
        raise np.linalg.LinAlgError(
            f"dsyevr failed (info={info}, {found.value} of {k} eigenpairs)")
    return _descending_eigenpairs(w[:k], Z)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, else all."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# The helper pool of ``thread_map``, as (pid that made it, helper count,
# executor).  It is made on first need, and again when a map needs more
# helpers than it holds or in a forked child, which has none of its
# parent's threads.  Its threads wait for the next map: a pool made per map
# cost fig1's paths (about 30 solves of 100 x 100 each) 7 % more CPU time on
# a 2-vCPU machine, and more wall time in 8 of 10 paired runs.  The threads
# hold only a weakref to the pool, so they end once it is dropped.
_pool = (0, 0, None)
_pool_lock = threading.Lock()
# Marks a thread that is running the items of a parallel thread_map.
_mapping = threading.local()


def _submit(job, count: int) -> list:
    """Hand ``job`` to ``count`` helper threads; their futures."""
    global _pool
    with _pool_lock:
        pid, size, pool = _pool
        if pid != os.getpid() or size < count:
            if pid == os.getpid():
                pool.shutdown(wait=False)
            pool = concurrent.futures.ThreadPoolExecutor(
                count, thread_name_prefix="winpca-helper")
            _pool = os.getpid(), count, pool
        return [pool.submit(job) for _ in range(count)]


def thread_map(fn, items, workers: int | None = None) -> list:
    """``[fn(x) for x in items]`` on up to ``workers`` threads, in input order.

    ``workers`` defaults to the CPUs this process may run on.  The calling
    thread takes items too, beside ``workers - 1`` helper threads; items go
    out one at a time in input order to whichever thread is free, and the
    call returns once every item is done.  A call from a thread that is
    running items of a parallel map runs serially, so nested maps never
    multiply the thread count.  The whole map runs under
    ``one_blas_thread``.  Once an item fails, or an exception such as
    KeyboardInterrupt leaves the calling thread, no further item starts;
    the exception of the first failing item in input order is raised, the
    one a serial loop would raise.
    """
    items = list(items)
    workers = min(len(items), _usable_cpus() if workers is None else int(workers))
    with one_blas_thread:
        if workers <= 1 or getattr(_mapping, "active", False):
            return [fn(x) for x in items]
        results: list = [None] * len(items)
        errors: dict[int, BaseException] = {}
        taken = itertools.count()
        stopped = False  # set once the caller leaves, however it leaves

        def work() -> None:
            _mapping.active = True
            try:
                # The check comes before the draw and indices go out in
                # increasing order, so every index drawn is run, and every
                # item before a failed one has already started.
                while not (stopped or errors):
                    i = next(taken)
                    if i >= len(items):
                        return
                    try:
                        results[i] = fn(items[i])
                    except BaseException as exc:  # raised again by the caller
                        errors[i] = exc
            finally:
                _mapping.active = False

        try:
            helpers = _submit(work, workers - 1)
        except RuntimeError:  # the pool takes no jobs once interpreter exit began
            helpers = []
        try:
            work()
        finally:
            # A helper job not yet started is cancelled and a started one
            # waited for, also when an exception such as KeyboardInterrupt
            # leaves the caller, so no item starts after the call.
            stopped = True
            for job in helpers:
                if not job.cancel():
                    job.result()
        if errors:
            raise errors[min(errors)]
        return results
