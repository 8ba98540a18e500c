"""BLAS-3 and LAPACK kernels called without the GIL, and the BLAS thread count.

scipy's wrappers in ``scipy.linalg.blas``, and those of ``dgesdd``,
``dgeqrt`` and ``dgemqrt`` in ``scipy.linalg.lapack``, hold the GIL for the
whole call, so ranks simulated as threads take turns in them (its
``dgeqrf``, ``dormqr`` and ``dorgqr`` release it).  This module takes the
routines' function pointers from the capsules scipy exports in
``scipy.linalg.cython_blas`` and ``cython_lapack`` (the route numba uses
too) and calls them through `ctypes.CFUNCTYPE` prototypes, which release
the GIL for the duration of each call.  It is the same
library, so results are bitwise those of scipy's wrappers.

`dgeqrt` and `dgemqrt` only ever see the tall panels `tsqr._wy_route` picks
and always take the ctypes route.  `dgemm` (also into a block of a larger
array, in place), `dtrmm`, `dsyrk` and `dgesdd` pick theirs per call, from
the flop count their shapes imply: from `GIL_FREE_FLOPS` on they go through
ctypes, below it they call scipy's wrapper.  A ctypes call costs about
18 us against about 1 us for scipy's wrapper of a tiny product, and each
release hands the GIL to another rank thread that the caller must then
wait to get back.  Binding every call
made the model-2 benchmark (two ranks, almost every call below 0.4 Mflop)
slower: in one process, alternating calls (a 2-vCPU x86-64 VM, one
OpenBLAS 0.3.30 thread per rank), `inner_product` took 4.5 ms against
2.5 ms on scipy's wrappers throughout, and the ``innerprod`` norm 4.4
against 2.5 ms.  Behind the gate only its 9 Mflop first-mode contraction
is released there, which still costs a GIL hand-off and overlaps little:
the benchmark's `inner_product` and ``innerprod`` norm read 8% and 6%
slower than on scipy's wrappers throughout (medians of 10 process pairs).
On model-1 panels, where the calls run 4-50 Mflop and follow each other,
the released calls overlap across ranks, and at two ranks
`inner_product` runs in about 55% of the time.

One rule, `_operand`, decides what memory every raw call reads or writes,
and with what leading dimension; a wrong one would read the wrong entries
without an error.  A float64 matrix whose columns are contiguous and
evenly spaced (an F-ordered array or a block of one) is passed as it
stands, if it is writable where the call writes.  A C-contiguous one that
is only read is passed as an F-ordered copy, the copy scipy's wrapper
makes; reading it as the F-ordered ``a.T`` instead changes OpenBLAS's
rounding.  Anything else takes scipy's route, which copies it as it needs;
`dgeqrt` and `dgemqrt`, which have none, raise `ShapeError` for what the
rule would copy or refuse.  `dgesdd` always factors a copy of its own.

`blas_threads_per_rank` caps the thread count of every loaded OpenBLAS for
the duration of a simulated group, so that P ranks calling BLAS at once do
not each fan out to a pool sized for the whole machine.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np
from scipy.linalg import blas, cython_blas, cython_lapack, lapack

from .errors import ShapeError

#: Calls of at least this many flops (about 0.1 ms of work) release the GIL.
GIL_FREE_FLOPS = 2**20

#: Rough dgesdd flop count per m * n * min(m, n): the gate's size of an SVD
#: and what the sweeps charge for one.
SVD_FLOPS_PER_MN2 = 21.0


def _capsule_pointer(module, name: str) -> int:
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


def _bind(module, name: str, *argtypes):
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(module, name))


# integers, scalars and characters by reference, arrays by their data address
_INT = ctypes.POINTER(ctypes.c_int)
_DBL = ctypes.POINTER(ctypes.c_double)
_CHAR = ctypes.c_char_p
_ARRAY = ctypes.c_void_p
# dgemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
_DGEMM = _bind(cython_blas, "dgemm", _CHAR, _CHAR, _INT, _INT, _INT, _DBL, _ARRAY, _INT,
               _ARRAY, _INT, _DBL, _ARRAY, _INT)
# dtrmm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
_DTRMM = _bind(cython_blas, "dtrmm", _CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _DBL, _ARRAY,
               _INT, _ARRAY, _INT)
# dsyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
_DSYRK = _bind(cython_blas, "dsyrk", _CHAR, _CHAR, _INT, _INT, _DBL, _ARRAY, _INT, _DBL,
               _ARRAY, _INT)
# dgesdd(jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info)
_DGESDD = _bind(cython_lapack, "dgesdd", _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _ARRAY,
                _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)
# dgeqrt(m, n, nb, a, lda, t, ldt, work, info)
_DGEQRT = _bind(cython_lapack, "dgeqrt", _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT,
                _ARRAY, _INT)
# dgemqrt(side, trans, m, n, k, nb, v, ldv, t, ldt, c, ldc, work, info)
_DGEMQRT = _bind(cython_lapack, "dgemqrt", _CHAR, _CHAR, _INT, _INT, _INT, _INT, _ARRAY,
                 _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)


def _ints(*values: int) -> list:
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


def _dbl(v: float):
    return ctypes.byref(ctypes.c_double(v))


def _operand(a, writable: bool = False) -> tuple | None:
    """The ``(array, leading dimension)`` a raw call reads, or writes when
    ``writable``, for the matrix ``a`` under the module's layout rule; None
    sends the call to scipy's wrapper."""
    if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == np.float64
            and a.flags.aligned):
        return None
    m, n = a.shape
    rows, cols = a.strides
    columns = m == 1 or rows == 8  # each column contiguous
    if a.size == 0 or columns and n == 1:
        ld = max(m, 1)
    elif columns and cols % 8 == 0 and cols >= 8 * m:
        ld = cols // 8
    elif a.flags.c_contiguous and not writable:
        return np.asfortranarray(a), m
    else:
        return None
    return (a, ld) if a.flags.writeable or not writable else None


def dgemm(alpha: float, a: np.ndarray, b: np.ndarray, trans_a: int = 0,
          out: np.ndarray | None = None) -> np.ndarray:
    """``alpha * op(a) @ b`` like scipy's ``dgemm``: a new F-ordered array,
    or written into ``out`` and returned.

    ``out`` may be a block of a larger array; the raw route writes it in
    place, scipy's writes the product it forms into it.  An ``out`` that
    may overlap ``a`` or ``b`` takes scipy's route.
    """
    m, k = a.shape[::-1] if trans_a else a.shape
    kb, n = b.shape
    if kb != k or out is not None and out.shape != (m, n):
        raise ShapeError(f"dgemm: op(a) is {m} x {k} and b is {kb} x {n}"
                         + ("" if out is None else f", out is {out.shape}"))
    if 2.0 * m * n * k >= GIL_FREE_FLOPS:
        c = np.empty((m, n), order="F") if out is None else out  # beta = 0: BLAS never reads C
        ops = _operand(a), _operand(b), _operand(c, writable=True)
        # BLAS would read entries of an operand it has already overwritten
        if None not in ops and not any(np.may_share_memory(c, x) for x in (a, b)):
            (af, lda), (bf, ldb), (_, ldc) = ops
            m_, n_, k_, lda, ldb, ldc = _ints(m, n, k, lda, ldb, ldc)
            _DGEMM(b"T" if trans_a else b"N", b"N", m_, n_, k_, _dbl(alpha), af.ctypes.data,
                   lda, bf.ctypes.data, ldb, _dbl(0.0), c.ctypes.data, ldc)
            return c
    c = blas.dgemm(alpha, a, b, trans_a=trans_a)
    if out is None:
        return c
    out[...] = c
    return out


def dtrmm(alpha: float, a: np.ndarray, b: np.ndarray, side: int = 0, lower: int = 0,
          trans_a: int = 0, overwrite_b: int = 0) -> np.ndarray:
    """``alpha * op(a) @ b`` (side 0) or ``alpha * b @ op(a)`` (side 1) for a
    triangular ``a``, like scipy's ``dtrmm``: ``b`` is overwritten and returned
    when ``overwrite_b`` is set and it is a writable float64 matrix with
    contiguous columns, else copied."""
    m, n = b.shape
    k = n if side else m
    if a.shape != (k, k):
        raise ShapeError(f"dtrmm: a is {a.shape}, side {side} of a {b.shape} b needs {k} x {k}")
    if float(m) * n * k >= GIL_FREE_FLOPS:
        # scipy's wrapper too forms the product in an F-ordered copy of b
        c = b if overwrite_b else np.array(b, order="F")
        ops = _operand(a), _operand(c, writable=True)
        if None not in ops:
            (af, lda), (_, ldb) = ops
            flags = (b"R" if side else b"L", b"L" if lower else b"U",
                     b"T" if trans_a else b"N", b"N")
            m_, n_, lda, ldb = _ints(m, n, lda, ldb)
            _DTRMM(*flags, m_, n_, _dbl(alpha), af.ctypes.data, lda, c.ctypes.data, ldb)
            return c
    # f2py would write into a read-only b too
    overwrite_b = overwrite_b and isinstance(b, np.ndarray) and b.flags.writeable
    return blas.dtrmm(alpha, a, b, side=side, lower=lower, trans_a=trans_a,
                      overwrite_b=int(overwrite_b))


def dsyrk(alpha: float, a: np.ndarray, trans: int = 0, lower: int = 0) -> np.ndarray:
    """One triangle of ``alpha * a @ a.T`` (``a.T @ a`` when ``trans``) as a new
    F-ordered array whose other triangle is zero, like scipy's ``dsyrk``."""
    n, k = a.shape[::-1] if trans else a.shape
    op = _operand(a) if float(n) * n * k >= GIL_FREE_FLOPS else None
    if op is None:
        return blas.dsyrk(alpha, a, trans=trans, lower=lower)
    af, lda = op
    c = np.zeros((n, n), order="F")
    n_, k_, lda, ldc = _ints(n, k, lda, max(n, 1))
    _DSYRK(b"L" if lower else b"U", b"T" if trans else b"N", n_, k_, _dbl(alpha),
           af.ctypes.data, lda, _dbl(0.0), c.ctypes.data, ldc)
    return c


def dgesdd(a: np.ndarray) -> tuple:
    """Thin SVD ``(u, s, vt, info)`` of an m x n matrix, ``a`` left untouched.

    The workspace is the one ``scipy.linalg.svd(a, full_matrices=False,
    lapack_driver="gesdd")`` queries, which sets LAPACK's choice of path, so
    the factors are bitwise that function's.  LAPACK overwrites its input,
    so both routes factor an F-ordered copy, and any layout of a float64
    ``a`` may take the ctypes route.
    """
    m, n = a.shape
    if a.size == 0:  # LAPACK rejects lda = 0; the factors are empty
        return np.empty((m, 0), order="F"), np.empty(0), np.empty((0, n), order="F"), 0
    work, info = lapack.dgesdd_lwork(m, n, compute_uv=1, full_matrices=0)
    if info != 0:
        raise ShapeError(f"dgesdd workspace query failed with info={info}")
    lwork = int(work)
    k = min(m, n)
    if not (a.dtype == np.float64 and SVD_FLOPS_PER_MN2 * m * n * k >= GIL_FREE_FLOPS):
        return lapack.dgesdd(a, compute_uv=1, full_matrices=0, lwork=lwork)
    af = a.copy(order="F")
    s = np.empty(k)
    u = np.empty((m, k), order="F")
    vt = np.empty((k, n), order="F")
    work = np.empty(max(lwork, 1))
    iwork = np.empty(8 * k, dtype=np.intc)
    info = ctypes.c_int(0)
    m_, n_, lda, ldvt, lwork_ = _ints(m, n, max(m, 1), max(k, 1), lwork)
    _DGESDD(b"S", m_, n_, af.ctypes.data, lda, s.ctypes.data, u.ctypes.data, lda,
            vt.ctypes.data, ldvt, work.ctypes.data, lwork_, iwork.ctypes.data,
            ctypes.byref(info))
    return u, s, vt, info.value


def dgeqrt(a: np.ndarray, nb: int) -> tuple:
    """Factor the m x n matrix ``a`` in place with block size ``nb``.

    ``a`` must be a writable float64 matrix with contiguous columns (`_operand`);
    on return it holds R and the Householder vectors in ``dgeqrf``'s layout.
    Returns ``(T, info)``: T is the min(nb, m, n) x n array of compact-WY
    triangles, whose entries ``T[j % nb, j]`` are the reflectors' ``tau``.
    """
    op = _operand(a, writable=True)
    if op is None:  # there is no scipy route to send it to
        raise ShapeError("dgeqrt needs a writable float64 matrix with contiguous columns")
    m, n = a.shape
    nb = max(1, min(nb, m, n))
    t = np.zeros((nb, n), order="F")
    work = np.empty(nb * max(n, 1))
    info = ctypes.c_int(0)
    m_, n_, nb_, lda = _ints(m, n, nb, op[1])
    _DGEQRT(m_, n_, nb_, a.ctypes.data, lda, t.ctypes.data, nb_, work.ctypes.data,
            ctypes.byref(info))
    return t, info.value


def dgemqrt(v: np.ndarray, t: np.ndarray, c: np.ndarray, j: int = 0, k: int | None = None,
            col: int | None = None) -> int:
    """Overwrite ``c[j:, col:]`` with ``H(j) ... H(j+k-1) @ c[j:, col:]``; returns info.

    ``(v, t)`` is a `dgeqrt` factorization: the m x n factored block and its
    nb x n T.  Reflectors j..j+k-1 (all of them by default) touch rows j:
    only; columns of ``c`` left of ``col`` (j by default) are skipped, which
    is exact when they vanish below row j or are formed apart.  j must start
    a T block (a multiple of nb).  All three arrays are float64 matrices with
    contiguous columns (`_operand`), passed as they stand; ``c`` is writable.
    """
    ops = _operand(v), _operand(t), _operand(c, writable=True)
    if None in ops or ops[0][0] is not v or ops[1][0] is not t:  # refused or copied
        raise ShapeError("dgemqrt needs float64 matrices with contiguous columns, c writable")
    (_, ldv), (_, ldt), (_, ldc) = ops
    m, n = v.shape
    k = n - j if k is None else k
    col = j if col is None else col
    if (t.shape[1] != n or c.shape[0] != m or not 0 <= col <= c.shape[1]
            or j < 0 or j % t.shape[0] or not 0 < k <= min(n, m) - j):
        raise ShapeError(f"dgemqrt: reflectors {j}..{j + k} of a {v.shape} factor with a "
                         f"{t.shape} T do not fit columns {col}: of a {c.shape} block")
    nb, ncols = min(t.shape[0], k), c.shape[1] - col
    work = np.empty(max(1, nb * ncols))
    info = ctypes.c_int(0)
    m_, n_, k_, nb_, ldv_, ldt_, ldc_ = _ints(m - j, ncols, k, nb, ldv, ldt, ldc)
    _DGEMQRT(b"L", b"N", m_, n_, k_, nb_, v.ctypes.data + 8 * j * (ldv + 1), ldv_,
             t.ctypes.data + 8 * j * ldt, ldt_, c.ctypes.data + 8 * (j + col * ldc), ldc_,
             work.ctypes.data, ctypes.byref(info))
    return info.value


#: Thread-count entry points of the OpenBLAS builds numpy and scipy bundle
#: (``scipy_openblas64_`` and ``scipy_openblas``).
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "scipy_openblas_{}")

#: A user's thread count in either of these wins over `blas_threads_per_rank`.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@functools.cache
def _openblas() -> tuple:
    """``(get, set)`` thread-count functions of every loaded OpenBLAS.

    The libraries are found among the process's mapped files (Linux only;
    elsewhere none are found).  numpy and scipy load theirs when imported,
    which this package does before any group runs.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _OPENBLAS_SYMBOLS:
            try:
                get = getattr(lib, pattern.format("get_num_threads"))
                put = getattr(lib, pattern.format("set_num_threads"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
            break
    return tuple(found)


def get_blas_threads() -> list:
    """The thread count of every loaded OpenBLAS, in a fixed order."""
    return [get() for get, _ in _openblas()]


def set_blas_threads(counts) -> None:
    """Set each loaded OpenBLAS's thread count (one int for all, or a list in
    `get_blas_threads` order)."""
    libs = _openblas()
    if isinstance(counts, int):
        counts = [counts] * len(libs)
    for (_, put), n in zip(libs, counts):
        put(n)


_GROUPS = threading.Lock()
_depth = 0  # simulated groups running at once, under _GROUPS
_saved: list = []  # the counts before the first of them


@contextmanager
def blas_threads_per_rank(nranks: int):
    """Cap every loaded OpenBLAS at max(1, cores // nranks) threads for the
    block, then restore the previous counts; do nothing when the user has
    set one of `BLAS_THREAD_VARIABLES`.

    The counts are global to the process, so of groups that overlap in time
    (nested, or run from several threads) the first sets them and the last
    to finish restores them; the others run under the first one's cap.  A
    count already below the cap, say one set in code, is kept.
    """
    global _depth, _saved
    if any(os.environ.get(v) for v in BLAS_THREAD_VARIABLES):
        yield
        return
    with _GROUPS:
        _depth += 1
        if _depth == 1:
            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            cap = max(1, cores // max(1, nranks))
            _saved = get_blas_threads()
            set_blas_threads([min(n, cap) for n in _saved])
    try:
        yield
    finally:
        with _GROUPS:
            _depth -= 1
            if _depth == 0:
                set_blas_threads(_saved)
