"""LAPACK's compact-WY QR pair (``dgeqrt``, ``dgemqrt``) called without the GIL.

scipy's own ``scipy.linalg.lapack`` wrappers of these routines hold the GIL
for the whole call, so ranks simulated as threads would take turns.  This
module takes the routines' function pointers from the capsules scipy exports
in ``scipy.linalg.cython_lapack.__pyx_capi__`` (the route numba uses too) and
calls them through `ctypes.CFUNCTYPE` prototypes, which release the GIL for
the duration of each call.  Results are bitwise those of scipy's wrappers.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy.linalg import cython_lapack

from .errors import ShapeError


def _capsule_pointer(name: str) -> int:
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


# integers and characters by reference, arrays by their data address
_INT = ctypes.POINTER(ctypes.c_int)
_CHAR = ctypes.c_char_p
_ARRAY = ctypes.c_void_p
# dgeqrt(m, n, nb, a, lda, t, ldt, work, info)
_DGEQRT = ctypes.CFUNCTYPE(None, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)(
    _capsule_pointer("dgeqrt"))
# dgemqrt(side, trans, m, n, k, nb, v, ldv, t, ldt, c, ldc, work, info)
_DGEMQRT = ctypes.CFUNCTYPE(None, _CHAR, _CHAR, _INT, _INT, _INT, _INT, _ARRAY, _INT,
                            _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)(
    _capsule_pointer("dgemqrt"))


def _check(name: str, a: np.ndarray, writable: bool = False) -> None:
    if (a.ndim != 2 or a.dtype != np.float64 or not a.flags.f_contiguous
            or (writable and not a.flags.writeable)):
        kind = "writable " if writable else ""
        raise ShapeError(f"{name} needs a {kind}2-d F-contiguous float64 array")


def _ints(*values: int) -> list:
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


def dgeqrt(a: np.ndarray, nb: int) -> tuple:
    """Factor the m x n matrix ``a`` in place with block size ``nb``.

    ``a`` must be a writable F-contiguous float64 array; on return it holds R
    and the Householder vectors in ``dgeqrf``'s layout.  Returns ``(T, info)``:
    T is the min(nb, m, n) x n array of compact-WY triangles, whose entries
    ``T[j % nb, j]`` are the reflectors' ``tau``.
    """
    _check("dgeqrt", a, writable=True)
    m, n = a.shape
    nb = max(1, min(nb, m, n))
    t = np.zeros((nb, n), order="F")
    work = np.empty(nb * max(n, 1))
    info = ctypes.c_int(0)
    m_, n_, nb_, lda = _ints(m, n, nb, max(m, 1))
    _DGEQRT(m_, n_, nb_, a.ctypes.data, lda, t.ctypes.data, nb_, work.ctypes.data,
            ctypes.byref(info))
    return t, info.value


def dgemqrt(v: np.ndarray, t: np.ndarray, c: np.ndarray, j: int = 0, k: int | None = None) -> int:
    """Overwrite ``c[j:, j:]`` with ``H(j) ... H(j+k-1) @ c[j:, j:]``; returns info.

    ``(v, t)`` is a `dgeqrt` factorization: the m x n factored block and its
    nb x n T.  Reflectors j..j+k-1 (all of them by default) touch rows j:
    only, so the offset j indexes rows and columns alike; columns of ``c``
    left of j are skipped, which is exact when they vanish below row j.  j
    must start a T block (a multiple of nb).  ``c`` must be writable; all
    three arrays are F-contiguous float64.
    """
    _check("dgemqrt", v)
    _check("dgemqrt", t)
    _check("dgemqrt", c, writable=True)
    m, n = v.shape
    k = n - j if k is None else k
    if (t.shape[1] != n or c.shape[0] != m or not 0 <= j <= c.shape[1]
            or j % t.shape[0] or not 0 < k <= min(n, m) - j):
        raise ShapeError(f"dgemqrt: reflectors {j}..{j + k} of a {v.shape} factor with a "
                         f"{t.shape} T do not fit a {c.shape} block")
    nb, ncols = min(t.shape[0], k), c.shape[1] - j
    work = np.empty(max(1, nb * ncols))
    info = ctypes.c_int(0)
    m_, n_, k_, nb_, ldv, ldt = _ints(m - j, ncols, k, nb, m, t.shape[0])
    _DGEMQRT(b"L", b"N", m_, n_, k_, nb_, v.ctypes.data + 8 * j * (m + 1), ldv,
             t.ctypes.data + 8 * j * t.shape[0], ldt, c.ctypes.data + 8 * j * (m + 1), ldv,
             work.ctypes.data, ctypes.byref(info))
    return info.value
