"""LAPACK's compact-WY QR (``dgeqrt``) called without the GIL.

scipy's own ``scipy.linalg.lapack.dgeqrt`` wrapper holds the GIL for the
whole call, so ranks simulated as threads would take turns.  This module
takes the same routine's function pointer from the capsules scipy exports in
``scipy.linalg.cython_lapack.__pyx_capi__`` (the route numba uses too) and
calls it through a `ctypes.CFUNCTYPE` prototype, which releases the GIL for
the duration of the call.  Results are bitwise those of scipy's wrapper.
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


# dgeqrt(m, n, nb, a, lda, t, ldt, work, info): integers by reference, arrays
# by their data address
_INT = ctypes.POINTER(ctypes.c_int)
_ARRAY = ctypes.c_void_p
_DGEQRT = ctypes.CFUNCTYPE(None, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)(
    _capsule_pointer("dgeqrt"))


def dgeqrt(a: np.ndarray, nb: int) -> tuple:
    """Factor the m x n matrix ``a`` in place with block size ``nb``.

    ``a`` must be a writable F-contiguous float64 array; on return it holds R
    and the Householder vectors in ``dgeqrf``'s layout.  Returns ``(T, info)``:
    T is the min(nb, m, n) x n array of compact-WY triangles, whose entries
    ``T[j % nb, j]`` are the reflectors' ``tau``.
    """
    if (a.ndim != 2 or a.dtype != np.float64 or not a.flags.f_contiguous
            or not a.flags.writeable):
        raise ShapeError("dgeqrt needs a writable 2-d F-contiguous float64 array")
    m, n = a.shape
    nb = max(1, min(nb, m, n))
    t = np.zeros((nb, n), order="F")
    work = np.empty(nb * max(n, 1))
    info = ctypes.c_int(0)
    m_, n_, nb_, lda = (ctypes.byref(ctypes.c_int(v)) for v in (m, n, nb, max(m, 1)))
    _DGEQRT(m_, n_, nb_, a.ctypes.data, lda, t.ctypes.data, nb_, work.ctypes.data,
            ctypes.byref(info))
    return t, info.value
