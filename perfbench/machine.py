"""BLAS thread pinning, the environment record and the kernel calibration.

numpy and scipy each bundle their own OpenBLAS (``scipy_openblas64_`` and
``scipy_openblas``).  Both are found among the process's mapped libraries
and driven through ctypes, so the thread count that the benchmark sets is
also read back from the libraries themselves.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import statistics
import time

import numpy as np
import scipy
from scipy.linalg import blas, lapack


#: glibc mallopt settings: one arena, large blocks from the heap up to the
#: 32 MiB ceiling, and no trimming.  glibc's adaptive mmap threshold otherwise
#: makes the page-fault cost of an allocation depend on what was freed
#: before it, which moved ``add`` between 0.1 s and 0.3 s from call to call.
MALLOPT = {"M_ARENA_MAX": (-8, 1), "M_MMAP_THRESHOLD": (-3, 32 << 20),
           "M_TRIM_THRESHOLD": (-1, 2**31 - 1)}


def steady_allocator() -> dict:
    """Apply `MALLOPT`; returns what was set (empty off glibc)."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {}
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return {name: value for name, (param, value) in MALLOPT.items() if mallopt(param, value) == 1}


def _openblas_libs() -> dict:
    """Loaded OpenBLAS libraries by file name, with their symbol suffix."""
    libs = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return libs
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            try:
                getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            except AttributeError:
                continue
            libs[os.path.basename(path)] = (lib, suffix)
            break
    return libs


def _call(lib, name, restype, *args):
    fn = getattr(lib, name)
    fn.restype = restype
    fn.argtypes = [ctypes.c_int] * len(args)
    return fn(*args)


def pin_blas_threads(n: int) -> dict:
    """Give every loaded OpenBLAS ``n`` threads; returns the count read back."""
    out = {}
    for name, (lib, sfx) in _openblas_libs().items():
        _call(lib, "scipy_openblas_set_num_threads" + sfx, None, n)
        out[name] = _call(lib, "scipy_openblas_get_num_threads" + sfx, ctypes.c_int)
    return out


def environment() -> dict:
    """What the numbers were measured on."""
    nproc = len(os.sched_getaffinity(0))
    builds = {name: _call(lib, "scipy_openblas_get_config" + sfx, ctypes.c_char_p).decode()
              for name, (lib, sfx) in _openblas_libs().items()}
    mpi = importlib.util.find_spec("mpi4py") is not None
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": builds,
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "not_measured": [
            f"wall-clock scaling beyond P={nproc} (only {nproc} cores)",
            "the MPI backend" + ("" if mpi else " (mpi4py is not installed)"),
        ],
    }


def largest_panel(dims, ranks, P: int) -> tuple:
    """Local rows and columns of the panel with the most QR flops that a sweep
    over the doubled (rounding input) chain factors on one rank."""
    doubled = (1,) + tuple(2 * r for r in ranks[1:-1]) + (1,)
    panels = []
    for n, d in enumerate(dims):
        rows = -(-d // P)
        panels.append((doubled[n] * rows, doubled[n + 1]))
        panels.append((rows * doubled[n + 1], doubled[n]))
    return max(panels, key=lambda mb: mb[0] * mb[1] * mb[1])


def calibrate(m: int, b: int, repeats: int = 5) -> dict:
    """Single-thread dgemm (m x b times b x b) and dgeqrf GF/s on one panel."""
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.standard_normal((m, b)))
    c = np.asfortranarray(rng.standard_normal((b, b)))

    def rate(flops, fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return flops / statistics.median(times) / 1e9

    gemm = rate(2.0 * m * b * b, lambda: blas.dgemm(1.0, a, c))
    qr = rate(2.0 * m * b * b - (2.0 / 3.0) * b**3,
              lambda: lapack.dgeqrf(a, overwrite_a=0))
    return {"panel": [m, b], "gemm_gflops": gemm, "geqrf_gflops": qr}
