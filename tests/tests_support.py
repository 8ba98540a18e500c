"""Shared fixtures: tensors with known compressible structure, and the
environment of child processes."""

import os

import numpy as np

import ttpar
from ttpar import TTTensor, random_tt
from ttpar.core import TTCore


def redundant_pair(dims, rank, seed):
    """(x, y) with y = 2x - x: equal as tensors, y's interior bonds doubled.

    Rounding y tightly must recover x's ranks, which makes the pair the
    standard rank-recovery and L = R/2 cost-regime fixture.
    """
    x = random_tt(dims, (1,) + (rank,) * (len(dims) - 1) + (1,), seed)
    N = len(dims)
    cores = []
    for n, c in enumerate(x.cores):
        a = c.array
        rl, d, rr = a.shape
        if N == 1:
            cores.append(TTCore(a.copy()))
            continue
        if n == 0:
            z = np.zeros((1, d, 2 * rr), order="F")
            z[:, :, :rr] = 2.0 * a
            z[:, :, rr:] = -a
        elif n == N - 1:
            z = np.zeros((2 * rl, d, 1), order="F")
            z[:rl] = a
            z[rl:] = a
        else:
            z = np.zeros((2 * rl, d, 2 * rr), order="F")
            z[:rl, :, :rr] = a
            z[rl:, :, rr:] = a
        cores.append(TTCore(z))
    return x, TTTensor(cores)


def child_env():
    """This process's environment, with the imported ttpar's directory first
    on ``PYTHONPATH``, so a child process imports the same ttpar, installed
    or not."""
    src = os.path.dirname(os.path.dirname(ttpar.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
