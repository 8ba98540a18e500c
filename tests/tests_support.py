"""Shared fixtures: tensors with known compressible structure, a rounding
whose ranks disagree, the identity operator, and the environment of child
processes."""

import os
import threading

import scipy.sparse as sp

import ttpar
from ttpar import (KroneckerOperator, RoundingOptions, distribute, ops, parallel, random_tt,
                   round_tt, run_spmd)


def redundant_pair(dims, rank, seed):
    """(x, y) with y = 2x - x: equal as tensors, y's interior bonds doubled.

    Rounding y tightly must recover x's ranks, which makes the pair the
    standard rank-recovery and L = R/2 cost-regime fixture.
    """
    x = random_tt(dims, (1,) + (rank,) * (len(dims) - 1) + (1,), seed)
    return x, ops.add(ops.scale(x, 2.0), ops.scale(x, -1.0))


def round_with_short_rank1(nranks, variant="LRLI"):
    """Round one tensor on ``nranks`` ranks while rank 1's truncated SVDs
    keep one singular triple fewer than the others'; returns each rank's
    output ranks."""
    svd, local = parallel.truncated_svd, threading.local()

    def short(a, eps, max_rank=None):
        t = svd(a, eps, max_rank)
        if getattr(local, "rank", None) != 1 or t.s.size < 2:
            return t
        k = t.s.size - 1
        return parallel.TruncatedSVD(t.u[:, :k], t.s[:k], t.v[:, :k], t.discarded_tail, t.capped)

    x = random_tt((6, 5, 4, 7), (1, 3, 4, 3, 1), 3)

    def body(comm):
        local.rank = comm.rank
        return round_tt(distribute(x, comm), RoundingOptions(1e-8, variant)).ranks

    parallel.truncated_svd = short
    try:
        return run_spmd(nranks, body, timeout=30.0).results
    finally:
        parallel.truncated_svd = svd


def identity_operator(dims) -> KroneckerOperator:
    """The one-term operator whose every factor is the identity."""
    return KroneckerOperator(tuple(dims), [[sp.identity(int(d), format="csr") for d in dims]])


def child_env():
    """This process's environment, with the imported ttpar's directory first
    on ``PYTHONPATH``, so a child process imports the same ttpar, installed
    or not."""
    src = os.path.dirname(os.path.dirname(ttpar.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
