"""The benchmark's workloads and the operations timed on each.

Each workload is one closed-loop process: the next call starts when the
previous one has returned on every simulated rank.  P rank threads times one
BLAS thread each stays within the two cores of the machine the workloads
were sized on.

* ``m1-p1`` -- model-1 shape at scale 0.05 (50 modes of 100, rank 50), one
  rank.  Leaf QRs of 10000 x 100 panels dominate rounding; there is no
  communication.  The single-threaded baseline.
* ``m1-p2`` -- the same inputs on two ranks: adds butterfly tree-node QRs,
  exchanges, collectives and rendezvous wait.  A ``comm`` or tree change
  shows here and must leave ``m1-p1`` unchanged.
* ``m2-p2`` -- model-2 shape at scale 1e-4 (dims 10000, 14 x 5, 100; rank
  30) on two ranks.  Interior panels are at most 300 x 60, so per-call
  overhead and small LAPACK calls dominate; the 10000-slice first mode makes
  per-slice random streams dominate set-up.  Only here does the full
  ``hadamard`` (bond rank 900, about 0.5 GB) fit; the model-1 workloads
  multiply by a rank-1 operand instead.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every timed operation, in the order one measuring cycle calls them.
OPS = ("round_lrli", "round_rlr", "ortho", "norm_ortho",
       "dot", "norm", "norm_sym", "add", "hadamard")

#: Operations that factor panels with TSQR.
TSQR_OPS = ("round_lrli", "round_rlr", "ortho", "norm_ortho")
#: Operations that communicate (all but the slab-local add and hadamard).
COMM_OPS = ("round_lrli", "round_rlr", "ortho", "norm_ortho", "dot", "norm", "norm_sym")

#: Relative accuracy asked of both rounding variants.
EPS0 = 1e-8


@dataclass(frozen=True)
class Workload:
    """One input shape on one simulated rank count.

    ``hadamard_rank`` is the bond rank of hadamard's second operand; None
    means the second input ``y`` itself.
    """

    name: str
    dims: tuple
    ranks: tuple
    P: int
    hadamard_rank: int | None


def flat_ranks(dims, rank: int) -> tuple:
    return (1,) + (rank,) * (len(dims) - 1) + (1,)


def workload(name: str, smoke: bool = False) -> Workload:
    """The named workload, or its tiny smoke-test shape when ``smoke``."""
    if name not in WORKLOAD_NAMES:
        raise KeyError(f"unknown workload {name!r}; pick from {WORKLOAD_NAMES}")
    from ttpar.cli import MODELS

    model, P = (2, 2) if name == "m2-p2" else (1, int(name[-1]))
    hadamard_rank = None if model == 2 else 1
    if smoke:
        dims = (40,) + (3,) * 4 + (8,) if model == 2 else (12,) * 6
        return Workload(name, dims, flat_ranks(dims, 3), P, hadamard_rank)
    m = MODELS[model]
    dims = m.scaled_dims(1e-4 if model == 2 else 0.05)
    return Workload(name, dims, m.ranks, P, hadamard_rank)


WORKLOAD_NAMES = ("m1-p1", "m1-p2", "m2-p2")
