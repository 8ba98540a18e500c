"""Distributed-memory tensor-train kernels.

Sequential containers and dense oracles live in `ttpar.core`; the SPMD
transport contract and its simulated/MPI backends in `ttpar.comm`; tall-skinny
QR trees in `ttpar.tsqr`; TT arithmetic in `ttpar.ops`; distributed tensors,
orthonormalization, and rounding in `ttpar.parallel`; the alpha-beta-gamma
cost model in `ttpar.cost`; and the benchmark CLI in `ttpar.cli`.
"""

from .comm import (
    CostModelParams,
    SerialComm,
    SimComm,
    Trace,
    run_spmd,
)
from .core import (
    TTTensor,
    entry,
    full,
    load_tt,
    random_tt,
    save_tt,
    verify_quadprod,
)
from .ops import (
    KroneckerOperator,
    add,
    apply_operator,
    hadamard,
    inner_product,
    load_operator,
    norm,
    save_operator,
    scale,
)
from .parallel import (
    DistTTTensor,
    RoundingOptions,
    TruncatedSVD,
    block_bounds,
    distribute,
    gather,
    orthonormalize,
    round_tt,
    truncated_svd,
)
from .tsqr import TSQRFactor, tsqr_apply_q, tsqr_factor

__version__ = "0.1.0"

__all__ = [
    "CostModelParams",
    "DistTTTensor",
    "KroneckerOperator",
    "RoundingOptions",
    "SerialComm",
    "SimComm",
    "TSQRFactor",
    "TTTensor",
    "Trace",
    "TruncatedSVD",
    "add",
    "apply_operator",
    "block_bounds",
    "distribute",
    "entry",
    "full",
    "gather",
    "hadamard",
    "inner_product",
    "load_operator",
    "load_tt",
    "norm",
    "orthonormalize",
    "random_tt",
    "round_tt",
    "save_operator",
    "save_tt",
    "scale",
    "truncated_svd",
    "tsqr_apply_q",
    "tsqr_factor",
    "verify_quadprod",
    "run_spmd",
    "__version__",
]
