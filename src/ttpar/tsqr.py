"""Communication-avoiding QR for tall-skinny matrices distributed by rows.

`tsqr_factor` reduces per-rank local QRs through a tree of pairwise QRs of
stacked b x b triangles, producing a b x b triangular factor R and an
*implicit* representation of the orthonormal factor Q (packed Householder
vectors at the leaf plus one small factorization per tree node).  Q is never
formed; `tsqr_apply_q` pushes a b-row block back down the tree, which is all
the TT sweeps ever need.

Two trees are provided:

* ``butterfly`` -- an all-to-all exchange pattern that leaves R (and every
  tree node) replicated, so the apply phase needs *no* communication when P
  is a power of two.  Other P are handled by folding the ranks above the
  largest power of two into partner ranks with one extra "cleanup" QR before
  the butterfly and one return message after it (and one message per such
  pair during apply).
* ``binomial`` -- a plain reduction tree; R lands on rank 0 only and the
  apply phase sends one message per tree edge.

The triangular factor is sign-fixed to a nonnegative diagonal, which makes R
unique for full-column-rank inputs and therefore identical no matter how the
rows are distributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.linalg.blas import dtrmm

from .comm import Communicator, SpmdRun
from .errors import CapabilityError, ContractError, NumericError, ShapeError

VARIANTS = ("butterfly", "binomial")


def _flops_geqrf(m: int, n: int) -> float:
    m, n = max(m, n), min(m, n)
    return 2.0 * m * n * n - (2.0 / 3.0) * n**3


def _flops_ormqr(m: int, c: int, k: int) -> float:
    # side="L": C is m x c, k reflectors
    return 4.0 * m * c * k - 2.0 * c * k * k


def _flops_orgqr(m: int, n: int, k: int) -> float:
    return 4.0 * m * n * k - 2.0 * (m + n) * k * k + (4.0 / 3.0) * k**3


@dataclass
class LocalQR:
    """Packed Householder QR of one block, zero-padded to at least b rows.

    ``qr``/``tau`` are the raw LAPACK geqrf outputs of the padded block;
    ``signs`` flips reflector columns so the stored R has a nonnegative
    diagonal; ``rows`` is the original (unpadded) row count, which may be
    anything >= 0 -- zero-row blocks contribute R = 0.
    """

    qr: np.ndarray
    tau: np.ndarray
    signs: np.ndarray
    rows: int

    @property
    def b(self) -> int:
        return self.qr.shape[1]

    def r(self) -> np.ndarray:
        return np.triu(self.qr[: self.b, : self.b]) * self.signs[:, None]

    def apply(self, c: np.ndarray) -> np.ndarray:
        """``Q @ [c; 0]`` for a b-row block ``c``, trimmed to `rows` rows."""
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != self.b:
            raise ShapeError(f"expected a ({self.b}, k) block, got {c.shape}")
        x = np.zeros((self.qr.shape[0], c.shape[1]), order="F")
        x[: self.b] = self.signs[:, None] * c
        lwork = _ormqr_lwork(self.qr, self.tau, x)
        cq, _, info = lapack.dormqr("L", "N", self.qr, self.tau, x, lwork, overwrite_c=1)
        if info != 0:
            raise NumericError(f"dormqr failed with info={info}")
        return cq[: self.rows]

    def explicit_q(self) -> np.ndarray:
        """The thin orthonormal factor itself (`rows` x b), via dorgqr."""
        q, _, info = lapack.dorgqr(self.qr.copy(order="F"), self.tau)
        if info != 0:
            raise NumericError(f"dorgqr failed with info={info}")
        return q[: self.rows] * self.signs[None, :]


def _ormqr_lwork(qr, tau, c):
    _, work, info = lapack.dormqr("L", "N", qr, tau, c, -1)
    if info != 0:
        raise NumericError(f"dormqr workspace query failed with info={info}")
    return max(1, int(work[0]))


def local_qr(block) -> tuple:
    """Sign-fixed Householder QR of a local block.

    Returns ``(LocalQR, R)`` with R upper triangular, b x b, nonnegative
    diagonal.  Blocks with fewer rows than columns (including zero rows) are
    padded with zero rows so R is always full size.
    """
    a = np.asarray(block, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d block, got ndim={a.ndim}")
    m, b = a.shape
    if b < 1:
        raise ShapeError("blocks must have at least one column")
    if not np.isfinite(a).all():
        raise NumericError("non-finite entries in QR input")
    if m < b:
        pad = np.zeros((b, b), order="F")
        pad[:m] = a
        af = pad
    else:
        af = np.array(a, order="F", copy=True)
    qr, tau, _, info = lapack.dgeqrf(af, overwrite_a=1)
    if info != 0:
        raise NumericError(f"dgeqrf failed with info={info}")
    diag = np.diagonal(qr)[:b]
    signs = np.where(diag < 0, -1.0, 1.0)
    fac = LocalQR(qr, tau, signs, rows=m)
    return fac, fac.r()


@dataclass
class _TreeNode:
    level: int
    top_is_self: bool
    fac: LocalQR


@dataclass
class TSQRFactor:
    """Implicit orthonormal factor: leaf QR + tree of stacked-pair QRs.

    ``tree`` holds butterfly levels in factor order (coarsest exchange
    first); ``star`` is the non-power-of-two cleanup node on partner ranks.
    ``shape`` records ``(local rows, b, P, p)``.  Binomial factors also note
    ``exit_level``, the level at which this rank shipped its R upward.
    """

    leaf: LocalQR
    tree: list = field(default_factory=list)
    star: _TreeNode | None = None
    variant: str = "butterfly"
    shape: tuple = (0, 0, 1, 0)
    exit_level: int | None = None

    @property
    def b(self) -> int:
        return self.leaf.b


def _charge(comm, flops):
    comm.trace.add_flops(flops)


def tsqr_factor(local_block, comm: Communicator, variant: str = "butterfly"):
    """Factor a row-distributed matrix; every rank passes its own row block.

    Returns ``(TSQRFactor, R)``.  With the butterfly tree R is replicated on
    all ranks; with the binomial tree only rank 0 gets R (others get None).
    Column counts must agree across ranks -- they describe one global matrix.
    """
    if variant not in VARIANTS:
        raise ContractError(f"unknown TSQR variant {variant!r}; pick from {VARIANTS}")
    a = np.asarray(local_block, dtype=np.float64)
    leaf, r = local_qr(a)
    _charge(comm, _flops_geqrf(max(leaf.rows, leaf.b), leaf.b))
    P, p = comm.size, comm.rank
    shape = (leaf.rows, leaf.b, P, p)
    if P == 1:
        return TSQRFactor(leaf, [], None, variant, shape), r
    if variant == "butterfly":
        return _butterfly_factor(leaf, r, comm, shape)
    return _binomial_factor(leaf, r, comm, shape)


def _butterfly_factor(leaf, r, comm, shape):
    P, p = comm.size, comm.rank
    b = leaf.b
    floor_log = P.bit_length() - 1
    p_reg = 1 << floor_log
    n_rem = P - p_reg

    if p >= p_reg:
        # Remainder rank: hand the leaf triangle to the partner, sit out the
        # butterfly, and collect the final R afterwards.
        partner = p - p_reg
        comm.sendrecv(partner, r)
        r_final = comm.sendrecv(partner, np.zeros(0))
        return TSQRFactor(leaf, [], None, "butterfly", shape), r_final

    star = None
    if p < n_rem:
        r_extra = comm.sendrecv(p + p_reg, np.zeros(0))
        fac, r = local_qr(np.vstack([r, r_extra]))
        _charge(comm, _flops_geqrf(2 * b, b))
        star = _TreeNode(floor_log, True, fac)

    tree = []
    for level in range(floor_log - 1, -1, -1):
        width = 1 << (level + 1)
        partner = (p // width) * width + (p + (1 << level)) % width
        r_peer = comm.sendrecv(partner, r)
        stacked = np.vstack([r, r_peer] if p < partner else [r_peer, r])
        fac, r = local_qr(stacked)
        _charge(comm, _flops_geqrf(2 * b, b))
        tree.append(_TreeNode(level, p < partner, fac))

    if p < n_rem:
        comm.sendrecv(p + p_reg, r)
    return TSQRFactor(leaf, tree, star, "butterfly", shape), r


def _binomial_factor(leaf, r, comm, shape):
    P, p = comm.size, comm.rank
    b = leaf.b
    levels = (P - 1).bit_length()  # ceil(log2 P)
    tree = []
    exit_level = None
    for level in range(levels):
        step = 1 << level
        width = step << 1
        if p % width == 0:
            child = p + step
            if child < P:
                r_child = comm.sendrecv(child, np.zeros(0))
                fac, r = local_qr(np.vstack([r, r_child]))
                _charge(comm, _flops_geqrf(2 * b, b))
                tree.append(_TreeNode(level, True, fac))
        elif p % width == step:
            comm.sendrecv(p - step, r)
            exit_level = level
            break
    fac = TSQRFactor(leaf, tree, None, "binomial", shape, exit_level)
    return fac, (r if p == 0 else None)


def tsqr_apply_q(factor: TSQRFactor, c, comm: Communicator) -> np.ndarray:
    """Apply the implicit Q to a b-row block: returns the local rows of Q @ [c; 0].

    With ``c = I_b`` this materializes the thin Q.  Whenever the block that
    reaches the leaf is structurally upper triangular (on any rank; the
    identity included), the leaf takes the cheaper explicit-Q route: 2mb^2
    instead of dormqr's 4mb^2.
    """
    c2 = np.asarray(c, dtype=np.float64)
    if c2.ndim != 2 or c2.shape[0] != factor.b:
        raise ShapeError(f"expected a ({factor.b}, k) block, got {c2.shape}")
    P, p = factor.shape[2], factor.shape[3]
    b = factor.b
    if P > 1:
        if comm is None:
            raise ContractError("a multi-rank factor needs its communicator to apply")
        if (comm.size, comm.rank) != (P, p):
            raise ContractError("factor belongs to a different communicator layout")

    if P == 1:
        return _apply_leaf(factor.leaf, c2, comm)

    if factor.variant == "butterfly":
        floor_log = P.bit_length() - 1
        p_reg = 1 << floor_log
        if p >= p_reg:
            mine = comm.sendrecv(p - p_reg, np.zeros(0))
            return _apply_leaf(factor.leaf, mine, comm)
        block = c2
        for node in reversed(factor.tree):
            both = node.fac.apply(block)
            _charge(comm, _flops_ormqr(2 * b, block.shape[1], b))
            block = both[:b] if node.top_is_self else both[b:]
        if factor.star is not None:
            both = factor.star.fac.apply(block)
            _charge(comm, _flops_ormqr(2 * b, block.shape[1], b))
            comm.sendrecv(p + p_reg, both[b:])
            block = both[:b]
        return _apply_leaf(factor.leaf, block, comm)

    # binomial: descend the reduction tree, handing each child its half
    if p == 0:
        block = c2
    else:
        block = None
    levels = (P - 1).bit_length()
    nodes = {node.level: node for node in factor.tree}
    for level in range(levels - 1, -1, -1):
        step = 1 << level
        if block is None:
            if factor.exit_level == level:
                block = comm.sendrecv(p - step, np.zeros(0))
            continue
        node = nodes.get(level)
        if node is not None:
            both = node.fac.apply(block)
            _charge(comm, _flops_ormqr(2 * b, block.shape[1], b))
            comm.sendrecv(p + step, both[b:])
            block = both[:b]
    return _apply_leaf(factor.leaf, block, comm)


def _apply_leaf(leaf: LocalQR, block: np.ndarray, comm) -> np.ndarray:
    m_pad = leaf.qr.shape[0]
    b = leaf.b
    if _is_upper_triangular(block):
        q = leaf.explicit_q()
        if comm is not None:
            _charge(comm, _flops_orgqr(m_pad, b, b))
        if block.shape[1] == b and np.array_equal(block, np.eye(b)):
            return q
        out = dtrmm(1.0, block, np.asfortranarray(q), side=1, lower=0, trans_a=0)
        if comm is not None:
            comm.trace.add_flops(float(q.shape[0]) * b * block.shape[1])
        return out
    out = leaf.apply(block)
    if comm is not None:
        _charge(comm, _flops_ormqr(m_pad, block.shape[1], b))
    return out


def _is_upper_triangular(c: np.ndarray) -> bool:
    if c.shape[0] != c.shape[1]:
        return False
    return not np.tril(c, -1).any()


def message_trace(run: SpmdRun):
    """Per-rank, per-phase ``(messages, words)`` from a simulated run.

    Only the simulated backend records traces; anything else is a capability
    error.
    """
    if not isinstance(run, SpmdRun) or not run.traces:
        raise CapabilityError("message traces are only available from simulated runs")
    out = []
    for tr in run.traces:
        phases = sorted(set(tr.messages) | set(tr.words))
        out.append({ph: (int(tr.messages.get(ph, 0)), int(tr.words.get(ph, 0))) for ph in phases})
    return out
