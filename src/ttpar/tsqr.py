"""Communication-avoiding QR for tall-skinny matrices distributed by rows.

`tsqr_factor` reduces per-rank local QRs through a tree of pairwise QRs of
stacked R factors, producing a b x b triangular factor R and an *implicit*
representation of the orthonormal factor Q (packed Householder vectors at
the leaf plus one small factorization per tree node).  Q is never formed;
`tsqr_apply_q` pushes a b-row block back down the tree, which is all the TT
sweeps ever need.  Every block is factored at its true height: an m-row leaf
ships its k x b trapezoid R, k = min(m, b), and a node stacking k1 + k2 rows
keeps min(k1 + k2, b).  Nothing is zero-padded, so every Q in the tree is
orthonormal over real rows; only a root with fewer global rows than columns
pads its R to b x b, and its apply reads the block's first k rows.

Both trees are written once, as a per-rank exchange schedule (`_schedule`):
an ordered list of ``(level, peer, role)`` steps.  A ``pair`` step swaps R
with the peer and both ranks factor the same stacked node; a ``child`` step
receives the peer's R and factors it below this rank's; a ``parent`` step
ships R to the peer and ends the rank's part of the reduction.  Factor walks
the schedule forward, and apply walks the resulting nodes backward, handing
each child its rows of the block.

* ``butterfly`` -- ``pair`` steps only when P is a power of two, which leaves
  R (and every tree node) replicated, so the apply phase needs *no*
  communication.  Other P fold each rank above the largest power of two into
  a partner (a ``parent``/``child`` edge, the "cleanup" QR) before the
  butterfly; the partner returns the final R after it, and apply sends one
  message per such pair.
* ``binomial`` -- ``child`` and ``parent`` steps of a plain reduction tree;
  R lands on rank 0 only and the apply phase sends one message per tree edge.

The triangular factor is sign-fixed to a nonnegative diagonal, which makes R
unique for full-column-rank inputs and therefore identical no matter how the
rows are distributed.

Every QR is LAPACK Householder QR in dgeqrf's packed layout.  The kernel
depends on the panel's shape (`_wy_route`): dgeqrf only blocks from 128
columns on, so tall leaf panels of at least 48 columns go to the blocked
compact-WY dgeqrt instead.  Those keep its T factor; dormqr and dorgqr would
rebuild T or fall back to BLAS-2 code below 128 reflectors.  Their apply runs
dgemqrt on T, and when the block reaching the leaf is upper triangular (the
identity at P = 1, one of the tree's triangles above) `LocalQR.explicit_q`
builds Q times it in about 2 m b^2 flops: dgemqrt on each reflector block's
trailing columns, and the block's own columns formed from T by small
triangular products and one gemm.  Tree nodes and short panels stay on
dgeqrf, dormqr and dorgqr, with a dtrmm by the triangle after dorgqr.
scipy's wrappers of dgeqrt and dgemqrt hold the GIL, which would serialize
ranks simulated as threads, so both are called through `ttpar._kernels`,
which releases it; so are the leaf's gemm and dtrmm once they are large
enough (`_kernels.GIL_FREE_FLOPS`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from . import _kernels
from .comm import Communicator
from .errors import ContractError, NumericError, ShapeError

VARIANTS = ("butterfly", "binomial")


def _flops_geqrf(m: int, n: int) -> float:
    m, n = max(m, n), min(m, n)
    return 2.0 * m * n * n - (2.0 / 3.0) * n**3


def _flops_ormqr(m: int, c: int, k: int) -> float:
    # side="L": C is m x c, k reflectors
    return 4.0 * m * c * k - 2.0 * c * k * k


def _flops_orgqr(m: int, n: int, k: int) -> float:
    return 4.0 * m * n * k - 2.0 * (m + n) * k * k + (4.0 / 3.0) * k**3


def _flops_wy_build(m: int, b: int, nb: int) -> float:
    """Flops of `LocalQR.explicit_q` on a panel factored by dgeqrt.

    The sum over reflector blocks j = 0, nb, 2nb, ... (width ib = min(nb,
    b - j)) of what the build does for block j: dgemqrt on the trailing
    columns, ``_flops_ormqr(m - j, b - j - ib, ib)``; three ib x ib dtrmm
    for the block's own diagonal block, 3 ib^3; and the gemm below it,
    2 (m - j - ib) ib^2.  In closed form that is 2 m b^2 - (2/3) b^3 to
    leading order, dorgqr's count (`_flops_orgqr`) that `cost.chain_estimate`
    keeps, plus O(b^2 nb) terms.
    """
    q, r = divmod(b, nb)
    s1, s2 = q * (q - 1) / 2.0, (q - 1) * q * (2 * q - 1) / 6.0
    full = (4.0 * nb * (q * m * b - nb * (m + b) * s1 + nb * nb * s2)
            - 2.0 * nb * nb * (q * (m + b) - 2.0 * nb * s1) + 3.0 * q * nb**3)
    return full + 2.0 * (m - b + r) * r * r + r**3


@dataclass
class LocalQR:
    """Packed Householder QR of one m x b block at its true height: k =
    min(m, b) reflectors and a k x b upper trapezoidal R.

    ``qr`` is the block's reflectors and R in LAPACK dgeqrf's layout:
    dgeqrf's own output, or on tall panels (`_wy_route`) dgeqrt's factored
    block.  ``t`` is that T (None on dgeqrf blocks); where it is kept, `apply`
    runs dgemqrt on it instead of dormqr, and `explicit_q` builds Q for a
    triangle from it instead of dorgqr.  ``tau`` is dgeqrf's, for dormqr and
    dorgqr, and None where T is kept or the block has no rows.  ``signs``
    flips reflector columns so the stored R has a nonnegative diagonal.  A
    block without rows has no reflectors, which LAPACK rejects, so no kernel
    is called for it.
    """

    qr: np.ndarray
    tau: np.ndarray | None
    signs: np.ndarray
    t: np.ndarray | None = None

    @property
    def b(self) -> int:
        return self.qr.shape[1]

    @property
    def k(self) -> int:
        return self.signs.size

    def r(self) -> np.ndarray:
        """The sign-fixed k x b R: ``np.triu`` of the top k rows times the
        signs, the entries below the diagonal zeros of their row's sign."""
        k = self.k
        r = np.where(_strict_lower(self.b)[:k], 0.0, self.qr[:k])
        np.multiply(r, self.signs[:, None], out=r)
        return r

    def apply(self, c: np.ndarray) -> np.ndarray:
        """``Q @ c`` for a k-row block ``c``: the block's m rows."""
        c = np.asarray(c, dtype=np.float64)
        k = self.k
        if c.ndim != 2 or c.shape[0] != k:
            raise ShapeError(f"expected a ({k}, n) block, got {c.shape}")
        x = np.zeros((self.qr.shape[0], c.shape[1]), order="F")
        np.multiply(self.signs[:, None], c, out=x[:k])
        info = 0
        if self.t is not None:
            info = _kernels.dgemqrt(self.qr, self.t, x)
        elif k:
            # dormqr's workspace query answers ncols * nb + 65 * 64 for its
            # block size nb <= 64; the bound at nb = 64 keeps the blocked path
            # without a query call per apply.  k is qr's column count to it.
            lwork = max(1, c.shape[1]) * 64 + 65 * 64
            x, _, info = lapack.dormqr("L", "N", self.qr[:, :k], self.tau, x, lwork, overwrite_c=1)
        if info != 0:
            raise NumericError(f"applying Q failed with info={info}")
        return x

    def explicit_q(self, c: np.ndarray | None = None) -> np.ndarray:
        """``Q @ c`` for an upper-triangular k x k block ``c``; the thin
        orthonormal factor itself (m x k) when ``c`` is None.

        Entries below c's diagonal are ignored.  dgeqrf blocks run dorgqr,
        then dtrmm by ``c``.  With T kept (k = b), the build starts from ``[S c; 0]``
        (S the sign diagonal, the identity when ``c`` is None) and applies the
        reflector blocks last to first.  Block j (ib reflectors) touches rows
        j: only, where the columns left of it still vanish; dgemqrt applies
        it to the columns right of it, ``q[j:, j+ib:]``.  Its own columns are
        ``[c1; 0]`` in those rows, with c1 an ib x ib triangle, so they are
        formed from T directly: with W = T_j V1^T c1 they become c1 - V1 W
        over -V2 W, V1 being the unit lower triangle of the block's
        reflectors and V2 their rows below it.  That is about 2 m b^2 flops
        (`_flops_wy_build`), with no identity columns pushed through dgemqrt.
        """
        k = self.k
        if c is not None:
            c = np.asarray(c, dtype=np.float64)
            if c.shape != (k, k):
                raise ShapeError(f"expected a ({k}, {k}) triangle, got {c.shape}")
        if self.t is None:
            if not k:
                return np.zeros((self.qr.shape[0], 0))
            q, _, info = lapack.dorgqr(self.qr[:, :k], self.tau)  # scipy forms Q in a copy
            if info != 0:
                raise NumericError(f"forming Q failed with info={info}")
            q = q * self.signs[None, :]
            return q if c is None else _kernels.dtrmm(1.0, c, q, side=1, overwrite_b=1)
        v, t, b = self.qr, self.t, k
        m, nb = v.shape[0], t.shape[0]
        q = np.empty((m, b), order="F")  # every entry is written before it is read
        q[:b] = np.diag(self.signs) if c is None else self.signs[:, None] * c
        for j in range(nb * ((b - 1) // nb), -1, -nb):
            ib = min(nb, b - j)
            info = _kernels.dgemqrt(v, t, q, j, ib, col=j + ib) if j + ib < b else 0
            if info != 0:
                raise NumericError(f"forming Q failed with info={info}")
            v1 = v[j : j + ib, j : j + ib]
            c1 = np.where(_strict_lower(ib), 0.0, q[j : j + ib, j : j + ib])  # np.triu
            w = blas.dtrmm(1.0, v1, c1, lower=1, trans_a=1, diag=1)
            w = blas.dtrmm(1.0, t[:ib, j : j + ib], w, overwrite_b=1)
            q[j : j + ib, j : j + ib] = c1 - blas.dtrmm(1.0, v1, w, lower=1, diag=1)
            _kernels.dgemm(-1.0, v[j + ib :, j : j + ib], w, out=q[j + ib :, j : j + ib])
        return q


#: Block size of the compact-WY leaf factorization.
_WY_NB = 32


def _wy_route(m: int, b: int) -> bool:
    """Whether an m x b panel is factored by dgeqrt instead of dgeqrf.

    dgeqrf and dorgqr only take their blocked paths from 128 columns on
    (ilaenv's crossover), so every panel here runs their BLAS-2 code;
    dgeqrt with nb = 32 is blocked at any width, and so is the build of Q
    from its T (`LocalQR.explicit_q`).  Both are called through `_kernels`,
    which releases the GIL, because scipy's wrappers of dgeqrt and dgemqrt
    hold it while those of dgeqrf, dormqr and dorgqr release it: two
    threads, one OpenBLAS thread each, take about twice the time of one
    thread alone for scipy's dgeqrt or dgemqrt at 1000 x 64, 1.1x for its
    dgeqrf at 1000 x 60 and 1.3x for `_kernels.dgeqrt` at 1000 x 64.  The
    binding costs about 10 us per call, and the compact-WY pair loses on
    narrow or short panels.
    Factor plus explicit-Q time, what an explicit sweep pays, of dgeqrt and
    dgemqrt over dgeqrf and dorgqr, single-threaded (best of repeated calls,
    median of five; OpenBLAS 0.3.31 on a 2-core x86-64 VM; repeated tables
    differ by up to about 0.15):

    ======  =====  =====  =====  =====  ======
    b       m=2b   m=4b   m=8b   m=20b  m=100b
    ======  =====  =====  =====  =====  ======
    30      2.56   1.90   1.27   0.86   0.91
    48      1.61   0.97   0.80   0.59   0.65
    64      0.99   0.71   0.59   0.55   0.55
    100     0.59   0.61   0.44   0.48   0.33
    ======  =====  =====  =====  =====  ======

    30 columns at m = 5000 and 10000, model 2's end-core heights: 0.73, 0.69.
    The table predates the build from T (`LocalQR.explicit_q`), which forms
    Q 2.9x faster at 1000 x 64 and 1.7x faster at 10000 x 100 (single
    thread, best of 200 or 40 calls); on 192 x 48, the smallest routed
    panel, it takes 0.10 ms against 0.09 ms before.
    The rule takes the tall panels of at least 48 columns, where the gain is
    large, and leaves the tree nodes (2b x b) on dgeqrf: near break-even
    below 100 columns, and their structured kernel is dtpqrt, not dgeqrt.
    30-column panels gain only from about 20b rows on, and by less.  The
    build now does dorgqr's flops to leading order (`_flops_wy_build`), so
    routing them would no longer overcount against `cost.chain_estimate`;
    but the benchmark factors no tall 30-column panel.  Model 2's end cores
    reach its LRLI forward and RLR truncation sweeps as 5000 x 60 panels at
    two ranks, because the rounding input 2x - x has rank 60, and are
    routed already; its 30-column panels are 50 to 90 rows tall.  With no
    measured gain, 30-column panels stay on dgeqrf.
    """
    return b >= 48 and m >= 4 * b


def local_qr(block, overwrite_a: bool = False) -> tuple:
    """Sign-fixed Householder QR of a local m x b block at its true height.

    Returns ``(LocalQR, R)`` with R the k x b upper trapezoid, k = min(m, b),
    with a nonnegative diagonal; a block without rows gives a 0 x b R.  With
    ``overwrite_a`` a writable F-ordered float64 block is factored in place
    and becomes the factor's ``qr``; any other block is copied first.
    """
    a = np.asarray(block, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d block, got ndim={a.ndim}")
    m, b = a.shape
    if b < 1:
        raise ShapeError("blocks must have at least one column")
    if not np.isfinite(a).all():
        raise NumericError("non-finite entries in QR input")
    if overwrite_a and a.flags.f_contiguous and a.flags.writeable:
        af = a
    else:
        af = np.array(a, order="F", copy=True)
    t, tau, info = None, None, 0
    if _wy_route(m, b):
        t, info = _kernels.dgeqrt(af, _WY_NB)
    elif m:  # LAPACK rejects a block without rows
        af, tau, _, info = lapack.dgeqrf(af, overwrite_a=1)
    if info != 0:
        raise NumericError(f"QR of a {m} x {b} block failed with info={info}")
    fac = LocalQR(af, tau, np.where(np.diagonal(af) < 0, -1.0, 1.0), t)
    return fac, fac.r()


@dataclass
class _TreeNode:
    level: int
    top_is_self: bool
    split: int  # rows of the top part of the stack
    fac: LocalQR
    child: int | None = None


@dataclass
class TSQRFactor:
    """Implicit orthonormal factor: leaf QR + tree of stacked-pair QRs.

    ``tree`` holds this rank's tree nodes in factor order, one per ``pair``
    or ``child`` exchange of its `_schedule` (on the butterfly's partner
    ranks, the non-power-of-two cleanup node comes first); a node with a
    ``child`` hands that rank its rows of the block during apply.
    ``parent`` is the rank this one shipped its R to (None on ranks that
    never do).  ``shape`` records ``(local rows, b, P, p)``.
    """

    leaf: LocalQR
    tree: list = field(default_factory=list)
    shape: tuple = (0, 0, 1, 0)
    parent: int | None = None

    @property
    def b(self) -> int:
        return self.leaf.b


@functools.cache
def _schedule(variant: str, P: int, p: int) -> tuple:
    """Rank p's factor exchanges in order, as ``(level, peer, role)``.

    ``pair``: both ranks swap R and factor the same stacked node (butterfly
    levels).  ``child``: receive the peer's R and factor it below ours
    (binomial edges and the butterfly's non-power-of-two fold).
    ``parent``: ship R to the peer and stop.
    """
    if variant == "binomial":
        steps = ()
        for level in range((P - 1).bit_length()):  # ceil(log2 P) levels
            step = 1 << level
            if p & step:
                return steps + ((level, p - step, "parent"),)
            if p + step < P:
                steps += ((level, p + step, "child"),)
        return steps
    floor_log = P.bit_length() - 1
    p_reg = 1 << floor_log
    if p >= p_reg:
        return ((floor_log, p - p_reg, "parent"),)
    steps = ((floor_log, p + p_reg, "child"),) if p + p_reg < P else ()
    return steps + tuple((level, p ^ (1 << level), "pair")
                         for level in range(floor_log - 1, -1, -1))


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
    (m, b), P, p = a.shape, comm.size, comm.rank
    comm.trace.add_flops(_flops_geqrf(m, b))
    tree, parent = [], None
    for level, peer, role in _schedule(variant, P, p):
        if role == "parent":
            comm.sendrecv(peer, r)
            r, parent = None, peer
            break
        r_peer = comm.sendrecv(peer, r if role == "pair" else np.zeros(0))
        top = role == "child" or p < peer
        upper, lower = (r, r_peer) if top else (r_peer, r)
        node = np.empty((len(upper) + len(lower), b), order="F")  # factored in place
        node[: len(upper)], node[len(upper) :] = upper, lower
        fac, r = local_qr(node, overwrite_a=True)
        comm.trace.add_flops(_flops_geqrf(*node.shape))
        tree.append(_TreeNode(level, top, len(upper), fac, peer if role == "child" else None))
    if variant == "butterfly":
        # a rank folded in above the largest power of two gets the final R back
        if parent is not None:
            r = comm.sendrecv(parent, np.zeros(0))
        elif tree and tree[0].child is not None:
            comm.sendrecv(tree[0].child, r)
    if r is not None and len(r) < b:  # fewer global rows than columns
        r = np.vstack([r, np.zeros((b - len(r), b))])
    return TSQRFactor(leaf, tree, (m, b, P, p), parent), r


def tsqr_apply_q(factor: TSQRFactor, c, comm: Communicator) -> np.ndarray:
    """Apply the implicit Q to a b-row block: returns the local rows of Q @ c.

    The block starts from ``c`` on ranks without a parent and arrives from
    the parent elsewhere; it then descends this rank's tree nodes in reverse
    factor order at each node's true height; a short root takes ``c``'s first
    rows only.  With ``c = I_b`` this materializes the thin Q.  Whenever
    a b-row block reaching the leaf is structurally upper triangular (on any
    rank; the identity included), the leaf takes the cheaper explicit-Q
    route: 2mb^2 instead of dormqr's 4mb^2.  ``comm`` must have the size and
    rank the factor was made on, at every P; anything else, None included,
    is a `ContractError`.  Flops go to its trace.
    """
    c2 = np.asarray(c, dtype=np.float64)
    if c2.ndim != 2 or c2.shape[0] != factor.b:
        raise ShapeError(f"expected a ({factor.b}, k) block, got {c2.shape}")
    if comm is None or (comm.size, comm.rank) != factor.shape[2:]:
        raise ContractError("a TSQR factor applies only on the communicator layout it was made on")

    top = factor.tree[-1].fac if factor.tree else factor.leaf
    block = c2[: top.k] if factor.parent is None else comm.sendrecv(factor.parent, np.zeros(0))
    for node in reversed(factor.tree):
        both = node.fac.apply(block)
        comm.trace.add_flops(_flops_ormqr(len(both), block.shape[1], node.fac.k))
        if node.child is not None:
            comm.sendrecv(node.child, both[node.split :])
        block = both[: node.split] if node.top_is_self else both[node.split :]
    leaf, (m, b) = factor.leaf, factor.leaf.qr.shape
    if len(block) == b and _is_upper_triangular(block):
        tri = None if _is_identity(block) else block
        if leaf.t is not None:
            comm.trace.add_flops(_flops_wy_build(m, b, leaf.t.shape[0]))
        else:
            comm.trace.add_flops(_flops_orgqr(m, b, b))
            if tri is not None:
                comm.trace.add_flops(float(m) * b * b)
        return leaf.explicit_q(tri)
    comm.trace.add_flops(_flops_ormqr(m, block.shape[1], leaf.k))
    return leaf.apply(block)


# a sweep meets a few bond ranks; the bound keeps b^2-sized entries few
@functools.lru_cache(maxsize=8)
def _strict_lower(b: int) -> np.ndarray:
    """The read-only b x b mask of entries below the diagonal (``np.tri``'s)."""
    mask = np.tri(b, b, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=8)
def _identity(b: int) -> np.ndarray:
    eye = np.eye(b)
    eye.flags.writeable = False
    return eye


def _is_upper_triangular(c: np.ndarray) -> bool:
    """``not np.tril(c, -1).any()`` for a square c: no nonzero (NaN included)
    below the diagonal."""
    if c.shape[0] != c.shape[1]:
        return False
    return not c[_strict_lower(c.shape[0])].any()


def _is_identity(c: np.ndarray) -> bool:
    """``np.array_equal(c, np.eye(len(c)))`` against a cached identity."""
    eye = _identity(c.shape[0])
    return c.shape == eye.shape and bool((c == eye).all())

