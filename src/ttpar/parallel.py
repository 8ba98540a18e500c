"""Row-distributed TT tensors: orthonormalization and rank-truncating rounding.

Every core is split along its mode dimension into contiguous ceil-sized row
blocks, one slab per rank (`block_bounds`).  Mode-k slices stay whole, which
is what lets addition and Hadamard products run with no communication and
turns every orthonormalization panel into a row-distributed tall-skinny
matrix that TSQR can factor directly.

One engine runs both: `_qr_sweep` and `_truncate_sweep`, written once on a
forward and a backward orientation object (`cost.chain_estimate` reads its
shapes from the same two).  `orthonormalize` is one QR sweep (5 N I R^3 / P
flops to leading order).  `round_tt` compresses bond ranks to a relative
target `eps0`: a QR sweep, the norm, then a truncation sweep of TSQR + a
small replicated SVD per bond the other way (variants ``RLR``/``LRL``),
with the QR sweep optionally kept *implicit* (variants ending in ``I``) so
its orthonormal factors are only ever applied to the narrow truncated
blocks -- N I R (3R^2 + 6RL + 4L^2) / P flops instead of the explicit
variants' 5R^2 + 4RL + 4L^2 coefficient sum (a wash when nothing
truncates, a 1/8 saving at L = R/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import frexp, sqrt

import numpy as np
from scipy.linalg.blas import dasum

from .comm import Communicator, SerialComm, _check_count
from .core import TTCore, TTTensor, fill_random_slab, _check_chain
from ._kernels import SVD_FLOPS_PER_MN2, dgemm, dgesdd, dtrmm
from .errors import ContractError, NumericError, ShapeError
from .tsqr import tsqr_apply_q, tsqr_factor

ROUNDING_VARIANTS = ("LRLI", "LRL", "RLRI", "RLR")


def _check_variant(variant) -> str:
    """One of `ROUNDING_VARIANTS` in any case, returned upper-case."""
    v = str(variant).upper()
    if v not in ROUNDING_VARIANTS:
        raise ContractError(f"unknown rounding variant {v!r}; pick from {ROUNDING_VARIANTS}")
    return v


def _check_tolerance(name: str, eps) -> None:
    """A truncation tolerance is ``>= 0``; NaN fails the test too."""
    if not eps >= 0:
        raise ContractError(f"{name} must be nonnegative, got {eps}")


def block_bounds(extent: int, nranks: int, rank: int) -> tuple:
    """Contiguous ceil-sized row block of ``rank`` (may be empty at the tail)."""
    chunk = -(-extent // nranks)
    lo = min(rank * chunk, extent)
    return lo, min(lo + chunk, extent)


@dataclass
class DistTTTensor:
    """A TT tensor whose cores are row blocks of one global chain.

    ``dims``/``ranks`` are global; ``local[n]`` has shape
    ``(ranks[n], hi - lo, ranks[n+1])`` for this rank's block of mode n,
    Fortran-ordered like `TTCore`.
    """

    comm: Communicator
    dims: tuple
    ranks: tuple
    local: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dims, self.ranks = _check_chain(self.dims, self.ranks)
        if len(self.local) != len(self.dims):
            raise ShapeError(f"{len(self.local)} slabs for {len(self.dims)} modes")
        slabs = []
        for n, slab in enumerate(self.local):
            lo, hi = self.local_bounds(n)
            want = (self.ranks[n], hi - lo, self.ranks[n + 1])
            slab = np.asarray(slab, dtype=np.float64)
            if slab.shape != want:
                raise ShapeError(
                    f"mode {n} slab on rank {self.comm.rank} has shape "
                    f"{slab.shape}, block rule wants {want}"
                )
            slabs.append(np.asfortranarray(slab))
        self.local = slabs

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def local_bounds(self, n: int) -> tuple:
        return block_bounds(self.dims[n], self.comm.size, self.comm.rank)

    @classmethod
    def random(cls, comm: Communicator, dims, ranks, seed: int) -> "DistTTTensor":
        """Generate this rank's slabs directly from the per-slice streams.

        Bitwise equal to ``distribute(random_tt(dims, ranks, seed), comm)``
        without ever forming the sequential tensor.
        """
        dims, ranks = _check_chain(dims, ranks)
        slabs = []
        for n, d in enumerate(dims):
            lo, hi = block_bounds(d, comm.size, comm.rank)
            arr = np.empty((ranks[n], hi - lo, ranks[n + 1]), order="F")
            fill_random_slab(arr, n, lo, seed)
            slabs.append(arr)
        return cls(comm, dims, ranks, slabs)

    def copy(self) -> "DistTTTensor":
        return DistTTTensor(
            self.comm,
            self.dims,
            self.ranks,
            [s.copy(order="F") for s in self.local],
            dict(self.meta),
        )


def distribute(t: TTTensor, comm: Communicator) -> DistTTTensor:
    """Lay a sequential tensor onto the communicator as row blocks.

    Trailing ranks hold empty slabs on modes shorter than P.  Each slab is a
    view of ``t``'s core where that view is already Fortran-ordered -- the
    whole core at P = 1, so the result shares ``t``'s memory -- and a copy
    otherwise.
    """
    slabs = []
    for core in t.cores:
        lo, hi = block_bounds(core.dim, comm.size, comm.rank)
        slabs.append(core.array[:, lo:hi, :])
    return DistTTTensor(comm, t.dims, t.ranks, slabs)


def gather(dt: DistTTTensor) -> TTTensor:
    """Reassemble the sequential tensor on every rank (allreduce of padded slabs)."""
    cores = []
    for n, slab in enumerate(dt.local):
        lo, hi = dt.local_bounds(n)
        pad = np.zeros((dt.ranks[n], dt.dims[n], dt.ranks[n + 1]), order="F")
        pad[:, lo:hi, :] = slab
        summed = dt.comm.allreduce_sum(pad)
        cores.append(TTCore(np.asfortranarray(summed)))
    return TTTensor(cores)


class _Orientation:
    """The direction-dependent rules of a sweep through the chain.

    Forward visits cores 0..N-2 and factors each right bond, with the vertical
    unfolding as TSQR panel; backward visits N-1..1 and factors each left bond
    through the transposed horizontal unfolding.  The bond a step leaves alone
    is the core's *outer* one; R or the carry folds into core ``n + step``.
    """

    def __init__(self, forward: bool):
        self.forward = forward
        self.step = 1 if forward else -1

    def steps(self, N: int) -> range:
        return range(N - 1) if self.forward else range(N - 1, 0, -1)

    def bond(self, n: int) -> int:
        return n + 1 if self.forward else n

    def outer(self, n: int) -> int:
        return n if self.forward else n + 1

    def panel(self, slab: np.ndarray) -> np.ndarray:
        """The TSQR panel of a slab: one column per index of the factored bond."""
        rl, d, rr = slab.shape
        if self.forward:
            return slab.reshape((rl * d, rr), order="F")
        return slab.reshape((rl, d * rr), order="F").T

    def slab(self, panel: np.ndarray, n: int, d: int, ranks) -> np.ndarray:
        """Rebuild core n (``d`` local rows) from a panel of its new bond."""
        k, o = panel.shape[1], ranks[self.outer(n)]
        if self.forward:
            return np.reshape(panel, (o, d, k), order="F")
        return np.asfortranarray(panel.T).reshape((k, d, o), order="F")

    def fold(self, f: np.ndarray, slab: np.ndarray, tr, tri: bool = False) -> np.ndarray:
        """Fold a bond factor into the next core: a TSQR triangle as ``R @ H``
        or ``V @ R^T`` by dtrmm (``tri``), a (bond, keep) truncation carry C as
        ``C^T @ H`` or ``V @ C`` by dgemm, at twice the flops per entry."""
        rl, d, rr = slab.shape
        if self.forward:
            h = slab.reshape((rl, d * rr), order="F")
            out = dtrmm(1.0, f, h) if tri else dgemm(1.0, f, h, trans_a=1)
            shape = (out.shape[0], d, rr)
        else:
            v = slab.reshape((rl * d, rr), order="F")
            out = dtrmm(1.0, f, v, side=1, trans_a=1) if tri else dgemm(1.0, v, f)
            shape = (rl, d, out.shape[1])
        tr.add_flops((1.0 if tri else 2.0) * out.size * f.shape[0])
        return out.reshape(shape, order="F")

    def split(self, r: np.ndarray, eps: float, max_rank):
        """``(svd, new panel basis, carry)`` for a bond's triangle.  A forward
        panel Q R with R ~ U S V^T keeps Q U and carries V S; backward swaps."""
        if self.forward:
            t = truncated_svd(r, eps, max_rank)
            return t, t.u, t.v * t.s[None, :]
        t = truncated_svd(np.asfortranarray(r.T), eps, max_rank)
        return t, t.v, t.u * t.s[None, :]


_FORWARD, _BACKWARD = _Orientation(True), _Orientation(False)
_FORWARD.other, _BACKWARD.other = _BACKWARD, _FORWARD


def _sweeps(variant: str) -> tuple:
    """(orthonormalization, truncation) sweeps of a rounding variant: ``RLR*``
    orthonormalizes right (a backward sweep), then truncates forward."""
    return (_BACKWARD, _FORWARD) if variant.startswith("R") else (_FORWARD, _BACKWARD)


def _qr_sweep(dt: DistTTTensor, sweep: _Orientation, implicit: bool = False) -> tuple:
    """QR-sweep the chain, folding each R into the next core.

    Returns the new slabs and the TSQR factors an implicit sweep keeps in
    place of each visited core's Q (that core's slab is then None).
    """
    comm, tr = dt.comm, dt.comm.trace
    slabs, facs = list(dt.local), {}
    for n in sweep.steps(dt.ndim):
        with tr.phase("TSQR"):
            fac, r = tsqr_factor(sweep.panel(slabs[n]), comm)
        if implicit:
            facs[n], slabs[n] = fac, None
        else:
            with tr.phase("AppQ"):
                q = tsqr_apply_q(fac, np.eye(dt.ranks[sweep.bond(n)]), comm)
            slabs[n] = sweep.slab(q, n, dt.local[n].shape[1], dt.ranks)
        with tr.phase("Other"):
            slabs[n + sweep.step] = sweep.fold(r, slabs[n + sweep.step], tr, tri=True)
    return slabs, facs


def _truncate_sweep(dt, slabs, facs, sweep: _Orientation, eps, max_rank, meta) -> tuple:
    """TSQR and a replicated truncated SVD per bond, in place on ``slabs``.

    Each carry folds into the next core through its stored factor when the
    QR sweep was implicit, by gemm otherwise.  Returns the output ranks.
    """
    comm, tr = dt.comm, dt.comm.trace
    ranks = list(dt.ranks)
    for n in sweep.steps(dt.ndim):
        b, nxt = ranks[sweep.bond(n)], n + sweep.step
        with tr.phase("TSQR"):
            fac, r = tsqr_factor(sweep.panel(slabs[n]), comm)
        with tr.phase("Other"):
            tsvd, basis, carry = sweep.split(r, eps, max_rank)
            tr.add_flops(SVD_FLOPS_PER_MN2 * b**3)
            keep = basis.shape[1]
            meta["error_bound_violated"] |= tsvd.capped
        with tr.phase("AppQ"):
            q = tsqr_apply_q(fac, basis, comm)
        slabs[n] = sweep.slab(q, n, dt.local[n].shape[1], ranks)
        if slabs[nxt] is None:
            with tr.phase("AppQ"):
                q = tsqr_apply_q(facs.pop(nxt), carry, comm)
            slabs[nxt] = sweep.other.slab(q, nxt, dt.local[nxt].shape[1], ranks)
        else:
            with tr.phase("Other"):
                slabs[nxt] = sweep.fold(carry, slabs[nxt], tr)
        ranks[sweep.bond(n)] = keep
    with tr.phase("Other"):
        _check_ranks_agree(comm, ranks)
    return tuple(ranks)


def _check_ranks_agree(comm: Communicator, ranks: list) -> None:
    """One allreduce of the kept bond ranks.  The SVDs run redundantly on a
    replicated R; ranks that disagree would silently corrupt the chain."""
    if comm.size > 1:
        kept = np.array(ranks[1:-1], dtype=np.float64)
        total = comm.allreduce_sum(kept)
        if not np.array_equal(total, comm.size * kept):
            raise ContractError(
                f"ranks disagree on truncation ranks: mine={ranks[1:-1]}, sum={total}"
            )


#: A Gram carry whose size (`_size`) leaves [2^-500, 2^500] is brought back
#: to [1/4, 1) by an exact power of four, which the recurrence keeps as an
#: integer exponent; the next mode then has 2^500 of headroom either way.
#: A carry that overflowed, or whose size lies below 2^-969 where its
#: products may have lost digits to underflow (zero included), is first
#: recomputed once from the mode's slabs scaled by 2^-+600.
_CARRY_LO, _CARRY_HI = 2.0**-500, 2.0**500
_CARRY_LOST = 2.0**-969
_CARRY_SHIFT = 600


def _size(w: np.ndarray) -> float:
    """Sum of |entries| of a carry, NaN or inf when any entry is.

    BLAS dasum through scipy keeps the GIL; numpy's loops over a carry this
    large release it, and at P = 2 each such hand-off to the other rank
    thread cost more than the check itself.
    """
    return float(dasum(w.ravel()))


def _next_carry(comm: Communicator, step, slabs) -> tuple:
    """Allreduce one mode's ``step(*slabs)``; returns ``(carry, k)``, the
    mode's true Gram being carry * 2**k, or ``(None, 0)`` when that Gram is
    exactly zero, and so is the whole recurrence's value.

    The one range rescue of every norm and inner product: the Gram
    recurrences in `ttpar.ops` take it once per mode, and `_end_core_norm`
    once, on its end core's sum of squares.  The carry is replicated after
    the allreduce, so every rank takes the same branch and stops at the
    same mode.  In-window carries come back untouched (k = 0).  Powers of
    four keep a Cholesky factor of the carry an exact power-of-two multiple
    of the unscaled one, so the rescaled recurrences round exactly as the
    plain ones do wherever those stay representable.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # redone below if so
        w = comm.allreduce_sum(step(*slabs))
    top = _size(w)
    if _CARRY_LO <= top <= _CARRY_HI:
        return w, 0
    k = 0
    if not _CARRY_LOST <= top < np.inf:
        shift = _CARRY_SHIFT if top < 1.0 else -_CARRY_SHIFT  # NaN scales down
        w = comm.allreduce_sum(step(*(np.ldexp(s, shift) for s in slabs)))
        top = _size(w)
        k = -2 * shift
    if top == 0.0:
        return None, 0
    if not top < np.inf:  # non-finite input
        return w, k
    j = (frexp(top)[1] + 1) // 2  # top / 4^j lies in [1/4, 1)
    return np.ldexp(w, -2 * j), k + 2 * j


def _sqrt_scaled(m: float, e: int) -> float:
    """sqrt(m * 2^e) for an even e (the recurrences rescale by powers of
    four), clamping a roundoff-negative m to 0; raises `NumericError` if the
    result is not a finite float64."""
    with np.errstate(over="ignore"):
        val = float(np.ldexp(sqrt(max(m, 0.0)), e // 2))
    if not np.isfinite(val):
        raise NumericError(f"the tensor's norm is not finite in float64: {val}")
    return val


def _end_core_norm(comm: Communicator, end: np.ndarray) -> float:
    """Norm of a chain whose other cores are orthonormal, off its end core:
    a one-mode Gram recurrence whose 1 x 1 carry is the end core's sum of
    squares (one allreduce, two when `_next_carry` rescues its range)."""
    w, k = _next_carry(comm, lambda v: np.array([[np.dot(v, v)]]), (end.ravel(),))
    return _sqrt_scaled(0.0 if w is None else float(w[0, 0]), k)


def _require_dist(dt, name: str) -> None:
    if not isinstance(dt, DistTTTensor):
        raise ContractError(
            f"{name} takes a DistTTTensor, got {type(dt).__name__}; "
            "wrap a sequential tensor with serial_tt"
        )


def orthonormalize(dt: DistTTTensor, direction: str = "right") -> DistTTTensor:
    """QR-sweep the chain so all but one end core has orthonormal unfoldings.

    ``direction="right"`` makes the horizontal unfoldings of cores 2..N
    row-orthonormal, accumulating the triangular factors leftward into core 1
    (which then carries the tensor's norm); ``"left"`` mirrors this.  Ranks
    are unchanged; the represented tensor is unchanged up to roundoff.
    """
    _require_dist(dt, "orthonormalize")
    if direction not in ("left", "right"):
        raise ContractError(f"direction must be 'left' or 'right', got {direction!r}")
    sweep = _BACKWARD if direction == "right" else _FORWARD
    slabs = _qr_sweep(dt, sweep)[0] if dt.ndim > 1 else [dt.local[0].copy(order="F")]
    return DistTTTensor(dt.comm, dt.dims, dt.ranks, slabs, {"orthonormal": direction})


@dataclass
class TruncatedSVD:
    """Rank-revealing SVD slice: ``a ~ u @ diag(s) @ v.T`` with the smallest
    rank whose discarded tail has Frobenius norm <= eps."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    discarded_tail: float
    capped: bool


def truncated_svd(a, eps: float, max_rank: int | None = None) -> TruncatedSVD:
    """Truncate a small replicated matrix by absolute Frobenius tail norm.

    Keeps at least one singular triple; ``eps = 0`` drops exact zeros only.
    ``max_rank`` caps the rank afterwards (``capped`` reports whether the cap
    cut below the eps-rank).  ``eps`` and ``max_rank`` obey `RoundingOptions`'s
    rules for ``eps0`` and ``max_rank``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={a.ndim}")
    _check_tolerance("eps", eps)
    if max_rank is not None:
        max_rank = _check_count("max_rank", max_rank)
    if not np.isfinite(a).all():
        raise NumericError("non-finite entries in SVD input")
    u, s, vt, info = dgesdd(a)
    if info != 0:  # pragma: no cover - gesdd rarely fails
        raise NumericError(f"SVD did not converge (dgesdd info={info})")
    # tail_sq[k] = sum of squared singular values strictly after the first k,
    # in units of a power of two near s[0] so that no square over- or
    # underflows; the scaling is exact, so in range nothing else changes
    unit = float(np.ldexp(1.0, np.frexp(s[0])[1])) if s.size else 1.0
    s_unit = s / unit
    tail_sq = np.concatenate([np.cumsum((s_unit * s_unit)[::-1])[::-1], [0.0]])
    eps_unit = eps / unit
    keep = int(np.argmax(tail_sq <= eps_unit * eps_unit))
    keep = max(keep, 1)
    capped = max_rank is not None and keep > max_rank
    if capped:
        keep = max_rank
    return TruncatedSVD(
        u[:, :keep].copy(),
        s[:keep].copy(),
        vt[:keep].T.copy(),
        float(sqrt(tail_sq[keep]) * unit),
        capped,
    )


@dataclass
class RoundingOptions:
    """Target accuracy and strategy for `round_tt`.

    ``eps0 >= 0`` is relative: the result y satisfies ||y - x|| <= eps0 ||x||.
    ``variant``, in any case, picks the sweep order (orthonormalize right then
    truncate left-to-right for ``RLR*``, the mirror for ``LRL*``) and whether
    the orthonormalization sweep stays implicit (trailing ``I``).  A
    ``max_rank`` caps every output bond and is an integer >= 1.  Any other
    value (NaN included) is a `ContractError`.
    """

    eps0: float
    variant: str = "LRLI"
    max_rank: int | None = None

    def __post_init__(self):
        _check_tolerance("eps0", self.eps0)
        self.variant = _check_variant(self.variant)
        if self.max_rank is not None:
            self.max_rank = _check_count("max_rank", self.max_rank)


def _canonical_zero(dt: DistTTTensor, meta: dict) -> DistTTTensor:
    slabs = [np.zeros((1, s.shape[1], 1), order="F") for s in dt.local]
    ranks = (1,) * (dt.ndim + 1)
    return DistTTTensor(dt.comm, dt.dims, ranks, slabs, meta)


def round_tt(dt: DistTTTensor, opts: RoundingOptions) -> DistTTTensor:
    """Compress bond ranks to relative accuracy ``opts.eps0``.

    Per-bond truncation threshold is ``eps0 * ||x|| / sqrt(N - 1)``, giving
    ``||round(x) - x|| <= eps0 ||x||`` overall.  Output cores are orthonormal
    on the side the truncation sweep started from.  Tensors that are exactly
    zero collapse to the canonical rank-1 zero.
    """
    _require_dist(dt, "round_tt")
    comm, tr = dt.comm, dt.comm.trace
    N = dt.ndim
    meta = {
        "variant": opts.variant,
        "eps0": opts.eps0,
        "error_bound_violated": False,
    }
    if N == 1:
        out = dt.copy()
        out.meta.update(meta)
        return out

    orth, trunc = _sweeps(opts.variant)
    slabs, facs = _qr_sweep(dt, orth, implicit=opts.variant.endswith("I"))

    # --- norm and per-bond threshold ---
    with tr.phase("Other"):
        # the QR sweep leaves the norm in the core the truncation starts from
        norm_x = _end_core_norm(comm, slabs[trunc.steps(N)[0]])
        meta["norm"] = norm_x
        if norm_x == 0.0:
            meta["zero"] = True
            return _canonical_zero(dt, meta)
        eps = opts.eps0 * norm_x / sqrt(N - 1)
        meta["eps_bond"] = eps

    ranks = _truncate_sweep(dt, slabs, facs, trunc, eps, opts.max_rank, meta)
    meta["output_ranks"] = ranks
    return DistTTTensor(comm, dt.dims, ranks, slabs, meta)


def serial_tt(t: TTTensor) -> DistTTTensor:
    """Wrap a sequential tensor as a one-rank distributed tensor.

    No core is copied: the result's slabs share memory with ``t``'s cores.
    """
    return distribute(t, SerialComm())
