"""TT arithmetic on row-distributed tensors.

Every op runs one body on a `DistTTTensor`; a sequential `TTTensor` is its
one-rank case, entering and leaving through `ttpar.parallel._enter`, the
rule `orthonormalize` and `round_tt` follow too.

All of these operate slab-locally where the math allows it: scaling touches
one core, addition of one or more operands writes each block-diagonal core
once, and the Hadamard product takes slicewise Kronecker products -- none of
them communicate.  Inner products and norms reduce one small Gram matrix per
mode (an allreduce each); the symmetric norm factors each carry by an
unpivoted Cholesky (dpotrf) and runs the pivoted, checked one (dpstrf) only
when dpotrf rejects the carry.  `add` and `apply_operator` place their
operands' slabs by one rule, `_stack`; `apply_operator`, the only op that
moves core data between ranks (just the mode slices its sparsity couples),
writes each term's mode product straight into its block of the sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpstrf

from ._kernels import dgemm, dsyrk, dtrmm
from .comm import _check_count
from .errors import CapacityError, ContractError, NumericError, ShapeError
from .parallel import (
    _BACKWARD,
    DistTTTensor,
    RoundingOptions,
    _end_core_norm,
    _enter,
    _next_carry,
    _qr_sweep,
    _sqrt_scaled,
    block_bounds,
    orthonormalize,  # noqa: F401  (re-exported; perfbench/spans.py wraps ops.orthonormalize)
    round_tt,
)

NORM_METHODS = ("innerprod", "innerprod_sym", "ortho")

#: Hadamard refuses to build bond ranks above this unless overridden.
HADAMARD_RANK_GUARD = 4096

_PSTRF_RTOL = 1e-14  # rank-reveal pivot tolerance, relative to the max diagonal
_GRAM_RESID_RTOL = 1e-6  # reconstruction residual that triggers the fallback


def _check_operands(*xs):
    """``(ds, leave)``: every operand `_enter`ed and the first one's ``leave``;
    sequential operands share one `SerialComm`."""
    first, leave = _enter(xs[0])
    ds = [first]
    for x in xs[1:]:
        ds.append(_enter(x, None if first is xs[0] else first.comm)[0])
        if (first is xs[0]) != (ds[-1] is x):
            raise ContractError("cannot mix sequential and distributed tensors")
        if ds[-1].comm is not first.comm:
            raise ContractError("operands live on different communicators")
        if ds[-1].dims != first.dims:
            raise ShapeError(f"dimension mismatch: {first.dims} vs {ds[-1].dims}")
    return ds, leave


def scale(x, s: float):
    """Multiply by a scalar (folded into the first core; no communication)."""
    dt, leave = _enter(x)
    out = [np.multiply(dt.local[0], float(s), order="F")]
    out += [sl.copy(order="F") for sl in dt.local[1:]]
    return leave(DistTTTensor(dt.comm, dt.dims, dt.ranks, out))


def _stack(like: DistTTTensor, ranks, modes) -> DistTTTensor:
    """A TT sum with bond ranks ``ranks``, on ``like``'s communicator and
    dims, each of its cores allocated once.

    ``modes`` yields, mode by mode, the operands' slabs, with as many rows as
    ``like``'s; they may be produced lazily.  End cores concatenate and
    interior cores stack block-diagonally: each slab is copied into its block
    of a zeroed core at offsets that advance along the inner bonds only (the
    unit end bonds are shared).  A one-mode chain sums its slabs in order.
    """
    last = len(ranks) - 2
    out = []
    for n, slabs in enumerate(modes):
        if last == 0:  # every block is the whole core
            out.append(reduce(np.add, slabs).copy(order="F"))
            continue
        z = np.zeros((ranks[n], like.local[n].shape[1], ranks[n + 1]), order="F")
        i = j = 0
        for a in slabs:
            ral, _, rar = a.shape
            z[i:i + ral, :, j:j + rar] = a
            i += ral if n > 0 else 0
            j += rar if n < last else 0
        out.append(z)
    return DistTTTensor(like.comm, like.dims, ranks, out)


def add(x, *more):
    """TT sum of one or more operands (`_stack`): bond ranks add and no data
    moves between ranks.  A one-mode chain sums in argument order; one
    operand is copied.
    """
    ds, leave = _check_operands(x, *more)
    ranks = (1,) + tuple(map(sum, zip(*(dt.ranks for dt in ds))))[1:-1] + (1,)
    return leave(_stack(ds[0], ranks, zip(*(dt.local for dt in ds))))


def hadamard(x, y, max_rank_product: int | None = None):
    """Elementwise product: slicewise Kronecker cores, bond ranks multiply.

    Each output core is written once, by one broadcast multiply straight
    into its F-ordered array; no temporary core is formed, only copies of
    the operands spread over each other's left rank (1/rar + 1/rbr of the
    core's size).  Its row index a * rbl + c pairs x's row a with y's row c,
    and likewise its columns.
    Refuses to build bonds above ``max_rank_product`` (default
    `HADAMARD_RANK_GUARD`; else an integer >= 1, or `ContractError`) since
    memory grows with the rank product squared (`CapacityError`).
    """
    (dx, dy), leave = _check_operands(x, y)
    guard = (HADAMARD_RANK_GUARD if max_rank_product is None
             else _check_count("max_rank_product", max_rank_product))
    ranks = tuple(rx * ry for rx, ry in zip(dx.ranks, dy.ranks))
    if max(ranks) > guard:
        raise CapacityError(
            f"hadamard bond ranks {max(ranks)} exceed the guard ({guard}); "
            "round the operands first or raise max_rank_product"
        )
    out = []
    flops = 0.0
    for a, b in zip(dx.local, dy.local):
        (ral, d, rar), (rbl, _, rbr) = a.shape, b.shape
        # y's core spread over x's left rank and x's over y's (a view when
        # that rank is 1), so both run contiguously down z's rbl * ral rows
        # and the multiply's inner loop spans them all, not rbl at a time;
        # numpy's loop releases the GIL, so simulated ranks still overlap
        sb = np.asfortranarray(np.broadcast_to(b[:, None], (rbl, ral, d, rbr)))
        sa = np.asfortranarray(np.broadcast_to(a[None], (rbl, ral, d, rar)))
        z = np.empty((ral * rbl, d, rar * rbr), order="F")
        np.multiply(sb[:, :, :, :, None], sa[:, :, :, None, :],
                    out=z.reshape((rbl, ral, d, rbr, rar), order="F", copy=False))
        out.append(z)
        flops += float(d) * ral * rbl * rar * rbr
    dx.comm.trace.add_flops(flops)
    return leave(DistTTTensor(dx.comm, dx.dims, ranks, out))


def _gram_step(tr, w, a, b) -> np.ndarray:
    """One mode of <x, y>'s recurrence: this rank's share of the next carry.

    Folds the carry into x's horizontal unfolding, then contracts against
    y's vertical unfolding (4 I R^3 / P flops for equal ranks).
    """
    (ral, d, rar), (rbl, _, rbr) = a.shape, b.shape
    hx = a.reshape((ral, d * rar), order="F")
    z = dgemm(1.0, w, hx) if d * rar else np.zeros((rbl, 0), order="F")
    vz = z.reshape((rbl * d, rar), order="F")
    vy = b.reshape((rbl * d, rbr), order="F")
    wn = dgemm(1.0, vy, vz, trans_a=1) if rbl * d else np.zeros((rbr, rar), order="F")
    tr.add_flops(2.0 * rbl * ral * d * rar + 2.0 * rbr * rbl * d * rar)
    return wn


def _pair_step(tr, w):
    """`_gram_recurrence`'s step for <x, y>: the mode's `_gram_step` on ``w``."""
    return partial(_gram_step, tr, w)


def _gram_recurrence(comm, modes, step) -> tuple:
    """The one Gram recurrence of `inner_product` and both Gram norms, as
    ``(mantissa, exponent)``, worth mantissa * 2**exponent.

    ``modes`` yields each mode's slabs, and ``step(w)`` returns the share
    function of the mode that carry ``w`` enters (`_pair_step` or
    `_factor_step`); `_next_carry` calls it on those slabs and keeps the
    carry in range.  One allreduce per mode (two for a mode `_next_carry`
    recomputes, and none after a mode whose Gram is zero).
    """
    w, e = np.ones((1, 1), order="F"), 0
    for slabs in modes:
        w, k = _next_carry(comm, step(w), slabs)
        if w is None:
            return 0.0, 0
        e += k
    return float(w[0, 0]), e


def inner_product(x, y) -> float:
    """<x, y> by the two-product recurrence: one allreduce per mode.

    Per mode: fold the carry Gram matrix into x's horizontal unfolding, then
    contract against y's vertical unfolding (4 N I R^3 / P flops for equal
    ranks); the mode-N step degenerates to a dot product.  Carries are kept
    in range by exact powers of two, so only a value that float64 cannot
    hold fails: an overflow, a nonzero value that underflows to 0, or a
    non-finite one raises `NumericError`.
    """
    (dx, dy), _ = _check_operands(x, y)
    m, e = _gram_recurrence(dx.comm, zip(dx.local, dy.local), partial(_pair_step, dx.comm.trace))
    with np.errstate(over="ignore", under="ignore"):
        val = float(np.ldexp(m, e))
    if not np.isfinite(val) or (val == 0.0 and m != 0.0):
        raise NumericError(f"<x, y> = {m!r} * 2^{e} is not representable in float64")
    return val


class _IndefiniteGram(Exception):
    pass


def _pivoted_cholesky(w: np.ndarray) -> np.ndarray:
    """Rank-revealing factor P L (r x rank) with P L L^T P^T equal to the
    SPSD matrix held in the lower triangle of ``w`` (its upper triangle is
    ignored); raises on indefiniteness.

    dpstrf reads only the lower triangle and leaves the upper one as it
    found it, so on a lower-triangular copy of ``w`` its first ``rank``
    columns are L as they stand.  The check compares the lower triangles of
    the reconstruction residual and of ``w``, which bounds the full
    symmetric residual within a factor sqrt(2).
    """
    wl = np.tril(w)
    tol = _PSTRF_RTOL * max(float(np.max(np.diagonal(wl))), 0.0)
    c, piv, rank, info = dpstrf(wl, lower=1, tol=tol)
    if info < 0:
        raise NumericError(f"dpstrf failed with info={info}")
    lfac = c[:, :rank]
    perm = np.asarray(piv, dtype=int) - 1
    pl = np.empty_like(lfac)
    pl[perm] = lfac
    # compare at unit scale: squaring entries past ~1e154 overflows the norms
    s = float(abs(wl).max()) or 1.0
    wl /= s
    resid = dsyrk(1.0 / s, pl, lower=1)
    resid -= wl
    if np.linalg.norm(resid) > _GRAM_RESID_RTOL * np.linalg.norm(wl):
        raise _IndefiniteGram(f"Gram carry is not PSD (residual {np.linalg.norm(resid):.3e})")
    return pl


def _cholesky_flops(n: int, k: int) -> int:
    """Flops of the first ``k`` columns of an n x n Cholesky factorization:
    column j updates its n - j entries by j earlier columns, takes a square
    root and scales.  An integer, n (n + 1) (2n + 1) / 6 ~ n^3 / 3 for k = n."""
    return n * k * k - (k - 1) * k * (2 * k - 1) // 3 - k * (k - 1) // 2


def _gram_factor(w: np.ndarray) -> tuple:
    """``(f, triangular, flops)``: a factor with ``f @ f.T`` equal to the SPSD
    Gram carry held in the lower triangle of ``w``, and the flops spent.

    dpotrf comes first: it reads only the lower triangle, where the carry
    lives, and on success ``f`` is its lower-triangular L, unpermuted.  It
    needs no check: a dpotrf that succeeds is backward stable,
    ||L L^T - W|| <= c n^2 u ||W|| (about 1e-12 relative at n = 100), far
    below the `_GRAM_RESID_RTOL` residual that `_pivoted_cholesky` rejects,
    so no carry dpotrf accepts could fail that check.  Only a pivot that is
    not positive -- a rank-deficient carry, as in the norm of an unrounded
    sum, or an indefinite one -- runs `_pivoted_cholesky`, check and all;
    ``f`` is then its factor with the pivot folded into the rows (P L,
    r x rank), so the step needs no permuted copy of the slab.  No carry
    reaching it is non-finite: `_next_carry` raises on one.
    """
    n = w.shape[0]
    c, info = dpotrf(w, lower=1, clean=0)
    if info == 0:
        return c, True, _cholesky_flops(n, n)
    if info < 0:
        raise NumericError(f"dpotrf failed with info={info}")
    pl = _pivoted_cholesky(w)
    return pl, False, _cholesky_flops(n, info - 1) + _cholesky_flops(n, pl.shape[1])


def _sym_step(tr, f, triangular, a) -> np.ndarray:
    """One mode of the Gram-factor recurrence: this rank's share of the next
    carry's lower triangle, ``(f^T H)``'s vertical unfolding syrk'd."""
    ral, d, rar = a.shape
    rank = f.shape[1]
    hx = a.reshape((ral, d * rar), order="F")
    if d * rar == 0:
        z = np.zeros((rank, 0), order="F")
    elif rank == ral == 1:  # the first mode: a 1x1 factor is a scalar
        z = hx * f[0, 0]
        tr.add_flops(float(d * rar))
    elif triangular:
        # L^T @ H on a copy: hx may be a view of the caller's slab
        z = dtrmm(1.0, f, hx, side=0, lower=1, trans_a=1)
        tr.add_flops(float(ral) * ral * d * rar)
    else:
        z = dgemm(1.0, f, hx, trans_a=1)
        tr.add_flops(2.0 * rank * ral * d * rar)
    vz = z.reshape((rank * d, rar), order="F")
    wn = dsyrk(1.0, vz, trans=1, lower=1) if rank * d else np.zeros((rar, rar), order="F")
    tr.add_flops(float(rar) * rar * rank * d)
    return wn


def _factor_step(tr, w):
    """`_gram_recurrence`'s step for ||x||^2: factor the carry once
    (`_gram_factor`), charge its flops, and return the mode's `_sym_step`,
    so a mode that `_next_carry` recomputes still factors once.

    Halves the inner-product flops (2 N I R^3 / P) by propagating a
    triangular factor of the carry instead of the full operand pair.  The
    carry lives in its lower triangle, which is all the factorizations read.
    """
    f, triangular, flops = _gram_factor(w)
    tr.add_flops(float(flops))
    return partial(_sym_step, tr, f, triangular)


def norm(x, method: str = "innerprod") -> float:
    """Frobenius norm by one of three routes.

    ``innerprod`` takes sqrt(<x, x>); ``innerprod_sym`` propagates a Cholesky
    factor of the Gram carry (half the flops): dpotrf first, and dpstrf with
    a reconstruction check only when dpotrf meets a pivot that is not
    positive, as on the singular carries of an unrounded sum; it falls back
    to ``innerprod`` with a `UserWarning` if roundoff makes the carry
    indefinite.
    ``ortho`` runs a right-to-left QR sweep that keeps its Q factors
    implicit and never applies them, and reads the norm off the first core:
    that core depends only on the triangles folded into it, so the value is
    the one a full right orthonormalization gives, bit for bit, at no AppQ
    cost.
    The Gram routes take the square root of a (mantissa, exponent) pair, so
    norms whose square float64 cannot hold come out right.
    """
    if method not in NORM_METHODS:
        raise ContractError(f"unknown norm method {method!r}; pick from {NORM_METHODS}")
    dt, _ = _enter(x)
    comm, slabs = dt.comm, dt.local
    tr = comm.trace
    if method == "ortho":
        # _qr_sweep writes nothing to its input, so sequential cores need no copy
        return _end_core_norm(comm, _qr_sweep(dt, _BACKWARD, implicit=True)[0][0])
    if method == "innerprod_sym":
        try:
            return _sqrt_scaled(*_gram_recurrence(comm, zip(slabs), partial(_factor_step, tr)))
        except _IndefiniteGram as e:
            warnings.warn(f"innerprod_sym fell back to innerprod: {e}", stacklevel=2)
    return _sqrt_scaled(*_gram_recurrence(comm, zip(slabs, slabs), partial(_pair_step, tr)))


@dataclass
class KroneckerOperator:
    """Sum of Kronecker products of square sparse factors, one per mode.

    Mode sizes below 1 and factors of the wrong shape are a `ShapeError`,
    non-finite entries a `NumericError`.
    """

    dims: tuple
    terms: list

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims or any(d < 1 for d in self.dims):
            raise ShapeError(f"operator dims must be positive, got {self.dims}")
        if not self.terms:
            raise ShapeError("operator needs at least one term")
        terms = []
        for t, factors in enumerate(self.terms):
            if len(factors) != len(self.dims):
                raise ShapeError(f"term {t} has {len(factors)} factors for {len(self.dims)} modes")
            row = []
            for n, f in enumerate(factors):
                f = sp.csr_matrix(f)
                if f.shape != (self.dims[n], self.dims[n]):
                    raise ShapeError(
                        f"term {t} factor {n} is {f.shape}, mode wants "
                        f"({self.dims[n]}, {self.dims[n]})"
                    )
                if not np.isfinite(f.data).all():
                    raise NumericError(f"term {t} factor {n} has non-finite entries")
                row.append(f)
            terms.append(row)
        self.terms = terms


def _mode_product(a, dt: DistTTTensor, n: int) -> np.ndarray:
    """Sparse factor ``a`` applied to this rank's slab of mode ``n``, as a
    ``(rl, rows, rr)`` view.  Row k of ``got`` is slice ``need[k]``, left rank
    fastest, as slices also travel; rank q owns the run ``cut[q]:cut[q + 1]``
    of the sorted ``need``, so it lands as a block."""
    comm, me, nranks = dt.comm, dt.comm.rank, dt.comm.size
    slab = dt.local[n]
    rl, d_loc, rr = slab.shape
    lo, hi = dt.local_bounds(n)
    rows_mine = a[lo:hi]
    need = np.unique(rows_mine.indices)
    edges = [block_bounds(dt.dims[n], nranks, q)[0] for q in range(nranks + 1)]
    cut = np.searchsorted(need, edges)
    got = np.empty((need.size, rr, rl))
    got[cut[me]:cut[me + 1]] = slab[:, need[cut[me]:cut[me + 1]] - lo].transpose(1, 2, 0)
    # pair {p, q} meets at round (p + q) mod P, so all P rounds are
    # needed; each rank self-pairs (and idles) in exactly one of them
    for rnd in range(nranks):
        q = (rnd - me) % nranks
        if q == me:
            continue
        theirs = np.unique(a[edges[q]:edges[q + 1]].indices)
        send = theirs[(theirs >= lo) & (theirs < hi)]
        data = comm.sendrecv(q, slab[:, send - lo].transpose(1, 2, 0).ravel())
        run = got[cut[q]:cut[q + 1]]
        if data.size != run.size:
            raise ContractError(
                f"operator exchange with rank {q} delivered {data.size} values, "
                f"expected {run.size}"
            )
        run[...] = data.reshape(run.shape)
    local = rows_mine[:, need] @ got.reshape((need.size, rr * rl))
    comm.trace.add_flops(2.0 * rows_mine.nnz * rl * rr)
    return local.reshape(d_loc, rr, rl).transpose(2, 0, 1)


def apply_operator(op: KroneckerOperator, x, round_eps: float | None = None,
                   max_rank: int | None = None):
    """Apply a Kronecker-sum operator: mode by mode, each term's mode product
    is written straight into its block of the sum (`_stack`), so no term
    tensor is built and the products are made one at a time.

    Each rank fetches only the mode slices the sparsity pattern couples (a
    symmetric round-robin of pairwise exchanges, none at P = 1; the operator
    is replicated so both sides compute the transfer lists independently).
    Passing ``round_eps`` compresses the summed result in place, to at most
    ``max_rank`` if given; ``max_rank`` without ``round_eps`` is an error.
    Both are checked before any term is applied.
    """
    if round_eps is None and max_rank is not None:
        raise ContractError("max_rank applies only when rounding; pass round_eps too")
    opts = None if round_eps is None else RoundingOptions(eps0=round_eps, max_rank=max_rank)
    dt, leave = _enter(x)
    if op.dims != dt.dims:
        raise ShapeError(f"operator dims {op.dims} do not match tensor dims {dt.dims}")
    ranks = (1,) + tuple(len(op.terms) * r for r in dt.ranks[1:-1]) + (1,)
    modes = ((_mode_product(f[n], dt, n) for f in op.terms) for n in range(dt.ndim))
    z = _stack(dt, ranks, modes)
    return leave(z if opts is None else round_tt(z, opts))


_OP_MAGIC = "KRONOP1"

#: `load_operator` refuses a mode larger than this (model 2's largest mode)
#: before it allocates the mode's CSR index.
_OP_MAX_DIM = 10**8


def save_operator(path, op: KroneckerOperator) -> None:
    """Text format: magic, counts, dims, then ``factor t n nnz`` triplet blocks."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{_OP_MAGIC}\n")
        f.write(f"{len(op.dims)} {len(op.terms)}\n")
        f.write(" ".join(str(d) for d in op.dims) + "\n")
        for t, factors in enumerate(op.terms):
            for n, a in enumerate(factors):
                coo = a.tocoo()
                f.write(f"factor {t} {n} {coo.nnz}\n")
                for i, j, v in zip(coo.row, coo.col, coo.data):
                    f.write(f"{int(i)} {int(j)} {float(v)!r}\n")


def load_operator(path) -> KroneckerOperator:
    """Parse the text format written by `save_operator`."""
    try:
        with open(path, encoding="ascii") as f:  # a non-ASCII byte is a ValueError
            lines = [ln.strip() for ln in f if ln.strip()]
        if lines[0] != _OP_MAGIC:
            raise ShapeError(f"{path!r} is not an operator file (bad magic {lines[0]!r})")
        n_modes, n_terms = (int(v) for v in lines[1].split())
        dims = tuple(int(v) for v in lines[2].split())
        if len(dims) != n_modes:
            raise ShapeError(f"header declares {n_modes} modes but lists {len(dims)} dims")
        if any(d > _OP_MAX_DIM for d in dims):
            raise CapacityError(f"operator dims {dims} exceed the mode-size guard ({_OP_MAX_DIM})")
        k = 3
        terms = []
        for t in range(n_terms):
            factors = []
            for n in range(n_modes):
                tag, tt, nn, nnz = lines[k].split()
                if tag != "factor" or int(tt) != t or int(nn) != n:
                    raise ShapeError(f"unexpected block header {lines[k]!r}")
                nnz = int(nnz)
                rows, cols, vals = [], [], []
                for ln in lines[k + 1 : k + 1 + nnz]:
                    i, j, v = ln.split()
                    rows.append(int(i))
                    cols.append(int(j))
                    vals.append(float(v))
                if len(vals) != nnz:
                    raise ShapeError(f"factor ({t}, {n}) truncated")
                factors.append(
                    sp.csr_matrix((vals, (rows, cols)), shape=(dims[n], dims[n]))
                )
                k += 1 + nnz
            terms.append(factors)
        if k != len(lines):
            raise ShapeError("trailing lines after last factor")
    except (ValueError, IndexError) as e:
        raise ShapeError(f"malformed operator file {path!r}: {e}") from e
    return KroneckerOperator(dims, terms)
