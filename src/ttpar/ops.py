"""TT arithmetic on sequential and row-distributed tensors.

All of these operate slab-locally where the math allows it: scaling touches
one core, addition builds block-diagonal cores, and the Hadamard product
takes slicewise Kronecker products -- none of them communicate.  Inner
products and norms reduce one small Gram matrix per mode (an allreduce each);
`apply_operator` is the only op that moves core data between ranks, and only
the mode slices the operator's sparsity actually couples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm, dsyrk, dtrmm
from scipy.linalg.lapack import dpstrf

from .comm import SerialComm
from .core import TTCore, TTTensor, mode2_multiply
from .errors import CapacityError, ContractError, NumericError, ShapeError
from .parallel import (
    DistTTTensor,
    RoundingOptions,
    _end_core_norm,
    block_bounds,
    gather,
    orthonormalize,
    round_tt,
    serial_tt,
)

NORM_METHODS = ("innerprod", "innerprod_sym", "ortho")

#: Hadamard refuses to build bond ranks above this unless overridden.
HADAMARD_RANK_GUARD = 4096

_PSTRF_RTOL = 1e-14  # rank-reveal pivot tolerance, relative to the max diagonal
_GRAM_RESID_RTOL = 1e-6  # reconstruction residual that triggers the fallback


def _parts(x):
    """(slabs, dims, ranks, comm) for either tensor flavor; comm is None when sequential."""
    if isinstance(x, DistTTTensor):
        return x.local, x.dims, x.ranks, x.comm
    if isinstance(x, TTTensor):
        return [c.array for c in x.cores], x.dims, x.ranks, None
    raise ContractError(f"expected TTTensor or DistTTTensor, got {type(x).__name__}")


def _build(template, slabs, ranks):
    if isinstance(template, DistTTTensor):
        return DistTTTensor(template.comm, template.dims, tuple(ranks), slabs)
    return TTTensor([TTCore(s) for s in slabs])


def _check_pair(x, y):
    xs, xd, xr, xc = _parts(x)
    ys, yd, yr, yc = _parts(y)
    if (xc is None) != (yc is None):
        raise ContractError("cannot mix sequential and distributed tensors")
    if xc is not None and xc is not yc:
        raise ContractError("operands live on different communicators")
    if xd != yd:
        raise ShapeError(f"dimension mismatch: {xd} vs {yd}")
    return xs, ys, xd, xr, yr, xc


def scale(x, s: float):
    """Multiply by a scalar (folded into the first core; no communication)."""
    slabs, dims, ranks, _ = _parts(x)
    out = [sl.copy(order="F") for sl in slabs]
    out[0] *= float(s)
    return _build(x, out, ranks)


def add(x, y):
    """TT sum: end cores concatenate, interior cores stack block-diagonally.

    Bond ranks add; no data moves between ranks.
    """
    xs, ys, dims, xr, yr, _ = _check_pair(x, y)
    n_modes = len(dims)
    if n_modes == 1:
        return _build(x, [xs[0] + ys[0]], (1, 1))
    out = []
    for n in range(n_modes):
        a, b = xs[n], ys[n]
        (ral, d, rar), (rbl, _, rbr) = a.shape, b.shape
        if n == 0:
            z = np.zeros((1, d, rar + rbr), order="F")
            z[:, :, :rar] = a
            z[:, :, rar:] = b
        elif n == n_modes - 1:
            z = np.zeros((ral + rbl, d, 1), order="F")
            z[:ral] = a
            z[ral:] = b
        else:
            z = np.zeros((ral + rbl, d, rar + rbr), order="F")
            z[:ral, :, :rar] = a
            z[ral:, :, rar:] = b
        out.append(z)
    ranks = tuple(rx + ry for rx, ry in zip(xr, yr))
    return _build(x, out, (1,) + ranks[1:-1] + (1,))


def hadamard(x, y, max_rank_product: int | None = None):
    """Elementwise product: slicewise Kronecker cores, bond ranks multiply.

    Refuses to build bonds above ``max_rank_product`` (default
    `HADAMARD_RANK_GUARD`) since memory grows with the rank product squared.
    """
    xs, ys, dims, xr, yr, comm = _check_pair(x, y)
    guard = HADAMARD_RANK_GUARD if max_rank_product is None else int(max_rank_product)
    ranks = tuple(rx * ry for rx, ry in zip(xr, yr))
    if max(ranks) > guard:
        raise CapacityError(
            f"hadamard bond ranks {max(ranks)} exceed the guard ({guard}); "
            "round the operands first or raise max_rank_product"
        )
    out = []
    flops = 0.0
    for a, b in zip(xs, ys):
        (ral, d, rar), (rbl, _, rbr) = a.shape, b.shape
        z = np.einsum("aib,cid->acibd", a, b).reshape(ral * rbl, d, rar * rbr)
        out.append(np.asfortranarray(z))
        flops += float(d) * ral * rbl * rar * rbr
    if comm is not None:
        comm.trace.add_flops(flops)
    return _build(x, out, ranks)


def inner_product(x, y) -> float:
    """<x, y> by the two-product recurrence: one allreduce per mode.

    Per mode: fold the carry Gram matrix into x's horizontal unfolding, then
    contract against y's vertical unfolding (4 N I R^3 / P flops for equal
    ranks); the mode-N step degenerates to a dot product.
    """
    xs, ys, dims, xr, yr, comm = _check_pair(x, y)
    comm = comm or SerialComm()
    tr = comm.trace
    w = np.ones((1, 1), order="F")
    for a, b in zip(xs, ys):
        (ral, d, rar), (rbl, _, rbr) = a.shape, b.shape
        hx = a.reshape((ral, d * rar), order="F")
        z = dgemm(1.0, w, hx) if d * rar else np.zeros((rbl, 0), order="F")
        vz = z.reshape((rbl * d, rar), order="F")
        vy = b.reshape((rbl * d, rbr), order="F")
        wn = dgemm(1.0, vy, vz, trans_a=1) if rbl * d else np.zeros((rbr, rar), order="F")
        tr.add_flops(2.0 * rbl * ral * d * rar + 2.0 * rbr * rbl * d * rar)
        w = comm.allreduce_sum(wn)
    return float(w[0, 0])


class _IndefiniteGram(Exception):
    pass


def _pivoted_cholesky(w: np.ndarray):
    """Rank-revealing P L L^T P^T of an SPSD matrix; raises on indefiniteness."""
    n = w.shape[0]
    tol = _PSTRF_RTOL * max(float(np.max(np.diagonal(w))), 0.0)
    c, piv, rank, info = dpstrf(w, lower=1, tol=tol)
    if info < 0:
        raise NumericError(f"dpstrf failed with info={info}")
    lfac = np.tril(c)[:, :rank]
    perm = np.asarray(piv, dtype=int) - 1
    pl = np.empty_like(lfac)
    pl[perm] = lfac
    # compare at unit scale: squaring entries past ~1e154 overflows the norms
    s = float(np.max(np.abs(w))) or 1.0
    resid = np.linalg.norm((pl @ pl.T - w) / s)
    if resid > _GRAM_RESID_RTOL * np.linalg.norm(w / s):
        raise _IndefiniteGram(f"Gram carry is not PSD (residual {resid:.3e})")
    return lfac, perm, int(rank)


def _sym_norm(slabs, comm) -> float:
    """Gram-recurrence norm: one pivoted Cholesky + trmm + syrk per mode.

    Halves the inner-product flops (2 N I R^3 / P) by propagating a
    triangular factor of the carry instead of the full operand pair.
    """
    tr = comm.trace
    w = np.ones((1, 1), order="F")
    for a in slabs:
        ral, d, rar = a.shape
        lfac, perm, rank = _pivoted_cholesky(w)
        hx = a.reshape((ral, d * rar), order="F")
        if d * rar == 0:
            z = np.zeros((rank, 0), order="F")
        elif rank == ral == 1:  # the first mode: a 1x1 triangle is a scalar
            z = hx * lfac[0, 0]
            tr.add_flops(float(d * rar))
        else:
            # P^T H in one Fortran-ordered pass (take fills a C-ordered H^T P)
            hp = np.take(hx.T, perm, axis=1).T
            if rank == ral:
                z = dtrmm(1.0, lfac, hp, side=0, lower=1, trans_a=1, overwrite_b=1)  # L^T @ (P^T H)
                tr.add_flops(float(ral) * ral * d * rar)
            else:
                z = dgemm(1.0, lfac, hp, trans_a=1)
                tr.add_flops(2.0 * rank * ral * d * rar)
        vz = z.reshape((rank * d, rar), order="F")
        wn = dsyrk(1.0, vz, trans=1, lower=1) if rank * d else np.zeros((rar, rar), order="F")
        tr.add_flops(float(rar) * rar * rank * d)
        wn = comm.allreduce_sum(wn)
        w = np.asfortranarray(np.tril(wn) + np.tril(wn, -1).T)
    return sqrt(max(float(w[0, 0]), 0.0))


def norm(x, method: str = "innerprod", return_info: bool = False):
    """Frobenius norm by one of three routes.

    ``innerprod`` takes sqrt(<x, x>); ``innerprod_sym`` propagates a Cholesky
    factor of the Gram carry (half the flops, falls back to ``innerprod``
    with a warning if roundoff makes the carry indefinite); ``ortho``
    right-orthonormalizes a copy and reads the norm off the first core.
    """
    if method not in NORM_METHODS:
        raise ContractError(f"unknown norm method {method!r}; pick from {NORM_METHODS}")
    info = {"method": method, "fallback": False}
    slabs, dims, ranks, comm = _parts(x)
    if method == "innerprod":
        val = sqrt(max(inner_product(x, x), 0.0))
    elif method == "innerprod_sym":
        try:
            val = _sym_norm(slabs, comm or SerialComm())
        except _IndefiniteGram as e:
            warnings.warn(f"innerprod_sym fell back to innerprod: {e}", stacklevel=2)
            info["fallback"] = True
            val = sqrt(max(inner_product(x, x), 0.0))
    else:
        dt = x if isinstance(x, DistTTTensor) else serial_tt(x)
        val = _end_core_norm(dt.comm, orthonormalize(dt, "right").local[0])
    return (val, info) if return_info else val


@dataclass
class KroneckerOperator:
    """Sum of Kronecker products of square sparse factors, one per mode."""

    dims: tuple
    terms: list

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
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
                row.append(f)
            terms.append(row)
        self.terms = terms

    @classmethod
    def identity(cls, dims) -> "KroneckerOperator":
        return cls(tuple(dims), [[sp.identity(int(d), format="csr") for d in dims]])


def _apply_term_dist(factors, dt: DistTTTensor):
    comm = dt.comm
    out = []
    for n, slab in enumerate(dt.local):
        a = factors[n]
        rl, d_loc, rr = slab.shape
        lo, hi = dt.local_bounds(n)
        rows_mine = a[lo:hi]
        need = np.unique(rows_mine.indices)
        got = np.empty((need.size, rl * rr), order="F") if need.size else np.zeros((0, rl * rr))
        pos = {int(i): k for k, i in enumerate(need)}
        for i in need:
            if lo <= i < hi:
                got[pos[int(i)]] = slab[:, int(i) - lo, :].ravel(order="F")
        # pair {p, q} meets at round (p + q) mod P, so all P rounds are
        # needed; each rank self-pairs (and idles) in exactly one of them
        for rnd in range(comm.size):
            q = (rnd - comm.rank) % comm.size
            if q == comm.rank:
                continue
            qlo, qhi = block_bounds(dt.dims[n], comm.size, q)
            theirs = np.unique(a[qlo:qhi].indices)
            send_idx = theirs[(theirs >= lo) & (theirs < hi)]
            recv_idx = need[(need >= qlo) & (need < qhi)]
            if send_idx.size:
                payload = np.concatenate(
                    [slab[:, int(i) - lo, :].ravel(order="F") for i in send_idx]
                )
            else:
                payload = np.zeros(0)
            data = comm.sendrecv(q, payload)
            if data.size != recv_idx.size * rl * rr:
                raise ContractError(
                    f"operator exchange with rank {q} delivered {data.size} values, "
                    f"expected {recv_idx.size * rl * rr}"
                )
            for k, i in enumerate(recv_idx):
                got[pos[int(i)]] = data[k * rl * rr : (k + 1) * rl * rr]
        local = rows_mine[:, need] @ got if need.size else np.zeros((d_loc, rl * rr))
        comm.trace.add_flops(2.0 * rows_mine.nnz * rl * rr)
        out.append(np.asfortranarray(np.asarray(local).reshape(d_loc, rr, rl).transpose(2, 0, 1)))
    return DistTTTensor(comm, dt.dims, dt.ranks, out)


def apply_operator(op: KroneckerOperator, x, round_eps: float | None = None,
                   max_rank: int | None = None):
    """Apply a Kronecker-sum operator: mode-2 products per term, then TT sums.

    Distributed tensors fetch only the mode slices the sparsity pattern
    couples (a symmetric round-robin of pairwise exchanges; the operator is
    replicated so both sides compute the transfer lists independently).
    Passing ``round_eps`` compresses the summed result in place.
    """
    _, dims, _, comm = _parts(x)
    if op.dims != dims:
        raise ShapeError(f"operator dims {op.dims} do not match tensor dims {dims}")
    parts = []
    for factors in op.terms:
        if comm is None:
            cores = [mode2_multiply(c, a) for c, a in zip(x.cores, factors)]
            parts.append(TTTensor(cores))
        else:
            parts.append(_apply_term_dist(factors, x))
    z = parts[0]
    for extra in parts[1:]:
        z = add(z, extra)
    if round_eps is not None:
        opts = RoundingOptions(eps0=round_eps, max_rank=max_rank)
        if comm is None:
            z = gather(round_tt(serial_tt(z), opts))
        else:
            z = round_tt(z, opts)
    return z


_OP_MAGIC = "KRONOP1"


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
    with open(path, encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    try:
        if lines[0] != _OP_MAGIC:
            raise ShapeError(f"{path!r} is not an operator file (bad magic {lines[0]!r})")
        n_modes, n_terms = (int(v) for v in lines[1].split())
        dims = tuple(int(v) for v in lines[2].split())
        if len(dims) != n_modes:
            raise ShapeError(f"header declares {n_modes} modes but lists {len(dims)} dims")
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
