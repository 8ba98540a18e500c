"""Self-contained correctness checks against dense oracles at desk scale.

Every check reconstructs expected values through an independent route (tensordot
contractions, dense Householder QR, explicit Kronecker matrices) rather than
through the code under test.  `run_checks` powers the ``verify`` CLI
subcommand and returns ``(name, ok, detail)`` rows; it never raises.  The
oracles themselves (`dense`, `dense_operator`, `reference_qr`) are public so
the test suite compares against the same independent routes.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import scipy.sparse as sp

from . import ops, parallel
from .comm import run_spmd
from .core import TTTensor, entry, full, load_tt, random_tt, save_tt, verify_quadprod
from .cost import chain_estimate, estimate
from .parallel import RoundingOptions, distribute, gather, orthonormalize, round_tt
from .tsqr import tsqr_apply_q, tsqr_factor

# (dims, ranks) grids; the full suite adds seeds and rank counts
_QUICK_SHAPES = [((4, 5, 3), (1, 3, 2, 1))]
_FULL_SHAPES = [
    ((4, 5, 3), (1, 3, 2, 1)),
    ((3, 4, 4, 3), (1, 2, 4, 3, 1)),
    ((6, 5), (1, 4, 1)),
]


def dense(t: TTTensor) -> np.ndarray:
    """Independent dense reconstruction by pairwise tensordot contraction."""
    out = t.cores[0].array
    for c in t.cores[1:]:
        out = np.tensordot(out, c.array, axes=([out.ndim - 1], [0]))
    # shape is (1, I_1, ..., I_N, 1); dropping the unit bond axes is layout-free
    return out.reshape(t.dims)


def dense_operator(op) -> np.ndarray:
    """Explicit matrix of a `KroneckerOperator`, acting on Fortran-flattened tensors."""
    mats = []
    for factors in op.terms:
        m = np.ones((1, 1))
        for f in factors:  # first mode fastest in the flat index
            m = np.kron(f.toarray(), m)
        mats.append(m)
    return sum(mats)


def reference_qr(a) -> tuple:
    """Sequential thin QR by numpy, sign-fixed to a nonnegative diagonal of R."""
    q, r = np.linalg.qr(a)
    s = np.where(np.diagonal(r) < 0, -1.0, 1.0)
    return q * s[None, :], r * s[:, None]


def _check_entry_full(quick: bool):
    worst = 0.0
    shapes = _QUICK_SHAPES if quick else _FULL_SHAPES
    for dims, ranks in shapes:
        t = random_tt(dims, ranks, seed=101)
        want = dense(t)
        got = full(t)
        worst = max(worst, float(np.abs(got - want).max()))
        idx = tuple(d - 1 for d in dims)
        worst = max(worst, abs(entry(t, idx) - want[idx]))
    return worst <= 1e-12, f"max abs deviation {worst:.2e} (tol 1e-12)"


def _check_split_identity(quick: bool):
    worst = 0.0
    for seed in range(1 if quick else 5):
        t = random_tt((4, 3, 5, 4), (1, 3, 4, 2, 1), seed=200 + seed)
        for n in range(1, 4):
            worst = max(worst, verify_quadprod(t, n))
    return worst <= 1e-12, f"max split-product residual {worst:.2e} (tol 1e-12)"


def _check_tsqr(quick: bool):
    """Both trees on a full-rank 60 x 5 panel against the Householder R, and
    on a rank-4 12 x 8 panel whose every leaf is shorter than it is wide:
    Q R = A and the gathered Q is orthonormal."""
    full_rank = np.random.default_rng(7).standard_normal((60, 5))
    low = np.random.default_rng(0)
    deficient = low.standard_normal((12, 4)) @ low.standard_normal((4, 8))
    _, r_ref = reference_qr(full_rank)
    cases = [(full_rank, p) for p in ((3,) if quick else (2, 3, 5))]
    cases += [(deficient, p) for p in ((4,) if quick else (4, 5))]
    worst = 0.0
    for variant in ("butterfly", "binomial"):
        for a, p in cases:
            def body(comm):
                lo, hi = parallel.block_bounds(len(a), comm.size, comm.rank)
                fac, r = tsqr_factor(a[lo:hi], comm, variant=variant)
                q = tsqr_apply_q(fac, np.eye(a.shape[1]), comm)
                return r, q

            runs = run_spmd(p, body)
            rs = [r for r, _ in runs.results if r is not None]
            qs = np.vstack([q for _, q in runs.results])
            if a is full_rank:
                worst = max(worst, max(float(np.abs(r - r_ref).max()) for r in rs))
            worst = max(worst, float(np.abs(qs @ rs[0] - a).max()))
            worst = max(worst, float(np.abs(qs.T @ qs - np.eye(a.shape[1])).max()))
    return worst <= 1e-12, f"max QR/orthonormality deviation {worst:.2e} (tol 1e-12)"


def _check_orthonormalize(quick: bool):
    t = random_tt((5, 4, 6), (1, 3, 4, 1), seed=11)
    want = dense(t)
    worst = 0.0
    for p in (2,) if quick else (1, 2, 3):
        def body(comm):
            out = orthonormalize(distribute(t, comm), "right")
            return gather(out)

        got = run_spmd(p, body).results[0]
        worst = max(worst, np.linalg.norm(full(got) - want) / np.linalg.norm(want))
        for n in range(1, 3):
            c = got.cores[n].array
            h = c.reshape((c.shape[0], -1), order="F")
            worst = max(worst, float(np.abs(h @ h.T - np.eye(h.shape[0])).max()))
    return worst <= 1e-12, f"value/orthonormality residual {worst:.2e} (tol 1e-12)"


def _check_rounding(quick: bool):
    worst_rel = 0.0
    ranks_ok = True
    for seed in range(1 if quick else 5):
        x = random_tt((5, 4, 5), (1, 3, 3, 1), seed=300 + seed)
        y = ops.add(ops.scale(x, 2.0), ops.scale(x, -1.0))
        want = dense(x)
        for eps0 in (1e-6,) if quick else (1e-2, 1e-6, 1e-10):
            def body(comm):
                out = round_tt(distribute(y, comm), RoundingOptions(eps0))
                return out.ranks, gather(out)

            ranks, got = run_spmd(2, body).results[0]
            ranks_ok &= all(r <= rx for r, rx in zip(ranks, x.ranks))
            err = np.linalg.norm(full(got) - want) / np.linalg.norm(want)
            worst_rel = max(worst_rel, err / max(eps0, 1e-15))
    ok = ranks_ok and worst_rel <= 1.0
    return ok, (
        f"worst error/eps0 ratio {worst_rel:.3f} (must be <= 1), "
        f"rank recovery {'ok' if ranks_ok else 'FAILED'}"
    )


def _check_arithmetic(quick: bool):
    worst = 0.0
    shapes = _QUICK_SHAPES if quick else _FULL_SHAPES
    for dims, ranks in shapes:
        x = random_tt(dims, ranks, seed=401)
        y = random_tt(dims, ranks, seed=402)
        dx, dy = dense(x), dense(y)
        scale = np.linalg.norm(dx) * np.linalg.norm(dy)
        sums, products = [ops.add(x, y)], [ops.hadamard(x, y)]
        for p in (2, 3):  # the slab-local kernels on row-distributed operands
            def body(comm):
                px, py = distribute(x, comm), distribute(y, comm)
                return gather(ops.add(px, py)), gather(ops.hadamard(px, py))

            s, h = run_spmd(p, body).results[0]
            sums.append(s)
            products.append(h)
        for s, h in zip(sums, products):
            worst = max(worst, np.linalg.norm(full(s) - (dx + dy)))
            worst = max(worst, np.linalg.norm(full(h) - dx * dy))
        worst = max(worst, abs(ops.inner_product(x, y) - np.vdot(dx, dy)) / scale)
        for method in ("innerprod", "innerprod_sym", "ortho"):
            worst = max(
                worst, abs(ops.norm(x, method) - np.linalg.norm(dx)) / np.linalg.norm(dx)
            )
        shift = sp.diags([1.0], [1], shape=(dims[0], dims[0]), format="csr")
        factors = [shift] + [sp.identity(d, format="csr") for d in dims[1:]]
        op = ops.KroneckerOperator(dims, [factors])
        got = full(ops.apply_operator(op, x))
        want = np.zeros_like(dx)
        want[:-1] = dx[1:]
        worst = max(worst, np.linalg.norm(got - want))
    return worst <= 1e-10, f"max arithmetic deviation {worst:.2e} (tol 1e-10)"


def _check_file_roundtrip(quick: bool):
    t = random_tt((4, 5, 3), (1, 3, 2, 1), seed=500)
    fd, path = tempfile.mkstemp(suffix=".tt")
    os.close(fd)
    try:
        save_tt(path, t)
        with open(path, "rb") as f:
            blob1 = f.read()
        back = load_tt(path)
        save_tt(path, back)
        with open(path, "rb") as f:
            blob2 = f.read()
    finally:
        os.unlink(path)
    bitwise = blob1 == blob2 and all(
        np.array_equal(a.array, b.array) for a, b in zip(t.cores, back.cores)
    )
    return bitwise, "save/load/save round trip is bitwise stable"


def _check_cost_pins(quick: bool):
    ok = estimate("inner_product", 3, 4, 2, 1).flops == 384
    ok &= estimate("norm", 3, 4, 2, 1).flops == 192
    ok &= estimate("rounding", 4, 10, 8, 1, L=4).flops == 7 * 4 * 10 * 8**3
    dims, ranks = (8, 8), (1, 4, 1)
    t = random_tt(dims, ranks, seed=600)
    dt = parallel.serial_tt(t)
    dt.comm.trace.reset()
    ops.inner_product(dt, dt)
    ok &= dt.comm.trace.total("flops") == chain_estimate("dot", dims, ranks).flops
    return bool(ok), "table constants 4/2/7 and counter agreement"


_CHECKS = [
    ("entry-and-full-vs-dense", _check_entry_full),
    ("split-product-identity", _check_split_identity),
    ("tsqr-vs-householder", _check_tsqr),
    ("orthonormalization", _check_orthonormalize),
    ("rounding-bound-and-ranks", _check_rounding),
    ("arithmetic-vs-dense", _check_arithmetic),
    ("file-roundtrip", _check_file_roundtrip),
    ("cost-model-pins", _check_cost_pins),
]


def run_checks(quick: bool = True):
    """Run every oracle check; returns ``[(name, ok, detail), ...]``."""
    rows = []
    for name, fn in _CHECKS:
        try:
            ok, detail = fn(quick)
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        rows.append((name, bool(ok), detail))
    return rows
