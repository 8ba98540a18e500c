"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[acceptance] <n> <label>: PASS/FAIL`` line past
pytest's capture before asserting, so a full run yields one status line per
guarantee next to the usual pytest verdict.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from ttpar import (
    CostModelParams,
    KroneckerOperator,
    RoundingOptions,
    SerialComm,
    add,
    apply_operator,
    block_bounds,
    distribute,
    gather,
    hadamard,
    inner_product,
    norm,
    orthonormalize,
    random_tt,
    round_tt,
    run_spmd,
    scale,
    tsqr_apply_q,
    tsqr_factor,
    verify_quadprod,
)
from ttpar.cost import chain_estimate, estimate
from ttpar.ops import NORM_METHODS
from ttpar.parallel import ROUNDING_VARIANTS
from ttpar.verify import dense, dense_operator, reference_qr

from tests_support import redundant_pair

TINY = 1e-300


def announce(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"\n[acceptance] {num} {label}: {'PASS' if ok else 'FAIL'}{tail}")


def rel(a, b) -> float:
    return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(b), TINY)


def random_chain(rng, max_n=5, max_i=6, max_r=5):
    n = int(rng.integers(2, max_n + 1))
    dims = tuple(int(d) for d in rng.integers(2, max_i + 1, size=n))
    ranks = (1,) + tuple(int(r) for r in rng.integers(1, max_r + 1, size=n - 1)) + (1,)
    return dims, ranks


def shift_operator(dims) -> KroneckerOperator:
    """Identity plus a mode-coupled cyclic shift; every factor is sparse."""
    eye = [sp.identity(d, format="csr") for d in dims]
    shifted = [sp.csr_matrix((np.ones(d), (np.arange(d), (np.arange(d) + 1) % d)),
                             shape=(d, d)) for d in dims]
    return KroneckerOperator(dims, [eye, shifted])


# ---------------------------------------------------------------------------


def test_criterion_1_dense_oracle_equivalence(capsys):
    t_start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(25):
        dims, ranks = random_chain(rng)
        ranks2 = (1,) + tuple(int(r) for r in rng.integers(1, 6, size=len(dims) - 1)) + (1,)
        x = random_tt(dims, ranks, seed=100 + trial)
        y = random_tt(dims, ranks2, seed=200 + trial)
        dx, dy = dense(x), dense(y)

        worst = max(worst, rel(dense(add(x, y)), dx + dy))
        worst = max(worst, rel(dense(hadamard(x, y)), dx * dy))
        got = inner_product(x, y)
        want = float(np.vdot(dx, dy))
        # inner products are scaled by ||x|| ||y||, their natural magnitude
        worst = max(worst, abs(got - want)
                    / max(np.linalg.norm(dx) * np.linalg.norm(dy), TINY))
        for method in NORM_METHODS:
            worst = max(worst, abs(norm(x, method) - np.linalg.norm(dx))
                        / max(np.linalg.norm(dx), TINY))
        op = shift_operator(dims)
        want_ap = (dense_operator(op) @ dx.ravel(order="F")).reshape(dims, order="F")
        worst = max(worst, rel(dense(apply_operator(op, x)), want_ap))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-10 and elapsed < 30.0
    announce(capsys, 1, "dense-oracle equivalence, 25 seeded tensors", ok,
             f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_2_orthonormalization(capsys):
    t = random_tt((5, 4, 6, 4), (1, 3, 4, 2, 1), seed=9)
    ref = dense(t)
    worst_val = worst_orth = 0.0

    def body(comm):
        dt = distribute(t, comm)
        return {d: gather(orthonormalize(dt, d)) for d in ("left", "right")}

    for P in (1, 2, 3, 4):
        for res in run_spmd(P, body).results:
            for direction, g in res.items():
                worst_val = max(worst_val, rel(dense(g), ref))
                if direction == "right":
                    # every core but the first is row-orthonormal horizontally
                    for c in g.cores[1:]:
                        h = c.reshape(c.shape[0], -1, order="F")
                        worst_orth = max(worst_orth, np.linalg.norm(
                            h @ h.T - np.eye(c.shape[0])))
                else:
                    for c in g.cores[:-1]:
                        v = c.reshape(-1, c.shape[2], order="F")
                        worst_orth = max(worst_orth, np.linalg.norm(
                            v.T @ v - np.eye(c.shape[2])))
    ok = worst_val <= 1e-12 and worst_orth <= 1e-12
    announce(capsys, 2, "orthonormalization, P in {1,2,3,4}", ok,
             f"value {worst_val:.2e}, orthonormality {worst_orth:.2e}")
    assert worst_val <= 1e-12
    assert worst_orth <= 1e-12


def test_criterion_3_rounding_bound_and_rank_recovery(capsys):
    # (a) relative error bound under dense norms, all variants x eps0 grid
    x0 = random_tt((5, 4, 6), (1, 5, 5, 1), seed=5)
    inputs = [
        random_tt((5, 4, 6), (1, 5, 5, 1), seed=17),
        add(scale(x0, 2.0), scale(x0, -1.0)),  # redundant bonds, compressible
        redundant_pair((4, 5, 4, 5), 3, seed=23)[1],
    ]
    worst_ratio = 0.0
    for y in inputs:
        dy = dense(y)
        ny = np.linalg.norm(dy)
        for eps0 in (1e-2, 1e-6, 1e-10):
            for variant in ROUNDING_VARIANTS:
                out = round_tt(y, RoundingOptions(eps0, variant))
                worst_ratio = max(worst_ratio,
                                  np.linalg.norm(dense(out) - dy) / (eps0 * ny))
    ok_bound = worst_ratio <= 1.0

    # (b) y = 2x - x: rounding recovers ranks no larger than x's, 50 seeds
    rng = np.random.default_rng(3)
    failures = 0
    for seed in range(50):
        dims, ranks = random_chain(rng, max_n=5, max_i=6, max_r=5)
        x = random_tt(dims, ranks, seed=1000 + seed)
        y = add(scale(x, 2.0), scale(x, -1.0))
        variant = ROUNDING_VARIANTS[seed % len(ROUNDING_VARIANTS)]
        out = round_tt(y, RoundingOptions(1e-10, variant))
        if not all(a <= b for a, b in zip(out.ranks, x.ranks)):
            failures += 1
    ok = ok_bound and failures == 0
    announce(capsys, 3, "rounding bound and rank recovery", ok,
             f"worst error/bound {worst_ratio:.3f}, rank failures {failures}/50")
    assert worst_ratio <= 1.0
    assert failures == 0


def test_criterion_4_tsqr(capsys):
    rng = np.random.default_rng(4)
    worst_r = worst_rt = 0.0
    replicated = True
    apply_msgs_pow2 = 0

    for P in range(1, 10):
        for m, b in ((7 * P + 3, 5), (512, 16), (37, 3)):
            a = rng.standard_normal((m, b))
            _, r_ref = reference_qr(a)

            def body(comm):
                lo, hi = block_bounds(m, comm.size, comm.rank)
                fac, r = tsqr_factor(a[lo:hi], comm, variant="butterfly")
                _, r_bin = tsqr_factor(a[lo:hi], comm, variant="binomial")
                before = comm.trace.total("messages")
                back = tsqr_apply_q(fac, r, comm)
                dmsg = comm.trace.total("messages") - before
                return r, r_bin, back, dmsg

            run = run_spmd(P, body)
            rs = [res[0] for res in run.results]
            replicated &= all(np.array_equal(rs[0], r) for r in rs[1:])
            worst_r = max(worst_r, rel(rs[0], r_ref))
            r_bin = run.results[0][1]  # binomial: rank 0 holds R
            worst_r = max(worst_r, rel(r_bin, r_ref))
            recon = np.vstack([res[2] for res in run.results])
            worst_rt = max(worst_rt, rel(recon, a))
            if P & (P - 1) == 0:
                apply_msgs_pow2 += sum(res[3] for res in run.results)

    ok = worst_r <= 1e-12 and worst_rt <= 1e-12 and replicated and apply_msgs_pow2 == 0
    announce(capsys, 4, "TSQR vs Householder, P in 1..9", ok,
             f"R dev {worst_r:.2e}, roundtrip {worst_rt:.2e}, "
             f"pow2 apply msgs {apply_msgs_pow2}")
    assert worst_r <= 1e-12
    assert worst_rt <= 1e-12
    assert replicated
    assert apply_msgs_pow2 == 0


def test_criterion_5_split_product_identity(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(10):
        dims, ranks = random_chain(rng, max_n=5, max_i=6, max_r=5)
        t = random_tt(dims, ranks, seed=300 + trial)
        for n in range(1, len(dims)):
            worst = max(worst, verify_quadprod(t, n))
    ok = worst <= 1e-12
    announce(capsys, 5, "split-product identity, 10 tensors", ok,
             f"worst residual {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_6_cost_model(capsys):
    # closed-form pins: the published leading terms, exactly
    pins = (
        estimate("inner_product", 3, 4, 2, 1).flops == 4 * 3 * 4 * 2**3
        and estimate("norm", 3, 4, 2, 1).flops == 2 * 3 * 4 * 2**3
        and estimate("orthonormalization", 10, 100, 8, 1).flops == 5 * 10 * 100 * 8**3
        and estimate("rounding", 10, 100, 8, 1, L=4).flops
        == 10 * 100 * 8 * (3 * 8**2 + 6 * 8 * 4 + 4 * 4**2)
        and estimate("rounding", 3, 4, 2, 1, L=1).flops
        == 7 * 3 * 4 * 2**3  # halved ranks: coefficient 7
    )

    # instrumented counters at N=8, I=256, R=32, L=16, P=1 within 10% of the
    # per-mode leading terms
    dims = (256,) * 8
    chain = (1,) + (32,) * 7 + (1,)
    ratios = {}

    dt = distribute(random_tt(dims, chain, seed=6), SerialComm())
    dt.comm.trace.reset()
    inner_product(dt, dt)
    ratios["inner_product"] = (dt.comm.trace.total("flops"),
                               chain_estimate("inner_product", dims, chain).flops)

    dt.comm.trace.reset()
    norm(dt, "innerprod_sym")
    ratios["norm"] = (dt.comm.trace.total("flops"),
                      chain_estimate("norm", dims, chain).flops)

    dt.comm.trace.reset()
    orthonormalize(dt, "right")
    ratios["orthonormalization"] = (
        dt.comm.trace.total("flops"),
        chain_estimate("orthonormalization", dims, chain).flops,
    )

    x16, y32 = redundant_pair(dims, 16, seed=7)
    dy = distribute(y32, SerialComm())
    dy.comm.trace.reset()
    out = round_tt(dy, RoundingOptions(1e-8, "LRLI"))
    ratios["rounding"] = (
        dy.comm.trace.total("flops"),
        chain_estimate("rounding", dims, y32.ranks,
                       out_ranks=out.ranks, variant="LRLI").flops,
    )

    offs = {k: abs(got - want) / want for k, (got, want) in ratios.items()}
    ok = pins and max(offs.values()) <= 0.10
    announce(capsys, 6, "cost model pins and 10% counter agreement", ok,
             "max counter deviation "
             + ", ".join(f"{k} {v:.1%}" for k, v in offs.items()))
    assert pins
    for k, v in offs.items():
        assert v <= 0.10, (k, v)


def test_criterion_7_p_invariance(capsys):
    x = random_tt((4, 6, 5, 4), (1, 3, 4, 2, 1), seed=70)
    y = random_tt((4, 6, 5, 4), (1, 2, 3, 3, 1), seed=71)
    op = shift_operator(x.dims)

    def body(comm):
        a, b = distribute(x, comm), distribute(y, comm)
        out = {
            "add": dense(gather(add(a, b))),
            "hadamard": dense(gather(hadamard(a, b))),
            "dot": inner_product(a, b),
            "apply": dense(gather(apply_operator(op, a))),
        }
        for method in NORM_METHODS:
            out[f"norm-{method}"] = norm(a, method)
        for direction in ("left", "right"):
            out[f"ortho-{direction}"] = dense(gather(orthonormalize(a, direction)))
        for variant in ("LRLI", "RLR"):
            out[f"round-{variant}"] = dense(
                gather(round_tt(b, RoundingOptions(1e-6, variant))))
        return out

    ref = run_spmd(1, body).results[0]
    worst = 0.0
    for P in (2, 4):
        for res in run_spmd(P, body).results:
            for key, val in res.items():
                worst = max(worst, rel(val, ref[key]))
    ok = worst <= 1e-10
    announce(capsys, 7, "P-invariance of every op, P in {1,2,4}", ok,
             f"worst rel {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_8_scaling_sanity(capsys):
    # gated: analytic speedup of rounding the doubled-rank model-1 shape at
    # I = 200 (N=50, input rank 100 halved to 50)
    params = CostModelParams()
    t1 = estimate("rounding", 50, 200, 100, P=1, L=50).seconds(params)
    speedups = {}
    for P in range(2, 9):
        tP = estimate("rounding", 50, 200, 100, P=P, L=50).seconds(params)
        speedups[P] = t1 / tP
    ok = all(s >= 0.8 * P for P, s in speedups.items())
    announce(capsys, 8, "predicted rounding speedup >= 0.8P for P <= 8", ok,
             ", ".join(f"P={P}: {s:.2f}" for P, s in speedups.items()))

    # informational: wall-clock speedup of the simulated backend on this host
    # (threads share one GIL and one BLAS; reported, not gated)
    dims, chain = (16,) * 50, (1,) + (50,) * 49 + (1,)

    def body(comm):
        from ttpar import DistTTTensor

        x = DistTTTensor.random(comm, dims, chain, seed=80)
        y = add(scale(x, 2.0), scale(x, -1.0))
        round_tt(y, RoundingOptions(1e-8, "LRLI"))

    walls = {}
    for P in (1, 2, 4):
        t0 = time.perf_counter()
        run_spmd(P, body, timeout=600.0)
        walls[P] = time.perf_counter() - t0
    with capsys.disabled():
        print("[acceptance] 8 wall-clock (informational): "
              + ", ".join(f"P={P}: {walls[1] / w:.2f}x" for P, w in walls.items()))
    assert ok
