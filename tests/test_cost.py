"""Analytic cost table pins and counter cross-validation."""

import numpy as np
import pytest

from ttpar import (
    CostModelParams,
    RoundingOptions,
    distribute,
    inner_product,
    norm,
    orthonormalize,
    random_tt,
    round_tt,
    run_spmd,
    serial_tt,
    tsqr,
)
from ttpar.cost import OP_KINDS, chain_estimate, estimate
from ttpar.errors import ContractError, ShapeError
from ttpar.ops import hadamard


# ------------------------------------------------------------- table pins


def test_inner_product_pin():
    # N=3, I=4, R=2, P=1: 4 * 3 * 4 * 8
    assert estimate("inner_product", 3, 4, 2, 1).flops == 384


def test_norm_pin():
    assert estimate("norm", 3, 4, 2, 1).flops == 192


def test_orthonormalization_coefficient():
    r = estimate("orthonormalization", 10, 100, 8, 1)
    assert r.flops == 5 * 10 * 100 * 8**3
    by_phase = {p.phase: p.flops for p in r.breakdown}
    lead = 10 * 100 * 8**3
    assert by_phase == {"TSQR": 2 * lead, "AppQ": 2 * lead, "Other": lead}


def test_rounding_coefficient_range():
    N, I, R = 10, 100, 16
    lead = N * I * R**3
    half = estimate("rounding", N, I, R, 1)  # default L = R/2
    assert half.flops == 7 * lead  # 3 + 3 + 1
    full = estimate("rounding", N, I, R, 1, L=R)
    assert full.flops == 13 * lead  # 3 + 6 + 4
    tiny = estimate("rounding", N, I, R, 1, L=1)
    assert 3 * lead < tiny.flops < 3.5 * lead  # -> 3 as L -> 0


def test_rounding_breakdown_polynomials():
    N, I, R, L = 6, 50, 12, 5
    r = estimate("rounding", N, I, R, 1, L=L)
    by_phase = {p.phase: p.flops for p in r.breakdown}
    assert by_phase["TSQR"] == N * I * R * (2 * R**2 + 2 * R * L)
    assert by_phase["AppQ"] == N * I * R * (4 * R * L + 4 * L**2)
    assert by_phase["Other"] == N * I * R * R**2


def test_hadamard_and_summation_rows():
    h = estimate("hadamard", 4, 30, 5, 2)
    assert h.flops == 4 * 30 * 5**4 / 2
    assert h.words == 0 and h.messages == 0
    s = estimate("summation", 4, 30, 5, 2)
    assert s.flops == 0 and s.words == 0 and s.messages == 0


def test_tsqr_row():
    r = estimate("tsqr", 1, 1, 1, 4, m=1000, b=8)
    assert r.flops == 2 * 1000 * 64 / 4 + 8**3 * 2
    assert r.messages == 2  # ceil(log2 4)
    r1 = estimate("tsqr", 1, 1, 1, 1, m=1000, b=8)
    assert r1.flops == 2 * 1000 * 64
    assert r1.words == 0 and r1.messages == 0


def test_no_communication_terms_at_p1():
    for kind in OP_KINDS:
        r = estimate(kind, 5, 40, 6, 1, L=3)
        assert r.words == 0 and r.messages == 0


def test_totals_are_breakdown_sums_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        kind = OP_KINDS[rng.integers(len(OP_KINDS))]
        N, I, R = rng.integers(1, 20), rng.integers(1, 500), rng.integers(1, 64)
        P = int(rng.integers(1, 16))
        r = estimate(kind, N, I, R, P, L=max(1, R // 2))
        assert r.flops >= 0 and r.words >= 0 and r.messages >= 0
        assert r.flops == pytest.approx(sum(p.flops for p in r.breakdown))
        assert r.words == pytest.approx(sum(p.words for p in r.breakdown))
        assert r.messages == pytest.approx(sum(p.messages for p in r.breakdown))


def test_aliases_and_validation():
    assert estimate("dot", 3, 4, 2).flops == 384
    assert estimate("ortho", 2, 4, 2).flops == estimate("orthonormalization", 2, 4, 2).flops
    with pytest.raises(ContractError, match="op_kind"):
        estimate("fft", 3, 4, 2)
    with pytest.raises(ContractError, match="L must"):
        estimate("rounding", 3, 4, 2, L=5)
    with pytest.raises(ContractError, match="positive"):
        estimate("norm", 0, 4, 2)


@pytest.mark.parametrize("args", [(float("nan"), 4, 2), (3, float("nan"), 2), (3, 4, float("nan"))])
def test_estimate_refuses_a_nan_size(args):
    """A NaN N, I or R is refused, not priced as NaN flops."""
    with pytest.raises(ContractError, match="N, I, and R must all be positive, got "):
        estimate("dot", *args)


def test_seconds_uses_params():
    params = CostModelParams(gamma=2.0, beta=3.0, alpha=5.0)
    r = estimate("inner_product", 3, 4, 2, 4)
    want = 2.0 * r.flops + 3.0 * r.words + 5.0 * r.messages
    assert r.seconds(params) == pytest.approx(want)


# --------------------------------------------- chain vs instrumented counters


def flops_by_phase(trace):
    return {ph: fl for ph, _, fl, _, _ in trace.rows()}


def test_chain_matches_counters_exactly_for_gemm_ops():
    dims, ranks = (9, 7, 8, 6), (1, 4, 5, 3, 1)
    x = random_tt(dims, ranks, seed=1)
    dt = serial_tt(x)

    dt.comm.trace.reset()
    inner_product(dt, dt)
    got = dt.comm.trace.total("flops")
    assert got == chain_estimate("inner_product", dims, ranks).flops

    dt.comm.trace.reset()
    norm(dt, "innerprod_sym")
    got = dt.comm.trace.total("flops")
    assert got == chain_estimate("norm", dims, ranks).flops

    dt.comm.trace.reset()
    hadamard(dt, dt)
    got = dt.comm.trace.total("flops")
    assert got == chain_estimate("hadamard", dims, ranks).flops


def test_hadamard_chain_takes_the_second_operands_ranks():
    """A product with a rank-1 operand, as the model-1 benchmark multiplies,
    is predicted exactly from both chains; a bad second chain is refused."""
    dims = (7, 5, 6)
    x, y = random_tt(dims, (1, 50, 50, 1), seed=3), random_tt(dims, (1, 1, 1, 1), seed=4)
    dt = serial_tt(x)
    dt.comm.trace.reset()
    hadamard(dt, distribute(y, dt.comm))
    got = dt.comm.trace.total("flops")
    assert got == chain_estimate("hadamard", dims, x.ranks, other_ranks=y.ranks).flops
    assert got == 7 * 50 + 5 * 50 * 50 + 6 * 50
    assert chain_estimate("hadamard", dims, x.ranks).flops == 7 * 2500 + 5 * 50**4 + 6 * 2500
    for bad in ((1, 2, 1), (2, 1, 1, 1), (1, 1, 1, 3)):
        with pytest.raises(ShapeError):
            chain_estimate("hadamard", dims, x.ranks, other_ranks=bad)


def test_chain_flops_are_split_invariant():
    # total arithmetic must not depend on P; only the per-rank share does
    dims, ranks = (8, 12, 8), (1, 4, 4, 1)
    x = random_tt(dims, ranks, seed=2)
    total = chain_estimate("inner_product", dims, ranks).flops

    def body(comm):
        dx = distribute(x, comm)
        comm.trace.reset()
        inner_product(dx, dx)
        return comm.trace.total("flops")

    for p in (2, 4):
        runs = run_spmd(p, body)
        assert sum(runs.results) == pytest.approx(total)
        # dims divide P evenly here, so every rank holds an exact 1/P share
        per_rank = chain_estimate("inner_product", dims, ranks, P=p).flops
        for got in runs.results:
            assert got == pytest.approx(per_rank)


def test_chain_matches_orthonormalize_counters():
    dims = (32,) * 6
    ranks = (1, 8, 8, 8, 8, 8, 1)
    x = random_tt(dims, ranks, seed=3)
    dt = serial_tt(x)
    dt.comm.trace.reset()
    orthonormalize(dt, "right")
    got = flops_by_phase(dt.comm.trace)
    want = {p.phase: p.flops for p in chain_estimate("ortho", dims, ranks).breakdown}
    for phase in ("TSQR", "AppQ", "Other"):
        assert got[phase] == pytest.approx(want[phase], rel=0.03)


@pytest.mark.parametrize("nranks", [1, 2])
def test_routed_orthonormalize_appq_within_ten_percent(nranks):
    """A sweep whose big panel (10000 x 50) takes the compact-WY route at
    both P is charged AppQ flops within 10% of the chain's 2 m b^2 / P: the
    leaf builds Q for the identity or the tree's triangle without pushing
    identity columns through dgemqrt."""
    dims, ranks = (200, 200, 200), (1, 50, 50, 1)
    assert tsqr._wy_route(200 * 50 // nranks, 50)
    x = random_tt(dims, ranks, seed=8)
    want = {p.phase: p.flops
            for p in chain_estimate("ortho", dims, ranks, P=nranks).breakdown}["AppQ"]

    def body(comm):
        dt = distribute(x, comm)
        comm.trace.reset()
        orthonormalize(dt, "right")
        return flops_by_phase(comm.trace)["AppQ"]

    for got in run_spmd(nranks, body).results:
        assert abs(got - want) <= 0.10 * want


@pytest.mark.parametrize("variant", ["RLR", "RLRI", "LRL", "LRLI"])
def test_chain_matches_rounding_counters(variant):
    from tests_support import redundant_pair

    x, y = redundant_pair((48,) * 6, 8, seed=4)
    dt = serial_tt(y)
    dt.comm.trace.reset()
    out = round_tt(dt, RoundingOptions(1e-10, variant))
    got = flops_by_phase(dt.comm.trace)
    want = {
        p.phase: p.flops
        for p in chain_estimate(
            "rounding", y.dims, y.ranks,
            out_ranks=out.meta["output_ranks"], variant=variant,
        ).breakdown
    }
    for phase in ("TSQR", "AppQ", "Other"):
        assert got[phase] == pytest.approx(want[phase], rel=0.06)


def test_counters_within_ten_percent_of_leading_terms():
    # the R >> 1 leading-term regime, smaller than the acceptance-size run
    from tests_support import redundant_pair

    N, I, R = 8, 64, 16
    dims = (I,) * N
    x, y = redundant_pair(dims, R // 2, seed=5)
    dt = serial_tt(y)
    dt.comm.trace.reset()
    out = round_tt(dt, RoundingOptions(1e-9))
    got = dt.comm.trace.total("flops")
    want = chain_estimate(
        "rounding", dims, y.ranks, out_ranks=out.meta["output_ranks"]
    ).flops
    assert abs(got - want) <= 0.10 * want


def test_chain_validation():
    """A malformed chain is refused as a tensor with it would be; a rank count
    that is not an integer >= 1 is refused too."""
    with pytest.raises(ShapeError, match="end ranks"):
        chain_estimate("norm", (4, 4), (1, 2, 2))
    for kind, dims, ranks in (("norm", (4, 4), (1, 0, 1)), ("dot", (0, 4), (1, 2, 1)),
                              ("rounding", (4, -3), (1, 2, 1))):
        with pytest.raises(ShapeError, match="positive"):
            chain_estimate(kind, dims, ranks)
    with pytest.raises(ShapeError, match="positive"):
        chain_estimate("round", (4, 4), (1, 2, 1), out_ranks=(1, 0, 1))
    for P in (0, -1, 2.5, float("nan"), True):
        with pytest.raises(ContractError, match="^P must be"):
            chain_estimate("dot", (4, 4), (1, 2, 1), P=P)
        with pytest.raises(ContractError, match="^P must be"):
            estimate("dot", 3, 4, 2, P=P)
    with pytest.raises(ContractError, match="exceed"):
        chain_estimate("rounding", (4, 4), (1, 2, 1), out_ranks=(1, 3, 1))
    with pytest.raises(ContractError, match="variant"):
        chain_estimate("rounding", (4, 4), (1, 2, 1), variant="XX")
