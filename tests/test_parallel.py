"""Distribution, orthonormalization sweeps, truncated SVD, and TT rounding."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ttpar import (
    DistTTTensor,
    RoundingOptions,
    SerialComm,
    block_bounds,
    distribute,
    gather,
    orthonormalize,
    random_tt,
    round_tt,
    run_spmd,
    truncated_svd,
)
from ttpar.errors import ContractError, NumericError, ShapeError
from ttpar.ops import norm, scale
from ttpar.verify import dense


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# ---------------------------------------------------------------- layout


def test_block_bounds_cover_extent():
    for extent in (1, 2, 5, 7, 16, 33):
        for p in (1, 2, 3, 4, 8):
            marks = np.zeros(extent, dtype=int)
            for r in range(p):
                lo, hi = block_bounds(extent, p, r)
                assert 0 <= lo <= hi <= extent
                marks[lo:hi] += 1
            assert (marks == 1).all()


def test_block_bounds_tail_can_be_empty():
    # ceil-chunks of 5 over 4 ranks: 2, 2, 1, 0
    sizes = [block_bounds(5, 4, r) for r in range(4)]
    assert [hi - lo for lo, hi in sizes] == [2, 2, 1, 0]


def test_distribute_gather_roundtrip():
    t = random_tt((4, 6, 5), (1, 3, 2, 1), seed=7)

    def body(comm):
        dt = distribute(t, comm)
        back = gather(dt)
        for a, b in zip(back.cores, t.cores):
            assert np.array_equal(a, b)

    run_spmd(3, body)


def test_distribute_leaves_trailing_ranks_idle():
    """At P = 3 a 2-row mode leaves rank 2 an empty slab, and gather still
    round-trips; on one rank every slab is its core's own memory."""
    t = random_tt((4, 2, 5), (1, 2, 2, 1), seed=0)

    def body(comm):
        dt = distribute(t, comm)
        if comm.rank >= 2:
            assert dt.local_bounds(1) == (2, 2)
            assert dt.local[1].shape == (2, 0, 2)
        for a, b in zip(gather(dt).cores, t.cores):
            assert np.array_equal(a, b)

    run_spmd(3, body)
    one = distribute(t, SerialComm())
    assert all(np.shares_memory(s, c) for s, c in zip(one.local, t.cores))


def test_random_dist_matches_sequential_bitwise():
    dims, ranks, seed = (5, 4, 6), (1, 3, 3, 1), 21
    t = random_tt(dims, ranks, seed)

    def body(comm):
        dt = DistTTTensor.random(comm, dims, ranks, seed)
        ref = distribute(t, comm)
        for a, b in zip(dt.local, ref.local):
            assert np.array_equal(a, b)

    for p in (1, 2, 4):
        run_spmd(p, body)

    # a 2-row mode leaves some ranks with empty slabs; a seed past 64 bits
    dims, ranks, seed = (5, 2, 7), (1, 3, 2, 1), 2**64 + 17
    t = random_tt(dims, ranks, seed)

    def idle_body(comm):
        dt = DistTTTensor.random(comm, dims, ranks, seed)
        ref = distribute(t, comm)
        for a, b in zip(dt.local, ref.local):
            assert np.array_equal(a, b)

    for p in range(1, 6):
        run_spmd(p, idle_body)


def test_bad_slab_shape_rejected():
    comm = SerialComm()
    with pytest.raises(ShapeError, match="block rule"):
        DistTTTensor(comm, (3, 3), (1, 2, 1), [np.zeros((1, 3, 2)), np.zeros((2, 2, 1))])
    with pytest.raises(ShapeError, match="1 slabs for 2 modes"):
        DistTTTensor(comm, (3, 3), (1, 2, 1), [np.zeros((1, 3, 2))])


# ------------------------------------------------------- orthonormalization


@pytest.mark.parametrize("direction", ["left", "right"])
@pytest.mark.parametrize("nranks", [1, 2, 3])
def test_orthonormalize_preserves_value(direction, nranks):
    t = random_tt((5, 4, 6, 3), (1, 3, 4, 2, 1), seed=3)
    want = dense(t)

    def body(comm):
        dt = distribute(t, comm)
        out = orthonormalize(dt, direction)
        assert out.ranks == dt.ranks
        got = gather(out)
        assert rel_err(dense(got), want) < 1e-12
        return got

    runs = run_spmd(nranks, body)
    # orthonormality of the swept cores, checked on the gathered tensor
    got = runs.results[0]
    N = len(got.cores)
    for n in range(N):
        c = got.cores[n]
        if direction == "right" and n > 0:
            h = c.reshape((c.shape[0], -1), order="F")
            assert np.allclose(h @ h.T, np.eye(h.shape[0]), atol=1e-12)
        if direction == "left" and n < N - 1:
            v = c.reshape((-1, c.shape[2]), order="F")
            assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-12)


def test_orthonormalize_is_stable_when_repeated():
    t = random_tt((4, 5, 4), (1, 3, 3, 1), seed=11)
    dt = distribute(t, SerialComm())
    once = orthonormalize(dt, "right")
    twice = orthonormalize(once, "right")
    # R factors of an already-orthonormal chain are identities, so a second
    # sweep must reproduce the cores to roundoff.
    for a, b in zip(once.local, twice.local):
        assert np.allclose(a, b, atol=1e-13)


def test_orthonormalize_handles_empty_tail_slab():
    t = random_tt((5, 5, 5), (1, 4, 4, 1), seed=13)
    want = dense(t)

    def body(comm):
        dt = distribute(t, comm)
        out = orthonormalize(dt, "right")
        assert rel_err(dense(gather(out)), want) < 1e-12

    run_spmd(4, body)  # 5 rows over 4 ranks -> tail blocks of 1 and 2


def test_orthonormalize_single_mode_is_copy():
    t = random_tt((6,), (1, 1), seed=2)
    out = orthonormalize(distribute(t, SerialComm()), "right")
    assert np.array_equal(out.local[0], t.cores[0])


def test_orthonormalize_bad_direction():
    t = random_tt((3, 3), (1, 2, 1), seed=0)
    with pytest.raises(ContractError, match="direction"):
        orthonormalize(t, "up")


def test_orthonormalize_serial_flops_match_model():
    # P=1, equal dims/ranks: 2mb^2 (QR) + 2mb^2 (apply) + mb^2 (trmm) per
    # interior core with m = I R, b = R -> 5 N I R^3 to leading order.
    I, R = 24, 6
    dims, ranks = (I,) * 5, (1, R, R, R, R, 1)
    t = random_tt(dims, ranks, seed=5)
    dt = distribute(t, SerialComm())
    dt.comm.trace.reset()
    orthonormalize(dt, "right")
    got = dt.comm.trace.total("flops")
    # exact count for this chain: interior cores see (m, b) = (I R, R),
    # the right end core (m, b) = (I, R), and trmm rides the left ranks
    expect = 0.0
    for n in range(4, 0, -1):
        m, b = I * ranks[n + 1], ranks[n]
        expect += 2 * m * b * b + 2 * m * b * b  # geqrf + orgqr/trmm apply path
        expect += (ranks[n - 1] * I) * b * b  # R^T fold into the left neighbor
    assert got == pytest.approx(expect, rel=0.02)


# ------------------------------------------------------------ truncated SVD


def test_truncated_svd_drops_exact_zeros_at_eps_zero():
    f = truncated_svd(np.diag([2.0, 1.0, 0.0]), eps=0.0)
    assert f.s.shape == (2,)
    assert f.discarded_tail == 0.0 and not f.capped


def test_truncated_svd_keeps_one_even_when_eps_huge():
    f = truncated_svd(np.diag([3.0, 2.0]), eps=10.0)
    assert f.s.shape == (1,)
    assert f.discarded_tail == pytest.approx(2.0)


def test_truncated_svd_tail_rule_against_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((7, 5)) @ np.diag(rng.uniform(0, 3, 5))
        s = np.linalg.svd(a, compute_uv=False)
        eps = float(rng.uniform(0, np.linalg.norm(a)))
        f = truncated_svd(a, eps)
        keep = f.s.size
        # smallest rank whose discarded tail is <= eps
        tails = [np.sqrt((s[k:] ** 2).sum()) for k in range(s.size + 1)]
        want = next(k for k, tl in enumerate(tails) if tl <= eps)
        assert keep == max(want, 1)
        approx = f.u @ np.diag(f.s) @ f.v.T
        assert np.linalg.norm(a - approx) <= eps + 1e-12


def test_truncated_svd_max_rank_cap():
    f = truncated_svd(np.diag([3.0, 2.0, 1.0]), eps=0.0, max_rank=2)
    assert f.s.shape == (2,) and f.capped
    assert f.discarded_tail == pytest.approx(1.0)
    with pytest.raises(ContractError):
        truncated_svd(np.eye(2), eps=0.0, max_rank=0)
    for eps in (-1.0, float("nan")):
        with pytest.raises(ContractError, match="eps must be nonnegative"):
            truncated_svd(np.eye(3), eps=eps)
    for cap in (2.5, float("nan")):
        with pytest.raises(ContractError, match="max_rank must be an integer"):
            truncated_svd(np.eye(3), eps=0.0, max_rank=cap)
    with pytest.raises(ShapeError, match="matrix"):
        truncated_svd(np.ones(3), eps=0.0)
    with pytest.raises(NumericError, match="non-finite"):
        truncated_svd(np.diag([1.0, np.inf]), eps=0.0)


@pytest.mark.parametrize("c", [1e-170, 1e170])
def test_truncated_svd_tail_is_scale_safe(c):
    """Squared singular values past the float64 range neither vanish nor
    become inf: the kept rank and the tail scale with the input."""
    f = truncated_svd(np.diag([3.0, 2.0, 1.0]) * c, eps=1.5 * c)
    assert f.s.shape == (2,)
    assert f.discarded_tail == pytest.approx(c)


# ----------------------------------------------------------------- rounding


from tests_support import child_env, redundant_pair, round_with_short_rank1


@pytest.mark.parametrize("variant", ["RLR", "RLRI", "LRL", "LRLI"])
def test_round_error_bound(variant):
    t = random_tt((6, 5, 4, 5), (1, 4, 5, 3, 1), seed=9)
    want = dense(t)
    scale = np.linalg.norm(want)
    for eps0 in (1e-2, 1e-6, 1e-10):
        out = round_tt(distribute(t, SerialComm()), RoundingOptions(eps0, variant))
        got = dense(gather(out))
        assert np.linalg.norm(got - want) <= eps0 * scale * (1 + 1e-12)
        assert out.meta["eps_bond"] == pytest.approx(
            eps0 * out.meta["norm"] / np.sqrt(3)
        )
        assert not out.meta["error_bound_violated"]


@pytest.mark.parametrize("variant", ["RLR", "RLRI", "LRL", "LRLI"])
def test_round_recovers_ranks_of_redundant_sum(variant):
    for seed in range(8):
        x, y = redundant_pair((4, 5, 3, 4), 3, seed)
        assert max(y.ranks) == 6
        out = round_tt(y, RoundingOptions(1e-12, variant))
        assert all(r <= rx for r, rx in zip(out.ranks, x.ranks))
        assert rel_err(dense(out), dense(x)) < 1e-10


@pytest.mark.parametrize("variant", ["LRLI", "RLR"])
@pytest.mark.parametrize("nranks", [2, 3])
def test_round_rejects_ranks_that_disagree(nranks, variant):
    """One rank keeping a triple fewer than its peers is a contract error,
    not a silently inconsistent chain."""
    with pytest.raises(ContractError, match="ranks disagree"):
        round_with_short_rank1(nranks, variant)


def test_round_rank_check_runs_under_optimize():
    """``python -O`` strips asserts and ``__debug__`` blocks; the rank check
    must survive it."""
    script = textwrap.dedent(
        """
        import sys
        from ttpar.errors import ContractError
        from tests_support import round_with_short_rank1
        print("optimize", sys.flags.optimize)
        for p in (2, 3):
            try:
                print("returned", round_with_short_rank1(p))
            except ContractError as e:
                print("raised", e)
        """
    )
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(__file__), env["PYTHONPATH"]])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert out.returncode == 0, out.stderr
    assert "optimize 1" in out.stdout
    assert out.stdout.count("raised ranks disagree") == 2, out.stdout


def test_round_eps_zero_hits_unfolding_rank_bounds():
    # inflated bonds: eps0=0 may only drop exactly dead directions, which
    # brings each bond down to min(prod left dims, prod right dims, rank)
    t = random_tt((3, 4, 3), (1, 5, 7, 1), seed=17)
    out = round_tt(t, RoundingOptions(0.0, "RLR"))
    dims = t.dims
    for n in range(1, len(dims)):
        left = int(np.prod(dims[:n]))
        right = int(np.prod(dims[n:]))
        assert out.ranks[n] <= min(left, right, t.ranks[n])
    assert rel_err(dense(out), dense(t)) < 1e-12


@pytest.mark.parametrize("variant", ["RLR", "RLRI", "LRL", "LRLI"])
def test_round_output_cores_orthonormal_on_swept_side(variant):
    t = random_tt((5, 4, 6, 4), (1, 4, 4, 4, 1), seed=23)
    out = round_tt(t, RoundingOptions(1e-8, variant))
    N = len(out.cores)
    if variant.startswith("R"):  # truncation swept left-to-right
        for n in range(N - 1):
            v = out.cores[n].reshape((-1, out.ranks[n + 1]), order="F")
            assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-12)
    else:
        for n in range(1, N):
            h = out.cores[n].reshape((out.ranks[n], -1), order="F")
            assert np.allclose(h @ h.T, np.eye(h.shape[0]), atol=1e-12)


def test_round_variants_agree_pairwise():
    t = random_tt((5, 6, 4, 5), (1, 5, 6, 4, 1), seed=31)
    eps0 = 1e-6
    scale = np.linalg.norm(dense(t))
    outs = {
        v: round_tt(t, RoundingOptions(eps0, v))
        for v in ("RLR", "RLRI", "LRL", "LRLI")
    }
    ranks = {v: o.ranks for v, o in outs.items()}
    assert ranks["RLR"] == ranks["RLRI"]
    assert ranks["LRL"] == ranks["LRLI"]
    got = {v: dense(o) for v, o in outs.items()}
    for a in got:
        for b in got:
            assert np.linalg.norm(got[a] - got[b]) <= 2 * eps0 * scale
    # implicit and explicit flavors of the same sweep agree to roundoff
    assert np.linalg.norm(got["RLR"] - got["RLRI"]) < 1e-12 * scale
    assert np.linalg.norm(got["LRL"] - got["LRLI"]) < 1e-12 * scale


def test_round_ranks_monotone_in_eps0():
    t = random_tt((6, 5, 6), (1, 6, 6, 1), seed=37)
    prev = None
    for eps0 in (1e-12, 1e-8, 1e-4, 1e-1):
        out = round_tt(t, RoundingOptions(eps0, "LRLI"))
        if prev is not None:
            assert all(a <= b for a, b in zip(out.ranks, prev))
        prev = out.ranks


@pytest.mark.parametrize("variant", ["RLRI", "LRL"])
def test_round_invariant_under_nranks(variant):
    t = random_tt((6, 5, 7, 6), (1, 4, 6, 3, 1), seed=41)
    ref = dense(round_tt(t, RoundingOptions(1e-6, variant)))

    def body(comm):
        out = round_tt(distribute(t, comm), RoundingOptions(1e-6, variant))
        return out.ranks, dense(gather(out))

    for p in (2, 4):
        runs = run_spmd(p, body)
        for ranks, got in runs.results:
            assert ranks == runs.results[0][0]
            assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-10


def test_round_zero_tensor_collapses_to_rank_one():
    t = random_tt((4, 5, 4), (1, 3, 3, 1), seed=2)
    for c in t.cores:
        c[:] = 0.0
    out = round_tt(distribute(t, SerialComm()), RoundingOptions(1e-6, "RLR"))
    assert out.ranks == (1, 1, 1, 1)
    assert out.meta.get("zero") is True
    assert not dense(gather(out)).any()


def test_round_max_rank_cap_reports_violation():
    t = random_tt((6, 6, 6), (1, 5, 5, 1), seed=3)
    out = round_tt(distribute(t, SerialComm()), RoundingOptions(1e-12, "LRLI", max_rank=2))
    assert max(out.ranks) == 2
    assert out.meta["error_bound_violated"]


def test_round_single_mode_is_identity():
    t = random_tt((7,), (1, 1), seed=5)
    out = round_tt(distribute(t, SerialComm()), RoundingOptions(1e-6, "RLR"))
    assert np.array_equal(out.local[0], t.cores[0])


def test_round_single_mode_reports_its_own_meta():
    """A one-mode round reports the keys of a two-mode round but the bond
    threshold ``eps_bond``, none of its input's: its norm, output ranks
    (1, 1), and ``zero`` for a zero vector, whose keys are a zero two-mode
    round's."""
    one = orthonormalize(distribute(random_tt((7,), (1, 1), seed=5), SerialComm()), "right")
    two = distribute(random_tt((7, 3), (1, 2, 1), seed=5), SerialComm())
    got = round_tt(one, RoundingOptions(1e-8)).meta
    assert set(got) == set(round_tt(two, RoundingOptions(1e-8)).meta) - {"eps_bond"}
    assert got["output_ranks"] == (1, 1)
    assert np.isclose(got["norm"], np.linalg.norm(one.local[0]), rtol=1e-15, atol=0.0)
    zero_one, zero_two = (round_tt(scale(x, 0.0), RoundingOptions(1e-8)).meta for x in (one, two))
    assert zero_one["zero"] is True and set(zero_one) == set(zero_two)
    assert zero_two["output_ranks"] == (1, 1, 1)


def test_round_rejects_bad_options():
    with pytest.raises(ContractError, match="variant"):
        RoundingOptions(1e-6, "XYZ")
    for eps0 in (-1e-6, float("nan")):
        with pytest.raises(ContractError, match="eps0"):
            RoundingOptions(eps0)
    with pytest.raises(ContractError, match="max_rank"):
        RoundingOptions(1e-6, "RLR", max_rank=0)
    for cap in (2.5, float("nan"), True):
        with pytest.raises(ContractError, match="max_rank must be an integer"):
            RoundingOptions(1e-8, max_rank=cap)
    assert RoundingOptions(1e-6, "rlri", max_rank=np.int64(3)) == RoundingOptions(1e-6, "RLRI", 3)


def test_round_implicit_flop_savings():
    # Implicit variants skip forming Q on the wide orthonormalization panels
    # and instead apply the stored factors to the truncated carries.  That
    # pays off only when ranks actually shrink: per interior core the leading
    # coefficients are 3R^2 + 6RL + 4L^2 (implicit) vs 5R^2 + 4RL + 4L^2
    # (explicit), a 7/8 ratio at L = R/2 and a wash at L = R.
    _, y = redundant_pair((24, 24, 24, 24, 24), 10, seed=43)  # ranks 20 -> 10
    counts = {}
    for variant in ("RLR", "RLRI", "LRL", "LRLI"):
        dt = distribute(y, SerialComm())
        dt.comm.trace.reset()
        out = round_tt(dt, RoundingOptions(1e-10, variant))
        assert max(out.ranks) == 10
        counts[variant] = dt.comm.trace.total("flops")
    assert counts["RLRI"] < 0.95 * counts["RLR"]
    assert counts["LRLI"] < 0.95 * counts["LRL"]

    # incompressible input: the two strategies cost the same to leading order
    t = random_tt((20, 20, 20, 20), (1, 12, 12, 12, 1), seed=44)
    flat = {}
    for variant in ("RLR", "RLRI"):
        dt = distribute(t, SerialComm())
        dt.comm.trace.reset()
        round_tt(dt, RoundingOptions(1e-6, variant))
        flat[variant] = dt.comm.trace.total("flops")
    assert flat["RLRI"] == pytest.approx(flat["RLR"], rel=0.05)


# ------------------------------------------------------------ input safety

SWEEPS = {
    "ortho-left": lambda dt: orthonormalize(dt, "left"),
    "ortho-right": lambda dt: orthonormalize(dt, "right"),
    **{f"round-{v}": (lambda dt, v=v: round_tt(dt, RoundingOptions(1e-10, v)))
       for v in ("RLR", "RLRI", "LRL", "LRLI")},
}


@pytest.mark.parametrize("op", sorted(SWEEPS))
@pytest.mark.parametrize("nranks", [1, 2, 3])
def test_sweeps_neither_mutate_nor_alias_inputs(nranks, op):
    # the sweeps build every output core afresh instead of copying the input
    # up front; y rounds 6 -> 3, so the truncation steps run too
    _, y = redundant_pair((4, 5, 3, 4), 3, seed=17)
    one_mode = random_tt((5,), (1, 1), seed=18)

    def body(comm):
        for t in (y, one_mode):
            dt = distribute(t, comm)
            before = [s.tobytes() for s in dt.local]
            out = SWEEPS[op](dt)
            assert [s.tobytes() for s in dt.local] == before
            assert not any(np.shares_memory(o, s) for o in out.local for s in dt.local)

    run_spmd(nranks, body)


@pytest.mark.parametrize("c", [1e-303, 1e-170, 1e170])
@pytest.mark.parametrize("nranks", [1, 2])
def test_norm_and_round_at_extreme_scales(nranks, c):
    """A tensor scaled far outside the range where its squares are
    representable keeps its ortho norm, and rounds to the ranks and the
    accuracy of the unscaled tensor instead of to zero or to rank 1."""
    x = random_tt((6, 7, 5, 6), (1, 4, 5, 3, 1), seed=11)
    ref = dense(x)
    xs = scale(x, c)

    def body(comm):
        dt = distribute(xs, comm)
        out = {v: round_tt(dt, RoundingOptions(1e-8, v)) for v in ("LRLI", "RLR")}
        return norm(dt, "ortho"), {v: (o.ranks, o.meta, dense(gather(o))) for v, o in out.items()}

    for nrm, outs in run_spmd(nranks, body).results:
        assert nrm / c == pytest.approx(np.linalg.norm(ref), rel=1e-12)
        for ranks, meta, got in outs.values():
            assert ranks == x.ranks and "zero" not in meta
            assert meta["norm"] / c == pytest.approx(np.linalg.norm(ref), rel=1e-12)
            assert rel_err(got / c, ref) <= 1e-8


def test_norm_that_overflows_raises():
    """A finite tensor whose norm exceeds float64 fails loudly, in the ortho
    norm and in rounding, instead of returning inf."""
    xs = scale(random_tt((6, 7, 5, 6), (1, 4, 5, 3, 1), seed=11), 1e307)
    with pytest.raises(NumericError):
        norm(xs, "ortho")
    for variant in ("RLR", "LRLI"):
        with pytest.raises(NumericError):
            round_tt(xs, RoundingOptions(1e-8, variant))
