"""TT arithmetic against dense oracles, plus the Kronecker operator format."""

import re
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from ttpar import (
    KroneckerOperator,
    RoundingOptions,
    SerialComm,
    TTTensor,
    add,
    apply_operator,
    distribute,
    full,
    gather,
    hadamard,
    inner_product,
    load_operator,
    norm,
    orthonormalize,
    random_tt,
    round_tt,
    run_spmd,
    save_operator,
    scale,
    serial_tt,
)
from ttpar.errors import CapacityError, ContractError, NumericError, ShapeError
from ttpar import ops
from ttpar.ops import _gram_factor, _IndefiniteGram, _pivoted_cholesky
from ttpar.parallel import _end_core_norm
from ttpar.verify import dense, dense_operator


def pair(seed, dims=(4, 5, 3), rx=(1, 3, 2, 1), ry=(1, 2, 4, 1)):
    return random_tt(dims, rx, seed), random_tt(dims, ry, seed + 1000)


# ------------------------------------------------------------- local algebra


def test_scale_matches_dense():
    x, _ = pair(0)
    assert np.allclose(dense(scale(x, -2.5)), -2.5 * dense(x))


def test_add_matches_dense_and_sums_ranks():
    x, y = pair(1)
    z = add(x, y)
    assert z.ranks == (1, 5, 6, 1)
    assert np.allclose(dense(z), dense(x) + dense(y), atol=1e-13)


def test_add_single_mode_is_elementwise():
    x = random_tt((6,), (1, 1), seed=3)
    y = random_tt((6,), (1, 1), seed=4)
    z = add(x, y)
    assert z.ranks == (1, 1)
    assert np.allclose(dense(z), dense(x) + dense(y))


def test_hadamard_matches_dense_and_multiplies_ranks():
    x, y = pair(2)
    z = hadamard(x, y)
    assert z.ranks == (1, 6, 8, 1)
    assert np.allclose(dense(z), dense(x) * dense(y), atol=1e-13)


def test_hadamard_rank_guard():
    x = random_tt((4, 4), (1, 70, 1), seed=5)
    with pytest.raises(CapacityError, match="guard"):
        hadamard(x, x)
    z = hadamard(x, x, max_rank_product=4900)
    assert z.ranks == (1, 4900, 1)
    for cap in (2.5, float("nan"), "9"):
        with pytest.raises(ContractError, match="max_rank_product must be an integer"):
            hadamard(x, x, max_rank_product=cap)


def test_mixed_flavors_rejected():
    x, y = pair(6)

    def body(comm):
        dx = distribute(x, comm)
        with pytest.raises(ContractError, match="mix"):
            add(dx, y)

    run_spmd(2, body)


def test_operand_errors_keep_their_type_and_message():
    x = random_tt((4, 5), (1, 2, 1), seed=7)
    op = KroneckerOperator.identity((4, 5))
    cases = [
        (lambda: add(x, 3.0), "expected TTTensor or DistTTTensor, got float"),
        (lambda: scale([x], 2.0), "expected TTTensor or DistTTTensor, got list"),
        (lambda: norm(None), "expected TTTensor or DistTTTensor, got NoneType"),
        (lambda: apply_operator(op, "x"), "expected TTTensor or DistTTTensor, got str"),
        (lambda: inner_product(x, serial_tt(x)), "cannot mix sequential and distributed tensors"),
        (lambda: hadamard(serial_tt(x), serial_tt(x)), "operands live on different communicators"),
    ]
    for call, message in cases:
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            call()


def test_round_and_orthonormalize_name_serial_tt_for_a_sequential_tensor():
    x = random_tt((4, 5), (1, 2, 1), seed=7)
    for call in (lambda: orthonormalize(x), lambda: round_tt(x, RoundingOptions(1e-8))):
        with pytest.raises(ContractError, match="serial_tt"):
            call()


def test_dimension_mismatch_rejected():
    x = random_tt((4, 5), (1, 2, 1), seed=7)
    y = random_tt((4, 6), (1, 2, 1), seed=8)
    with pytest.raises(ShapeError, match="mismatch"):
        add(x, y)


def test_add_and_hadamard_do_not_communicate():
    x, y = pair(9)

    def body(comm):
        dx, dy = distribute(x, comm), distribute(y, comm)
        comm.trace.reset()
        add(dx, dy)
        hadamard(dx, dy)
        scale(dx, 3.0)
        assert comm.trace.total("messages") == 0
        assert comm.trace.total("words") == 0

    run_spmd(3, body)


def test_distributed_results_match_sequential():
    x, y = pair(10)
    zs = {"add": dense(add(x, y)), "had": dense(hadamard(x, y))}

    def body(comm):
        dx, dy = distribute(x, comm), distribute(y, comm)
        assert np.allclose(dense(gather(add(dx, dy))), zs["add"], atol=1e-13)
        assert np.allclose(dense(gather(hadamard(dx, dy))), zs["had"], atol=1e-13)

    run_spmd(3, body)


# ------------------------------------------------------------ inner products


def test_inner_product_matches_dense():
    x, y = pair(11)
    want = float(np.vdot(dense(x), dense(y)))
    assert inner_product(x, y) == pytest.approx(want, rel=1e-12)


def test_inner_product_is_bilinear():
    x, y = pair(12)
    z, _ = pair(13)
    a, b = 2.25, -0.5
    lhs = inner_product(add(scale(x, a), scale(z, b)), y)
    rhs = a * inner_product(x, y) + b * inner_product(z, y)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inner_product_cauchy_schwarz():
    rng = np.random.default_rng(14)
    for _ in range(10):
        seed = int(rng.integers(1 << 30))
        x, y = pair(seed)
        dot = abs(inner_product(x, y))
        bound = norm(x) * norm(y)
        assert dot <= bound * (1 + 1e-12)


def test_inner_product_distributed_matches():
    x, y = pair(15, dims=(6, 5, 7), rx=(1, 4, 3, 1), ry=(1, 2, 5, 1))
    want = inner_product(x, y)

    def body(comm):
        got = inner_product(distribute(x, comm), distribute(y, comm))
        assert got == pytest.approx(want, rel=1e-12)

    for p in (2, 3):
        run_spmd(p, body)


def test_inner_product_flops_scale_as_4nir3():
    # equal dims and ranks: two rank-R gemms per mode at I R^2 each
    I, R = 30, 7
    dims = (I,) * 6
    ranks = (1,) + (R,) * 5 + (1,)
    x = random_tt(dims, ranks, seed=16)
    y = random_tt(dims, ranks, seed=17)

    def body(comm):
        dx, dy = distribute(x, comm), distribute(y, comm)
        comm.trace.reset()
        inner_product(dx, dy)
        return comm.trace.total("flops")

    got = sum(run_spmd(2, body).results)
    lead = 4 * len(dims) * I * R**3
    assert got == pytest.approx(lead, rel=0.35)  # boundary cores sit below R


# -------------------------------------------------------------------- norms


def test_norm_methods_agree_with_dense():
    x, _ = pair(18)
    want = np.linalg.norm(dense(x))
    for method in ("innerprod", "innerprod_sym", "ortho"):
        assert norm(x, method) == pytest.approx(want, rel=1e-11)


def test_norm_methods_agree_distributed():
    x, _ = pair(19, dims=(5, 6, 4), rx=(1, 4, 3, 1))
    want = np.linalg.norm(dense(x))

    def body(comm):
        dx = distribute(x, comm)
        for method in ("innerprod", "innerprod_sym", "ortho"):
            assert norm(dx, method) == pytest.approx(want, rel=1e-11)

    run_spmd(3, body)


def test_norm_sym_handles_rank_deficient_gram():
    # y = x + x doubles every bond rank, so the Gram carry is exactly
    # singular; the pivoted Cholesky must drop to the numeric rank (not fall
    # back) and still produce the right value.
    x, _ = pair(20)
    y = add(x, scale(x, 1.0))
    val = norm(y, "innerprod_sym")
    assert val == pytest.approx(2 * np.linalg.norm(dense(x)), rel=1e-11)


def test_norm_sym_falls_back_on_indefinite_gram(monkeypatch):
    x, _ = pair(21)
    want = np.linalg.norm(dense(x))

    def boom(w):
        raise _IndefiniteGram("forced")

    monkeypatch.setattr("ttpar.ops._gram_factor", boom)
    with pytest.warns(UserWarning, match="fell back"):
        val = norm(x, "innerprod_sym")
    assert val == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("magnitude", [1.0, 1e200])
def test_pivoted_cholesky_rejects_indefinite(magnitude):
    w = np.diag([1.0, -1.0]) * magnitude
    with pytest.raises(_IndefiniteGram):
        _pivoted_cholesky(w)


@pytest.mark.parametrize("magnitude", [1.0, 1e200])
def test_gram_factor_rejects_indefinite(magnitude):
    # dpotrf stops at the negative pivot; the pivoted check then rejects it
    with pytest.raises(_IndefiniteGram):
        _gram_factor(np.diag([1.0, -1.0]) * magnitude)


def _count_calls(monkeypatch, name):
    """Wrap ``ttpar.ops.<name>`` so that its calls are counted."""
    calls = []
    real = getattr(ops, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(ops, name, spy)
    return calls


@pytest.mark.parametrize("nranks", [1, 2])
def test_norm_sym_full_rank_carry_never_calls_dpstrf(monkeypatch, nranks):
    """Full-rank carries take dpotrf's unpivoted factor and nothing else."""
    x = random_tt((6, 5, 4, 7), (1, 3, 4, 3, 1), seed=8)
    calls = _count_calls(monkeypatch, "dpstrf")

    def body(comm):
        return norm(distribute(x, comm), "innerprod_sym")

    for val in run_spmd(nranks, body).results:
        assert val == pytest.approx(np.linalg.norm(dense(x)), rel=1e-12)
    assert calls == []


@pytest.mark.parametrize("nranks", [1, 2, 3])
def test_norm_sym_doubled_sum_takes_the_pivoted_route(monkeypatch, nranks):
    """x + x has exactly singular carries: dpotrf rejects them, and the
    pivoted factor carries the recurrence without a fallback."""
    x = random_tt((6, 5, 4, 7), (1, 3, 4, 3, 1), seed=9)
    y = add(x, x)
    calls = _count_calls(monkeypatch, "_pivoted_cholesky")

    def body(comm):
        return norm(distribute(y, comm), "innerprod_sym")

    for val in run_spmd(nranks, body).results:
        assert val == pytest.approx(np.linalg.norm(dense(y)), rel=1e-11)
    assert calls


def test_norm_sym_large_carry_does_not_overflow():
    # Gram carry entries reach ~1e160, past where squaring them overflows
    x = random_tt((4, 5, 3), (1, 3, 2, 1), seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        val = norm(scale(x, 1e80), "innerprod_sym")
    assert val == pytest.approx(1e80 * np.linalg.norm(dense(x)), rel=1e-11)


def test_pivoted_cholesky_reconstructs_psd():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((6, 4))
    w = a @ a.T  # rank 4 PSD
    pl = _pivoted_cholesky(w)  # P L, one column per revealed rank
    assert pl.shape == (6, 4)
    assert np.allclose(pl @ pl.T, w, atol=1e-12)


def test_norm_sym_halves_the_gemm_flops():
    I, R = 30, 7
    dims = (I,) * 6
    x = random_tt(dims, (1,) + (R,) * 5 + (1,), seed=23)

    def body(comm):
        dx = distribute(x, comm)
        comm.trace.reset()
        inner_product(dx, dx)
        both = comm.trace.total("flops")
        comm.trace.reset()
        norm(dx, "innerprod_sym")
        half = comm.trace.total("flops")
        assert half < 0.65 * both

    run_spmd(2, body)


def test_norm_unknown_method():
    x, _ = pair(24)
    with pytest.raises(ContractError, match="method"):
        norm(x, "spectral")


# --------------------------------------------------------- Kronecker operator


def laplacian(d):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(d, d), format="csr")


def kron_sum_operator(dims):
    """sum_n I x .. x Lap_n x .. x I, the standard discrete Laplacian."""
    terms = []
    for n in range(len(dims)):
        row = [sp.identity(d, format="csr") for d in dims]
        row[n] = laplacian(dims[n])
        terms.append(row)
    return KroneckerOperator(dims, terms)


def test_identity_operator_is_identity():
    x, _ = pair(25)
    z = apply_operator(KroneckerOperator.identity(x.dims), x)
    assert np.allclose(dense(z), dense(x))


def test_apply_operator_matches_dense():
    dims = (4, 3, 5)
    x, _ = pair(26, dims=dims)
    op = kron_sum_operator(dims)
    want = dense_operator(op) @ full(x).ravel(order="F")
    z = apply_operator(op, x)
    assert z.ranks == (1,) + tuple(3 * r for r in x.ranks[1:-1]) + (1,)
    assert np.allclose(full(z).ravel(order="F"), want, atol=1e-12)


def test_apply_operator_distributed_matches():
    """Byte for byte the sequential result on any P, idle ranks included:
    on (2, 3, 5) at P = 4 and 6, trailing ranks hold no rows of the short
    modes and still take part in every exchange round."""
    for dims, nranks in (((6, 5, 7), (2, 3)), ((2, 3, 5), (4, 6))):
        x, _ = pair(27, dims=dims, rx=(1, 3, 4, 1))
        op = kron_sum_operator(dims)
        want = dense_operator(op) @ full(x).ravel(order="F")
        # each output entry sums its row's terms in column order on any P
        seq = [k.array.tobytes() for k in apply_operator(op, x).cores]

        def body(comm):
            z = gather(apply_operator(op, distribute(x, comm)))
            assert np.allclose(full(z).ravel(order="F"), want, atol=1e-12)
            assert [k.array.tobytes() for k in z.cores] == seq

        for p in nranks:
            run_spmd(p, body)


def test_apply_operator_moves_only_coupled_slices():
    # a tridiagonal factor on one mode couples neighbor blocks only; the
    # identity factors must not trigger any exchange for interior rows
    dims = (8, 8)
    x = random_tt(dims, (1, 2, 1), seed=28)
    op = KroneckerOperator(
        dims, [[laplacian(8), sp.identity(8, format="csr")]]
    )
    want = dense_operator(op) @ full(x).ravel(order="F")

    def body(comm):
        dx = distribute(x, comm)
        comm.trace.reset()
        z = apply_operator(op, dx)
        msgs, words = comm.trace.total("messages"), comm.trace.total("words")
        got = full(gather(z)).ravel(order="F")
        return msgs, words, got

    runs = run_spmd(4, body)
    for _, _, got in runs.results:
        assert np.allclose(got, want, atol=1e-12)
    # 3 exchange rounds per mode over 2 modes; only boundary slices carry data
    assert [m for m, _, _ in runs.results] == [6] * 4
    # each rank sends each neighbor block its one boundary slice of mode 0,
    # r_left * r_right = 1 * 2 words; the identity mode sends nothing
    assert [w for _, w, _ in runs.results] == [s * 1 * 2 for s in (1, 2, 2, 1)]


def test_apply_operator_with_rounding():
    dims = (5, 4, 6)
    x, _ = pair(29, dims=dims)
    op = kron_sum_operator(dims)
    want = dense_operator(op) @ full(x).ravel(order="F")
    z = apply_operator(op, x, round_eps=1e-10)
    assert max(z.ranks) <= 3 * max(x.ranks)
    assert np.allclose(full(z).ravel(order="F"), want, atol=1e-8 * np.linalg.norm(want))

    def body(comm):
        dz = apply_operator(op, distribute(x, comm), round_eps=1e-10)
        got = full(gather(dz)).ravel(order="F")
        assert np.allclose(got, want, atol=1e-8 * np.linalg.norm(want))

    run_spmd(2, body)


def test_apply_operator_sums_its_terms_in_one_add():
    """With four terms, apply_operator, which writes each term's mode products
    straight into their blocks of the sum, is byte for byte `add` nested over
    the one-term results, sequentially and at P = 1, 2 and 3; every rank
    sends the words of its terms' exchanges and one message per term, mode
    and peer, and summing charges no flops."""
    dims = (6, 5, 7)
    x, _ = pair(34, dims=dims, rx=(1, 3, 4, 1))
    op = kron_sum_operator(dims)
    op = KroneckerOperator(dims, op.terms + [[laplacian(d) for d in dims]])
    ones = [KroneckerOperator(dims, [t]) for t in op.terms]

    def as_bytes(t):
        return [k.array.tobytes() for k in t.cores]

    want = as_bytes(reduce(add, [apply_operator(o, x) for o in ones]))
    assert as_bytes(apply_operator(op, x)) == want

    def body(comm):
        dx = distribute(x, comm)
        runs = []
        for parts in ([op], ones):
            comm.trace.reset()
            z = reduce(add, [apply_operator(o, dx) for o in parts])
            runs.append(([comm.trace.total(k) for k in ("flops", "words", "messages")], z))
        return [(counts, as_bytes(gather(z))) for counts, z in runs]

    for p in (1, 2, 3):
        for (whole, got), (per_term, nested) in run_spmd(p, body).results:
            assert got == nested == want
            assert whole == per_term
            assert whole[2] == len(op.terms) * len(dims) * (p - 1)


def test_apply_operator_holds_no_term_tensors():
    """Beyond its output's own bytes, apply_operator's traced allocation peak
    stays under four input cores (5 modes of 50, rank 8, 5 terms): each mode
    product goes straight into its block of the sum, so no term tensor, of
    four interior cores each, is ever built."""
    dims = (50,) * 5
    x = random_tt(dims, (1, 8, 8, 8, 8, 1), seed=36)
    op = kron_sum_operator(dims)
    apply_operator(op, x)  # first-call allocations (imports, caches) stay out
    tracemalloc.start()
    try:
        z = apply_operator(op, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(c.array.nbytes for c in z.cores) < 4 * x.cores[1].array.nbytes


def test_apply_operator_max_rank_needs_round_eps():
    """max_rank is read only when rounding: alone, it is refused before any
    term is applied.  round_eps obeys `RoundingOptions`'s eps0 rule."""
    x, _ = pair(35)
    op = kron_sum_operator(x.dims)
    with pytest.raises(ContractError, match="round_eps"):
        apply_operator(op, x, max_rank=2)
    with pytest.raises(ContractError, match="eps0 must be nonnegative, got nan"):
        apply_operator(op, x, round_eps=float("nan"))

    def body(comm):
        dx = distribute(x, comm)
        comm.trace.reset()
        with pytest.raises(ContractError, match="round_eps"):
            apply_operator(op, dx, max_rank=2)
        return [comm.trace.total(k) for k in ("flops", "words", "messages")]

    assert run_spmd(2, body).results == [[0.0, 0.0, 0.0]] * 2


@pytest.mark.parametrize("c", [1.0, 1e-170, 1e150])
def test_sequential_ops_match_the_one_rank_tensor_bytewise(c):
    """A sequential tensor runs the one-rank distributed code: every op on a
    TTTensor gives, byte for byte, what it gives on the same cores as
    DistTTTensors on one SerialComm, gathered."""
    x0, y = pair(31, dims=(5, 1, 6))
    x = scale(x0, c)
    comm = SerialComm()
    sx, sy = distribute(x, comm), distribute(y, comm)
    op = kron_sum_operator(x.dims)
    tensors = [
        (scale(x, -2.5), scale(sx, -2.5)),
        (add(x, y), add(sx, sy)),
        (hadamard(x, y), hadamard(sx, sy)),
        (apply_operator(op, x), apply_operator(op, sx)),
        (apply_operator(op, x, round_eps=1e-10), apply_operator(op, sx, round_eps=1e-10)),
    ]
    for seq, one in tensors:
        assert isinstance(seq, TTTensor)
        assert [k.array.tobytes() for k in seq.cores] == [
            k.array.tobytes() for k in gather(one).cores
        ]
    assert np.float64(inner_product(x, y)).tobytes() == np.float64(inner_product(sx, sy)).tobytes()
    for method in ops.NORM_METHODS:
        v, w = norm(x, method), norm(sx, method)
        assert np.float64(v).tobytes() == np.float64(w).tobytes()


def test_apply_operator_dims_must_match():
    x, _ = pair(30)
    op = KroneckerOperator.identity((4, 5, 4))
    with pytest.raises(ShapeError, match="dims"):
        apply_operator(op, x)


def test_operator_validates_factors():
    with pytest.raises(ShapeError, match="factor"):
        KroneckerOperator((3, 3), [[sp.identity(3), sp.identity(4)]])
    with pytest.raises(ShapeError, match="term"):
        KroneckerOperator((3, 3), [[sp.identity(3)]])
    with pytest.raises(ShapeError, match="at least one"):
        KroneckerOperator((3, 3), [])
    for dims in ((0,), (3, 0), ()):
        with pytest.raises(ShapeError, match="positive"):
            KroneckerOperator(dims, [[sp.identity(d) for d in dims]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError, match="non-finite"):
            KroneckerOperator((3, 3), [[sp.identity(3), sp.diags([1.0, bad, 1.0])]])


def test_operator_save_load_roundtrip(tmp_path):
    dims = (4, 3, 5)
    op = kron_sum_operator(dims)
    path = tmp_path / "lap.kron"
    save_operator(path, op)
    back = load_operator(path)
    assert back.dims == dims
    assert len(back.terms) == len(op.terms)
    for ta, tb in zip(op.terms, back.terms):
        for fa, fb in zip(ta, tb):
            assert (fa != fb).nnz == 0
            assert np.array_equal(np.sort(fa.data), np.sort(fb.data))


def test_operator_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.kron"
    bad.write_text("NOTANOP\n1 1\n3\n")
    with pytest.raises(ShapeError, match="magic"):
        load_operator(bad)
    bad.write_text("KRONOP1\n2 1\n3 3\nfactor 0 0 1\n0 0 1.0\n")
    with pytest.raises(ShapeError):
        load_operator(bad)  # missing second factor block
    bad.write_text("KRONOP1\n1 1\n3\nfactor 0 0 1\n0 0 1.0\nextra junk here\n")
    with pytest.raises(ShapeError):
        load_operator(bad)
    bad.write_bytes(b"KRONOP1\n1 1\n3\nfactor 0 0 1\n0 0 1.0\xe9\n")
    with pytest.raises(ShapeError):
        load_operator(bad)  # not ASCII
    bad.write_text("KRONOP1\n1 1\n0\nfactor 0 0 0\n")
    with pytest.raises(ShapeError, match="positive"):
        load_operator(bad)  # a mode of size 0
    for text, match in (
        ("KRONOP1\n2 1\n3\n", "declares 2 modes"),
        ("KRONOP1\n1 1\n3\nfactor 0 1 1\n0 0 1.0\n", "block header"),
        ("KRONOP1\n1 1\n3\nfactor 0 0 2\n0 0 1.0\n", "truncated"),
    ):
        bad.write_text(text)
        with pytest.raises(ShapeError, match=match):
            load_operator(bad)
    bad.write_text("KRONOP1\n1 1\n1000000000000\nfactor 0 0 1\n0 0 1.0\n")
    with pytest.raises(CapacityError, match="mode-size guard"):
        load_operator(bad)  # refused before the 10^12-row CSR index is allocated
    for value in ("nan", "inf", "-inf"):
        bad.write_text(f"KRONOP1\n1 1\n3\nfactor 0 0 2\n0 0 1.0\n1 1 {value}\n")
        with pytest.raises(NumericError, match="non-finite"):
            load_operator(bad)


@pytest.mark.parametrize("c", [1e-303, 1e-170, 1e170])
@pytest.mark.parametrize("nranks", [1, 2])
def test_gram_norms_at_extreme_scales(nranks, c):
    """The Gram-recurrence norms keep their value on a tensor whose squared
    norm float64 cannot hold (it was 0.0, or NaN for innerprod at 1e170),
    without falling back; <x, x> itself then raises instead of returning a
    wrong number, while <x, y> with an unscaled y is representable."""
    x = random_tt((6, 5, 4, 7), (1, 3, 4, 3, 1), seed=3)
    y = random_tt((6, 5, 4, 7), (1, 2, 3, 2, 1), seed=4)
    xs = scale(x, c)
    want_norm = c * np.linalg.norm(dense(x))
    want_dot = c * float(np.vdot(dense(x), dense(y)))

    def body(comm):
        dx, dy = distribute(xs, comm), distribute(y, comm)
        norms = {m: norm(dx, m) for m in ("innerprod", "innerprod_sym")}
        with pytest.raises(NumericError):
            inner_product(dx, dx)
        return norms, inner_product(dx, dy)

    for norms, dot in run_spmd(nranks, body).results:
        for val in norms.values():
            assert val == pytest.approx(want_norm, rel=1e-12)
        assert dot == pytest.approx(want_dot, rel=1e-10)


@pytest.mark.parametrize("c", [1.0, 1e-170, 1e170, 0.0])
@pytest.mark.parametrize("nranks", [1, 2, 3])
def test_ortho_norm_needs_no_q(nranks, c):
    """The ortho norm keeps its QR sweep implicit: its value is the one read
    off a right-orthonormalized copy, bit for bit, with the same TSQR flops,
    words and messages, and no AppQ work at all."""
    x = random_tt((6, 5, 4, 7), (1, 3, 4, 3, 1), seed=3)
    xs = scale(x, c)

    def body(comm):
        dx = distribute(xs, comm)
        counts = []
        for call in (lambda: norm(dx, "ortho"),
                     lambda: _end_core_norm(comm, orthonormalize(dx, "right").local[0])):
            comm.trace.reset()
            val = call()
            tr = comm.trace
            counts.append((val, tr.flops["TSQR"], tr.words["TSQR"], tr.messages["TSQR"],
                           tr.flops["AppQ"]))
        return counts

    for got, want in run_spmd(nranks, body).results:
        assert got[:4] == want[:4]
        assert got[4] == 0.0 < want[4]
        assert got[0] == pytest.approx(c * np.linalg.norm(dense(x)), rel=1e-12)


@pytest.mark.parametrize("c", [1.0, 1e-303, 1e170])
def test_sequential_ortho_norm_leaves_its_cores_alone(c):
    """A sequential tensor's ortho norm sweeps its own cores, not a copy: they
    stay bitwise unchanged, and the value is the one-rank distributed
    tensor's bit for bit."""
    x0 = random_tt((6, 5, 4, 7), (1, 3, 4, 3, 1), seed=3)
    x = scale(x0, c)
    before = [core.array.tobytes() for core in x.cores]
    val = norm(x, "ortho")
    assert [core.array.tobytes() for core in x.cores] == before
    assert val == norm(serial_tt(x), "ortho")
    assert val == pytest.approx(c * np.linalg.norm(dense(x0)), rel=1e-12)


def test_gram_recurrences_stop_at_a_zero_mode():
    """A mode whose Gram is exactly zero is recomputed once (scaled, in case
    it underflowed) and then ends the recurrence: two allreduces per call at
    P = 2 on a 5-mode tensor whose first core is zero, not one per mode."""
    x = random_tt((6, 5, 4, 7, 3), (1, 3, 4, 3, 2, 1), seed=5)
    y = random_tt((6, 5, 4, 7, 3), (1, 2, 3, 2, 2, 1), seed=6)
    z = scale(x, 0.0)

    def body(comm):
        dz, dy = distribute(z, comm), distribute(y, comm)
        out = []
        for call in (lambda: inner_product(dz, dy), lambda: inner_product(dy, dz),
                     lambda: norm(dz, "innerprod"),
                     lambda: norm(dz, "innerprod_sym")):
            comm.trace.reset()
            out.append((call(), comm.trace.total("messages")))
        return out

    for (dot, m1), (dot2, m2), (n1, m3), (n2, m4) in run_spmd(2, body).results:
        assert dot == dot2 == n1 == n2 == 0.0
        assert m1 == m2 == m3 == m4 == 2
