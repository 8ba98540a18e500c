"""The GIL-free BLAS-3/SVD kernels of `ttpar._kernels` and the BLAS thread policy.

Each kernel must give scipy's wrapper's bits on both of its routes: the
ctypes one (at or above `GIL_FREE_FLOPS`, or with the gate patched to 0)
and scipy's own (below it, or for operands a raw pointer may not read).
"""

import os
import threading
import time

import numpy as np
import pytest
from scipy.linalg import blas, svd

from ttpar import _kernels, inner_product, norm, random_tt, run_spmd
from ttpar.errors import ShapeError

RAW = ("_DGEMM", "_DTRMM", "_DSYRK", "_DGESDD")


@pytest.fixture
def raw_calls(monkeypatch):
    """Names of the raw ctypes kernels called during the test, in order."""
    calls = []
    for name in RAW:
        fn = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name,
                            lambda *a, _fn=fn, _name=name: (calls.append(_name), _fn(*a))[1])
    return calls


@pytest.fixture(params=["natural", "forced"])
def gate(request, monkeypatch):
    """The gate as shipped, or at 0 so that every call takes the ctypes route."""
    if request.param == "forced":
        monkeypatch.setattr(_kernels, "GIL_FREE_FLOPS", 0)
    return request.param


def _f(rng, shape):
    return np.asfortranarray(rng.standard_normal(shape))


# (m, n, k): small, gated (50 x 2500 by 50, a model-1 Gram fold), k = 0, empty
GEMM_SHAPES = [(3, 4, 5), (50, 2500, 50), (7, 6, 0), (0, 5, 4), (5, 0, 4)]


@pytest.mark.parametrize("m,n,k", GEMM_SHAPES)
@pytest.mark.parametrize("trans_a,trans_b", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("orders", ["FF", "CF", "FC", "CC"])
def test_dgemm_is_scipys(gate, raw_calls, m, n, k, trans_a, trans_b, orders):
    """C-ordered operands take the ctypes route too, as F-ordered copies."""
    rng = np.random.default_rng(1)
    a = np.asarray(_f(rng, (k, m) if trans_a else (m, k)), order=orders[0])
    b = np.asarray(_f(rng, (n, k) if trans_b else (k, n)), order=orders[1])
    got = _kernels.dgemm(1.5, a, b, trans_a, trans_b)
    assert bool(raw_calls) is (gate == "forced" or 2.0 * m * n * k >= _kernels.GIL_FREE_FLOPS)
    want = blas.dgemm(1.5, a, b, trans_a=trans_a, trans_b=trans_b)
    assert got.shape == want.shape and got.flags.f_contiguous
    assert np.array_equal(got, want)


# (m, n, k): small, gated (the gemm below a routed 10000 x 100 leaf's first
# reflector block), k = 0, empty
GEMM_INTO_SHAPES = [(3, 4, 5), (9968, 32, 32), (7, 6, 0), (0, 5, 4)]


@pytest.mark.parametrize("m,n,k", GEMM_INTO_SHAPES)
def test_dgemm_into_is_scipys(gate, raw_calls, m, n, k):
    """The product lands in a block of a larger F-ordered array, read from
    blocks of others, with scipy's bits; nothing outside the block moves."""
    rng = np.random.default_rng(8)
    a = _f(rng, (m + 3, k + 2))[2 : 2 + m, 1 : 1 + k]
    b = _f(rng, (k + 1, n))[1:]
    big = _f(rng, (m + 4, n + 3))
    before = big.copy(order="F")
    _kernels.dgemm_into(-1.5, a, b, big[1 : 1 + m, 2 : 2 + n])
    assert bool(raw_calls) is (gate == "forced" or 2.0 * m * n * k >= _kernels.GIL_FREE_FLOPS)
    assert np.array_equal(big[1 : 1 + m, 2 : 2 + n], blas.dgemm(-1.5, a, b))
    big[1 : 1 + m, 2 : 2 + n] = before[1 : 1 + m, 2 : 2 + n]
    assert np.array_equal(big, before)


# (triangle, other side of b): small, gated (a model-1 fold of a 100 x 100
# triangle), empty
TRMM_SHAPES = [(5, 7), (100, 5000), (0, 3)]


@pytest.mark.parametrize("k,other", TRMM_SHAPES)
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("lower", [0, 1])
@pytest.mark.parametrize("trans_a", [0, 1])
@pytest.mark.parametrize("overwrite_b", [0, 1])
@pytest.mark.parametrize("orders", ["FF", "CF", "FC", "CC"])
def test_dtrmm_is_scipys(gate, k, other, side, lower, trans_a, overwrite_b, orders):
    """b is overwritten only when it is F-ordered; C-ordered operands are
    copied, by either route."""
    rng = np.random.default_rng(2)
    a = np.asarray(_f(rng, (k, k)), order=orders[0])
    b = np.asarray(_f(rng, (other, k) if side else (k, other)), order=orders[1])
    before = b.copy()
    want = blas.dtrmm(1.5, a, before.copy(), side=side, lower=lower, trans_a=trans_a)
    got = _kernels.dtrmm(1.5, a, b, side, lower, trans_a, overwrite_b)
    assert np.array_equal(got, want) and got.flags.f_contiguous
    if overwrite_b and b.flags.f_contiguous:
        assert got is b or b.size == 0
    else:
        assert np.array_equal(b, before) and not np.shares_memory(got, b)


@pytest.mark.parametrize("n,k", [(5, 7), (50, 2500), (1, 3), (4, 0)])
@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("lower", [0, 1])
@pytest.mark.parametrize("order", ["F", "C"])
def test_dsyrk_is_scipys(gate, n, k, trans, lower, order):
    a = np.asarray(_f(np.random.default_rng(3), (k, n) if trans else (n, k)), order=order)
    got = _kernels.dsyrk(0.5, a, trans, lower)
    want = blas.dsyrk(0.5, a, trans=trans, lower=lower)
    assert np.array_equal(got, want)
    assert not (np.triu(got, 1) if lower else np.tril(got, -1)).any()


def _svd_inputs():
    rng = np.random.default_rng(4)
    low = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 60))
    return {"square": rng.standard_normal((100, 100)), "small": rng.standard_normal((5, 5)),
            "tall": rng.standard_normal((200, 30)), "wide": rng.standard_normal((30, 200)),
            "rank-deficient": low, "zero": np.zeros((40, 40)), "1x1": np.array([[-3.0]]),
            "C-ordered": np.ascontiguousarray(rng.standard_normal((80, 80))),
            "empty": np.zeros((0, 4))}


@pytest.mark.parametrize("name", list(_svd_inputs()))
def test_dgesdd_is_scipys_svd(gate, name):
    a = _svd_inputs()[name]
    before = a.copy()
    u, s, vt, info = _kernels.dgesdd(a)
    want = svd(a, full_matrices=False, lapack_driver="gesdd")
    assert info == 0
    for got, ref in zip((u, s, vt), want):
        assert got.shape == ref.shape and np.array_equal(got, ref)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("call,gil_free", [
    # inner_product on model 1 at P = 2: the Gram fold and the contraction
    (lambda r: _kernels.dgemm(1.0, _f(r, (50, 50)), _f(r, (50, 2500))), True),
    (lambda r: _kernels.dgemm(1.0, _f(r, (2500, 50)), _f(r, (2500, 50)), trans_a=1), True),
    # ... and on model 2: mode 0's 9 Mflop contraction, an interior fold
    (lambda r: _kernels.dgemm(1.0, _f(r, (5000, 30)), _f(r, (5000, 30)), trans_a=1), True),
    (lambda r: _kernels.dgemm(1.0, _f(r, (30, 30)), _f(r, (30, 210))), False),
    # exactly 2^20 flops, and one inner index fewer
    (lambda r: _kernels.dgemm(1.0, _f(r, (64, 128)), _f(r, (128, 64))), True),
    (lambda r: _kernels.dgemm(1.0, _f(r, (64, 127)), _f(r, (127, 64))), False),
    # the sweeps' folds of R into the next core: model 1 and model 2 at P = 2
    (lambda r: _kernels.dtrmm(1.0, _f(r, (100, 100)), _f(r, (100, 5000))), True),
    (lambda r: _kernels.dtrmm(1.0, _f(r, (60, 60)), _f(r, (180, 60)), side=1), False),
    # the Gram-factor norm's syrk on model 1, its residual check's on 50 x 50
    (lambda r: _kernels.dsyrk(1.0, _f(r, (2500, 50)), trans=1, lower=1), True),
    (lambda r: _kernels.dsyrk(1.0, _f(r, (50, 50)), lower=1), False),
    # the replicated SVDs: model-1 and model-2 bonds of the rounding input
    (lambda r: _kernels.dgesdd(_f(r, (100, 100))), True),
    (lambda r: _kernels.dgesdd(_f(r, (60, 60))), True),
    (lambda r: _kernels.dgesdd(_f(r, (30, 30))), False),
])
def test_gil_free_route_pins_shapes(raw_calls, call, gil_free):
    """Which calls the flop gate sends through ctypes, for the benchmark shapes."""
    call(np.random.default_rng(5))
    assert bool(raw_calls) is gil_free


def test_unfit_operands_take_scipys_route(raw_calls, monkeypatch):
    """Operands that are not contiguous float64 (writable and F-ordered
    where overwritten) never reach a raw pointer call: scipy's wrapper gets
    them and returns its own bits."""
    monkeypatch.setattr(_kernels, "GIL_FREE_FLOPS", 0)
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((40, 30)), rng.standard_normal((30, 20))
    frozen = np.asfortranarray(rng.standard_normal((30, 20)))
    frozen.flags.writeable = False
    frozen_before = frozen.copy()
    tri = _f(rng, (30, 30))
    strided = _f(rng, (80, 30))[::2]
    cases = [
        (lambda: _kernels.dgemm(1.0, a.astype(np.float32, order="F"), b),
         lambda: blas.dgemm(1.0, a.astype(np.float32, order="F"), b)),
        (lambda: _kernels.dgemm(1.0, strided, b), lambda: blas.dgemm(1.0, strided, b)),
        (lambda: _kernels.dtrmm(1.0, tri, frozen, overwrite_b=1),
         lambda: blas.dtrmm(1.0, tri, frozen)),
        (lambda: _kernels.dtrmm(1.0, strided[:30], np.asfortranarray(b)),
         lambda: blas.dtrmm(1.0, strided[:30], b)),
        (lambda: _kernels.dsyrk(1.0, strided, trans=1),
         lambda: blas.dsyrk(1.0, strided, trans=1)),
    ]
    for got, want in cases:
        assert np.array_equal(got(), want())
    out = np.empty((40, 20), order="F")
    _kernels.dgemm_into(1.0, strided, b, out)  # rows two elements apart
    assert np.array_equal(out, blas.dgemm(1.0, strided, b))
    assert raw_calls == []
    assert np.array_equal(frozen, frozen_before)  # scipy's f2py would have written it


def test_mismatched_shapes_raise_before_the_pointer_call(raw_calls, monkeypatch):
    monkeypatch.setattr(_kernels, "GIL_FREE_FLOPS", 0)
    rng = np.random.default_rng(7)
    with pytest.raises(ShapeError):
        _kernels.dgemm(1.0, _f(rng, (10, 5)), _f(rng, (6, 4)))
    with pytest.raises(ShapeError):
        _kernels.dgemm(1.0, _f(rng, (10, 5)), _f(rng, (6, 4)), trans_a=1, trans_b=1)
    with pytest.raises(ShapeError):
        _kernels.dtrmm(1.0, _f(rng, (5, 5)), _f(rng, (6, 4)))
    with pytest.raises(ShapeError):
        _kernels.dtrmm(1.0, _f(rng, (6, 6)), _f(rng, (6, 4)), side=1)
    with pytest.raises(ShapeError):
        _kernels.dgemm_into(1.0, _f(rng, (10, 5)), _f(rng, (5, 4)), _f(rng, (10, 3)))
    assert raw_calls == []


def test_gram_recurrences_give_the_same_bits_on_either_route(raw_calls, monkeypatch):
    """The Gram recurrences' large calls, the fold of a C-ordered allreduced
    carry included, take the ctypes route and give the bits of scipy's."""
    x = random_tt((2000, 24, 24, 300), (1, 40, 40, 40, 1), seed=9)
    y = random_tt((2000, 24, 24, 300), (1, 40, 40, 40, 1), seed=10)

    def values():
        return inner_product(x, y), norm(x), norm(x, "innerprod_sym")

    gated = values()
    assert set(raw_calls) == {"_DGEMM", "_DTRMM", "_DSYRK"}
    raw_calls.clear()
    monkeypatch.setattr(_kernels, "GIL_FREE_FLOPS", np.inf)
    assert values() == gated
    assert raw_calls == []


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(_cores() < 2, reason="a second thread needs a second core")
def test_binding_lets_another_thread_run():
    """While one thread is inside a ctypes dgemm of 50 ms or more, a second
    Python thread keeps at least a quarter of its solo iteration rate."""
    saved = _kernels.get_blas_threads()
    _kernels.set_blas_threads(1)  # leave the counting thread a core of its own
    try:
        rng = np.random.default_rng(8)
        n = 256
        while True:
            a = _f(rng, (n, n))
            t0 = time.perf_counter()
            _kernels.dgemm(1.0, a, a)
            if time.perf_counter() - t0 >= 0.06 or n >= 2048:
                break
            n *= 2
        assert 2.0 * n**3 >= _kernels.GIL_FREE_FLOPS

        def rate(seconds, during=None):
            count, stop = [0], threading.Event()

            def spin():
                while not stop.is_set():
                    count[0] += 1

            th = threading.Thread(target=spin)
            th.start()
            t0 = time.perf_counter()
            if during is None:
                time.sleep(seconds)
            else:
                during()
            elapsed = time.perf_counter() - t0
            stop.set()
            th.join(10.0)
            assert not th.is_alive()
            return count[0] / elapsed, elapsed

        solo, _ = rate(0.1)
        during, elapsed = rate(None, lambda: _kernels.dgemm(1.0, a, a))
        assert elapsed >= 0.05
        assert during >= 0.25 * solo, (during, solo)
    finally:
        _kernels.set_blas_threads(saved)


@pytest.mark.skipif(not _kernels.get_blas_threads(), reason="no OpenBLAS found in the process")
def test_blas_threads_per_rank_in_a_group(monkeypatch):
    """Inside a 2-rank group every OpenBLAS reads back max(1, cores // 2)
    threads; the previous counts return afterwards, and a user's variable
    leaves them alone.  A group nested in another runs under the outer cap."""
    saved = _kernels.get_blas_threads()
    policy = max(1, _cores() // 2)
    marker = policy + 1
    try:
        _kernels.set_blas_threads(marker)
        for var in _kernels.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(var, raising=False)
        inside = run_spmd(2, lambda comm: _kernels.get_blas_threads()).results
        assert inside == [[policy] * len(saved)] * 2
        assert _kernels.get_blas_threads() == [marker] * len(saved)

        def nested(comm):
            inner = run_spmd(1, lambda c: _kernels.get_blas_threads()).results[0]
            return inner, _kernels.get_blas_threads()

        inside = run_spmd(2, nested).results
        assert inside == [([policy] * len(saved), [policy] * len(saved))] * 2
        assert _kernels.get_blas_threads() == [marker] * len(saved)
        for var in _kernels.BLAS_THREAD_VARIABLES:
            monkeypatch.setenv(var, "1")
            inside = run_spmd(2, lambda comm: _kernels.get_blas_threads()).results
            assert inside == [[marker] * len(saved)] * 2
            monkeypatch.delenv(var)
        assert _kernels.get_blas_threads() == [marker] * len(saved)
    finally:
        _kernels.set_blas_threads(saved)


@pytest.mark.skipif(not _kernels.get_blas_threads(), reason="no OpenBLAS found in the process")
def test_blas_thread_cap_keeps_lower_counts_and_overlapping_groups(monkeypatch):
    """A count already below the cap is kept; of two groups that overlap
    without nesting, the first sets the cap and the last to finish restores
    the counts."""
    saved = _kernels.get_blas_threads()
    for var in _kernels.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    policy = max(1, _cores() // 2)
    try:
        _kernels.set_blas_threads(1)
        assert run_spmd(2, lambda comm: _kernels.get_blas_threads()).results[0] == [1] * len(saved)
        _kernels.set_blas_threads(policy + 1)
        first, second = _kernels.blas_threads_per_rank(2), _kernels.blas_threads_per_rank(1)
        first.__enter__()
        second.__enter__()
        assert _kernels.get_blas_threads() == [policy] * len(saved)
        first.__exit__(None, None, None)
        assert _kernels.get_blas_threads() == [policy] * len(saved)
        second.__exit__(None, None, None)
        assert _kernels.get_blas_threads() == [policy + 1] * len(saved)
    finally:
        _kernels.set_blas_threads(saved)
