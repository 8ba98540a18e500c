"""Property-based tests: `local_qr` on both kernel routes, any shape and
magnitude; the routed leaf's Q built for a triangle; the layout rule of the
raw BLAS-3 calls, on any layout, dtype and writability; the vectorized Philox
key derivation against numpy's SeedSequence; the three norms, the n-ary sum,
the inner product, the Hadamard product, the Kronecker-sum operator apply,
`scale`, the TSQR sweeps (`round_tt`, `orthonormalize`), a capped
`round_tt`, and non-finite input to every norm and sweep, across P."""

import warnings
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import blas

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ttpar import (  # noqa: E402
    DistTTTensor,
    KroneckerOperator,
    RoundingOptions,
    SerialComm,
    TTTensor,
    _kernels,
    add,
    apply_operator,
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
    tsqr,
)
from ttpar.errors import ContractError, NumericError, ShapeError  # noqa: E402
from ttpar.ops import NORM_METHODS  # noqa: E402
from ttpar.parallel import ROUNDING_VARIANTS  # noqa: E402
from ttpar.core import _slice_keys  # noqa: E402
from ttpar.cost import chain_estimate  # noqa: E402
from ttpar.tsqr import local_qr  # noqa: E402
from ttpar.verify import dense, dense_operator  # noqa: E402


@st.composite
def panels(draw):
    """(m, b, panel): up to 1500 x 110, entries from 1e-150 to 1e150; half the
    draws are tall enough to take the dgeqrt route, some repeat columns."""
    b = draw(st.integers(1, 110))
    if b >= 48 and draw(st.booleans()):
        m = draw(st.integers(4 * b, 1500))
    else:
        m = draw(st.integers(0, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, b)) * 10.0 ** draw(st.integers(-150, 150))
    if b > 1 and draw(st.booleans()):  # rank-deficient: trailing columns repeat
        a[:, b // 2 :] = a[:, : b - b // 2]
    return m, b, a


def _extreme(m, b, magnitude):
    return m, b, np.random.default_rng(m).standard_normal((m, b)) * magnitude


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(panels())
@example(_extreme(1500, 110, 1e150))
@example(_extreme(1500, 110, 1e-150))
@example(_extreme(5, 60, 1e-150))
def test_local_qr_properties(panel):
    """Q is orthonormal at the block's true height k = min(m, b), QR
    reconstructs A, diag(R) >= 0, apply(I_k) is Q."""
    m, b, a = panel
    fac, r = local_qr(a)
    assert (fac.t is not None) == tsqr._wy_route(max(m, b), b)
    q = fac.explicit_q()
    assert np.abs(q.T @ q - np.eye(min(m, b))).max(initial=0.0) <= 1e-13
    scale = max(np.abs(a).max(initial=0.0), np.finfo(float).tiny)
    assert np.abs(q @ r - a).max(initial=0.0) <= 1e-13 * scale
    assert (np.diagonal(r) >= 0).all()
    assert np.abs(fac.apply(np.eye(min(m, b))) - q).max(initial=0.0) <= 1e-13


@st.composite
def routed_triangles(draw):
    """(panel, c): a panel that takes the dgeqrt route, b from 48 to 110
    (widths off multiples of 32 included) and 4b to 40b rows, and a b x b
    upper triangle c: the identity, a dense one, or one with zero columns
    (rank-deficient), at magnitudes from 1e-150 to 1e150."""
    b = draw(st.integers(48, 110))
    m = draw(st.integers(4 * b, 40 * b))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["identity", "dense", "zero columns"]))
    if kind == "identity":
        return rng.standard_normal((m, b)), np.eye(b)
    c = np.triu(rng.standard_normal((b, b))) * 10.0 ** draw(st.integers(-150, 150))
    if kind == "zero columns":
        c[:, rng.random(b) < 0.3] = 0.0
    return rng.standard_normal((m, b)), c


def _routed(m, b, magnitude):
    rng = np.random.default_rng(b)
    return rng.standard_normal((m, b)), np.triu(rng.standard_normal((b, b))) * magnitude


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(routed_triangles())
@example(_routed(192, 48, 1e150))
@example(_routed(4400, 110, 1e-150))
@example(_routed(400, 97, 1.0))
def test_routed_explicit_q_of_a_triangle_is_apply(case):
    """A routed leaf's Q [c; 0], built from T for a triangular c, is what
    dgemqrt's apply gives, to roundoff relative to c's magnitude."""
    a, c = case
    fac, _ = local_qr(a)
    assert fac.t is not None
    got = fac.explicit_q(None if np.array_equal(c, np.eye(c.shape[0])) else c)
    want = fac.apply(c)
    scale = max(np.abs(c).max(), np.finfo(float).tiny)
    assert np.abs(got - want).max() <= 1e-13 * scale


#: How an m x n operand sits in its buffer, for paddings p and q: the
#: buffer's shape and the view of it.  Every buffer is F-ordered except "C"'s.
LAYOUTS = {
    "F": (lambda m, n, p, q: (m, n), lambda a, m, n, p, q: a),
    "C": (lambda m, n, p, q: (m, n), lambda a, m, n, p, q: a),
    "block": (lambda m, n, p, q: (m + 2 * p, n + 2 * q),
              lambda a, m, n, p, q: a[p : p + m, q : q + n]),
    "rows two apart": (lambda m, n, p, q: (2 * m, n), lambda a, m, n, p, q: a[::2]),
    "transposed": (lambda m, n, p, q: (n + 1 + q, m + p), lambda a, m, n, p, q: a[:n, :m].T),
    "reversed": (lambda m, n, p, q: (m, n), lambda a, m, n, p, q: a[::-1]),
}


@st.composite
def operands(draw, m, n):
    """``(kind, buffer, view)``: an m x n operand of a drawn layout kind (F
    or a block in half the draws), float64 or float32, sometimes read-only;
    ``view`` maps the buffer, or a copy of it, to the operand."""
    kind = draw(st.sampled_from(["F", "block"]) | st.sampled_from(sorted(LAYOUTS)))
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    shape_of, view_of = LAYOUTS[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float64, np.float64, np.float64, np.float32]))
    buf = np.asarray(rng.standard_normal(shape_of(m, n, p, q)), dtype=dtype,
                     order="C" if kind == "C" else "F")
    buf.flags.writeable = draw(st.integers(0, 4)) > 0
    return kind, buf, lambda a: view_of(a, m, n, p, q)


_GATES = st.sampled_from([_kernels.GIL_FREE_FLOPS, 0])


@st.composite
def extents(draw, count):
    """``count`` small extents, empty ones included, or ``count`` large ones,
    whose products are past the shipped gate."""
    size = st.integers(102, 120) if draw(st.booleans()) else st.sampled_from([0, 1, 2, 5, 7])
    return [draw(size) for _ in range(count)]


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _counted(name, call, gate):
    """``(call(), number of calls of the raw kernel name)`` with the gate
    at ``gate`` flops."""
    calls = []
    raw = getattr(_kernels, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "GIL_FREE_FLOPS", gate)
        mp.setattr(_kernels, name, lambda *a: (calls.append(name), raw(*a))[1])
        return call(), len(calls)


def _takes(*operands) -> bool:
    """Whether the layout rule takes every ``(array, written)`` operand."""
    return all(_kernels._operand(a, w) is not None for a, w in operands)


@st.composite
def gemm_cases(draw):
    m, n, k = draw(extents(3))
    trans_a = draw(st.integers(0, 1))
    a = draw(operands(*((k, m) if trans_a else (m, k))))
    b = draw(operands(k, n))
    return a, b, draw(st.none() | operands(m, n)), trans_a, draw(_GATES)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(gemm_cases())
def test_dgemm_on_any_layout_is_scipys(case):
    """With or without ``out``: scipy's wrapper's bits; a raw call exactly
    when the gate passes and the layout rule takes every operand; inputs
    untouched, and nothing outside ``out`` moves (a read-only ``out`` is an
    error that writes nothing)."""
    (_, abuf, aview), (_, bbuf, bview), out, trans_a, gate = case
    a, b = aview(abuf), bview(bbuf)
    m, k = a.shape[::-1] if trans_a else a.shape
    n = b.shape[1]
    want = blas.dgemm(1.5, a, b, trans_a=trans_a)
    before = [_bits(abuf), _bits(bbuf)]
    operands = [(a, False), (b, False)]
    if out is None:
        got, raw = _counted("_DGEMM", lambda: _kernels.dgemm(1.5, a, b, trans_a), gate)
        assert _bits(got) == _bits(want) and got.flags.f_contiguous
    else:
        _, obuf, oview = out
        o, expect = oview(obuf), obuf.copy(order="A")
        if not o.flags.writeable:
            with pytest.raises(ValueError):
                _kernels.dgemm(1.5, a, b, trans_a, out=o)
            assert _bits(obuf) == _bits(expect)
            return
        oview(expect)[...] = want
        got, raw = _counted(
            "_DGEMM", lambda: _kernels.dgemm(1.5, a, b, trans_a, out=o), gate)
        assert got is o and _bits(obuf) == _bits(expect)
        operands.append((o, True))
    assert bool(raw) is (2.0 * m * n * k >= gate and _takes(*operands))
    assert [_bits(abuf), _bits(bbuf)] == before


@st.composite
def trmm_cases(draw):
    (m, n), side = draw(extents(2)), draw(st.integers(0, 1))
    k = n if side else m
    flags = [draw(st.integers(0, 1)) for _ in range(3)]  # lower, trans_a, overwrite_b
    return draw(operands(k, k)), draw(operands(m, n)), side, *flags, draw(_GATES)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(trmm_cases())
def test_dtrmm_on_any_layout_is_scipys(case):
    """scipy's wrapper's bits; a raw call exactly when the gate passes and
    the rule takes a and the b it writes (b itself with ``overwrite_b``,
    else an F-ordered copy), which then is b, written in place; a untouched,
    and b changed only when the result is b."""
    (_, abuf, aview), (_, bbuf, bview), side, lower, trans_a, overwrite_b, gate = case
    a, b = aview(abuf), bview(bbuf)
    m, n = b.shape
    want = blas.dtrmm(1.5, a, b.copy(), side=side, lower=lower, trans_a=trans_a)
    expect = [abuf.copy(order="A"), bbuf.copy(order="A")]
    got, raw = _counted(
        "_DTRMM", lambda: _kernels.dtrmm(1.5, a, b, side, lower, trans_a, overwrite_b), gate)
    assert _bits(got) == _bits(want) and (got is b or got.flags.f_contiguous)
    written = b if overwrite_b else np.array(b, order="F")
    assert bool(raw) is (float(m) * n * (n if side else m) >= gate
                         and _takes((a, False), (written, True)))
    if raw and overwrite_b:
        assert got is b
    if np.shares_memory(got, bbuf):
        assert overwrite_b and b.flags.writeable
        bview(expect[1])[...] = want
    assert [_bits(abuf), _bits(bbuf)] == [_bits(x) for x in expect]


@st.composite
def syrk_cases(draw):
    (n, k), trans = draw(extents(2)), draw(st.integers(0, 1))
    a = draw(operands(*((k, n) if trans else (n, k))))
    return a, trans, draw(st.integers(0, 1)), draw(_GATES)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(syrk_cases())
def test_dsyrk_on_any_layout_is_scipys(case):
    """scipy's wrapper's bits, a raw call exactly when the gate passes and
    the rule takes the operand, and the operand untouched."""
    (_, abuf, aview), trans, lower, gate = case
    a = aview(abuf)
    n, k = a.shape[::-1] if trans else a.shape
    before = _bits(abuf)
    want = blas.dsyrk(0.5, a, trans=trans, lower=lower)
    got, raw = _counted("_DSYRK", lambda: _kernels.dsyrk(0.5, a, trans, lower), gate)
    assert _bits(got) == _bits(want)
    assert bool(raw) is (float(n) * n * k >= gate and _takes((a, False)))
    assert _bits(abuf) == before


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 9), st.integers(2, 9), st.data())
def test_layout_rule_by_kind(m, n, data):
    """Of float64 matrices with two rows and columns or more, the rule passes
    F-ordered arrays and blocks of them as they stand, with their buffer's
    column length as leading dimension, to be written only when writable;
    C-ordered ones as F-ordered copies, only to be read; nothing else."""
    kind, buf, view = data.draw(operands(m, n))
    a = view(buf)
    read, write = _kernels._operand(a), _kernels._operand(a, writable=True)
    as_is = a.dtype == np.float64 and kind in ("F", "block")
    assert (write is not None) is (as_is and a.flags.writeable)
    if as_is:
        assert read[0] is a and read[1] == buf.shape[0]
    elif a.dtype == np.float64 and kind == "C":
        copy, ld = read
        assert copy.flags.f_contiguous and ld == m and _bits(copy) == _bits(a)
    else:
        assert read is None


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    st.integers(0, 2**130),
    st.integers(0, 2**33),
    st.one_of(st.integers(0, 2**64 - 3), st.sampled_from([2**32 - 2, 2**64 - 3])),
    st.integers(1, 4),
)
@example(0, 0, 0, 4)
@example(2**32 - 1, 2**32 - 1, 2**32 - 3, 4)
@example(2**128, 2**33, 2**64 - 3, 4)
def test_slice_keys_match_seed_sequence(seed, n, lo, count):
    """Keys of slices lo..lo+count-1 are SeedSequence's, bit for bit, across
    multi-word seeds, core and slice indices and the zero-padded pool."""
    want = [np.random.SeedSequence(seed, spawn_key=(n, i)).generate_state(2, np.uint64)
            for i in range(lo, lo + count)]
    assert np.array_equal(_slice_keys(seed, n, lo, lo + count), np.array(want))


@st.composite
def gram_norm_cases(draw):
    """(x, P): a random TT of up to 5 modes of size 1 to 6 and bond ranks 1
    to 5, scaled by c = +-10^-300 to 10^300, and in half the draws doubled
    as add(x, x), whose carries are exactly singular; P from 1 to 4, so
    modes smaller than P leave ranks idle."""
    n_modes = draw(st.integers(1, 5))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))
    ranks = (1,) + tuple(draw(st.integers(1, 5)) for _ in range(n_modes - 1)) + (1,)
    x = random_tt(dims, ranks, draw(st.integers(0, 2**16)))
    c = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(-300, 300))
    x = scale(x, c)
    if draw(st.booleans()):
        x = add(x, x)
    return x, draw(st.integers(1, 4))


def _gram_case(dims, ranks, c, doubled, nranks):
    x = scale(random_tt(dims, ranks, 0), c)
    return (add(x, x) if doubled else x), nranks


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(gram_norm_cases())
@example(_gram_case((6, 5, 4, 3), (1, 5, 5, 3, 1), 1e-300, True, 4))
@example(_gram_case((6, 5, 4, 3), (1, 5, 5, 3, 1), 1e300, True, 3))
@example(_gram_case((2, 6, 1, 5), (1, 2, 5, 1, 1), 1e-170, False, 4))
def test_sym_norm_agrees_with_innerprod_across_p(case):
    """innerprod_sym's and ortho's values are innerprod's to 1e-11 relative
    at any P, innerprod_sym never falls back (the suite makes its
    UserWarning an error), and both are finite positive numbers for a
    nonzero tensor."""
    x, nranks = case

    def body(comm):
        dx = distribute(x, comm)
        return norm(dx, "innerprod_sym"), norm(dx, "ortho"), norm(dx, "innerprod")

    for val, ortho, want in run_spmd(nranks, body).results:
        for v in (val, ortho):
            assert np.isfinite(v) and v > 0.0
            assert v == pytest.approx(want, rel=1e-11)


def _chain(draw, n_modes, top):
    return (1,) + tuple(draw(st.integers(1, top)) for _ in range(n_modes - 1)) + (1,)


@st.composite
def add_cases(draw):
    """(xs, P, k): 1 to 4 random TTs of 1 to 4 modes of size 1 to 6 (so
    one-mode chains too), each with its own bond ranks 1 to 4; P is None
    (sequential inputs) or 1 to 4, so modes smaller than P leave idle ranks;
    k is where a rejected operand is slipped in among them."""
    n_modes = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))
    xs = [random_tt(dims, _chain(draw, n_modes, 4), draw(st.integers(0, 2**16)))
          for _ in range(draw(st.integers(1, 4)))]
    return xs, draw(st.one_of(st.none(), st.integers(1, 4))), draw(st.integers(0, len(xs)))


def _slabs(t):
    return t.local if isinstance(t, DistTTTensor) else t.cores


def _check_sum(ts, z, flavor):
    """z = add(*ts) keeps the flavor, byte-equals the nested pairwise adds,
    sums the inner bond ranks, and shares no memory with a lone operand."""
    assert type(z) is flavor
    assert [a.tobytes() for a in _slabs(z)] == [a.tobytes() for a in _slabs(reduce(add, ts))]
    inner = tuple(sum(r) for r in zip(*(t.ranks for t in ts)))[1:-1]
    assert z.ranks == (1,) + inner + (1,)
    if len(ts) == 1:
        assert not any(np.shares_memory(a, b) for a, b in zip(_slabs(z), _slabs(ts[0])))


def _check_add_rejects(ts, k, intruders):
    """add(*ts) with each ``(operand, error, message)`` slipped in at k
    raises that error with that message."""
    for bad, err, message in intruders:
        with pytest.raises(err, match=message):
            add(*ts[:k], bad, *ts[k:])


_MIX = (ContractError, "^cannot mix sequential and distributed tensors$")
_COMMS = (ContractError, "^operands live on different communicators$")
_DIMS = (ShapeError, "^dimension mismatch: ")


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(add_cases())
@example(([random_tt((4, 5, 3), r, s) for s, r in enumerate([(1, 3, 2, 1), (1, 2, 4, 1),
                                                             (1, 4, 1, 1)])], None, 1))
@example(([random_tt((5,), (1, 1), s) for s in range(4)], 4, 2))
@example(([random_tt((2, 1, 3), (1, 3, 2, 1), 5)], 3, 0))
def test_add_is_one_block_stack_across_p(case):
    """`add` of 1 to 4 operands is, byte for byte, the nested pairwise adds,
    in the operands' flavor, with their inner bond ranks summed; a lone
    operand comes back as a copy that aliases none of its arrays; the
    gathered sum is the dense sum to 1e-12 relative; and an operand of the
    other flavor, on another communicator or of other dims is refused with
    the error and message every op gives for it."""
    xs, nranks, k = case
    want = sum(dense(x) for x in xs)
    other = random_tt(xs[0].dims + (2,), (1,) * (xs[0].ndim + 2), 0)
    if nranks is None:
        z = add(*xs)
        _check_sum(xs, z, TTTensor)
        one = distribute(xs[0], SerialComm())
        _check_add_rejects(xs, k, [(one,) + _MIX, (other,) + _DIMS])
        _check_add_rejects([distribute(x, SerialComm()) for x in xs], k, [(one,) + _COMMS])
        gathered = [z]
    else:
        def body(comm):
            ds = [distribute(x, comm) for x in xs]
            dz = add(*ds)
            _check_sum(ds, dz, DistTTTensor)
            assert dz.comm is comm
            _check_add_rejects(ds, k, [(xs[0],) + _MIX, (distribute(xs[0], SerialComm()),) + _COMMS,
                                       (distribute(other, comm),) + _DIMS])
            return gather(dz)

        gathered = run_spmd(nranks, body).results
    for g in gathered:
        assert np.linalg.norm(dense(g) - want) <= 1e-12 * np.linalg.norm(want)


@st.composite
def inner_product_cases(draw):
    """(x0, y0, x scale, y scale, P): two random TTs of 1 to 4 modes of size
    1 to 6 with their own bond ranks 1 to 4, scaled by +-2^kx and +-2^ky
    for |k| <= 1000; P from 1 to 4, so modes smaller than P leave idle ranks."""
    n_modes = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))
    x0, y0 = (random_tt(dims, _chain(draw, n_modes, 4), draw(st.integers(0, 2**16)))
              for _ in range(2))

    def power():
        return (draw(st.sampled_from([1, -1])), draw(st.integers(-1000, 1000)))

    return x0, y0, power(), power(), draw(st.integers(1, 4))


def _ip_case(dims, rx, ry, kx, ky, nranks):
    return random_tt(dims, rx, 1), random_tt(dims, ry, 2), (1, kx), (-1, ky), nranks


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(inner_product_cases())
@example(_ip_case((4, 3, 5), (1, 2, 3, 1), (1, 4, 1, 1), 1000, 1000, 4))
@example(_ip_case((4, 3, 5), (1, 2, 3, 1), (1, 4, 1, 1), -1000, -1000, 3))
@example(_ip_case((4, 3, 5), (1, 2, 3, 1), (1, 4, 1, 1), 1000, -999, 2))
@example(_ip_case((6, 2), (1, 3, 1), (1, 1, 1), 1000, 20, 4))
@example(_ip_case((6, 2), (1, 3, 1), (1, 1, 1), -1000, -20, 1))
def test_inner_product_of_scaled_operands_across_p(case):
    """<sx 2^kx x0, sy 2^ky y0> for x0 != y0 of mixed ranks at P = 1 to 4 is
    sx sy 2^(kx + ky) <x0, y0> (dense oracle) to 1e-10 relative on every
    rank where that is a normal float64, and raises `NumericError` where it
    overflows or rounds to 0; the subnormal band between is not checked."""
    x0, y0, (sx, kx), (sy, ky), nranks = case
    v0 = float(np.vdot(dense(x0), dense(y0)))
    if v0 == 0.0:
        return
    x, y = scale(x0, sx * 2.0**kx), scale(y0, sy * 2.0**ky)
    log2 = np.log2(abs(v0)) + kx + ky

    def body(comm):
        try:
            return inner_product(distribute(x, comm),
                                 distribute(y, comm))
        except NumericError:
            return None

    got = run_spmd(nranks, body).results
    if -1022.0 < log2 < 1024.0 - 1e-9:
        want = sx * sy * np.ldexp(v0, kx + ky)
        for v in got:
            assert v is not None and abs(v - want) <= 1e-10 * abs(want)
    elif log2 > 1024.0 + 1e-9 or log2 < -1075.0 - 1e-9:
        assert got == [None] * nranks


def _kron_core(a, b):
    """Reference Hadamard core: slicewise Kronecker product by einsum, with
    row index a * rbl + c (x's row a, y's row c), and likewise columns."""
    (ral, d, rar), (rbl, _, rbr) = a.shape, b.shape
    return np.einsum("aib,cid->acibd", a, b).reshape(ral * rbl, d, rar * rbr)


@st.composite
def hadamard_cases(draw):
    """(x, y, P): random TTs of up to 4 modes of size 1 to 6; y shares x's
    bond ranks in half the draws, and otherwise draws its own, 1 (a rank-1
    operand) included.  P is None (sequential inputs) or 1 to 4, so modes
    smaller than P leave zero-row slabs on idle ranks."""
    n_modes = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))

    def chain():
        return (1,) + tuple(draw(st.integers(1, 4)) for _ in range(n_modes - 1)) + (1,)

    rx = chain()
    ry = rx if draw(st.booleans()) else chain()
    x = random_tt(dims, rx, draw(st.integers(0, 2**16)))
    y = random_tt(dims, ry, draw(st.integers(0, 2**16)))
    return x, y, draw(st.one_of(st.none(), st.integers(1, 4)))


def _check_hadamard_slabs(xs, ys, zs, want_ranks, got_ranks):
    assert got_ranks == want_ranks
    for a, b, z in zip(xs, ys, zs):
        assert z.flags.f_contiguous and z.flags.owndata
        assert np.array_equal(z, _kron_core(a, b))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(hadamard_cases())
@example((random_tt((3, 1, 2), (1, 4, 1, 1), 0), random_tt((3, 1, 2), (1, 1, 3, 1), 1), 4))
@example((random_tt((5,), (1, 1), 2), random_tt((5,), (1, 1), 3), None))
def test_hadamard_is_a_slab_local_kronecker_product_across_p(case):
    """Every slab is the reference Kronecker core exactly, F-ordered and
    owning its data; the ranks multiply; the gathered product matches the
    dense one to 1e-13 relative; no word or message is sent; the traced
    flops are one per output entry, which is `chain_estimate`'s count given
    both operands' rank chains."""
    x, y, nranks = case
    want_ranks = tuple(a * b for a, b in zip(x.ranks, y.ranks))
    want = dense(x) * dense(y)
    if nranks is None:
        z = hadamard(x, y)
        _check_hadamard_slabs(x.cores, y.cores, z.cores, want_ranks, z.ranks)
        gathered = [z]
    else:
        def body(comm):
            dx = distribute(x, comm)
            dy = distribute(y, comm)
            comm.trace.reset()
            dz = hadamard(dx, dy)
            sent = (comm.trace.total("words"), comm.trace.total("messages"))
            flops = comm.trace.total("flops")
            _check_hadamard_slabs(dx.local, dy.local, dz.local, want_ranks, dz.ranks)
            return sent, flops, gather(dz)

        res = run_spmd(nranks, body).results
        assert all(sent == (0.0, 0.0) for sent, _, _ in res)
        entries = sum(d * rl * rr for d, rl, rr in zip(x.dims, want_ranks, want_ranks[1:]))
        assert sum(flops for _, flops, _ in res) == entries
        assert entries == chain_estimate("hadamard", x.dims, x.ranks,
                                         other_ranks=y.ranks).flops
        gathered = [g for _, _, g in res]
    for g in gathered:
        assert np.linalg.norm(dense(g) - want) <= 1e-13 * np.linalg.norm(want)


@st.composite
def operator_cases(draw):
    """(x, op, round_eps, P, max_rank): a random TT of 1 to 4 modes of size
    1 to 6 with bond ranks 1 to 4; an operator of 1 to 4 terms of random
    sparse square factors, whose first factor has an empty row; round_eps
    None or 1e-8; P from 1 to 4, so modes smaller than P leave idle ranks;
    and, when round_eps is set, a rank cap of None, 1, 2 or 3."""
    n_modes = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))
    x = random_tt(dims, _chain(draw, n_modes, 4), draw(st.integers(0, 2**16)))
    round_eps = draw(st.sampled_from([None, 1e-8]))
    return (x, _sparse_operator(dims, draw(st.integers(1, 4)), draw(st.integers(0, 2**16))),
            round_eps, draw(st.integers(1, 4)),
            None if round_eps is None else draw(st.sampled_from([None, 1, 2, 3])))


def _sparse_operator(dims, n_terms, seed):
    rng = np.random.default_rng(seed)
    terms = [[sp.random(d, d, density=0.5, format="lil", random_state=rng,
                        data_rvs=rng.standard_normal) for d in dims] for _ in range(n_terms)]
    terms[0][0][int(rng.integers(dims[0])), :] = 0.0
    return KroneckerOperator(dims, terms)


def _op_case(dims, ranks, n_terms, round_eps, nranks, max_rank=None):
    return (random_tt(dims, ranks, 7), _sparse_operator(dims, n_terms, 8), round_eps, nranks,
            max_rank)


def _tt_bytes(t):
    return [c.tobytes() for c in t.cores]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(operator_cases())
@example(_op_case((5,), (1, 1), 3, None, 4))
@example(_op_case((2, 1, 3), (1, 3, 2, 1), 4, 1e-8, 3))
@example(_op_case((6, 5, 1, 2), (1, 2, 4, 2, 1), 2, None, 4))
@example(_op_case((4, 3, 4), (1, 3, 3, 1), 3, 1e-8, 2, max_rank=2))
def test_apply_operator_is_the_sum_of_its_terms_across_p(case):
    """apply_operator at P = 1 to 4 gives, byte for byte, the unrounded sum
    it gives sequentially, which is the dense operator's product to 1e-12
    relative; at every P (and sequentially) its result, rounded or not, is
    byte for byte `add` nested over the one-term results, then rounded with
    the same rank cap, and reports the same ``error_bound_violated``; each
    rank sends exactly T N (P - 1) messages and the flops and words of its
    terms' exchanges; and the ranks' flops add up to 2 nnz r_left r_right
    per factor."""
    x, op, round_eps, nranks, max_rank = case
    ones = [KroneckerOperator(x.dims, [t]) for t in op.terms]

    def nested(t):
        return reduce(add, [apply_operator(o, t) for o in ones])

    def rounded(z):
        return z if round_eps is None else round_tt(z, RoundingOptions(round_eps,
                                                                        max_rank=max_rank))

    seq = apply_operator(op, x)
    want = dense_operator(op) @ dense(x).ravel(order="F")
    assert np.linalg.norm(dense(seq).ravel(order="F") - want) <= 1e-12 * np.linalg.norm(want)
    assert _tt_bytes(apply_operator(op, x, round_eps, max_rank)) == _tt_bytes(rounded(nested(x)))

    def body(comm):
        dx = distribute(x, comm)
        out = []
        for make in (lambda: apply_operator(op, dx), lambda: nested(dx)):
            comm.trace.reset()
            z = make()
            out.append(([comm.trace.total(k) for k in ("flops", "words", "messages")], z))
        (whole, z), (per_term, zs) = out
        got, want_got = apply_operator(op, dx, round_eps, max_rank), rounded(zs)
        return whole, per_term, _tt_bytes(gather(z)), [
            (_tt_bytes(gather(t)), t.meta.get("error_bound_violated")) for t in (got, want_got)]

    res = run_spmd(nranks, body).results
    for whole, per_term, unrounded, (got, want_got) in res:
        assert unrounded == _tt_bytes(seq)
        assert got == want_got
        assert whole == per_term
        assert whole[2] == len(op.terms) * x.ndim * (nranks - 1)
    assert sum(r[0][0] for r in res) == sum(2.0 * f.nnz * rl * rr for t in op.terms
                                            for f, rl, rr in zip(t, x.ranks, x.ranks[1:]))


@st.composite
def sweep_cases(draw):
    """(x, eps0, core, k): a random TT of 1 to 4 modes of size 1 to 6 whose
    bond ranks (1 to 5) are clamped to what their neighbours can hold,
    doubled as add(x, x) in half the draws, which gives rank-deficient bonds
    (and short panels where a doubled rank outgrows its mode); eps0 from
    {0, 1e-14, 1e-8, 1}; and the exponent k of 2^k, |k| <= 1000, by which
    the sweeps see x's core ``core`` scaled."""
    n_modes = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))
    ranks = [1] + [draw(st.integers(1, 5)) for _ in range(n_modes - 1)] + [1]
    for n in range(n_modes):  # r[n+1] <= r[n] d[n], then r[n] <= d[n] r[n+1]
        ranks[n + 1] = min(ranks[n + 1], ranks[n] * dims[n])
    for n in range(n_modes - 1, -1, -1):
        ranks[n] = min(ranks[n], dims[n] * ranks[n + 1])
    return _sweep_case(dims, tuple(ranks), draw(st.integers(0, 2**16)), draw(st.booleans()),
                       draw(st.sampled_from([0.0, 1e-14, 1e-8, 1.0])),
                       draw(st.integers(0, n_modes - 1)), draw(st.integers(-1000, 1000)))


def _sweep_case(dims, ranks, seed, doubled, eps0, core=0, k=0):
    x = random_tt(dims, ranks, seed)
    return (add(x, x) if doubled else x), eps0, core, k


def _scaled(t, n, k):
    """t with core n multiplied by 2^k, exactly while its entries stay normal."""
    cores = list(t.cores)
    cores[n] = np.ldexp(cores[n], k)
    return TTTensor(cores)


#: Roundoff slack of the sweeps' checks, relative to ||x|| (or to 1 for an
#: orthonormal unfolding): about 5000 unit roundoffs, far below any eps0 > 0
#: drawn and far above what a few small QRs and SVDs lose.
_SWEEP_SLACK = 1e-12

_SWEEPS = [("round", v) for v in ("LRLI", "LRL", "RLRI", "RLR")] + [
    ("ortho", "left"), ("ortho", "right")]


def _orthonormality_loss(cores, left: bool) -> float:
    """max |U^T U - I| over the vertical (``left``) or horizontal unfoldings U
    of every core but the last (first); an unfolding wider than it is tall
    cannot have orthonormal columns and is skipped."""
    worst = 0.0
    for c in (cores[:-1] if left else cores[1:]):
        rl, d, rr = c.shape
        u = c.reshape((rl * d, rr), order="F") if left else c.reshape((rl, d * rr), order="F").T
        if u.shape[0] >= u.shape[1]:
            worst = max(worst, np.abs(u.T @ u - np.eye(u.shape[1])).max())
    return worst


def _sweep_outputs(x, eps0, nranks) -> list:
    """Every rank's ``{(kind, how): (ranks, gathered output)}``."""

    def body(comm):
        dx = distribute(x, comm)
        out = {}
        for kind, how in _SWEEPS:
            if kind == "round":
                y = round_tt(dx, RoundingOptions(eps0, how))
                assert y.meta["output_ranks"] == y.ranks
            else:
                y = orthonormalize(dx, how)
                assert y.ranks == dx.ranks
            out[kind, how] = (y.ranks, gather(y))
        return out

    return run_spmd(nranks, body).results


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(sweep_cases())
@example(_sweep_case((2, 3, 2, 2), (1, 2, 3, 2, 1), 1, True, 0.0))
@example(_sweep_case((6, 5, 4, 3), (1, 5, 5, 3, 1), 2, True, 1e-14))
@example(_sweep_case((3, 1, 4), (1, 3, 3, 1), 3, False, 1.0))
@example(_sweep_case((2, 3, 2, 2), (1, 2, 3, 2, 1), 1, True, 0.0, 1, 1000))
@example(_sweep_case((6, 5, 4, 3), (1, 5, 5, 3, 1), 2, True, 1e-8, 3, -1000))
@example(_sweep_case((5,), (1, 1), 4, False, 0.0, 0, -1000))
def test_tsqr_sweeps_across_p(case):
    """`round_tt` in all four variants and `orthonormalize` in both
    directions at P = 1 to 5 (idle ranks on modes smaller than P), on x with
    one core scaled by 2^k: the output, scaled back by 2^-k in the core that
    holds its norm, is within eps0 ||x|| of x by the dense oracle, plus the
    roundoff slack; every rank returns the same ranks, and round's meta
    agrees with them; the output cores are orthonormal on the side the last
    sweep started from; and the gathered outputs agree across P to roundoff.
    """
    x, eps0, core, k = case
    want = dense(x)
    nx = np.linalg.norm(want)
    first = {}
    for nranks in range(1, 6):
        res = _sweep_outputs(_scaled(x, core, k), eps0, nranks)
        for (kind, how), (ranks, y) in res[0].items():
            assert all(r[kind, how][0] == ranks for r in res)
            left = how == "left" or how.startswith("R")
            got = dense(_scaled(y, -1 if left else 0, -k))
            bound = (eps0 if kind == "round" else 0.0) + _SWEEP_SLACK
            assert np.linalg.norm(got - want) <= bound * nx, (kind, how, nranks)
            loss = _orthonormality_loss(y.cores, left)
            assert loss <= _SWEEP_SLACK, (kind, how, nranks)
            if (kind, how) in first:
                assert np.linalg.norm(got - first[kind, how]) <= _SWEEP_SLACK * nx
            else:
                first[kind, how] = got


def test_padded_tsqr_keeps_rank_deficient_q_orthonormal():
    """RLR at eps0 = 0 on a doubled x whose mode-1 panel is shorter than its
    bond rank on both of two ranks (2 and 1 rows of 3 slices at bond rank
    6), which zero-padded leaves once left non-orthonormal."""
    x = _sweep_case((2, 3, 2, 2), (1, 2, 3, 2, 1), 1, True, 0.0)[0]
    (_, y), = [v for k, v in _sweep_outputs(x, 0.0, 2)[0].items() if k == ("round", "RLR")]
    assert _orthonormality_loss(y.cores, left=True) <= _SWEEP_SLACK


@st.composite
def nonfinite_cases(draw):
    """(x, y, P): a random TT x of 1 to 4 modes of size 1 to 6 (so one-mode
    chains and size-1 modes) with bond ranks 1 to 4, one entry of one of its
    cores set to NaN, +inf or -inf; a finite y of the same dims; P None
    (sequential tensors) or 1 to 4, so modes smaller than P leave idle ranks."""
    n_modes = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))
    x = random_tt(dims, _chain(draw, n_modes, 4), draw(st.integers(0, 2**16)))
    y = random_tt(dims, _chain(draw, n_modes, 4), draw(st.integers(0, 2**16)))
    core = x.cores[draw(st.integers(0, n_modes - 1))]
    core[tuple(draw(st.integers(0, s - 1)) for s in core.shape)] = draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    return x, y, draw(st.one_of(st.none(), st.integers(1, 4)))


def _nonfinite_case(dims, ranks, n, at, value, nranks):
    x = random_tt(dims, ranks, 0)
    x.cores[n][at] = value
    return x, random_tt(dims, ranks, 1), nranks


#: Every op that reduces its operand to a number or sweeps it through TSQR.
_LOUD_OPS = (
    [lambda x, y, m=m: norm(x, m) for m in NORM_METHODS]
    + [inner_product, lambda x, y: inner_product(y, x)]
    + [lambda x, y, d=d: orthonormalize(x, d) for d in ("left", "right")]
    + [lambda x, y, v=v: round_tt(x, RoundingOptions(1e-8, v)) for v in ROUNDING_VARIANTS]
)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(nonfinite_cases())
@example(_nonfinite_case((7,), (1, 1), 0, (0, 2, 0), np.inf, 4))
@example(_nonfinite_case((3, 1, 4), (1, 2, 2, 1), 1, (1, 0, 1), np.nan, 3))
@example(_nonfinite_case((2, 6, 3), (1, 2, 3, 1), 0, (0, 0, 0), -np.inf, 4))
@example(_nonfinite_case((2, 6, 3), (1, 2, 3, 1), 2, (2, 2, 0), np.nan, None))
def test_non_finite_input_fails_loudly_across_p(case):
    """A NaN or an infinity in one core makes the three norms, the inner
    product in both argument orders, `orthonormalize` in both directions and
    `round_tt` in all four variants raise `NumericError`, in either flavor
    and at any P: none returns, and none warns on the way."""
    x, y, nranks = case
    for op in _LOUD_OPS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError):
                if nranks is None:
                    op(x, y)
                else:
                    run_spmd(nranks, lambda comm: op(distribute(x, comm), distribute(y, comm)))
        assert [str(w.message) for w in caught] == []


@st.composite
def scale_cases(draw):
    """(x, s): a random TT of 1 to 4 modes of size 1 to 6 with bond ranks 1
    to 4, and a scalar: 0, -1, 2^-600 or any float in [-1000, 1000]."""
    n_modes = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))
    x = random_tt(dims, _chain(draw, n_modes, 4), draw(st.integers(0, 2**16)))
    s = draw(st.one_of(st.sampled_from([0.0, -1.0, 2.0**-600]),
                       st.floats(-1000.0, 1000.0, allow_nan=False)))
    return x, s


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(scale_cases())
@example((random_tt((5,), (1, 1), 2), -3.5))
@example((random_tt((2, 1, 3), (1, 3, 2, 1), 3), 0.0))
def test_scale_across_p(case):
    """`scale` at P = 1 to 4 gathers on every rank, byte for byte and so
    with each -0.0 kept, to the sequential result, which is s times the
    dense oracle to roundoff."""
    x, s = case
    z = scale(x, s)
    want = s * dense(x)
    assert type(z) is TTTensor
    assert np.linalg.norm(dense(z) - want) <= 1e-13 * np.linalg.norm(want)

    def body(comm):
        return _tt_bytes(gather(scale(distribute(x, comm), s))) == _tt_bytes(z)

    for nranks in range(1, 5):
        assert run_spmd(nranks, body).results == [True] * nranks


@st.composite
def capped_round_cases(draw):
    """(x, eps0, cap, P): a random TT of 1 to 4 modes of size 1 to 6 with
    bond ranks 1 to 5, doubled as add(x, x) in half the draws; eps0 from
    {0, 1e-8, 0.1}; a rank cap from 1 to 6; P from 1 to 4."""
    n_modes = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n_modes))
    x = random_tt(dims, _chain(draw, n_modes, 5), draw(st.integers(0, 2**16)))
    return ((add(x, x) if draw(st.booleans()) else x),
            draw(st.sampled_from([0.0, 1e-8, 0.1])), draw(st.integers(1, 6)),
            draw(st.integers(1, 4)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(capped_round_cases())
@example((random_tt((4, 5, 3), (1, 4, 5, 1), 4), 1e-8, 3, 4))
@example((random_tt((3, 1, 4), (1, 3, 3, 1), 5), 0.0, 3, 3))
@example((random_tt((6,), (1, 1), 6), 0.1, 1, 4))
def test_round_with_max_rank_across_p(case):
    """`round_tt` with a rank cap, in all four variants at P = 1 to 4:
    ``error_bound_violated`` is set exactly when the cap is below the largest
    bond rank the uncapped round keeps; a cap at or above that rank gives the
    uncapped output byte for byte; and whenever the flag is clear, the output
    is within eps0 ||x|| of x by the dense oracle, plus roundoff slack."""
    x, eps0, cap, nranks = case
    want = dense(x)

    def body(comm):
        dx = distribute(x, comm)
        out = {}
        for v in ROUNDING_VARIANTS:
            free = round_tt(dx, RoundingOptions(eps0, v))
            capped = round_tt(dx, RoundingOptions(eps0, v, max_rank=cap))
            out[v] = (free.ranks, free.meta["error_bound_violated"], gather(free),
                      capped.ranks, capped.meta["error_bound_violated"], gather(capped))
        return out

    for res in run_spmd(nranks, body).results:
        for free_ranks, free_flag, free, ranks, flag, y in res.values():
            top = max(free_ranks)
            assert not free_flag and max(ranks) <= cap
            assert flag == (cap < top)
            if cap >= top:
                assert ranks == free_ranks and _tt_bytes(y) == _tt_bytes(free)
            if not flag:
                err = np.linalg.norm(dense(y) - want)
                assert err <= (eps0 + _SWEEP_SLACK) * np.linalg.norm(want)
