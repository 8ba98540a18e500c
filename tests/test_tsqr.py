"""Tests for local QR, butterfly/binomial TSQR, apply-Q, and message traces."""

import numpy as np
import pytest
from scipy.linalg import lapack

from ttpar import _kernels, tsqr
from ttpar.comm import SerialComm, run_spmd
from ttpar.errors import ContractError, NumericError, ShapeError
from ttpar.tsqr import local_qr, tsqr_apply_q, tsqr_factor
from ttpar.verify import reference_qr


def row_blocks(a, nranks):
    """Split by the contiguous ceil-sized block rule used everywhere."""
    m = a.shape[0]
    chunk = -(-m // nranks)
    return [a[p * chunk : min((p + 1) * chunk, m)] for p in range(nranks)]


def tsqr_gathered(a, nranks, variant="butterfly", c=None):
    """Run TSQR over a simulated group; gather Q rows and R."""
    blocks = row_blocks(a, nranks)
    b = a.shape[1]

    def body(comm):
        fac, r = tsqr_factor(blocks[comm.rank], comm, variant=variant)
        rhs = np.eye(b) if c is None else c
        q_loc = tsqr_apply_q(fac, rhs, comm)
        return q_loc, r

    run = run_spmd(nranks, body)
    q = np.vstack([res[0] for res in run.results])
    rs = [res[1] for res in run.results if res[1] is not None]
    return q, rs, run


def test_local_qr_sign_convention_and_roundtrip():
    """R has a nonnegative diagonal and Q'R reproduces the block."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = int(rng.integers(5, 60))
        b = int(rng.integers(1, min(m, 9)))
        a = rng.standard_normal((m, b))
        fac, r = local_qr(a)
        assert (np.diagonal(r) >= 0).all()
        assert np.allclose(np.tril(r, -1), 0)
        assert np.allclose(fac.apply(r), a, rtol=1e-12, atol=1e-13)
        q = fac.explicit_q()
        assert np.allclose(q.T @ q, np.eye(b), atol=1e-12)
        assert np.allclose(q @ r, a, rtol=1e-12, atol=1e-13)


def test_local_qr_matches_reference():
    """Sign-fixed R agrees with the numpy oracle for full-rank inputs."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((30, 6))
        _, r = local_qr(a)
        _, r_ref = reference_qr(a)
        assert np.allclose(r, r_ref, rtol=1e-12, atol=1e-13)


def test_local_qr_short_and_empty_blocks():
    """Blocks with fewer rows than columns (even zero) yield their k x b
    trapezoid R, k = min(m, b), with no padding."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 5))
    fac, r = local_qr(a)
    assert r.shape == (2, 5)
    assert np.allclose(fac.apply(r), a, atol=1e-13)
    a0 = np.zeros((0, 4))
    fac0, r0 = local_qr(a0)
    assert r0.shape == (0, 4)
    assert np.array_equal(fac0.apply(r0), a0)


def test_local_qr_rejects_nonfinite():
    """NaN/inf inputs raise numeric errors, and misshapen blocks shape errors,
    instead of propagating garbage."""
    a = np.ones((4, 2))
    a[1, 1] = np.nan
    with pytest.raises(NumericError):
        local_qr(a)
    with pytest.raises(ShapeError):
        local_qr(np.ones(4))
    with pytest.raises(ShapeError, match="at least one column"):
        local_qr(np.ones((4, 0)))
    fac, _ = local_qr(np.ones((4, 2)))
    for c in (np.ones(2), np.ones((3, 1))):
        with pytest.raises(ShapeError, match=r"\(2, n\) block"):
            fac.apply(c)
    with pytest.raises(ShapeError, match="triangle"):
        fac.explicit_q(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(400, 50), (1000, 64), (200, 48), (7, 3), (1, 1)])
def test_dgeqrt_binding_matches_scipy(shape):
    """The GIL-free dgeqrt is bitwise scipy's wrapper; T's diagonal is tau."""
    a = np.random.default_rng(20).standard_normal(shape)
    nb = min(32, *shape)
    got = np.asfortranarray(a)
    t, info = _kernels.dgeqrt(got, 32)
    want, t_want, info_want = lapack.dgeqrt(nb, a)
    assert info == info_want == 0
    assert np.array_equal(got, want) and np.array_equal(t, t_want)
    _, tau, _, _ = lapack.dgeqrf(a)
    k = np.arange(min(shape))
    assert np.allclose(t[k % nb, k], tau, rtol=0, atol=1e-15)


def test_dgeqrt_binding_rejects_bad_layout():
    """Only writable float64 matrices with contiguous columns reach the raw
    pointer call."""
    with pytest.raises(ShapeError):
        _kernels.dgeqrt(np.ones((8, 4)), 32)  # C order
    with pytest.raises(ShapeError):
        _kernels.dgeqrt(np.ones((8, 4), dtype=np.float32, order="F"), 32)
    with pytest.raises(ShapeError):
        _kernels.dgeqrt(np.ones(8), 32)
    frozen = np.ones((8, 4), order="F")
    frozen.flags.writeable = False
    with pytest.raises(ShapeError):
        _kernels.dgeqrt(frozen, 32)


@pytest.mark.parametrize("shape,ncols", [((400, 50), 3), ((1000, 64), 64), ((200, 48), 1),
                                         ((7, 3), 2), ((5000, 100), 50)])
def test_dgemqrt_binding_matches_scipy(shape, ncols):
    """The GIL-free dgemqrt is bitwise scipy's wrapper, whole and per block."""
    rng = np.random.default_rng(24)
    v = np.asfortranarray(rng.standard_normal(shape))
    t, _ = _kernels.dgeqrt(v, 32)
    c = np.asfortranarray(rng.standard_normal((shape[0], ncols)))
    got = c.copy(order="F")
    want, info_want = lapack.dgemqrt(v, t, c)
    assert _kernels.dgemqrt(v, t, got) == info_want == 0
    assert np.array_equal(got, want)
    # one reflector block on the trailing block c[j:, col:], from its own
    # columns (col = j) or right of them; the rest untouched
    nb, n = t.shape
    c = np.asfortranarray(rng.standard_normal(shape))
    for j in range(0, n, nb):
        ib = min(nb, n - j)
        for col in (j, j + ib):
            got = c.copy(order="F")
            assert _kernels.dgemqrt(v, t, got, j, ib, col=col) == 0
            want, _ = lapack.dgemqrt(v[j:, j : j + ib], t[:ib, j : j + ib], c[j:, col:])
            assert np.array_equal(got[j:, col:], want)
            assert np.array_equal(got[:j], c[:j]) and np.array_equal(got[:, :col], c[:, :col])


def test_dgemqrt_binding_rejects_bad_input():
    """Layouts other than float64 with contiguous columns, a read-only C and
    blocks that do not fit the factor all raise before the raw pointer call."""
    v = np.asfortranarray(np.random.default_rng(25).standard_normal((80, 40)))
    t, _ = _kernels.dgeqrt(v, 32)
    for c in (np.ones((80, 4)), np.ones((80, 4), dtype=np.float32, order="F"), np.ones(80)):
        with pytest.raises(ShapeError):
            _kernels.dgemqrt(v, t, c)
    frozen = np.ones((80, 4), order="F")
    frozen.flags.writeable = False
    with pytest.raises(ShapeError):
        _kernels.dgemqrt(v, t, frozen)
    with pytest.raises(ShapeError):
        _kernels.dgemqrt(np.ascontiguousarray(v), t, np.ones((80, 4), order="F"))
    c = np.ones((80, 40), order="F")
    for j, k in ((16, 8), (0, 41), (32, 9), (0, 0)):  # off a T block, past the end, empty
        with pytest.raises(ShapeError):
            _kernels.dgemqrt(v, t, c, j, k)
    for col in (-1, 41):
        with pytest.raises(ShapeError):
            _kernels.dgemqrt(v, t, c, 0, 32, col=col)
    with pytest.raises(ShapeError):
        _kernels.dgemqrt(v, t, np.ones((79, 4), order="F"))


def test_wy_bindings_take_blocks_with_their_leading_dimension():
    """dgeqrt and dgemqrt work in place on blocks of larger F-ordered arrays,
    with the bits they give on F-ordered copies, and move nothing outside
    the blocks."""
    rng = np.random.default_rng(26)

    def block(m, n):
        big = np.asfortranarray(rng.standard_normal((m + 5, n + 4)))
        return big[2 : 2 + m, 3 : 3 + n], big

    def outside(big, m, n):
        return np.delete(np.delete(big, np.s_[3 : 3 + n], axis=1), np.s_[2 : 2 + m], axis=0)

    v, vbig = block(300, 70)
    vf, rim = np.asfortranarray(v), outside(vbig, 300, 70)
    t, info = _kernels.dgeqrt(v, 32)
    t_want, info_want = _kernels.dgeqrt(vf, 32)
    assert info == info_want == 0 and np.array_equal(t, t_want) and np.array_equal(v, vf)
    assert np.array_equal(outside(vbig, 300, 70), rim)
    tb, _ = block(*t.shape)
    tb[...] = t
    for j, k, col in ((0, None, 0), (32, 32, 40)):
        c, cbig = block(300, 50)
        cf, rim = np.asfortranarray(c), outside(cbig, 300, 50)
        assert _kernels.dgemqrt(v, tb, c, j, k, col=col) == 0
        assert _kernels.dgemqrt(vf, t, cf, j, k, col=col) == 0
        assert np.array_equal(c, cf) and np.array_equal(outside(cbig, 300, 50), rim)


@pytest.mark.parametrize("shape,routed", [
    ((10000, 100), True), ((5000, 100), True), ((5000, 50), True), ((1000, 64), True),
    ((192, 48), True), ((191, 48), False), ((10000, 47), False),
    ((200, 100), False), ((100, 50), False),  # tree nodes: two stacked b x b triangles
    ((10000, 30), False), ((5000, 30), False),  # model 2's end core at P = 1, 2
    ((420, 30), False), ((150, 30), False),  # model 2's interior panels
    ((4000, 16), False)])
def test_wy_route_pins_shapes(shape, routed):
    """Which panels dgeqrt factors and which keep T, for the benchmark shapes."""
    assert tsqr._wy_route(*shape) is routed
    fac, _ = local_qr(np.ones(shape))
    assert (fac.t is not None) is routed


def _routed_panels():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((1000, 64))
    dup = np.hstack([a[:, :60], a[:, :4]])  # the last four columns repeat
    return {"400x50": rng.standard_normal((400, 50)), "1000x64": a,
            "duplicated": dup, "zero": np.zeros((300, 60)),
            "tiny": 1e-150 * a, "huge": 1e150 * a}


@pytest.mark.parametrize("name", list(_routed_panels()))
def test_blocked_leaf_qr(name):
    """Tall panels take the dgeqrt route and keep local_qr's contract."""
    a = _routed_panels()[name]
    m, b = a.shape
    assert tsqr._wy_route(m, b)
    fac, r = local_qr(a)
    assert np.array_equal(fac.qr, lapack.dgeqrt(tsqr._WY_NB, a)[0])
    scale = max(np.abs(a).max(), np.finfo(float).tiny)
    assert (np.diagonal(r) >= 0).all()
    _, r_ref = reference_qr(a)
    assert np.allclose(r, r_ref, rtol=1e-12, atol=1e-13 * scale)
    assert np.allclose(fac.apply(r), a, rtol=1e-12, atol=1e-13 * scale)
    q = fac.explicit_q()
    assert np.allclose(q.T @ q, np.eye(b), atol=1e-12)
    # the Q built blockwise from T is dorgqr's to roundoff; a routed leaf
    # keeps no tau, dgeqrt's are the diagonals T[j % nb, j]
    assert fac.tau is None
    tau = fac.t[np.arange(b) % fac.t.shape[0], np.arange(b)]
    q_ref, _, info = lapack.dorgqr(fac.qr, tau)
    assert info == 0 and np.abs(q - q_ref * fac.signs).max() <= 1e-15
    if name == "zero":
        assert not tau.any() and not r.any()
        assert np.array_equal(q, np.eye(m, b))


def _r_blocks():
    """Blocks for each way `local_qr` builds R, all with negative pivots
    (zeros of negative sign below them) except the zero-row block."""
    rng = np.random.default_rng(27)
    return {"routed": rng.standard_normal((400, 50)), "dgeqrf": rng.standard_normal((90, 30)),
            "padded": rng.standard_normal((5, 12)), "zero rows": np.zeros((0, 6)),
            "node": np.vstack([np.triu(rng.standard_normal((8, 8)))] * 2)}


@pytest.mark.parametrize("name", list(_r_blocks()))
def test_r_is_triu_times_signs_bytewise(name):
    """`LocalQR.r` with its cached mask is ``np.triu(qr) * signs`` byte for
    byte, signed zeros and memory layout included."""
    fac, r = local_qr(_r_blocks()[name])
    b = fac.b
    want = np.triu(fac.qr[:b, :b]) * fac.signs[:, None]
    for got in (r, fac.r()):
        assert got.tobytes() == want.tobytes()
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
            want.flags.c_contiguous, want.flags.f_contiguous)
    if name != "zero rows":
        assert (fac.signs < 0).any() and (np.signbit(r) & (r == 0)).any()


def _square_blocks():
    rng = np.random.default_rng(28)
    dense = rng.standard_normal((6, 6))
    tiny = np.eye(6)
    tiny[4, 1] = 1e-300
    negzero = np.eye(6)
    negzero[0, 5] = negzero[5, 0] = -0.0
    offdiag = np.eye(6)
    offdiag[2, 2] = 1.0 + 2.0**-52
    upper_nan = np.eye(6)
    upper_nan[1, 3] = np.nan
    lower_nan = np.eye(6)
    lower_nan[3, 1] = np.nan
    return {"dense": dense, "triangular": np.triu(dense), "identity": np.eye(6),
            "identity 1x1": np.eye(1), "zero": np.zeros((6, 6)), "tiny below": tiny,
            "signed zeros": negzero, "near identity": offdiag, "nan above": upper_nan,
            "nan below": lower_nan, "wide": np.eye(4, 6), "tall": np.eye(6, 4),
            "F-ordered": np.asfortranarray(np.triu(dense))}


@pytest.mark.parametrize("name", list(_square_blocks()))
def test_triangle_and_identity_tests_match_numpy(name):
    """The leaf's cached-mask tests agree with ``np.tril(c, -1).any()`` and
    ``np.array_equal(c, np.eye(b))``."""
    c = _square_blocks()[name]
    square = c.shape[0] == c.shape[1]
    assert tsqr._is_upper_triangular(c) == (square and not np.tril(c, -1).any())
    assert tsqr._is_identity(c) == np.array_equal(c, np.eye(c.shape[0]))


@pytest.mark.parametrize("m,b,nb", [(10000, 100, 32), (5000, 50, 32), (300, 64, 32),
                                    (250, 60, 32), (40, 7, 32), (64, 33, 16)])
def test_wy_q_charge_closed_form(m, b, nb):
    """`_flops_wy_build` is the sum of its per-block charges: dgemqrt on the
    trailing columns, three ib x ib dtrmm and the gemm below the block."""
    blocks = 0.0
    for j in range(0, b, nb):
        ib = min(nb, b - j)
        blocks += (tsqr._flops_ormqr(m - j, b - j - ib, ib) + 3.0 * ib**3
                   + 2.0 * (m - j - ib) * ib * ib)
    assert tsqr._flops_wy_build(m, b, nb) == pytest.approx(blocks, rel=1e-14)


def test_routed_explicit_q_charge():
    """The explicit Q of a routed leaf is charged what its build does, for
    the identity and a triangle alike; a dense block is still charged
    dormqr's count."""
    m, b = 2000, 100
    rng = np.random.default_rng(26)
    a = rng.standard_normal((m, b))
    comm = SerialComm()
    fac, _ = tsqr_factor(a, comm)
    assert fac.leaf.t is not None
    for c in (np.eye(b), np.triu(rng.standard_normal((b, b)))):
        comm.trace.reset()
        tsqr_apply_q(fac, c, comm)
        assert comm.trace.total("flops") == tsqr._flops_wy_build(m, b, tsqr._WY_NB)
    comm.trace.reset()
    tsqr_apply_q(fac, np.ones((b, 3)), comm)
    assert comm.trace.total("flops") == tsqr._flops_ormqr(m, 3, b)


@pytest.mark.parametrize("ncols", [1, 7, 64, 100])
def test_apply_closed_form_workspace_is_bitwise(ncols):
    """dormqr with the closed-form workspace equals it with a queried one."""
    rng = np.random.default_rng(22)
    fac, _ = local_qr(rng.standard_normal((300, 100)))
    assert fac.t is None  # a dgeqrf panel, which dormqr applies
    c = rng.standard_normal((100, ncols))
    x = np.zeros((300, ncols), order="F")
    x[:100] = fac.signs[:, None] * c
    _, work, _ = lapack.dormqr("L", "N", fac.qr, fac.tau, x, -1)
    want, _, info = lapack.dormqr("L", "N", fac.qr, fac.tau, x, int(work[0]))
    assert info == 0
    assert np.array_equal(fac.apply(c), want)


@pytest.mark.parametrize("nranks", [1, 2, 3, 4])
def test_tsqr_on_blocked_leaves(nranks):
    """Every leaf of a 1600 x 50 panel is blocked; R is right and replicated."""
    a = np.random.default_rng(23).standard_normal((1600, 50))
    assert all(tsqr._wy_route(*blk.shape) for blk in row_blocks(a, nranks))
    _, r_ref = reference_qr(a)
    q, rs, _ = tsqr_gathered(a, nranks)
    assert len(rs) == nranks
    for r in rs:
        assert np.array_equal(r, rs[0])
    assert np.allclose(rs[0], r_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(q.T @ q, np.eye(50), atol=1e-12)


@pytest.mark.parametrize("variant", ["butterfly", "binomial"])
@pytest.mark.parametrize("nranks", [2, 3, 4])
def test_routed_leaves_build_q_from_the_tree_triangle(monkeypatch, variant, nranks):
    """At P > 1 the identity reaches every routed leaf as one of the tree's
    triangles, which `LocalQR.explicit_q` takes whole; the gathered Q is
    orthonormal and Q R = A."""
    a = np.random.default_rng(27).standard_normal((2400, 60))  # 60 = 32 + 28
    assert all(tsqr._wy_route(*blk.shape) for blk in row_blocks(a, nranks))
    built = []
    explicit_q = tsqr.LocalQR.explicit_q

    def spy(self, c=None):
        built.append((self.t is not None, c is not None))
        return explicit_q(self, c)

    monkeypatch.setattr(tsqr.LocalQR, "explicit_q", spy)
    q, rs, _ = tsqr_gathered(a, nranks, variant)
    assert built == [(True, True)] * nranks
    assert np.abs(q.T @ q - np.eye(60)).max() <= 1e-13
    assert np.abs(q @ rs[0] - a).max() <= 1e-13 * np.abs(a).max()


@pytest.mark.parametrize("nranks", [2, 3, 5, 8])
def test_tsqr_matches_sequential_qr(nranks):
    """Distributed R and gathered Q match the sequential factorization."""
    rng = np.random.default_rng(10 + nranks)
    a = rng.standard_normal((120, 7))
    q_ref, r_ref = reference_qr(a)
    q, rs, _ = tsqr_gathered(a, nranks)
    for r in rs:
        assert np.allclose(r, r_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(q, q_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", ["butterfly", "binomial"])
@pytest.mark.parametrize("nranks", list(range(1, 10)))
def test_variant_equivalence(nranks, variant):
    """Both trees give the same R and the same gathered Q for P = 1..9."""
    rng = np.random.default_rng(100 + nranks)
    m = int(rng.integers(nranks * 3 + 8, 512))
    b = int(rng.integers(1, 17))
    a = rng.standard_normal((m, b))
    q_ref, r_ref = reference_qr(a)
    q, rs, _ = tsqr_gathered(a, nranks, variant=variant)
    assert len(rs) >= 1  # binomial: root only
    for r in rs:
        assert np.allclose(r, r_ref, rtol=1e-13, atol=1e-13 * np.abs(r_ref).max())
    assert np.allclose(q, q_ref, atol=1e-13 * max(1.0, np.abs(q_ref).max()))
    assert np.allclose(q.T @ q, np.eye(b), atol=1e-12)


@pytest.mark.parametrize("variant", ["butterfly", "binomial"])
@pytest.mark.parametrize("nranks", [3, 4, 5, 6])
def test_apply_general_block_roundtrip(nranks, variant):
    """Q @ [C; 0] for a random C equals the dense product with gathered Q."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((90, 5))
    c = rng.standard_normal((5, 3))
    q, _, _ = tsqr_gathered(a, nranks, variant=variant)
    got, _, _ = tsqr_gathered(a, nranks, variant=variant, c=c)
    assert np.allclose(got, q @ c, atol=1e-12)


def _low_rank(m, b, rank, seed=0):
    """An m x b panel of rank ``rank``, built as `verify._check_tsqr` builds
    its rank-deficient panel."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, b))


@pytest.mark.parametrize("variant", ["butterfly", "binomial"])
@pytest.mark.parametrize("shape,rank,nranks", [((12, 8), 4, 4), ((12, 8), 4, 5),
                                               ((10, 6), 3, 5)])
def test_short_leaves_keep_rank_deficient_q_orthonormal(variant, shape, rank, nranks):
    """A rank-deficient panel whose every leaf is shorter than the panel is
    wide: the gathered Q is orthonormal and Q R = A.  Zero-padded leaves
    once let the tree's Q put weight on the padded rows (0.19 to 0.37 here)."""
    a = _low_rank(*shape, rank)
    assert all(len(blk) < shape[1] for blk in row_blocks(a, nranks))
    q, rs, _ = tsqr_gathered(a, nranks, variant)
    assert np.abs(q.T @ q - np.eye(shape[1])).max() <= 1e-12
    assert np.abs(q @ rs[0] - a).max() <= 1e-12


@pytest.mark.parametrize("variant", ["butterfly", "binomial"])
@pytest.mark.parametrize("nranks", [1, 2, 3])
def test_short_root_pads_r_and_reads_the_first_rows(variant, nranks):
    """A 3 x 5 panel: R is padded to 5 x 5 with zero rows, the columns of Q
    past the panel's 3 rows are zero, and Q @ c reads only c's first rows."""
    rng = np.random.default_rng(29)
    a, c = rng.standard_normal((3, 5)), rng.standard_normal((5, 2))
    q, rs, _ = tsqr_gathered(a, nranks, variant)
    got, _, _ = tsqr_gathered(a, nranks, variant, c=c)
    for r in rs:
        assert r.shape == (5, 5) and not r[3:].any()
    assert not q[:, 3:].any()
    assert np.abs(q[:, :3].T @ q[:, :3] - np.eye(3)).max() <= 1e-14
    assert np.abs(q @ rs[0] - a).max() <= 1e-14
    assert np.abs(got - q[:, :3] @ c[:3]).max() <= 1e-14


def test_r_is_distribution_invariant():
    """Bitwise-identical R regardless of P (sign fixing makes R unique)."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((96, 6))
    rs = {}
    for nranks in (1, 2, 3, 4, 8):
        _, r_list, _ = tsqr_gathered(a, nranks)
        rs[nranks] = r_list[0]
    for nranks, r in rs.items():
        assert np.allclose(r, rs[1], rtol=1e-13, atol=1e-14), nranks


def test_butterfly_redundancy_invariant():
    """Tree nodes agree across ranks p = q (mod 2^level) for P in {4, 8}."""
    rng = np.random.default_rng(5)
    for nranks in (4, 8):
        a = rng.standard_normal((nranks * 6, 4))
        blocks = row_blocks(a, nranks)

        def body(comm):
            fac, _ = tsqr_factor(blocks[comm.rank], comm)
            return {node.level: node.fac.qr for node in fac.tree}

        run = run_spmd(nranks, body)
        for level in range((nranks).bit_length() - 1):
            for p in range(nranks):
                for q in range(p + 1, nranks):
                    if (p - q) % (1 << level) == 0:
                        assert np.array_equal(
                            run.results[p][level], run.results[q][level]
                        ), (nranks, level, p, q)


def test_butterfly_message_counts():
    """P=8: 3 exchange rounds in factor, zero messages in apply."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal((64, 4))
    blocks = row_blocks(a, 8)

    def body(comm):
        with comm.trace.phase("factor"):
            fac, _ = tsqr_factor(blocks[comm.rank], comm)
        with comm.trace.phase("apply"):
            tsqr_apply_q(fac, np.eye(4), comm)
        return comm.trace

    _, _, run = tsqr_gathered(a, 8)  # warm path; now the traced run:
    run = run_spmd(8, body)
    for rank, tr in enumerate(run.results):
        assert tr.messages["factor"] == 3, (rank, tr.messages)
        assert tr.messages["apply"] == tr.words["apply"] == 0, (rank, tr.words)


def test_nonpowitwo_message_counts_and_levels():
    """P=5: remainder pair exchanges once in apply; tree levels as documented."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((60, 3))
    blocks = row_blocks(a, 5)

    def body(comm):
        fac, _ = tsqr_factor(blocks[comm.rank], comm)
        with comm.trace.phase("apply"):
            tsqr_apply_q(fac, np.eye(3), comm)
        return len(fac.tree), bool(fac.tree) and fac.tree[0].child is not None, comm.trace

    run = run_spmd(5, body)
    levels = [res[0] for res in run.results]
    has_cleanup = [res[1] for res in run.results]
    assert levels == [3, 2, 2, 2, 0]
    assert has_cleanup == [True, False, False, False, False]
    assert [res[2].messages["apply"] for res in run.results] == [1, 0, 0, 0, 1]


@pytest.mark.parametrize("variant", ["butterfly", "binomial"])
@pytest.mark.parametrize("nranks", list(range(1, 10)))
def test_message_counts_match_closed_forms(nranks, variant):
    """Per-rank factor and apply messages for every P = 1..9 on both trees."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((nranks * 5, 3))
    blocks = row_blocks(a, nranks)

    def body(comm):
        with comm.trace.phase("factor"):
            fac, _ = tsqr_factor(blocks[comm.rank], comm, variant=variant)
        with comm.trace.phase("apply"):
            tsqr_apply_q(fac, np.eye(3), comm)
        return comm.trace

    traces = run_spmd(nranks, body).results
    got = [(tr.messages["factor"], tr.messages["apply"]) for tr in traces]
    if variant == "binomial":
        # rank q > 0 hangs below q minus its lowest set bit; one message per
        # incident edge and phase
        edges = [(q - (q & -q), q) for q in range(1, nranks)]
        want = [(d, d) for d in (sum(p in e for e in edges) for p in range(nranks))]
    else:
        p_reg = 1 << (nranks.bit_length() - 1)
        folded = {p % p_reg for p in range(p_reg, nranks)} | set(range(p_reg, nranks))
        want = [((p < p_reg) * (p_reg.bit_length() - 1) + 2 * (p in folded), int(p in folded))
                for p in range(nranks)]
    assert got == want


def test_apply_identity_fast_path_flops():
    """P=1 explicit Q via the triangular route costs 2mb^2 + O(b^3), not 4mb^2."""
    rng = np.random.default_rng(8)
    m, b = 4000, 16
    a = rng.standard_normal((m, b))
    comm = SerialComm()
    fac, _ = tsqr_factor(a, comm)
    comm.trace.reset()
    q = tsqr_apply_q(fac, np.eye(b), comm)
    flops = comm.trace.total("flops")
    assert abs(flops - 2 * m * b * b) < 0.2 * m * b * b
    assert np.allclose(q.T @ q, np.eye(b), atol=1e-12)
    # dense block: full dormqr cost
    comm.trace.reset()
    tsqr_apply_q(fac, rng.standard_normal((b, b)), comm)
    flops_dense = comm.trace.total("flops")
    assert abs(flops_dense - 4 * m * b * b) < 0.2 * m * b * b


def test_factor_requires_matching_communicator():
    """Applying a factor with any other comm, None included, is a contract
    error at every P."""
    rng = np.random.default_rng(9)
    a = rng.standard_normal((40, 3))
    blocks = row_blocks(a, 2)

    def body(comm):
        fac, _ = tsqr_factor(blocks[comm.rank], comm)
        return fac

    run = run_spmd(2, body)
    with pytest.raises(ContractError):
        tsqr_apply_q(run.results[0], np.eye(3), SerialComm())
    with pytest.raises(ContractError):
        tsqr_apply_q(run.results[0], np.eye(3), None)
    with pytest.raises(ContractError):
        tsqr_apply_q(tsqr_factor(a, SerialComm())[0], np.eye(3), None)
    with pytest.raises(ShapeError, match=r"\(3, k\) block"):
        tsqr_apply_q(tsqr_factor(a, SerialComm())[0], np.eye(2), SerialComm())
    with pytest.raises(ContractError):
        tsqr_factor(a, SerialComm(), variant="bogus")

