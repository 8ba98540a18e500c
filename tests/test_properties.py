"""Property-based tests: `local_qr` on both kernel routes, any shape and
magnitude; the routed leaf's Q built for a triangle; the vectorized Philox
key derivation against numpy's SeedSequence; the three norms and the
Hadamard product across P."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ttpar import (  # noqa: E402
    add,
    distribute,
    gather,
    hadamard,
    norm,
    random_tt,
    run_spmd,
    scale,
    tsqr,
)
from ttpar.core import _slice_keys  # noqa: E402
from ttpar.cost import chain_estimate  # noqa: E402
from ttpar.tsqr import local_qr  # noqa: E402
from ttpar.verify import dense  # noqa: E402


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
    """Q is orthonormal, QR reconstructs A, diag(R) >= 0, apply(I) is Q."""
    m, b, a = panel
    fac, r = local_qr(a)
    assert (fac.t is not None) == tsqr._wy_route(max(m, b), b)
    q = fac.explicit_q()
    # orthonormal columns, or orthonormal rows when the block is padded
    gram = q.T @ q if m >= b else q @ q.T
    assert np.abs(gram - np.eye(min(m, b))).max(initial=0.0) <= 1e-13
    scale = max(np.abs(a).max(initial=0.0), np.finfo(float).tiny)
    assert np.abs(q @ r - a).max(initial=0.0) <= 1e-13 * scale
    assert (np.diagonal(r) >= 0).all()
    assert np.abs(fac.apply(np.eye(b)) - q).max(initial=0.0) <= 1e-13


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
    at any P, innerprod_sym never falls back, and both are finite positive
    numbers for a nonzero tensor."""
    x, nranks = case

    def body(comm):
        dx = distribute(x, comm, allow_idle=True)
        return (norm(dx, "innerprod_sym", return_info=True), norm(dx, "ortho"),
                norm(dx, "innerprod"))

    for (val, info), ortho, want in run_spmd(nranks, body).results:
        assert not info["fallback"]
        for v in (val, ortho):
            assert np.isfinite(v) and v > 0.0
            assert v == pytest.approx(want, rel=1e-11)


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
    flops are one per output entry, which is `chain_estimate`'s count when
    both operands share a rank chain."""
    x, y, nranks = case
    want_ranks = tuple(a * b for a, b in zip(x.ranks, y.ranks))
    want = dense(x) * dense(y)
    if nranks is None:
        z = hadamard(x, y)
        _check_hadamard_slabs([c.array for c in x.cores], [c.array for c in y.cores],
                              [c.array for c in z.cores], want_ranks, z.ranks)
        gathered = [z]
    else:
        def body(comm):
            dx = distribute(x, comm, allow_idle=True)
            dy = distribute(y, comm, allow_idle=True)
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
        if x.ranks == y.ranks:
            assert entries == chain_estimate("hadamard", x.dims, x.ranks).flops
        gathered = [g for _, _, g in res]
    for g in gathered:
        assert np.linalg.norm(dense(g) - want) <= 1e-13 * np.linalg.norm(want)
