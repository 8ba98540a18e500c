"""Property-based tests: `local_qr` on both kernel routes, any shape and
magnitude; the routed leaf's Q built for a triangle; the vectorized Philox
key derivation against numpy's SeedSequence; the two Gram norms across P."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ttpar import add, distribute, norm, random_tt, run_spmd, scale, tsqr  # noqa: E402
from ttpar.core import _slice_keys  # noqa: E402
from ttpar.tsqr import local_qr  # noqa: E402


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
    """innerprod_sym's value is innerprod's to 1e-11 relative at any P, never
    falls back, and is a finite positive number for a nonzero tensor."""
    x, nranks = case

    def body(comm):
        dx = distribute(x, comm, allow_idle=True)
        return norm(dx, "innerprod_sym", return_info=True), norm(dx, "innerprod")

    for (val, info), want in run_spmd(nranks, body).results:
        assert not info["fallback"]
        assert np.isfinite(val) and val > 0.0
        assert val == pytest.approx(want, rel=1e-11)
