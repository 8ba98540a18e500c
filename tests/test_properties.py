"""Property-based tests: `local_qr` on both kernel routes, any shape and
magnitude; the vectorized Philox key derivation against numpy's SeedSequence."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ttpar import tsqr  # noqa: E402
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
