"""Sequential tensor-train containers, layout conventions, and dense oracles.

A tensor train (TT) represents an N-way array through a chain of 3-way cores,

    x[i_1, ..., i_N] = X_1(i_1) @ X_2(i_2) @ ... @ X_N(i_N),

where the n-th slice ``X_n(i)`` is an ``r_left x r_right`` matrix and the end
ranks are fixed to 1.  Cores are stored in the *natural descending* layout:
a column-major (Fortran-ordered) ``(r_left, dim, r_right)`` array, so that the
two matricizations every kernel needs,

* vertical   ``V(X)`` of shape ``(r_left * dim, r_right)`` and
* horizontal ``H(X)`` of shape ``(r_left, dim * r_right)``,

are both zero-copy views of the same buffer.  Rows of ``V`` pair the left rank
index (fastest) with the mode index; columns of ``H`` pair the mode index
(fastest) with the right rank index.

The module also provides dense oracles (`entry` for one entry, `full` for the
whole tensor as a plain Fortran-ordered ndarray), deterministic random
generation keyed per slice (so distributed generation can reproduce it
bitwise), a structural identity check used to validate the layout algebra, and
a small binary file format.

Random generation gives slice ``i`` of core ``n`` its own counter-based Philox
stream (Salmon et al., SC'11), keyed by ``SeedSequence(seed, spawn_key=(n,
i))`` (`slice_rng`).  Building one `SeedSequence` per slice costs about 25 us,
which dominates generation on modes of millions of slices, so `fill_random_slab`
derives the keys of a bounded chunk of slices at once with a vectorized numpy
replica of SeedSequence's entropy mixing (`_slice_keys`, constants from numpy's
``random/bit_generator.pyx``) and re-keys one Philox generator per slice.  The
tensors are bitwise those of `slice_rng`; each slab checks its first key
against numpy's own `SeedSequence` and raises `CapabilityError` on a mismatch.
"""

from __future__ import annotations

import os
from math import prod

import numpy as np

from .errors import BoundsError, CapabilityError, CapacityError, ContractError, ShapeError

_MAGIC = b"TTPAR1"

#: `full` refuses to materialize more entries than this unless overridden.
DEFAULT_FULL_CAPACITY = 10_000_000

# SeedSequence's hashing constants, from numpy/random/bit_generator.pyx.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

#: `fill_random_slab` derives keys and draws for at most this many slices,
#: and this many draws, at a time (256 KiB of keys, 1 MiB of draws).
_KEY_CHUNK = 1 << 14
_CHUNK_DRAWS = 1 << 17


class TTCore:
    """One 3-way TT core in the natural descending layout.

    Parameters
    ----------
    array : array_like
        Data of shape ``(r_left, dim, r_right)``.  Copied/converted to a
        Fortran-ordered float64 array if needed.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"core must be 3-way, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[2] < 1:
            raise ShapeError(f"core ranks must be positive, got shape {arr.shape}")
        self.array = np.asfortranarray(arr)

    @property
    def r_left(self) -> int:
        return self.array.shape[0]

    @property
    def dim(self) -> int:
        return self.array.shape[1]

    @property
    def r_right(self) -> int:
        return self.array.shape[2]

    def vertical(self) -> np.ndarray:
        """Zero-copy ``(r_left * dim, r_right)`` matricization."""
        rl, d, rr = self.array.shape
        return self.array.reshape((rl * d, rr), order="F")

    def horizontal(self) -> np.ndarray:
        """Zero-copy ``(r_left, dim * r_right)`` matricization."""
        rl, d, rr = self.array.shape
        return self.array.reshape((rl, d * rr), order="F")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TTCore{self.array.shape}"


class TTTensor:
    """A tensor train: a chain of `TTCore`s with matching bond ranks."""

    __slots__ = ("cores",)

    def __init__(self, cores):
        cores = [c if isinstance(c, TTCore) else TTCore(c) for c in cores]
        if not cores:
            raise ShapeError("a TT tensor needs at least one core")
        if cores[0].r_left != 1 or cores[-1].r_right != 1:
            raise ShapeError("end ranks must be 1")
        for k in range(len(cores) - 1):
            if cores[k].r_right != cores[k + 1].r_left:
                raise ShapeError(
                    f"rank mismatch between cores {k} and {k + 1}: "
                    f"{cores[k].r_right} != {cores[k + 1].r_left}"
                )
        self.cores = cores

    @property
    def ndim(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple:
        return tuple(c.dim for c in self.cores)

    @property
    def ranks(self) -> tuple:
        """Bond ranks ``(R_0, ..., R_N)`` with ``R_0 = R_N = 1``."""
        return (1,) + tuple(c.r_right for c in self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TTTensor(dims={self.dims}, ranks={self.ranks})"


def entry(t: TTTensor, idx) -> float:
    """Evaluate one entry as the left-to-right chain of vector-matrix products."""
    idx = tuple(int(i) for i in idx)
    if len(idx) != t.ndim:
        raise BoundsError(f"index {idx} has wrong length for dims {t.dims}")
    for i, d in zip(idx, t.dims):
        if not 0 <= i < d:
            raise BoundsError(f"index {idx} out of bounds for dims {t.dims}")
    v = t.cores[0].array[0, idx[0], :]
    for core, i in zip(t.cores[1:], idx[1:]):
        v = np.dot(v, core.array[:, i, :])
    return float(v[0])


def full(t: TTTensor, max_entries: int = DEFAULT_FULL_CAPACITY) -> np.ndarray:
    """Materialize the whole tensor as a Fortran-ordered array of shape ``dims``.

    Shares every arithmetic step with `entry` -- the evaluation is a
    depth-first sweep over mode indices that carries the same prefix vector
    `entry` would compute, so `full(t)[idx] == entry(t, idx)` bitwise.

    Raises
    ------
    CapacityError
        If the tensor has more than ``max_entries`` entries.
    """
    dims = t.dims
    total = prod(dims)
    if total > max_entries:
        raise CapacityError(
            f"full tensor has {total} entries, more than the guard "
            f"({max_entries}); raise max_entries to override"
        )
    out = np.empty(total)
    # Pre-cut the slice views once; the DFS below touches them dims[n] times.
    slices = [[c.array[:, i, :] for i in range(c.dim)] for c in t.cores]
    strides = [1] * len(dims)
    for n in range(1, len(dims)):
        strides[n] = strides[n - 1] * dims[n - 1]
    last = len(dims) - 1

    def sweep(n, base, v):
        sl, st = slices[n], strides[n]
        if n == last:
            for i in range(dims[n]):
                w = np.dot(v, sl[i])
                out[base + i * st] = float(w[0])
        else:
            for i in range(dims[n]):
                sweep(n + 1, base + i * st, np.dot(v, sl[i]))

    if len(dims) == 1:
        for i in range(dims[0]):
            out[i] = float(t.cores[0].array[0, i, :][0])
    else:
        for i in range(dims[0]):
            sweep(1, i * strides[0], t.cores[0].array[0, i, :])
    return out.reshape(dims, order="F")


def _check_chain(dims, ranks):
    dims = tuple(int(d) for d in dims)
    ranks = tuple(int(r) for r in ranks)
    if not dims or any(d < 1 for d in dims):
        raise ShapeError(f"dims must be positive, got {dims}")
    if len(ranks) != len(dims) + 1:
        raise ShapeError(f"need {len(dims) + 1} ranks for {len(dims)} modes, got {len(ranks)}")
    if ranks[0] != 1 or ranks[-1] != 1:
        raise ShapeError(f"end ranks must be 1, got {ranks[0]} and {ranks[-1]}")
    if any(r < 1 for r in ranks):
        raise ShapeError(f"ranks must be positive, got {ranks}")
    return dims, ranks


def _check_seed(seed) -> int:
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0:
        return int(seed)
    raise ContractError(f"seed must be a nonnegative integer, got {seed!r}")


def slice_rng(seed: int, n: int, i: int) -> np.random.Generator:
    """The dedicated random stream of slice ``i`` of core ``n`` (0-based).

    This is the definition of a slice's stream: a Philox generator keyed by
    ``SeedSequence(seed, spawn_key=(n, i))``, counter at zero.
    `fill_random_slab` reproduces it bitwise without building the
    `SeedSequence`.

    Raises
    ------
    ContractError
        If ``seed`` is not a nonnegative integer.
    """
    ss = np.random.SeedSequence(_check_seed(seed), spawn_key=(n, i))
    return np.random.Generator(np.random.Philox(ss))


def _uint32_words(v: int) -> list:
    """SeedSequence's coercion of a nonnegative int: 32-bit words, low first
    (zero is one zero word)."""
    words = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        words.append(v & _MASK32)
    return words


def _seed_sequence_keys(entropy: list) -> np.ndarray:
    """``SeedSequence.generate_state(2, np.uint64)`` for a batch of entropies.

    ``entropy`` is the assembled entropy, at least the pool size long; each
    word is a Python int (shared by the batch) or a uint32 array of the
    batch's length, and at least one is an array.  Returns ``(count, 2)``
    uint64 keys.  Every step masks to 32 bits, which is exact for ints and a
    no-op on uint32 arrays, whose arithmetic wraps like the C code.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state: four uint32 words, one pass over the pool, paired low-first
    words, hash_const = [], _INIT_B
    for w in pool:
        w = w ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        w = w * hash_const & _MASK32
        words.append((w ^ (w >> 16)).astype(np.uint64))
    return np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32], axis=1)


def _slice_keys(seed: int, n: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of slices ``lo..hi-1`` of core ``n``, shape ``(hi - lo, 2)``.

    Row ``k`` is bitwise ``SeedSequence(seed, spawn_key=(n, lo + k))
    .generate_state(2, np.uint64)`` for a nonnegative integer ``seed``.  The
    assembled entropy is the seed's words zero-padded to the pool size, then
    ``n``'s words, then the slice index's: its low word, which varies across
    the batch, and the words of ``i >> 32``, shared by each run of slices
    that does not cross a multiple of 2^32.
    """
    head = _uint32_words(seed)
    head += [0] * (_POOL_SIZE - len(head)) + _uint32_words(n)
    keys = np.empty((hi - lo, 2), dtype=np.uint64)
    a = lo
    while a < hi:
        high = a >> 32
        b = min(hi, (high + 1) << 32)
        low = np.arange(a - (high << 32), b - (high << 32), dtype=np.uint32)
        keys[a - lo : b - lo] = _seed_sequence_keys(
            head + [low] + (_uint32_words(high) if high else [])
        )
        a = b
    return keys


def fill_random_slab(out: np.ndarray, n: int, lo: int, seed: int) -> None:
    """Fill ``out[:, k, :]`` with the stream of global slice ``lo + k``.

    Draws are laid down in the natural descending order (left rank fastest),
    so any row-block of a core can be generated independently and agrees
    bitwise with sequential generation.

    Each slice gets `slice_rng`'s stream without a `SeedSequence` per slice:
    `_slice_keys` derives the Philox keys of a chunk of slices at once (a
    numpy replica of SeedSequence's entropy mixing; its constants are those
    of numpy's ``random/bit_generator.pyx``), and one Philox generator is
    reset to each key with a zero counter and an empty buffer, the state a
    freshly seeded one starts in.  Chunks hold at most ``_CHUNK_DRAWS``
    draws (and ``_KEY_CHUNK`` slices), so the scratch stays bounded on any
    mode.  As a self-check, the slab's first key is compared with numpy's
    own `SeedSequence`.

    Raises
    ------
    ContractError
        If ``seed`` is not a nonnegative integer.
    BoundsError
        If ``n`` or ``lo`` is negative.
    CapabilityError
        If this numpy's `SeedSequence` no longer matches the replica.
    """
    seed = _check_seed(seed)
    if n < 0 or lo < 0:
        raise BoundsError(f"core {n}, first slice {lo}: indices must be nonnegative")
    rl, d_loc, rr = out.shape
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # fresh: zero counter, empty buffer
    step = max(1, min(_KEY_CHUNK, _CHUNK_DRAWS // max(1, rl * rr)))
    for c0 in range(0, d_loc, step):
        keys = _slice_keys(seed, n, lo + c0, lo + min(d_loc, c0 + step))
        if c0 == 0:
            want = np.random.SeedSequence(seed, spawn_key=(n, lo)).generate_state(2, np.uint64)
            if not np.array_equal(keys[0], want):
                raise CapabilityError(
                    f"derived Philox key {keys[0]} of slice {lo} of core {n} differs "
                    f"from numpy's SeedSequence key {want}; numpy's seeding has changed"
                )
        draws = np.empty((len(keys), rl * rr))
        for k, key in enumerate(keys):
            state["state"]["key"] = key
            bitgen.state = state
            gen.standard_normal(out=draws[k])
        out[:, c0 : c0 + len(keys), :] = draws.reshape((len(keys), rr, rl)).transpose(2, 0, 1)


def random_tt(dims, ranks, seed: int) -> TTTensor:
    """A TT tensor with i.i.d. standard normal core entries.

    Every slice of every core has its own counter-based stream keyed by
    ``(seed, core index, slice index)`` (`slice_rng`), making the result
    independent of how the work is split across processes.  ``seed`` must be
    a nonnegative integer; anything else raises `ContractError`.
    """
    dims, ranks = _check_chain(dims, ranks)
    cores = []
    for n, d in enumerate(dims):
        arr = np.empty((ranks[n], d, ranks[n + 1]), order="F")
        fill_random_slab(arr, n, 0, seed)
        cores.append(TTCore(arr))
    return TTTensor(cores)


def _left_chain(cores, upto: int) -> np.ndarray:
    """Chain matrix over ``cores[:upto]``: ``prod(dims) x ranks[upto]``.

    Rows are linearized with the first mode fastest.
    """
    t = np.ones((1, 1))
    for c in cores[:upto]:
        arr = c.array
        t = np.tensordot(t, arr, axes=(1, 0))
        t = t.reshape((t.shape[0] * arr.shape[1], arr.shape[2]), order="F")
    return t


def _right_chain(cores, start: int) -> np.ndarray:
    """Chain matrix over ``cores[start:]``: ``ranks[start] x prod(dims)``.

    Columns are linearized with the first remaining mode fastest.
    """
    t = np.ones((1, 1))
    for c in reversed(cores[start:]):
        arr = c.array
        t = np.tensordot(arr, t, axes=(2, 0))
        t = t.reshape((arr.shape[0], arr.shape[1] * t.shape[2]), order="F")
    return t


def verify_quadprod(t: TTTensor, n: int, max_entries: int = DEFAULT_FULL_CAPACITY) -> float:
    """Residual of the four-matrix unfolding identity at split position ``n``.

    For ``1 <= n < N`` the dense unfolding that groups modes ``1..n`` into rows
    factors as

        (I ⊗ Q) @ V(X_n) @ Hs(X_{n+1}) @ (I ⊗ Z),

    where Q chains cores ``1..n-1``, Z chains cores ``n+2..N``, and ``Hs`` is
    the horizontal matricization with its slices laid side by side (right rank
    fastest within each slice block).  The product's columns come out with the
    mode-(n+1) index slowest; the dense side is permuted to match.  Returns the
    relative Frobenius residual between the two sides.
    """
    N = t.ndim
    if not 1 <= n < N:
        raise BoundsError(f"split position must satisfy 1 <= n < {N}, got {n}")
    dense = full(t, max_entries)
    dims, ranks = t.dims, t.ranks

    m_rows = prod(dims[:n])
    i_next = dims[n]
    k_rest = prod(dims[n + 1:])
    lhs = dense.reshape((m_rows, i_next, k_rest), order="F")
    lhs = lhs.reshape(m_rows, i_next * k_rest)  # C-order: trailing modes fastest

    q = _left_chain(t.cores, n - 1)
    z = _right_chain(t.cores, n + 1)
    v = t.cores[n - 1].vertical()
    arr = t.cores[n].array
    hs = arr.transpose(0, 2, 1).reshape((ranks[n], ranks[n + 1] * i_next), order="F")

    rhs = np.kron(np.eye(dims[n - 1]), q) @ v @ hs @ np.kron(np.eye(i_next), z)
    denom = np.linalg.norm(lhs)
    resid = np.linalg.norm(lhs - rhs)
    return float(resid / denom) if denom > 0 else float(resid)


def save_tt(path, t: TTTensor) -> None:
    """Write a TT tensor: magic, u64 header (N, dims, ranks), raw f8 cores."""
    dims, ranks = t.dims, t.ranks
    with open(path, "wb") as f:
        f.write(_MAGIC)
        header = np.array((t.ndim,) + dims + ranks, dtype="<u8")
        f.write(header.tobytes())
        for c in t.cores:
            f.write(np.ascontiguousarray(c.array.ravel(order="F"), dtype="<f8").tobytes())


def load_tt(path) -> TTTensor:
    """Read a TT tensor written by `save_tt` (bitwise round trip).

    Any malformed file raises `ShapeError`: each header field is read at its
    exact length, and the file's size must equal the byte count the header
    implies before any core is read.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(count: int, dtype: str, what: str) -> np.ndarray:
            raw = f.read(8 * count)
            if len(raw) != 8 * count:
                raise ShapeError(f"TT file truncated in {what}")
            return np.frombuffer(raw, dtype=dtype)

        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ShapeError(f"{path!r} is not a TT file (bad magic {magic!r})")
        ndim = int(read(1, "<u8", "the mode count")[0])
        if ndim < 1:
            raise ShapeError("TT file header declares zero modes")
        header = len(_MAGIC) + 8 * (2 * ndim + 2)
        if header > size:
            raise ShapeError(f"TT file of {size} bytes is too short for a {ndim}-mode header")
        dims = [int(d) for d in read(ndim, "<u8", "the dims")]
        ranks = [int(r) for r in read(ndim + 1, "<u8", "the ranks")]
        dims_t, ranks_t = _check_chain(dims, ranks)
        shapes = [(ranks_t[k], d, ranks_t[k + 1]) for k, d in enumerate(dims_t)]
        need = header + 8 * sum(prod(shape) for shape in shapes)
        if need != size:
            raise ShapeError(f"TT file has {size} bytes, its header implies {need}")
        cores = [
            TTCore(read(prod(shape), "<f8", f"core {k}").copy().reshape(shape, order="F"))
            for k, shape in enumerate(shapes)
        ]
    return TTTensor(cores)
