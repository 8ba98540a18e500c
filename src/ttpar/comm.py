"""SPMD transport contract with a deterministic in-process simulator.

Kernels talk to a tiny `Communicator` surface: ``sendrecv`` (two-sided
rendezvous exchange), ``allreduce_sum``, and ``broadcast``.  Payloads are raw
float64 arrays; there are no tags or envelopes, so matching is purely by
program order, per peer pair for exchanges and per group for collectives --
which is exactly what makes the simulated backend able to detect mismatched
calls instead of silently reordering them.

Backends:

* `SimComm` -- P rank bodies run as threads in one process (see `run_spmd`).
  Results are bitwise deterministic: each rank adds the payloads in rank
  order.  Unmatched traffic fails fast with a diagnostic instead of hanging.
* `SerialComm` -- the one-rank group: collectives copy, exchanges are errors.
* `MPICommunicator` -- thin optional adapter over mpi4py for real runs.

Every communicator carries a `Trace` that accumulates flops, words, messages,
and seconds per phase.  The simulator charges collectives recursive-doubling
costs: ceil(log2 P) messages and that many times the payload in words, per
rank.  Point-to-point exchanges charge one message of the sent length.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from math import ceil, log2

import numpy as np

from ._kernels import blas_threads_per_rank
from .errors import CapabilityError, ContractError, DeadlockError


@dataclass
class CostModelParams:
    """Machine parameters: seconds per flop / word / message."""

    gamma: float = 1e-9
    beta: float = 4e-9
    alpha: float = 1e-6

    def __post_init__(self):
        if min(self.gamma, self.beta, self.alpha) < 0:
            raise ContractError("cost parameters must be nonnegative")

    def seconds(self, flops: float, words: float, messages: float) -> float:
        return self.gamma * flops + self.beta * words + self.alpha * messages


def _check_count(name: str, value) -> int:
    """A rank count P or a rank cap is an integer >= 1."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ContractError(f"{name} must be >= 1, got {value}")
    return int(value)


def _log2_ceil(p: int) -> int:
    return 0 if p <= 1 else int(ceil(log2(p)))


class Trace:
    """Per-rank counters (flops, words, messages, seconds) keyed by phase.

    Seconds are *exclusive*: entering a nested phase stops the clock of the
    enclosing one, so per-phase times add up to the wall time between
    `reset()` and `freeze()` with no double counting.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.flops = defaultdict(float)
        self.words = defaultdict(float)
        self.messages = defaultdict(float)
        self.seconds = defaultdict(float)
        self._stack = ["Other"]
        self._mark = time.perf_counter()

    def _tick(self) -> None:
        now = time.perf_counter()
        self.seconds[self._stack[-1]] += now - self._mark
        self._mark = now

    def phase(self, name: str) -> "_Phase":
        """A context manager that charges its block to phase ``name``."""
        return _Phase(self, name)

    def freeze(self) -> None:
        """Close the open interval so `seconds` reflects work done so far."""
        self._tick()

    def add_flops(self, n: float) -> None:
        self.flops[self._stack[-1]] += n

    def add_message(self, words: float, messages: float = 1.0) -> None:
        self.words[self._stack[-1]] += words
        self.messages[self._stack[-1]] += messages

    def total(self, counter: str) -> float:
        return float(sum(getattr(self, counter).values()))

    def rows(self):
        """``(phase, seconds, flops, words, messages)`` per touched phase."""
        phases = sorted(
            set(self.flops) | set(self.words) | set(self.messages) | set(self.seconds)
        )
        return [
            (
                ph,
                self.seconds.get(ph, 0.0),
                self.flops.get(ph, 0.0),
                self.words.get(ph, 0.0),
                self.messages.get(ph, 0.0),
            )
            for ph in phases
        ]


class _Phase:
    """`Trace.phase`'s context: a slotted class, which a sweep enters several
    times per step at a fraction of a generator context manager's cost.  An
    exception leaving the block still closes the phase."""

    __slots__ = ("trace", "name")

    def __init__(self, trace: Trace, name: str):
        self.trace, self.name = trace, name

    def __enter__(self) -> Trace:
        tr = self.trace
        tr._tick()
        tr._stack.append(self.name)
        return tr

    def __exit__(self, *exc) -> None:
        tr = self.trace
        tr._tick()
        tr._stack.pop()


def _as_payload(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Communicator:
    """Abstract transport: P ranks, rendezvous exchange, two collectives."""

    size: int
    rank: int
    trace: Trace

    def sendrecv(self, peer: int, payload) -> np.ndarray:
        raise NotImplementedError

    def allreduce_sum(self, payload) -> np.ndarray:
        raise NotImplementedError

    def broadcast(self, payload, root: int = 0) -> np.ndarray:
        raise NotImplementedError

    def _check_peer(self, peer: int) -> int:
        peer = int(peer)
        if not 0 <= peer < self.size:
            raise ContractError(f"peer {peer} out of range for {self.size} ranks")
        if peer == self.rank:
            raise ContractError("self-exchange is not allowed")
        return peer

    def _charge_collective(self, size: int) -> None:
        rounds = _log2_ceil(self.size)
        self.trace.add_message(size * rounds, rounds)


class _GroupAbort(ContractError):
    """A peer's abort seen at a rendezvous: secondary to that peer's error."""


class _SimGroup:
    """One simulated SPMD group: P ranks that meet at one mailbox.

    Every blocking call of a `SimComm` is a `rendezvous`: the rank posts its
    outgoing boxes, keyed ``(src, dst, channel, #)``, and waits under the
    group's single condition until its incoming boxes are there.  Exchanges
    and collectives number their calls on separate channels, per peer pair
    and per rank respectively, so matching is by program order on each.
    """

    def __init__(self, nranks: int, timeout: float):
        self.size = _check_count("P", nranks)
        self.timeout = timeout
        self._cv = threading.Condition()
        self._boxes = {}
        self._abort_origin = None

    def abort(self, origin: int) -> None:
        with self._cv:
            if self._abort_origin is None:
                self._abort_origin = origin
            self._cv.notify_all()

    def rendezvous(self, out: dict, keys: list, what: str) -> list:
        """Post the boxes of ``out``, then take the payloads under ``keys``
        (all ``(src, me, channel, #)`` of one call ``what``)."""
        boxes = self._boxes
        with self._cv:
            boxes.update(out)
            self._cv.notify_all()
            ready = lambda: self._abort_origin is not None or all(map(boxes.__contains__, keys))
            if not self._cv.wait_for(ready, self.timeout):
                missing = ", ".join(f"peer {k[0]}" for k in keys if k not in boxes)
                raise DeadlockError(
                    f"rank {keys[0][1]}: {what} call #{keys[0][3]} timed out after "
                    f"{self.timeout}s waiting on {missing}; undelivered "
                    f"(src, dst, channel, #) boxes: {sorted(boxes)}"
                )
            if self._abort_origin is not None:
                raise _GroupAbort(
                    f"group aborted by rank {self._abort_origin} during {what} "
                    f"call #{keys[0][3]}"
                )
            return [boxes.pop(k) for k in keys]


class SimComm(Communicator):
    """One rank's endpoint of a simulated group (see `run_spmd`)."""

    def __init__(self, group: _SimGroup, rank: int):
        self._group = group
        self.rank = rank
        self.size = group.size
        self.trace = Trace()
        self._pair_seq = defaultdict(int)
        self._coll_seq = 0

    def sendrecv(self, peer, payload):
        peer = self._check_peer(peer)
        arr = _as_payload(payload)
        me, n = self.rank, self._pair_seq[peer]
        self._pair_seq[peer] = n + 1
        (got,) = self._group.rendezvous(
            {(me, peer, "sendrecv", n): arr.copy()}, [(peer, me, "sendrecv", n)], "sendrecv"
        )
        self.trace.add_message(arr.size)
        return got

    def allreduce_sum(self, payload):
        arr = _as_payload(payload)
        got = self._collective("allreduce_sum", arr, 0, arr.size)
        acc = got[0].copy()
        for g in got[1:]:
            acc += g  # fixed rank-ascending order: bitwise reproducible
        self._charge_collective(arr.size)
        return acc

    def broadcast(self, payload, root: int = 0):
        root = int(root)
        if not 0 <= root < self.size:
            raise ContractError(f"root {root} out of range for {self.size} ranks")
        # non-root payloads are ignored, so their lengths need not match
        out = self._collective("broadcast", _as_payload(payload), root, None)[root].copy()
        self._charge_collective(out.size)
        return out

    def _collective(self, kind: str, arr: np.ndarray, root: int, length) -> list:
        """Every rank's payload, in rank order, once all tags agree.

        Each rank posts one copy, since it may return before its peers have
        read it, with its ``(call#, kind, length, root)`` tag to every rank;
        ``length`` is None where payload lengths need not agree.
        """
        me, n = self.rank, self._coll_seq
        self._coll_seq = n + 1
        tag = (n, kind, length, root)
        box = (tag, arr.copy())
        got = self._group.rendezvous(
            {(me, p, "collective", n): box for p in range(self.size)},
            [(p, me, "collective", n) for p in range(self.size)],
            kind,
        )
        if any(t != tag for t, _ in got):
            tags = [t for t, _ in got]
            raise ContractError(
                f"mismatched collectives: per-rank (call#, kind, length, root) = {tags}"
            )
        return [a for _, a in got]


class SerialComm(SimComm):
    """The one-rank communicator: the only rank of its own simulated group."""

    def __init__(self):
        super().__init__(_SimGroup(1, 0.0), 0)


@dataclass
class SpmdRun:
    """Outcome of `run_spmd`: one result and one trace per rank."""

    results: list
    traces: list = field(default_factory=list)


def run_spmd(nranks: int, body, *, timeout: float = 60.0) -> SpmdRun:
    """Run ``body(comm)`` on ``nranks`` simulated ranks (threads).

    While the group runs, every loaded OpenBLAS gets max(1, cores // nranks)
    threads unless the user has set ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` (`_kernels.blas_threads_per_rank`); the previous
    counts are restored afterwards.

    An exception on any rank aborts the group; the originating exception is
    re-raised in the caller (peers' secondary abort/timeout errors are
    suppressed in its favor).
    """
    group = _SimGroup(nranks, timeout)
    comms = [SimComm(group, p) for p in range(nranks)]
    results = [None] * nranks
    errors = [None] * nranks

    def runner(p):
        try:
            results[p] = body(comms[p])
        except BaseException as e:  # noqa: BLE001 - must ferry everything across threads
            errors[p] = e
            group.abort(p)
        finally:
            comms[p].trace.freeze()

    threads = [threading.Thread(target=runner, args=(p,), daemon=True) for p in range(nranks)]
    with blas_threads_per_rank(nranks):
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    raised = [e for e in errors if e is not None]
    if raised:  # the first error that is not a peer's abort, else the first
        raise next((e for e in raised if not isinstance(e, _GroupAbort)), raised[0])
    return SpmdRun(results, [c.trace for c in comms])


class MPICommunicator(Communicator):
    """Adapter over an mpi4py communicator (optional runtime backend).

    Reductions use buffered ``Allreduce``; ``sendrecv``/``broadcast`` use the
    pickling API since raw payload shapes are not self-describing.  Intended
    for real runs launched with mpirun; the simulated backend remains the
    reference for message traces and determinism checks.
    """

    def __init__(self, mpi_comm=None):
        try:
            from mpi4py import MPI
        except ImportError as e:  # pragma: no cover - optional dependency
            raise CapabilityError("mpi4py is not installed; use the simulated backend") from e
        self._MPI = MPI
        self._comm = MPI.COMM_WORLD if mpi_comm is None else mpi_comm
        self.size = self._comm.Get_size()
        self.rank = self._comm.Get_rank()
        self.trace = Trace()

    def sendrecv(self, peer, payload):
        peer = self._check_peer(peer)
        arr = _as_payload(payload)
        got = self._comm.sendrecv(arr, dest=peer, source=peer)
        self.trace.add_message(arr.size)
        return np.asarray(got, dtype=np.float64)

    def allreduce_sum(self, payload):
        arr = np.ascontiguousarray(_as_payload(payload))
        out = np.empty_like(arr)
        self._comm.Allreduce(arr, out, op=self._MPI.SUM)
        self._charge_collective(arr.size)
        return out

    def broadcast(self, payload, root: int = 0):
        root = int(root)
        if not 0 <= root < self.size:
            raise ContractError(f"root {root} out of range for {self.size} ranks")
        arr = _as_payload(payload) if self.rank == root else None
        got = self._comm.bcast(arr, root=root)
        out = np.asarray(got, dtype=np.float64)
        self._charge_collective(out.size)
        return out
