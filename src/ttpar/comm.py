"""SPMD transport contract with a deterministic in-process simulator.

Kernels talk to a tiny `Communicator` surface: ``sendrecv`` (two-sided
rendezvous exchange), ``allreduce_sum``, and ``broadcast``.  Payloads are raw
float64 arrays; there are no tags or envelopes, so matching is purely by
program order per peer pair -- which is exactly what makes the simulated
backend able to detect mismatched calls instead of silently reordering them.

Backends:

* `SerialComm` -- size 1, no-op collectives.
* `SimComm` -- P rank bodies run as threads in one process (see `run_spmd`).
  Results are bitwise deterministic: reductions are evaluated once, in rank
  order, by whichever thread triggers the collective.  Unmatched traffic
  fails fast with a diagnostic instead of hanging.
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
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil, log2

import numpy as np

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

    @property
    def current_phase(self) -> str:
        return self._stack[-1]

    @contextmanager
    def phase(self, name: str):
        self._tick()
        self._stack.append(name)
        try:
            yield self
        finally:
            self._tick()
            self._stack.pop()

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


def _as_payload(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.issubdtype(arr.dtype, np.floating):  # pragma: no cover - asarray coerces
        raise ContractError("payloads must be float64 arrays")
    return arr


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


class SerialComm(Communicator):
    """The one-rank communicator; collectives copy, exchanges are errors."""

    size = 1
    rank = 0

    def __init__(self):
        self.trace = Trace()

    def sendrecv(self, peer, payload):
        self._check_peer(peer)  # always raises: no valid peer exists

    def allreduce_sum(self, payload):
        return _as_payload(payload).copy()

    def broadcast(self, payload, root: int = 0):
        if root != 0:
            raise ContractError(f"root {root} out of range for 1 rank")
        return _as_payload(payload).copy()


class _SimGroup:
    """Shared state for one simulated SPMD group."""

    def __init__(self, nranks: int, timeout: float):
        if nranks < 1:
            raise ContractError("need at least one rank")
        self.size = nranks
        self.timeout = timeout
        self._cv = threading.Condition()
        self._boxes = {}
        self._aborted = False
        self._abort_origin = None
        # Collective machinery: one reusable barrier; the action thread
        # validates matching calls and computes the result exactly once.
        self._slots = [None] * nranks
        self._tags = [None] * nranks
        self._result = None
        self._coll_error = None
        self._barrier = threading.Barrier(nranks, action=self._combine)
        self.comms = [SimComm(self, p) for p in range(nranks)]

    def abort(self, origin: int) -> None:
        with self._cv:
            self._aborted = True
            if self._abort_origin is None:
                self._abort_origin = origin
            self._cv.notify_all()
        self._barrier.abort()

    def _combine(self) -> None:
        tags = self._tags
        if any(t != tags[0] for t in tags[1:]):
            self._coll_error = ContractError(
                f"mismatched collectives: per-rank (call#, kind, length, root) = {tags}"
            )
            raise self._coll_error
        kind, root = tags[0][1], tags[0][3]
        if kind == "allreduce_sum":
            acc = self._slots[0].astype(np.float64, copy=True)
            for s in self._slots[1:]:
                acc = acc + s  # fixed rank-ascending order: bitwise reproducible
            self._result = acc
        else:
            self._result = self._slots[root].copy()

    def collective(self, rank: int, kind: str, payload: np.ndarray, root: int) -> np.ndarray:
        comm = self.comms[rank]
        self._slots[rank] = payload
        self._tags[rank] = (comm._coll_seq, kind, payload.size, root)
        comm._coll_seq += 1
        try:
            self._barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            err = self._coll_error
            if err is not None:
                raise ContractError(str(err)) from None
            if self._aborted:
                raise ContractError(
                    f"group aborted by rank {self._abort_origin} during a collective"
                ) from None
            raise DeadlockError(
                f"rank {rank}: collective {kind!r} (call #{comm._coll_seq - 1}) timed out "
                f"after {self.timeout}s; some rank never joined"
            ) from None
        return self._result.copy()

    def exchange(self, rank: int, peer: int, payload: np.ndarray) -> np.ndarray:
        comm = self.comms[rank]
        seq = comm._pair_seq[peer]
        comm._pair_seq[peer] += 1
        key_out = (rank, peer, seq)
        key_in = (peer, rank, seq)
        deadline = time.monotonic() + self.timeout
        with self._cv:
            self._boxes[key_out] = payload.copy()
            self._cv.notify_all()
            while key_in not in self._boxes:
                if self._aborted:
                    raise ContractError(
                        f"group aborted by rank {self._abort_origin} during sendrecv"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cv.wait(remaining):
                    pending = sorted(self._boxes)
                    raise DeadlockError(
                        f"rank {rank}: sendrecv with peer {peer} (exchange #{seq}) "
                        f"timed out after {self.timeout}s; undelivered "
                        f"(src, dst, #) boxes: {pending}"
                    )
            return self._boxes.pop(key_in)


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
        got = self._group.exchange(self.rank, peer, arr)
        self.trace.add_message(arr.size)
        return got

    def allreduce_sum(self, payload):
        arr = _as_payload(payload)
        out = self._group.collective(self.rank, "allreduce_sum", arr, 0)
        self._charge_collective(arr.size)
        return out

    def broadcast(self, payload, root: int = 0):
        root = int(root)
        if not 0 <= root < self.size:
            raise ContractError(f"root {root} out of range for {self.size} ranks")
        arr = _as_payload(payload)
        out = self._group.collective(self.rank, "broadcast", arr, root)
        self._charge_collective(out.size)
        return out


@dataclass
class SpmdRun:
    """Outcome of `run_spmd`: one result and one trace per rank."""

    results: list
    traces: list = field(default_factory=list)


def run_spmd(nranks: int, body, *, timeout: float = 60.0) -> SpmdRun:
    """Run ``body(comm)`` on ``nranks`` simulated ranks (threads).

    An exception on any rank aborts the group; the originating exception is
    re-raised in the caller (peers' secondary abort/timeout errors are
    suppressed in its favor).
    """
    group = _SimGroup(nranks, timeout)
    results = [None] * nranks
    errors = [None] * nranks

    def runner(p):
        try:
            results[p] = body(group.comms[p])
        except BaseException as e:  # noqa: BLE001 - must ferry everything across threads
            errors[p] = e
            group.abort(p)
        finally:
            group.comms[p].trace.freeze()

    threads = [threading.Thread(target=runner, args=(p,), daemon=True) for p in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    root_cause = None
    for e in errors:
        if e is None:
            continue
        if root_cause is None or (not _is_secondary(e) and _is_secondary(root_cause)):
            root_cause = e
    if root_cause is not None:
        raise root_cause
    return SpmdRun(results, [c.trace for c in group.comms])


def _is_secondary(e: BaseException) -> bool:
    return isinstance(e, ContractError) and "aborted by rank" in str(e)


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
