"""Tests for the simulated communicator: determinism, diagnostics, counters."""

import shutil
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from tests_support import child_env
from ttpar.comm import CostModelParams, SerialComm, Trace, run_spmd
from ttpar.errors import ContractError, DeadlockError


def test_sendrecv_exchanges_payloads():
    """Pairwise exchange delivers the peer's payload, preserving shape."""

    def body(comm):
        peer = comm.rank ^ 1
        got = comm.sendrecv(peer, np.full((2, 3), float(comm.rank)))
        assert got.shape == (2, 3)
        return got[0, 0]

    run = run_spmd(4, body)
    assert run.results == [1.0, 0.0, 3.0, 2.0]


def test_sendrecv_ordering_is_by_program_order():
    """Two back-to-back exchanges with the same peer stay in order."""

    def body(comm):
        peer = 1 - comm.rank
        a = comm.sendrecv(peer, np.array([10.0 + comm.rank]))
        b = comm.sendrecv(peer, np.array([20.0 + comm.rank]))
        return float(a[0]), float(b[0])

    run = run_spmd(2, body)
    assert run.results[0] == (11.0, 21.0)
    assert run.results[1] == (10.0, 20.0)


def test_allreduce_sum_bitwise_deterministic():
    """The reduction equals a sequential left-to-right sum, on every rank."""
    nr = 5
    rng = np.random.default_rng(3)
    payloads = [rng.standard_normal(7) for _ in range(nr)]
    expect = payloads[0].copy()
    for p in payloads[1:]:
        expect = expect + p

    def body(comm):
        return comm.allreduce_sum(payloads[comm.rank])

    for _ in range(3):  # run-to-run determinism across thread schedules
        run = run_spmd(nr, body)
        for r in run.results:
            assert np.array_equal(r, expect)


def test_broadcast_delivers_root_payload():
    """Non-root payloads are ignored; everyone gets the root's array."""

    def body(comm):
        mine = np.full(3, float(comm.rank))
        return comm.broadcast(mine, root=2)

    run = run_spmd(4, body)
    for r in run.results:
        assert np.array_equal(r, np.full(3, 2.0))


def test_broadcast_ignores_non_root_lengths():
    """The MPI smoke test's broadcast: non-root payloads of any length."""

    def body(comm):
        return comm.broadcast(np.arange(4.0) if comm.rank == 0 else np.zeros(1), root=0)

    run = run_spmd(2, body)
    for r in run.results:
        assert np.array_equal(r, np.arange(4.0))
    assert [t.total("words") for t in run.traces] == [4.0, 4.0]


def test_self_exchange_rejected():
    """sendrecv with yourself is a contract error."""

    def body(comm):
        with pytest.raises(ContractError):
            comm.sendrecv(comm.rank, np.zeros(1))
        with pytest.raises(ContractError):
            comm.sendrecv(comm.size + 3, np.zeros(1))
        return True

    assert all(run_spmd(2, body).results)


def test_rank_count_must_be_an_integer_of_at_least_one():
    """run_spmd applies the rank-count rule the cost model applies to P."""
    for nranks in (0, -1, 2.5, True):
        with pytest.raises(ContractError, match="^P must be"):
            run_spmd(nranks, lambda comm: None)


def test_unmatched_sendrecv_deadlocks_with_diagnostic():
    """A lone sendrecv times out with a message naming the stuck endpoints."""

    def body(comm):
        if comm.rank == 0:
            comm.sendrecv(1, np.zeros(4))
        return None

    with pytest.raises(DeadlockError, match="peer 1"):
        run_spmd(2, body, timeout=0.3)


def test_mismatched_collectives_fail_fast():
    """allreduce on one rank vs broadcast on another is a contract error."""

    def body(comm):
        if comm.rank == 0:
            comm.allreduce_sum(np.zeros(2))
        else:
            comm.broadcast(np.zeros(2), root=0)

    with pytest.raises(ContractError, match="mismatched collectives"):
        run_spmd(2, body, timeout=2.0)


def test_mismatched_lengths_fail_fast():
    """Same collective, different payload lengths -> contract error."""

    def body(comm):
        comm.allreduce_sum(np.zeros(2 + comm.rank))

    with pytest.raises(ContractError, match="mismatched"):
        run_spmd(2, body, timeout=2.0)


def test_unmatched_collective_deadlocks_with_diagnostic():
    """A collective no peer joins times out naming the call and its number."""

    def body(comm):
        comm.allreduce_sum(np.zeros(1))
        if comm.rank == 0:
            comm.allreduce_sum(np.zeros(2))

    with pytest.raises(DeadlockError, match=r"allreduce_sum call #1 .*waiting on peer 1"):
        run_spmd(2, body, timeout=0.3)


def test_mismatched_broadcast_roots_fail_fast():
    """Same broadcast, different roots -> contract error."""

    def body(comm):
        comm.broadcast(np.zeros(2), root=0 if comm.rank < 2 else 1)

    with pytest.raises(ContractError, match="mismatched"):
        run_spmd(3, body, timeout=2.0)


def test_collective_results_survive_payload_overwrites():
    """Each rank overwrites its payload with NaN as soon as a call returns,
    possibly before its peers have read it; every result stays exact."""
    P = 3

    def body(comm):
        bad = 0
        for i in range(500):
            a = np.full(3, float(i + comm.rank))
            total = comm.allreduce_sum(a)
            a[:] = np.nan
            b = np.full(3, float(P * i + comm.rank))
            got = comm.broadcast(b, root=i % P)
            b[:] = np.nan
            bad += not np.array_equal(total, np.full(3, float(P * i + P * (P - 1) // 2)))
            bad += not np.array_equal(got, np.full(3, float(P * i + i % P)))
        return bad

    assert run_spmd(P, body).results == [0] * P


def test_sendrecv_and_collectives_interleave_in_program_order():
    """Exchanges and collectives mixed in one program keep their order, also
    when one pair exchanges more often than another between collectives."""

    def body(comm):
        got = []
        for i in range(30):
            peer = comm.rank ^ (1 << (i % 2))
            repeats = 1 + i % 3 if comm.rank < 2 and peer < 2 else 1
            for j in range(repeats):
                got.append(comm.sendrecv(peer, np.array([100.0 * i + 10 * j + comm.rank]))[0])
            got.append(comm.allreduce_sum(np.array([float(i + comm.rank)]))[0])
        return got

    for rank, got in enumerate(run_spmd(4, body).results):
        want = []
        for i in range(30):
            peer = rank ^ (1 << (i % 2))
            repeats = 1 + i % 3 if rank < 2 and peer < 2 else 1
            want += [100.0 * i + 10 * j + peer for j in range(repeats)]
            want.append(4.0 * i + 6)
        assert got == want


def test_rank_exception_propagates_as_root_cause():
    """A crash on one rank surfaces to the caller, not the peers' timeouts."""

    def body(comm):
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        comm.allreduce_sum(np.zeros(1))

    with pytest.raises(ValueError, match="boom on rank 1"):
        run_spmd(3, body, timeout=5.0)


def test_own_error_is_the_root_cause_even_when_it_reads_like_an_abort():
    """A body's own ContractError on a higher rank is re-raised, not a lower
    rank's secondary abort, though its message names an abort by rank."""

    def body(comm):
        if comm.rank == 2:
            raise ContractError("job aborted by rank policy")
        comm.allreduce_sum(np.zeros(1))

    with pytest.raises(ContractError, match="^job aborted by rank policy$") as info:
        run_spmd(3, body, timeout=5.0)
    assert type(info.value) is ContractError


def test_counters_charge_documented_costs():
    """sendrecv: 1 msg / sent words.  Collectives: ceil(log2 P) rounds."""

    def body(comm):
        if comm.rank in (0, 1):
            comm.sendrecv(comm.rank ^ 1, np.zeros(5))
        else:
            pass
        comm.allreduce_sum(np.zeros((3, 3)))
        return None

    run = run_spmd(5, body)  # ceil(log2 5) = 3
    t0 = run.traces[0]
    assert t0.total("messages") == 1 + 3
    assert t0.total("words") == 5 + 9 * 3
    t4 = run.traces[4]
    assert t4.total("messages") == 3
    assert t4.total("words") == 9 * 3


def test_serial_comm_collectives_are_copies():
    """P=1: collectives return copies, exchanges are contract errors."""
    comm = SerialComm()
    x = np.arange(3.0)
    y = comm.allreduce_sum(x)
    assert np.array_equal(x, y) and y is not x
    z = comm.broadcast(x)
    assert np.array_equal(x, z) and z is not x
    with pytest.raises(ContractError):
        comm.sendrecv(0, x)
    assert comm.trace.total("messages") == 0.0


def test_trace_phases_and_exclusive_seconds():
    """Counters key by innermost phase; seconds never double count."""
    tr = Trace()
    tr.add_flops(5)
    with tr.phase("TSQR"):
        tr.add_flops(100)
        tr.add_message(8)
        with tr.phase("AppQ"):
            tr.add_flops(7)
    tr.add_flops(1)
    tr.freeze()
    assert tr.flops == {"Other": 6, "TSQR": 100, "AppQ": 7}
    assert tr.messages == {"TSQR": 1}
    assert tr.total("flops") == 113
    total = tr.total("seconds")
    assert total >= 0 and abs(sum(s for _, s, *_ in tr.rows()) - total) < 1e-12


def test_trace_phase_closes_on_exception():
    """A phase left by an exception still charges its seconds and pops, so
    later counters key by the enclosing phase again."""
    tr = Trace()
    with pytest.raises(ZeroDivisionError):
        with tr.phase("TSQR"):
            tr.add_flops(3)
            time.sleep(0.002)
            1 / 0
    tr.add_flops(1)
    with tr.phase("AppQ") as got:
        assert got is tr
    tr.freeze()
    assert tr.flops == {"TSQR": 3, "Other": 1}
    assert tr.seconds["TSQR"] >= 0.002
    assert tr._stack == ["Other"]


def test_cost_model_params():
    """Time = gamma*flops + beta*words + alpha*messages; negatives rejected."""
    p = CostModelParams(gamma=2.0, beta=3.0, alpha=5.0)
    assert p.seconds(1, 1, 1) == 10.0
    with pytest.raises(ContractError):
        CostModelParams(gamma=-1.0)


@pytest.mark.skipif(shutil.which("mpirun") is None, reason="mpirun not available")
def test_mpi_backend_smoke():
    """Two real MPI ranks: allreduce and sendrecv agree with the contract."""
    script = textwrap.dedent(
        """
        import numpy as np
        from ttpar.comm import MPICommunicator
        c = MPICommunicator()
        assert c.size == 2
        s = c.allreduce_sum(np.full(3, float(c.rank + 1)))
        assert np.array_equal(s, np.full(3, 3.0)), s
        got = c.sendrecv(1 - c.rank, np.full(2, float(c.rank)))
        assert np.array_equal(got, np.full(2, float(1 - c.rank))), got
        b = c.broadcast(np.arange(4.0) if c.rank == 0 else np.zeros(1), root=0)
        assert np.array_equal(b, np.arange(4.0)), b
        print("MPI-OK-rank", c.rank)
        """
    )
    # the children import the same ttpar as this process, installed or not
    cmd = [
        "mpirun", "--allow-run-as-root", "--oversubscribe", "-x", "PYTHONPATH", "-n", "2",
        sys.executable, "-c", script,
    ]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=child_env())
    except subprocess.TimeoutExpired:
        pytest.skip("mpirun timed out in this environment")
    if out.returncode != 0 and "MPI-OK" not in out.stdout:
        launch_noise = ("There are not enough slots", "mca_base", "orte", "prte")
        if any(s in out.stderr for s in launch_noise):
            pytest.skip(f"mpirun cannot launch here: {out.stderr[:200]}")
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("MPI-OK-rank") == 2
