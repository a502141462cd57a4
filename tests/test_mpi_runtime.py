"""Tests for the SPMD runtime itself: scheduling, clocks, failure modes."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.backoff import FLOCK_WAIT
from repro.mpi.errors import InternalError, OpTimeoutError, RMAConflictError
from repro.mpi.runtime import Runtime, current_proc, spmd_run
from repro.simtime import MPITimingPolicy, PathModel

from conftest import spmd
from test_backend_proc import _curve_probes


def test_current_proc_outside_spmd_raises():
    with pytest.raises(InternalError):
        current_proc()


def test_spmd_returns_per_rank_results():
    assert spmd_run(5, lambda comm: comm.rank * 10) == [0, 10, 20, 30, 40]


def test_runtime_requires_positive_nproc():
    with pytest.raises(InternalError):
        Runtime(0)


def test_single_rank_runtime():
    def main(comm):
        assert comm.size == 1 and comm.rank == 0
        comm.barrier()
        assert comm.allgather("x") == ["x"]
        return "done"

    assert spmd(1, main) == ["done"]


def test_exception_propagates_original_type():
    class Boom(RuntimeError):
        pass

    def main(comm):
        if comm.rank == 2:
            raise Boom("rank 2 died")
        comm.barrier()

    with pytest.raises(Boom):
        spmd(3, main, watchdog_s=0.3)


def test_clocks_start_at_zero_and_accumulate():
    rt = Runtime(2)
    path = PathModel(
        name="t", latency=1e-6, bw_small=1e9, bw_large=1e9,
        bw_threshold=1 << 20, acc_rate=1e9, seg_overhead=0.0, pack_rate=1e9,
    )
    rt.timing = MPITimingPolicy(path)

    def main(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1000, dtype=np.uint8), dest=1)
        else:
            comm.recv(np.zeros(1000, dtype=np.uint8), source=0)
        return current_proc().clock.now

    times = rt.spmd(main)
    # sender: latency + 1000/1e9; receiver charges on recv completion
    assert times[0] == pytest.approx(1e-6 + 1e-6)
    assert times[1] == pytest.approx(1e-6 + 1e-6)
    assert rt.max_clock() == max(times)


def test_no_timing_policy_means_zero_clocks():
    def main(comm):
        comm.barrier()
        comm.allreduce(np.array([1.0]))
        return current_proc().clock.now

    assert spmd(3, main) == [0.0, 0.0, 0.0]


def test_barrier_synchronises_clocks():
    rt = Runtime(2)
    path = PathModel(
        name="t", latency=1e-3, bw_small=1e9, bw_large=1e9,
        bw_threshold=1, acc_rate=1e9, seg_overhead=0.0, pack_rate=1e9,
    )
    rt.timing = MPITimingPolicy(path)

    def main(comm):
        if comm.rank == 0:
            # rank 0 does extra charged work before the barrier
            for _ in range(5):
                comm.send(b"", dest=1, tag=1)
        else:
            for _ in range(5):
                comm.recv(source=0, tag=1)
        comm.barrier()
        return current_proc().clock.now

    times = rt.spmd(main)
    assert times[0] == pytest.approx(times[1])


def test_shared_state_dict_is_per_runtime():
    r1, r2 = Runtime(1), Runtime(1)
    r1.shared["k"] = 1
    assert "k" not in r2.shared


@settings(max_examples=15, deadline=None)
@given(nproc=st.integers(1, 6), seed=st.integers(0, 1000))
def test_collectives_correct_for_any_nproc(nproc, seed):
    """Property: reductions match NumPy for arbitrary rank counts."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-100, 100, size=nproc)

    def main(comm):
        v = np.array([values[comm.rank]], dtype="i8")
        total = comm.allreduce(v, op="MPI_SUM")
        lo = comm.allreduce(v, op="MPI_MIN")
        hi = comm.allreduce(v, op="MPI_MAX")
        return int(total[0]), int(lo[0]), int(hi[0])

    results = spmd(nproc, main)
    expect = (int(values.sum()), int(values.min()), int(values.max()))
    assert all(r == expect for r in results)


def test_watchdog_does_not_fire_on_slow_but_live_rank():
    """One rank computing while others wait must NOT trip the watchdog."""

    def main(comm):
        if comm.rank == 0:
            # stay busy (not blocked) well past the watchdog interval
            import time

            deadline = time.monotonic() + 0.5
            x = 0
            while time.monotonic() < deadline:
                x += 1
        comm.barrier()
        return True

    assert all(spmd(3, main, watchdog_s=0.15))


def test_strict_error_in_epoch_propagates_cleanly():
    """An RMA conflict on one rank fails the whole run with that error."""

    def main(comm):
        local = np.zeros(8)
        win = mpi.Win.create(comm, local)
        if comm.rank == 0:
            win.lock(1)
            win.put(np.ones(2), 1)
            win.put(np.ones(2), 1)  # conflict -> raises
            win.unlock(1)
        comm.barrier()

    with pytest.raises((RMAConflictError, mpi.RankFailedError)):
        spmd(2, main, watchdog_s=0.3)



def _poll_wait_body(comm, ready_after, timeout_s):
    """Wait with ``poll=FLOCK_WAIT`` for a predicate only the clock makes
    true (``ready_after`` seconds in; never, if None), on a runtime whose
    every sleep is cut short after at most 0.1 ms, as a notification would
    cut it.  Returns the wait's value (or the error's type), how long it
    took, how many tries it made counting the caller's first, and how many
    times it slept."""
    rt = comm.runtime
    tries, sleeps = [], []

    def attempt():
        tries.append(None)
        if ready_after is not None and time.monotonic() - t0 >= ready_after:
            return "granted"
        return None

    def woken_early(timeout):
        sleeps.append(timeout)
        time.sleep(min(timeout, 0.0001))
        return True

    rt.sleep = woken_early
    t0 = time.monotonic()
    try:
        with rt.cond:
            value = attempt() or rt.wait_for(
                attempt, timeout_s=timeout_s, what="poll", poll=FLOCK_WAIT
            )
    except OpTimeoutError as exc:
        value = type(exc).__name__
    return value, time.monotonic() - t0, len(tries), len(sleeps)


def test_a_poll_wait_returns_the_value_and_keeps_to_its_curve():
    """A notification wakes a poll wait early but does not bring its next
    try forward: the tries stay within the curve's bound for the wait,
    however often the sleeps between them were cut short."""
    value, waited, tries, sleeps = Runtime(1).spmd(_poll_wait_body, 0.01, None)[0]
    assert value == "granted" and waited >= 0.01
    assert tries <= _curve_probes(waited), (tries, waited)
    assert sleeps > tries


def test_a_poll_wait_times_out_on_the_curve():
    value, waited, tries, _ = Runtime(1).spmd(_poll_wait_body, None, 0.05)[0]
    assert value == "OpTimeoutError"
    assert 0.05 <= waited <= 0.05 + FLOCK_WAIT.cap + 0.05, waited
    assert tries <= _curve_probes(waited), (tries, waited)
