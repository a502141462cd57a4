"""Deterministic schedule fuzzer tests.

The properties under test, in order: (1) the same seed reproduces the
same run bit-identically (digest over trace + clocks + violations +
error); (2) the ordering-sensitive protocols of the paper — §V-D mutex
handoff, the two-epoch mutex-based RMW, §V-B GMR free leader election —
stay correct and sanitizer-clean under perturbed schedules; (3) a
genuinely schedule-dependent bug is *found* by a seed sweep and the
failing seed replays to the identical failure; (4) deadlock detection
under the schedule is deterministic, not watchdog-based.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import Armci
from repro.faults import FaultPlan
from repro.mpi.errors import MPIError, ProgressDeadlockError
from repro.mpi.progress import DeterministicSchedule
from repro.mpi.runtime import Runtime
from repro.mpi.window import LOCK_SHARED, Win
from repro.sanitizer.fuzz import format_reports, fuzz_schedules, run_schedule
from repro.simtime import PLATFORMS, MPITimingPolicy
from repro.simtime.clock import SimClock

INCS = 4


def _mutex_counter(comm):
    """Non-atomic increment protected by a §V-D queueing mutex."""
    armci = Armci.init(comm)
    ptrs = armci.malloc(8 if armci.my_id == 0 else 0)
    mutexes = armci.create_mutexes(1)
    armci.barrier()
    buf = np.zeros(1, dtype=np.int64)
    for _ in range(INCS):
        mutexes.lock(0, 0)
        armci.get(ptrs[0], buf, 8)
        buf[0] += 1
        armci.put(buf, ptrs[0], 8)
        mutexes.unlock(0, 0)
    armci.barrier()
    total = None
    if armci.my_id == 0:
        view = armci.access_begin(ptrs[0], 8, np.int64)
        total = int(view[0])
        armci.access_end(ptrs[0])
    armci.barrier()
    mutexes.destroy()
    armci.finalize()
    return total


def _rmw_counter(comm):
    armci = Armci.init(comm)
    ptrs = armci.malloc(8 if armci.my_id == 0 else 0)
    armci.barrier()
    for _ in range(INCS):
        armci.rmw("fetch_and_add_long", ptrs[0], 1)
    armci.barrier()
    total = None
    if armci.my_id == 0:
        view = armci.access_begin(ptrs[0], 8, np.int64)
        total = int(view[0])
        armci.access_end(ptrs[0])
    armci.barrier()
    armci.finalize()
    return total


def _shared_lock_race(comm):
    """Two origins put the same bytes under concurrent shared locks.

    Whether the epochs overlap — i.e. whether this erroneous program's
    conflict is *observable* — depends purely on the interleaving, which
    is exactly what the fuzzer exists to explore.
    """
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank < 2:
        win.lock(2, LOCK_SHARED)
        win.put(np.full(8, comm.rank, dtype=np.uint8), 2)
        win.unlock(2)


def _circular_recv(comm):
    comm.recv(source=(comm.rank + 1) % comm.size)  # nobody ever sends


# -- reproducibility ---------------------------------------------------------------


def test_same_seed_is_bit_identical():
    a = run_schedule(_mutex_counter, 3, 7)
    b = run_schedule(_mutex_counter, 3, 7)
    assert a.ok and b.ok
    assert a.digest == b.digest
    assert a.events == b.events and a.yields == b.yields
    assert a.max_clock == b.max_clock


def test_different_seeds_explore_different_interleavings():
    base = run_schedule(_mutex_counter, 3, 7)
    others = [run_schedule(_mutex_counter, 3, s) for s in (8, 9, 10)]
    assert any(r.digest != base.digest for r in others)
    # ... but every interleaving preserves mutual exclusion
    assert all(r.results[0] == 3 * INCS for r in [base] + others)


def test_jitter_reproduces_and_perturbs_clocks():
    """A plan's ``Delay`` on modeled time: the clocks move, the schedule
    does not, and the seed still replays bit-identically."""
    def run(plan=None):
        timing = MPITimingPolicy(PLATFORMS["ib"].mpi)
        return run_schedule(_rmw_counter, 3, 5, timing=timing, plan=plan)

    plan = FaultPlan(seed=5).delay(jitter_frac=0.25, latency_factor=4.0,
                                   bw_factor=0.5)
    base, a, b = run(), run(plan), run(plan)
    assert base.ok and a.ok and a.results[0] == 3 * INCS
    assert 0.0 < base.max_clock < a.max_clock
    assert a.digest == b.digest and a.max_clock == b.max_clock


# -- protocol correctness under perturbed schedules --------------------------------


def test_mutex_handoff_correct_under_fuzz():
    for r in fuzz_schedules(_mutex_counter, 3, nschedules=4):
        assert r.ok, r.error
        assert not r.violations
        assert r.results[0] == 3 * INCS


def test_mutex_based_rmw_correct_under_fuzz():
    for r in fuzz_schedules(_rmw_counter, 3, nschedules=4):
        assert r.ok, r.error
        assert not r.violations
        assert r.results[0] == 3 * INCS


def test_gmr_free_leader_election_under_fuzz():
    def body(comm):
        armci = Armci.init(comm)
        for _ in range(2):
            # zero-size slices force §V-B's NULL-pointer leader election
            ptrs = armci.malloc(8 if armci.my_id % 2 else 0)
            armci.barrier()
            armci.free(ptrs[armci.my_id] if armci.my_id % 2 else None)
        armci.finalize()
        return "ok"

    for r in fuzz_schedules(body, 4, nschedules=3):
        assert r.ok, r.error
        assert r.results == ["ok"] * 4


# -- finding and replaying a schedule-dependent failure ----------------------------


def test_seed_sweep_finds_conflict_and_replays_it_exactly():
    reports = fuzz_schedules(_shared_lock_race, 3, nschedules=40)
    failing = [r for r in reports if not r.ok]
    passing = [r for r in reports if r.ok]
    # the race is schedule-dependent: some interleavings expose it ...
    assert failing, "no seed exposed the shared-lock race"
    # ... and serialized ones hide it
    assert passing, "every seed failed; the race is not schedule-dependent"
    first = failing[0]
    assert "conflict" in first.error.lower()
    replay = run_schedule(_shared_lock_race, 3, first.seed)
    assert replay.digest == first.digest
    assert replay.error == first.error
    assert replay.violations == first.violations


def test_format_reports_carries_replay_hint():
    reports = fuzz_schedules(_circular_recv, 2, nschedules=2)
    text = format_reports(reports)
    assert "2 schedule(s): 0 ok, 2 failed" in text
    assert "replay with --seed 0 --schedules 1" in text


# -- deterministic deadlock detection ----------------------------------------------


def test_deadlock_detected_deterministically():
    a = run_schedule(_circular_recv, 2, 1)
    b = run_schedule(_circular_recv, 2, 1)
    assert not a.ok and not b.ok
    assert "ProgressDeadlockError" in a.error
    assert "seed 1" in a.error  # the error names its reproducer
    assert a.digest == b.digest


def test_deadlock_event_is_in_the_trace():
    rt = Runtime(2)
    sched = DeterministicSchedule(3)
    sched.begin_run(rt)
    with pytest.raises(MPIError) as ei:
        rt.spmd(_circular_recv)
    assert isinstance(ei.value, ProgressDeadlockError)
    assert ("deadlock",) in sched.trace


# -- plumbing ----------------------------------------------------------------------


def test_schedule_parameter_validation():
    with pytest.raises(ValueError):
        DeterministicSchedule(0, switch_prob=1.5)


def test_schedule_is_single_use():
    sched = DeterministicSchedule(0)
    sched.begin_run(Runtime(2))
    with pytest.raises(RuntimeError):
        sched.begin_run(Runtime(2))


def test_fuzz_point_is_noop_off_schedule_and_off_rank():
    rt = Runtime(2)
    rt.fuzz_point("op")  # no schedule installed
    sched = DeterministicSchedule(0)
    sched.begin_run(rt)
    rt.fuzz_point("op")  # schedule installed, but not an SPMD rank thread


def test_results_and_digest_shape():
    r = run_schedule(lambda comm: comm.rank, 3, 0)
    assert r.ok and r.results == [0, 1, 2]
    assert len(r.digest) == 64
    assert r.error is None and r.violations == []
    assert "ok" in str(r)


def test_simclock_jitter_hook_is_clamped_nonnegative():
    clock = SimClock()
    clock.jitter = lambda kind, s: 1.0
    assert clock.advance(2.0) == 3.0
    clock.jitter = lambda kind, s: -100.0  # negative extras never rewind
    assert clock.advance(1.0) == 4.0
    clock.jitter = None
    assert clock.advance(0.5) == 4.5
