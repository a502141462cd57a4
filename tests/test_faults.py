"""Fault-injection tests: the §V-D protocols under seeded failures.

Three layers:

* **plan/injector mechanics** — serialization round-trips, the builder
  API, single-use enforcement, the ambient ``pytest --faults`` hook;
* **the kill matrix** — rank death injected at *every* fuzz point of the
  mutex-handoff and GMR-free-with-NULL-slices scenarios (and a sampled
  stride of the RMW scenario) must end gracefully: either the run
  completes or it fails with a typed
  :class:`~repro.mpi.errors.TargetFailedError`, with zero sanitizer
  violations and bit-identical replay from ``(seed, plan)``;
* **graceful degradation** — deterministic mutex-holder-death recovery
  (the next waiter receives :class:`MutexHolderFailed` and owns the
  repaired mutex) and the watchdog / per-op-timeout independence fixed
  in this change: a timeout retry in flight must not trip the deadlock
  watchdog, and both knobs configure independently via constructor or
  ``REPRO_*`` environment variables.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.faults import (
    Corrupt,
    Delay,
    FaultInjector,
    FaultPlan,
    Kill,
    MutexHolderFailed,
    RECOVER_SCENARIOS,
    SCENARIOS,
    Stall,
)
from repro.faults.cli import graceful, main as faults_main
from repro.armci.mutexes import MutexSet
from repro.mpi.errors import (
    CommRevokedError,
    OpTimeoutError,
    RankKilledError,
    RetriesExhausted,
    TargetFailedError,
)
from repro.mpi.progress import DeterministicSchedule
from repro.mpi.runtime import Runtime
from repro.mpi.window import Win
from repro.sanitizer.fuzz import fuzz_schedules, run_schedule

NPROC = 3
SEED = 2012


# -- plan mechanics ----------------------------------------------------------------


def test_plan_builder_is_immutable_and_composable():
    base = FaultPlan(seed=7)
    grown = base.kill(1, 5).stall(0, 2, steps=3).corrupt(4).drop(9).delay(
        jitter_frac=0.1, latency_factor=2.0
    )
    assert base.empty and not grown.empty
    assert grown.kills == (Kill(rank=1, point=5),)
    assert grown.stalls == (Stall(rank=0, point=2, steps=3),)
    assert {c.mode for c in grown.corruptions} == {"corrupt", "drop"}
    assert grown.delays[0].latency_factor == 2.0


def test_plan_round_trips_through_json():
    plan = (
        FaultPlan(seed=3)
        .kill(2, 11, kind="rma:put")
        .stall(1, 4, steps=2)
        .corrupt(6)
        .drop(8)
        .delay(jitter_frac=0.25, bw_factor=0.5)
    )
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    assert again.key() == plan.key()
    assert "kill" in plan.describe()


def test_plan_validates_specs():
    with pytest.raises(ValueError):
        Corrupt(op=0, mode="mangle")
    with pytest.raises(ValueError):
        Delay(jitter_frac=-0.5)


def test_injector_is_single_use():
    inj = FaultInjector(FaultPlan(seed=0))
    rt1, rt2 = Runtime(1), Runtime(1)
    inj.begin_run(rt1)
    inj.begin_run(rt1)  # idempotent for the same runtime
    with pytest.raises(RuntimeError):
        inj.begin_run(rt2)


@pytest.mark.faults
def test_ambient_marker_attaches_a_benign_injector():
    rt = Runtime(2)
    assert isinstance(rt.faults, FaultInjector)
    assert rt.faults.plan.empty


# -- the kill matrix ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _fuzz_points(name: str) -> dict[int, int]:
    """Fuzz points per rank in scenario ``name`` under the pinned seed.

    An empty plan changes nothing but counts every point, so the matrix
    below provably covers each one.
    """
    inj = FaultInjector(FaultPlan(seed=SEED))
    rt = Runtime(NPROC, seed=SEED)
    DeterministicSchedule(SEED).begin_run(rt)
    rt.faults = inj
    rt.spmd(SCENARIOS[name])
    counts = inj.point_counts()
    assert counts and all(counts.get(r, 0) > 0 for r in range(NPROC))
    return counts


def _assert_kill_grid(name: str, victim: int, stride: int = 1) -> None:
    fn = SCENARIOS[name]
    failures = []
    for point in range(0, _fuzz_points(name)[victim], stride):
        plan = FaultPlan(seed=SEED).kill(victim, point)
        report = run_schedule(fn, NPROC, SEED, sanitize=True, plan=plan)
        if not graceful(report):
            failures.append((point, report.error))
        elif report.violations:
            failures.append((point, report.violations))
        elif not report.ok and victim not in report.dead_ranks:
            failures.append((point, f"failed without the kill firing: {report.error}"))
    assert not failures, f"{name}: non-graceful kills at {failures}"


@pytest.mark.parametrize("victim", range(NPROC))
def test_mutex_handoff_survives_death_at_every_fuzz_point(victim):
    _assert_kill_grid("mutex", victim)


@pytest.mark.parametrize("victim", range(NPROC))
def test_gmr_free_with_null_slices_survives_death_at_every_fuzz_point(victim):
    _assert_kill_grid("gmr_free", victim)


@pytest.mark.parametrize("victim", range(NPROC))
def test_rmw_survives_death_at_sampled_fuzz_points(victim):
    _assert_kill_grid("rmw", victim, stride=5)


def test_failing_plan_replays_bit_identically():
    plan = FaultPlan(seed=SEED).kill(1, 3)
    a = run_schedule(SCENARIOS["mutex"], NPROC, SEED, plan=plan)
    b = run_schedule(SCENARIOS["mutex"], NPROC, SEED, plan=plan)
    assert a.digest == b.digest
    assert a.error == b.error
    assert a.fault_events == b.fault_events > 0
    assert a.dead_ranks == [1]
    # the plan is part of the digest: the same seed without it diverges
    assert run_schedule(SCENARIOS["mutex"], NPROC, SEED).digest != a.digest


def test_stall_and_jitter_perturb_but_complete():
    plan = FaultPlan(seed=SEED).stall(0, 2, steps=4).delay(jitter_frac=0.2)
    a = run_schedule(SCENARIOS["rmw"], NPROC, SEED, plan=plan)
    b = run_schedule(SCENARIOS["rmw"], NPROC, SEED, plan=plan)
    assert a.ok and not a.violations
    assert a.fault_events >= 1
    assert a.digest == b.digest


def test_corrupt_and_drop_are_silent_data_faults():
    for plan in (FaultPlan(seed=SEED).corrupt(2), FaultPlan(seed=SEED).drop(2)):
        report = run_schedule(SCENARIOS["gmr_free"], NPROC, SEED, plan=plan)
        # the protocol completes; only payload bits were harmed
        assert report.ok, report.error
        assert report.fault_events == 1


def test_cli_kill_run_is_graceful(capsys):
    rc = faults_main(
        ["scenario:mutex", "--nproc", "3", "--seed", str(SEED),
         "--schedules", "2", "--kill", "1@3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "kill" in out


# -- graceful degradation ----------------------------------------------------------


def test_mutex_holder_death_forwards_structured_failure():
    """The §V-D recovery path, deterministically staged in wall mode.

    Rank 1 takes the mutex, waits until rank 0 is visibly enqueued in
    the Latham byte vector, then dies mid-critical-section.  The death
    hook must repair the vector and forward the handoff, so rank 0's
    pending receive completes with a structured
    :class:`MutexHolderFailed` — after which rank 0 *owns* the repaired
    mutex and can unlock it.
    """
    observed = {}
    rt = Runtime(NPROC, watchdog_s=1.0)

    def body(comm):
        ms = MutexSet.create(comm, 1)
        if comm.rank == 1:
            ms.lock(0, 0)
            vec = ms._win.exposed_buffer(0)
            with rt.cond:
                rt.wait_for(lambda: vec[0] == 1, what="waiter 0 enqueued")
                rt.mark_dead(comm.world_rank(1))
            raise RankKilledError("rank 1 dies holding mutex 0")
        if comm.rank == 0:
            with rt.cond:
                rt.wait_for(
                    lambda: ms.holder(0, 0) == 1,
                    what="rank 1 holds the mutex",
                )
            try:
                ms.lock(0, 0)
            except MutexHolderFailed as exc:
                observed.update(
                    mutex=exc.mutex, host=exc.host, dead=exc.dead_rank
                )
            # we own the repaired mutex either way and must release it
            ms.unlock(0, 0)
        return "done"
        # no destroy: it is collective and rank 1 is dead

    results = rt.spmd(body)
    assert observed == {"mutex": 0, "host": 0, "dead": 1}
    assert results[0] == results[2] == "done"
    assert results[1] is None  # the killed rank produced no result
    assert rt.dead_ranks == {1}
    assert rt.death_hook_errors == []


def test_watchdog_and_op_timeout_configure_independently(monkeypatch):
    monkeypatch.setenv("REPRO_WATCHDOG_S", "3.25")
    monkeypatch.setenv("REPRO_OP_TIMEOUT_S", "0.125")
    monkeypatch.setenv("REPRO_OP_RETRIES", "5")
    rt = Runtime(1)
    assert (rt.watchdog_s, rt.op_timeout_s, rt.op_retries) == (3.25, 0.125, 5)
    # constructor arguments beat the environment, knob by knob
    rt = Runtime(1, watchdog_s=0.7, op_retries=1)
    assert (rt.watchdog_s, rt.op_timeout_s, rt.op_retries) == (0.7, 0.125, 1)
    # with nothing configured, per-op timeouts stay disabled
    monkeypatch.delenv("REPRO_OP_TIMEOUT_S")
    monkeypatch.delenv("REPRO_WATCHDOG_S")
    assert Runtime(1).op_timeout_s is None
    assert Runtime(1).watchdog_s == 2.0


def test_watchdog_stays_quiet_while_a_timeout_retry_is_in_flight():
    """Regression for the ``watchdog_s`` / per-op-timeout entanglement.

    Rank 0 parks on a mutex it holds while rank 1's acquisition exhausts
    its per-op timeout budget (timeouts much shorter than the watchdog).
    The shortened condition waits must not let the watchdog declare a
    global deadlock: rank 1 gets a clean :class:`OpTimeoutError`, its
    queue entry is withdrawn, and the run finishes — destroy included.
    """
    rt = Runtime(2, watchdog_s=0.8, op_timeout_s=0.05, op_retries=2)
    outcome = {}

    def body(comm):
        ms = MutexSet.create(comm, 1)
        with rt.cond:
            gave_up = rt.shared.setdefault("gave_up", [])
        if comm.rank == 0:
            ms.lock(0, 0)
            with rt.cond:
                rt.wait_for(lambda: gave_up, what="waiter gave up")
            ms.unlock(0, 0)
        else:
            with rt.cond:
                rt.wait_for(
                    lambda: ms.holder(0, 0) == 0,
                    what="rank 0 holds the mutex",
                )
            try:
                ms.lock(0, 0)
            except OpTimeoutError:
                outcome["timed_out"] = True
            with rt.cond:
                gave_up.append(True)
                rt.notify_progress()
        comm.barrier()
        ms.destroy()
        return "done"

    results = rt.spmd(body)
    assert outcome == {"timed_out": True}
    assert results == ["done", "done"]


def _lost_reservation_body(comm, how):
    """Rank 0 reserves bytes [64, 128) of target 1 for an atomic op and
    then dies there (``"kill"``), stops there (``"stop"``), or stays
    there until rank 1 is done (``"failed"``, while rank 2 dies); rank 1
    meanwhile accumulates bytes [96, 160) of its own memory.  Returns rank
    1's outcome and the seconds it took; procs only (real signals)."""
    import os
    import signal
    import time

    from repro.mpi.datatypes import SegmentMap
    from repro.mpi.runtime import RankFailedError
    from repro.mpi.window import _footprint_slot

    win, _ = Win.allocate(comm, 192, mpi3=True)
    win.lock_all()
    comm.barrier()
    flags = win.exposed_buffer(1)[:24].view(np.int64)  # [holder's pid, ready, done]
    outcome = "held"
    if comm.rank == 0:
        while not flags[1]:
            time.sleep(0.001)
        with win._atomic_section(1, _footprint_slot(SegmentMap.arithmetic(64, 64, 64, 1))):
            flags[0] = os.getpid()
            if how == "kill":
                time.sleep(0.03)  # die while rank 1 is already waiting
                os.kill(os.getpid(), signal.SIGKILL)
            elif how == "stop":
                os.kill(os.getpid(), signal.SIGSTOP)  # rank 1 sends SIGCONT
            else:
                while not flags[2]:
                    time.sleep(0.001)
    elif comm.rank == 1:
        flags[1] = 1
        while not flags[0]:
            time.sleep(0.001)
        if how == "stop":
            time.sleep(0.02)  # let the stop land
        t0 = time.monotonic()
        try:
            win.accumulate(np.ones(8), 1, 96, flush=True)
            outcome = ("accumulated", time.monotonic() - t0)
        except (OpTimeoutError, RankFailedError) as exc:
            outcome = (type(exc).__name__, time.monotonic() - t0)
        finally:
            flags[2] = 1
            if how == "stop":
                os.kill(int(flags[0]), signal.SIGCONT)
    else:
        while not flags[0]:
            time.sleep(0.001)
        time.sleep(0.03)  # die while rank 1 is already waiting
        os.kill(os.getpid(), signal.SIGKILL)
    win.unlock_all()
    if how == "stop":
        comm.barrier()
        win.free()
    return outcome


def _lost_reservation(nproc, how, **kw):
    rt = Runtime(nproc, backend="proc", apply_hooks=False, **kw)
    return rt.spmd(_lost_reservation_body, how, join_timeout=120.0)


def test_a_reservation_killed_mid_rmw_does_not_block_an_overlapping_accumulate():
    """The kernel drops a dead origin's busy flock, so its slot reads free."""
    dead, (what, waited) = _lost_reservation(2, "kill")
    assert dead is None and what == "accumulated"
    assert waited < 5.0, waited


def test_a_stopped_reservation_times_out_once_on_schedule():
    """Every re-probe of an overlapping reservation runs under the one
    deadline of the wait: ``op_timeout_s``, at most one capped probe
    interval late (+ scheduling slack on a loaded host)."""
    from repro.backoff import FLOCK_WAIT

    resumed, (what, waited) = _lost_reservation(2, "stop", op_timeout_s=0.2)
    assert (resumed, what) == ("held", "OpTimeoutError")
    assert 0.2 <= waited <= 0.2 + FLOCK_WAIT.cap + 0.05, waited


def test_a_reservation_wait_raises_once_a_rank_failed():
    """A waiter behind a live holder still observes ``runtime.failed``."""
    held, (what, _waited), dead = _lost_reservation(3, "failed")
    assert (held, what, dead) == ("held", "RankFailedError", None)


# -- the ULFM-analogue primitives --------------------------------------------------


def test_ft_agree_is_and_over_live_contributions():
    """``agree`` returns the AND of live contributions and completes even
    when a member dies instead of contributing."""
    rt = Runtime(NPROC, watchdog_s=2.0)

    def body(comm):
        assert comm.agree(1) == 1
        assert comm.agree(0 if comm.rank == 1 else 1) == 0
        if comm.rank == 1:
            with rt.cond:
                rt.mark_dead(comm.world_rank(1))
            raise RankKilledError("rank 1 dies before the third agreement")
        return comm.agree(1)

    results = rt.spmd(body)
    assert results[0] == results[2] == 1
    assert results[1] is None


def test_ft_failure_ack_and_get_acked():
    rt = Runtime(NPROC, watchdog_s=2.0)

    def body(comm):
        if comm.rank == 2:
            with rt.cond:
                rt.mark_dead(comm.world_rank(2))
            raise RankKilledError("rank 2 dies")
        with rt.cond:
            rt.wait_for(lambda: rt.dead_ranks, what="death observed")
        assert list(comm.failure_get_acked().members) == []
        comm.failure_ack()
        assert list(comm.failure_get_acked().members) == [comm.world_rank(2)]
        return "ok"

    results = rt.spmd(body)
    assert results[0] == results[1] == "ok"


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_ft_revoke_poisons_operations_with_a_typed_error(backend):
    """After any member revokes, every other member's operation fails with
    :class:`CommRevokedError` — but ``agree`` and ``shrink`` still work.
    (Procs reject an ambient sanitizer or injector, so they get none.)"""
    rt = Runtime(
        NPROC, watchdog_s=2.0, backend=backend, apply_hooks=backend == "thread"
    )

    def body(comm):
        if comm.rank == 0:
            comm.revoke()
            comm.revoke()  # idempotent
        with pytest.raises(CommRevokedError):
            comm.barrier()
        assert comm.agree(1) == 1
        new = comm.shrink()
        assert new.size == NPROC and not new.revoked
        new.barrier()
        return "ok"

    assert rt.spmd(body, join_timeout=120.0) == ["ok"] * NPROC


def test_ft_shrink_densely_reranks_survivors():
    rt = Runtime(4, watchdog_s=2.0)

    def body(comm):
        if comm.rank == 1:
            with rt.cond:
                rt.mark_dead(comm.world_rank(1))
            raise RankKilledError("rank 1 dies")
        with rt.cond:
            rt.wait_for(lambda: rt.dead_ranks, what="death observed")
        new = comm.shrink()
        assert new.size == 3
        # rank i of the shrunken comm is the i-th smallest surviving rank
        assert new.rank == {0: 0, 2: 1, 3: 2}[comm.rank]
        new.barrier()  # the shrunken communicator is fully operational
        return new.rank

    assert rt.spmd(body) == [0, None, 1, 2]


def _coordinator_dies_mid_agree(comm):
    """Rank 0 — the lowest live rank, hence the coordinator — votes 0 in
    ``agree`` and is marked dead before ranks 1-3 vote."""
    rt = comm.runtime
    if comm.rank == 0:
        comm.agree(0)  # raises RankKilledError once marked dead
        raise AssertionError("the dead coordinator's agree returned")
    with rt.cond:
        if comm.rank == 1:
            rounds = rt.registry.rounds
            rt.wait_for(
                lambda: any(0 in r["votes"] for r in rounds.values()),
                what="rank 0's vote",
            )
            rt.mark_dead(0)
        else:
            rt.wait_for(lambda: 0 in rt.dead_ranks, what="rank 0's death")
    value = comm.agree(0b1111 ^ (1 << comm.rank))
    new = comm.shrink()
    new.barrier()
    return value, new.rank, new.size


# the survivors' flags 0b1101 & 0b1011 & 0b0111; the dead vote (0) is dropped
_COORDINATOR_DIES = [None, (1, 0, 3), (1, 1, 3), (1, 2, 3)]


def test_ft_agree_fails_over_when_the_coordinator_dies():
    assert Runtime(4, watchdog_s=2.0).spmd(_coordinator_dies_mid_agree) == (
        _COORDINATOR_DIES
    )


def test_ft_agree_coordinator_failover_under_fuzzed_schedules():
    reports = fuzz_schedules(_coordinator_dies_mid_agree, 4, nschedules=16)
    assert [r.error for r in reports if not r.ok] == []
    assert all(r.results == _COORDINATOR_DIES for r in reports)


# -- the recover matrix ------------------------------------------------------------


RECOVER_STRIDE = {
    "mutex": 5, "rmw": 5, "gmr": 1, "ga": 2,
    "rmw_mpi3": 5, "gmr_mpi3": 1, "nbq_mpi3": 3,
}


@functools.lru_cache(maxsize=None)
def _recover_fuzz_points(name: str) -> dict[int, int]:
    inj = FaultInjector(FaultPlan(seed=SEED))
    rt = Runtime(NPROC, seed=SEED)
    DeterministicSchedule(SEED).begin_run(rt)
    rt.faults = inj
    rt.spmd(RECOVER_SCENARIOS[name])
    counts = inj.point_counts()
    assert counts and all(counts.get(r, 0) > 0 for r in range(NPROC))
    return counts


def _assert_recover_grid(name: str, victim: int) -> None:
    """Unlike the kill grids above (graceful: typed error allowed), the
    recover grid demands *completion*: every survivor must finish the
    protocol value-correct, either on the shrunken world after running
    :func:`repro.recover.recover` or on the full world when the victim
    died only after the attempt was accepted."""
    fn = RECOVER_SCENARIOS[name]
    failures, recovered = [], 0
    for point in range(0, _recover_fuzz_points(name)[victim], RECOVER_STRIDE[name]):
        plan = FaultPlan(seed=SEED).kill(victim, point)
        report = run_schedule(fn, NPROC, SEED, sanitize=True, plan=plan)
        if not report.ok:
            failures.append((point, report.error))
            continue
        if report.violations:
            failures.append((point, report.violations))
            continue
        live = [r for r in report.results if r is not None]
        shrunken = NPROC - len(report.dead_ranks)
        if not live or any(r[0] not in (NPROC, shrunken) for r in live):
            failures.append((point, ("wrong world size", live)))
        recovered += any(r[1] >= 1 for r in live)
    assert not failures, f"recover_{name}: incomplete recoveries at {failures}"
    assert recovered, f"recover_{name}: no kill point exercised recovery"


@pytest.mark.parametrize("victim", range(NPROC))
def test_mutex_recovers_from_death_at_sampled_fuzz_points(victim):
    _assert_recover_grid("mutex", victim)


@pytest.mark.parametrize("victim", range(NPROC))
def test_rmw_recovers_from_death_at_sampled_fuzz_points(victim):
    _assert_recover_grid("rmw", victim)


@pytest.mark.parametrize("victim", range(NPROC))
def test_gmr_rebuild_recovers_from_death_at_every_fuzz_point(victim):
    _assert_recover_grid("gmr", victim)


@pytest.mark.parametrize("victim", range(NPROC))
def test_ga_checkpoint_recovers_from_death_at_sampled_fuzz_points(victim):
    _assert_recover_grid("ga", victim)


@pytest.mark.parametrize("victim", range(NPROC))
def test_mpi3_rmw_recovers_from_death_at_sampled_fuzz_points(victim):
    _assert_recover_grid("rmw_mpi3", victim)


@pytest.mark.parametrize("victim", range(NPROC))
def test_mpi3_gmr_rebuild_recovers_from_death_at_every_fuzz_point(victim):
    _assert_recover_grid("gmr_mpi3", victim)


@pytest.mark.parametrize("victim", range(NPROC))
def test_mpi3_nb_queue_recovers_from_death_at_sampled_fuzz_points(victim):
    _assert_recover_grid("nbq_mpi3", victim)


def test_recovery_replays_bit_identically():
    plan = FaultPlan(seed=SEED).kill(1, 5)
    a = run_schedule(RECOVER_SCENARIOS["ga"], NPROC, SEED, plan=plan)
    b = run_schedule(RECOVER_SCENARIOS["ga"], NPROC, SEED, plan=plan)
    assert a.ok, a.error
    assert a.digest == b.digest
    assert a.dead_ranks == [1]
    live = [r for r in a.results if r is not None]
    assert live and all(r == (NPROC - 1, 1) for r in live)


def test_recover_clears_translation_caches_and_retires_gmrs():
    """Satellite regression: after ``recover`` the old allocation's
    translations must be unreachable — the GMR table is emptied (its
    last-hit cache with it) and the strided/IOV datatype caches are
    flushed, so no stale displacement can resolve against freed slabs."""
    from repro.armci import Armci
    from repro.armci.iov import iov_datatype_cache_len
    from repro.armci.strided import strided_datatype_cache_len
    from repro.ga import GlobalArray
    from repro.recover import recover

    rt = Runtime(NPROC, watchdog_s=5.0)
    seen = {}

    def body(comm):
        armci = Armci.init(comm)
        ga = GlobalArray.create(armci, (6, 6), "f8")
        ga.acc([0, 0], [6, 6], np.ones((6, 6)))  # strided traffic warms caches
        ga.sync()
        if comm.rank == 2:
            with rt.cond:
                rt.mark_dead(comm.world_rank(2))
            raise RankKilledError("rank 2 dies")
        with rt.cond:
            rt.wait_for(lambda: rt.dead_ranks, what="death observed")
        old_table = armci.table
        seen["warm"] = strided_datatype_cache_len()
        new_armci, report = recover(armci)
        seen["strided"] = strided_datatype_cache_len()
        seen["iov"] = iov_datatype_cache_len()
        seen["gmrs"] = old_table.gmrs
        seen["hot"] = dict(old_table._hot)
        assert new_armci.nproc == NPROC - 1
        assert report.failed == (2,)
        assert all(o.action == "aborted" for o in report.gmrs)
        return "ok"

    rt.spmd(body)
    assert seen["warm"] > 0
    assert seen["strided"] == seen["iov"] == 0
    assert seen["gmrs"] == [] and seen["hot"] == {}


def test_ga_checkpoint_restore_round_trip():
    from repro.armci import Armci
    from repro.ga import GlobalArray

    def body(comm):
        armci = Armci.init(comm)
        ga = GlobalArray.create(armci, (6, 5), "f8")
        blk = ga.distribution()
        if blk.size:
            view = ga.access()
            view[...] = comm.rank + 1.0
            ga.release()
        ga.sync()
        before = ga.get([0, 0], [6, 5])
        ckpt = ga.checkpoint()
        assert np.array_equal(ckpt.data, before)
        ga.acc([0, 0], [6, 5], np.ones((6, 5)))  # diverge after the snapshot
        ga.sync()
        ga2 = GlobalArray.restore(armci, ckpt, name="restored")
        assert np.array_equal(ga2.get([0, 0], [6, 5]), before)
        armci.finalize()
        return "ok"

    assert Runtime(NPROC, watchdog_s=2.0).spmd(body) == ["ok"] * NPROC


def test_mutex_reclaim_sweeps_dead_holders():
    """Belt-and-braces ownership reclamation: a holder entry that escaped
    the death hook (the crash raced it) is swept by ``reclaim``."""
    rt = Runtime(NPROC, watchdog_s=2.0)
    swept = {}

    def body(comm):
        ms = MutexSet.create(comm, 1)
        comm.barrier()
        if comm.rank == 1:
            with rt.cond:
                rt.mark_dead(comm.world_rank(1))
                ms._note_holder(0, 0, 1)  # plant: dead rank still on record
            raise RankKilledError("holder dies")
        if comm.rank == 0:
            # Only rank 0 waits for the plant: reclaim() deletes the
            # entry, so a second waiter could miss it and hang.
            while True:
                try:
                    with rt.cond:
                        rt.wait_for(
                            lambda: ms.holder(0, 0) == 1,
                            what="stale holder",
                        )
                    break
                except TargetFailedError:
                    comm.failure_ack()  # the death is expected; keep waiting
            swept["got"] = ms.reclaim()
            swept["again"] = ms.reclaim()  # idempotent
        return "ok"

    rt.spmd(body)
    assert swept["got"] == [(0, 0, 1)]
    assert swept["again"] == []


@pytest.mark.parametrize("victim", range(NPROC))
def test_holder_record_agrees_with_the_dict_it_replaced(victim, monkeypatch):
    """Reference model: the per-window ``{(host, mutex): holder}`` dict
    ``MutexSet`` kept before the record moved into the mutex window, with
    its death-repair and reclaim rules.  Over the seeded mutex recovery
    scenario — kills sampled across the victim's fuzz points — the window
    record reads the same after every lock, unlock, repair and sweep."""
    shadows: dict[int, dict] = {}
    mismatches: list = []
    events = dict.fromkeys(("note", "death", "reclaim", "forwarded", "swept"), 0)
    real = {
        name: getattr(MutexSet, name)
        for name in ("_note_holder", "_on_rank_death", "reclaim")
    }

    def agree(ms, event):
        record = {
            (host, mutex): ms.holder(host, mutex)
            for host in range(ms.comm.size) for mutex in range(ms.count)
        }
        shadow = shadows.setdefault(ms._win.win_id, {})
        held = {k: v for k, v in record.items() if v is not None}
        if held != shadow:  # collected: a death hook's exception is swallowed
            mismatches.append((event, held, dict(shadow)))
        events[event] += 1

    def note_holder(ms, host, mutex, holder):
        shadow = shadows.setdefault(ms._win.win_id, {})
        if holder is None:
            shadow.pop((host, mutex), None)
        else:
            shadow[(host, mutex)] = holder
        real["_note_holder"](ms, host, mutex, holder)
        agree(ms, "note")

    def on_rank_death(ms, world_rank):
        real["_on_rank_death"](ms, world_rank)
        group = ms.comm.group
        if ms._destroyed or not group.contains_world(world_rank):
            return
        dead, n = group.rank_of_world(world_rank), ms.comm.size
        shadow = shadows.setdefault(ms._win.win_id, {})
        for (host, mutex), holder in list(shadow.items()):
            if holder != dead:
                continue
            vec = ms._win.exposed_buffer(host)
            waiters = [
                j for j in ((dead + step) % n for step in range(1, n))
                if vec[mutex * n + j]
            ]
            if waiters:
                shadow[(host, mutex)] = waiters[0]
                events["forwarded"] += 1
            else:
                del shadow[(host, mutex)]
        agree(ms, "death")

    def reclaim(ms):
        swept = real["reclaim"](ms)
        group, rt = ms.comm.group, ms.comm.runtime
        dead = {group.rank_of_world(w) for w in rt.dead_ranks if group.contains_world(w)}
        shadow = shadows.setdefault(ms._win.win_id, {})
        expected = sorted((h, m, r) for (h, m), r in shadow.items() if r in dead)
        for host, mutex, _ in expected:
            del shadow[(host, mutex)]
        if swept != expected:
            mismatches.append(("swept", swept, expected))
        events["swept"] += len(swept)
        agree(ms, "reclaim")
        return swept

    monkeypatch.setattr(MutexSet, "_note_holder", note_holder)
    monkeypatch.setattr(MutexSet, "_on_rank_death", on_rank_death)
    monkeypatch.setattr(MutexSet, "reclaim", reclaim)
    for point in range(0, _recover_fuzz_points("mutex")[victim], 2):
        shadows.clear()  # window ids restart with every runtime
        plan = FaultPlan(seed=SEED).kill(victim, point)
        report = run_schedule(
            RECOVER_SCENARIOS["mutex"], NPROC, SEED, sanitize=True, plan=plan
        )
        assert report.ok, (point, report.error)
        assert not mismatches, (point, mismatches[:3])
    assert events["note"] and events["death"] and events["reclaim"], events
    assert events["forwarded"], "no kill caught a holder with a waiter queued"


# -- transient stalls / retry-with-backoff -----------------------------------------


def test_transient_stall_round_trips_and_describes():
    plan = FaultPlan(seed=1).stall(0, 2, steps=9, transient=True)
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan and again.stalls[0].transient
    assert "(transient)" in plan.describe()
    # legacy corpus entries without the field default to permanent stalls
    legacy = FaultPlan.from_dict({"seed": 1, "stall": [{"rank": 0, "point": 2}]})
    assert legacy.stalls[0].transient is False


def test_transient_stall_clears_within_the_retry_budget():
    """7 stall steps fit the default budget (1+2+4+8): the run completes,
    perturbed but bit-identically replayable."""
    plan = FaultPlan(seed=SEED).stall(1, 3, steps=7, transient=True)
    a = run_schedule(SCENARIOS["rmw"], NPROC, SEED, plan=plan)
    b = run_schedule(SCENARIOS["rmw"], NPROC, SEED, plan=plan)
    assert a.ok and not a.violations
    assert a.fault_events >= 2  # the retry attempts plus retry_cleared
    assert a.digest == b.digest


def test_transient_stall_retry_events_are_logged():
    inj = FaultInjector(FaultPlan(seed=0).stall(0, 2, steps=3, transient=True))
    rt = Runtime(2, seed=0)
    DeterministicSchedule(0).begin_run(rt)
    rt.faults = inj

    def body(comm):
        for _ in range(4):
            comm.barrier()
        return comm.rank

    assert rt.spmd(body) == [0, 1]
    tags = [e[0] for e in inj.events]
    assert tags.count("retry") == 2  # bursts of 1 then 2 absorb 3 steps
    assert tags[-1] == "retry_cleared"


def test_transient_stall_exhausts_into_a_typed_error():
    """A stall outlasting the whole backoff budget surfaces as
    :class:`RetriesExhausted` — typed (graceful), and nothing dies."""
    plan = FaultPlan(seed=SEED).stall(1, 3, steps=100, transient=True)
    report = run_schedule(SCENARIOS["rmw"], NPROC, SEED, plan=plan)
    assert not report.ok
    assert (report.error or "").startswith("RetriesExhausted")
    assert graceful(report)
    assert report.dead_ranks == []


def test_transient_retry_budget_is_configurable(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_RETRIES", raising=False)
    assert FaultInjector(FaultPlan(seed=0)).retries == 3
    monkeypatch.setenv("REPRO_FAULT_RETRIES", "1")
    assert FaultInjector(FaultPlan(seed=0)).retries == 1
    assert FaultInjector(FaultPlan(seed=0), retries=0).retries == 0


def test_gmr_table_consistency_check_catches_a_planted_tear():
    """``GmrTable.check_consistent`` (used after every free in the
    gmr_free scenario) actually detects corruption."""
    from repro.armci import Armci

    def body(comm):
        armci = Armci.init(comm)
        ptrs = armci.malloc(64)
        armci.table.check_consistent()  # clean table passes
        # both ranks' clean checks precede the plant (on threads they
        # share one table)
        comm.barrier()
        if comm.rank == 0:
            entry = armci.table._all[0]
            entry.freed = True  # plant: a freed GMR still registered
            with pytest.raises(AssertionError):
                armci.table.check_consistent()
            entry.freed = False
        comm.barrier()
        armci.free(ptrs[armci.my_id])
        armci.finalize()

    Runtime(2, watchdog_s=1.0).spmd(body)
