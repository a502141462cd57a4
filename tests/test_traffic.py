"""Service-traffic harness: front-end units, oracles, faults, replay.

Covers the :mod:`repro.traffic` stack bottom-up — the shared
:class:`repro.backoff.BackoffPolicy`, the admission queue and circuit
breaker, the stale-segment sweeper — then the end-to-end contracts:
every workload's serial-numpy oracle must verify fault-free AND with a
seeded kill landing mid-service, and a faulted seed must replay with a
bit-identical shed/retry/violation trace.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from repro.backoff import FLOCK_WAIT, LOCK_RETRY, STALL_STEPS, BackoffPolicy
from repro.faults.plan import FaultPlan
from repro.faults.proc import sweep_stale_segments
from repro.traffic import (
    AdmissionQueue,
    CircuitBreaker,
    Overloaded,
    Request,
    TrafficConfig,
    run_traffic,
)
from repro.traffic.workloads import make_workload

pytestmark = pytest.mark.traffic

NPROC = 3
SEED = 5
#: per-scenario (size, kill point): the kill lands mid-service and the
#: harness must absorb it (probed; pinned here as regression anchors)
FAULTED = {"stencil": (12, 45), "worksteal": (18, 45), "bfs": (24, 45)}


# ---------------------------------------------------------------------------
# BackoffPolicy
# ---------------------------------------------------------------------------


def test_backoff_curve_grows_geometrically_and_caps():
    pol = BackoffPolicy(base=1.0, factor=2.0, cap=8.0, jitter=1.0)
    assert [pol.delay(a) for a in range(5)] == [1.0, 2.0, 4.0, 8.0, 8.0]


def test_flock_wait_curve_ends_at_the_flat_poll_cadence_for_any_attempt():
    """Seven sub-cap re-probes (2.5 ms in all), then 2 ms for ever — also
    past the attempt where ``2.0 ** attempt`` overflows a float (a lock
    held for seconds is polled thousands of times)."""
    curve = [FLOCK_WAIT.delay(a) for a in range(9)]
    assert curve[0] == 2e-5 and curve[7:] == [0.002, 0.002]
    assert all(b == 2 * a for a, b in zip(curve[:6], curve[1:7]))
    assert sum(curve[:7]) < 0.003
    assert FLOCK_WAIT.delay(1023) == FLOCK_WAIT.delay(5000) == 0.002


def test_backoff_uncapped_and_steps_floor():
    pol = BackoffPolicy(base=0.25, factor=2.0, cap=None, jitter=1.0)
    assert pol.delay(10) == 0.25 * 2**10
    # steps rounds up and never returns 0 — retries always progress
    assert pol.steps(0) == 1
    assert pol.steps(3) == 2
    assert STALL_STEPS.steps(4) == 16


def test_backoff_jitter_draws_exactly_one_uniform():
    pol = BackoffPolicy(base=0.05, factor=2.0, cap=1.0, jitter=0.5)
    a, b = random.Random(42), random.Random(42)
    got = pol.delay(3, a)
    want = min(1.0, 0.05 * (b.uniform(0.5, 1.0) * 2**3))
    assert got == want
    # both rngs consumed the same single draw
    assert a.random() == b.random()


def test_lock_retry_matches_runtime_backoff_formula():
    """LOCK_RETRY is the Runtime.backoff curve: 50 ms doubled, 1 s cap,
    equal jitter — bit-identical to the historical inline formula."""
    a, b = random.Random(7), random.Random(7)
    for attempt in range(8):
        want = min(1.0, 0.05 * (b.uniform(0.5, 1.0) * 2**attempt))
        assert LOCK_RETRY.delay(attempt, a) == want


def test_backoff_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BackoffPolicy(base=0.0)
    with pytest.raises(ValueError):
        BackoffPolicy(factor=0.5)
    with pytest.raises(ValueError):
        BackoffPolicy(jitter=0.0)
    with pytest.raises(ValueError):
        BackoffPolicy().delay(-1)


# ---------------------------------------------------------------------------
# Admission queue + circuit breaker
# ---------------------------------------------------------------------------


def _req(rid, arrival=0, deadline=10, not_before=0):
    return Request(rid, ("p", rid), arrival, deadline, not_before=not_before)


def test_admission_queue_sheds_typed_overloaded_when_full():
    q = AdmissionQueue(2)
    q.offer(_req(1))
    q.offer(_req(2))
    assert q.free == 0
    with pytest.raises(Overloaded):
        q.offer(_req(3))
    # requeue (retry path) deliberately bypasses the capacity check
    q.requeue(_req(4))
    assert len(q) == 3


def test_admission_queue_expiry_and_backoff_holds():
    q = AdmissionQueue(4)
    q.offer(_req(1, arrival=0, deadline=2))
    q.offer(_req(2, arrival=0, deadline=9))
    q.offer(_req(3, arrival=0, deadline=9, not_before=5))
    expired = q.expire(3)
    assert [r.rid for r in expired] == [1]
    # rid 3 is backing off until tick 5: pop_ready skips it
    assert q.pop_ready(3).rid == 2
    assert q.pop_ready(3) is None
    assert q.pop_ready(5).rid == 3
    assert not len(q)


def test_circuit_breaker_trips_cools_probes_and_closes():
    br = CircuitBreaker(threshold=2, cooldown=3)
    assert br.allow(0)
    br.record_failure(0)
    assert br.state == "closed"
    br.record_failure(1)
    assert br.state == "open"
    # open: everything is shed until the cooldown elapses
    assert not br.allow(2)
    assert br.allow(4)            # half-open probe
    assert not br.allow(4)        # one probe per tick
    br.record_failure(4)          # probe failed: reopen
    assert br.state == "open"
    assert br.allow(7)
    br.record_success(7)
    assert br.state == "closed"
    # a fatal error trips it instantly, regardless of the failure count
    br.trip(8)
    assert br.state == "open"
    assert ("open", 8) in br.transitions


# ---------------------------------------------------------------------------
# stale shared-memory segment sweep
# ---------------------------------------------------------------------------


def test_stale_segment_sweep_is_idempotent(tmp_path):
    old = tmp_path / "repro-dead-seg"
    old.write_bytes(b"x" * 16)
    stale = time.time() - 3600
    os.utime(old, (stale, stale))
    fresh = tmp_path / "repro-live-seg"
    fresh.write_bytes(b"y" * 16)
    other = tmp_path / "not-ours"
    other.write_bytes(b"z")
    removed = sweep_stale_segments(stale_after_s=600.0, shm_dir=tmp_path)
    assert removed == ["repro-dead-seg"]
    assert not old.exists() and fresh.exists() and other.exists()
    # double sweep: nothing left to remove, nothing else touched
    assert sweep_stale_segments(stale_after_s=600.0, shm_dir=tmp_path) == []
    assert fresh.exists() and other.exists()


def test_stale_segment_sweep_missing_dir_is_noop(tmp_path):
    assert sweep_stale_segments(shm_dir=tmp_path / "nope") == []


# ---------------------------------------------------------------------------
# workload oracles, fault-free
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(FAULTED))
def test_workload_completes_and_verifies_fault_free(scenario):
    size = FAULTED[scenario][0]
    cfg = TrafficConfig(scenario=scenario, seed=SEED, size=size)
    r = run_traffic(cfg, NPROC, SEED)
    assert r.ok and r.verified, (r.error, r.violations)
    assert not r.violations
    assert r.recoveries == 0
    assert r.completed > 0 and r.goodput > 0
    assert r.p99_ticks >= r.p50_ticks >= 1


def test_stencil_oracle_matches_jacobi_sweep():
    """The workload's internal oracle is the serial ghost-cell stencil."""
    from repro.ga.ghosts import jacobi_sweep

    w = make_workload("stencil", seed=3, size=8)
    base = w._base()
    assert np.array_equal(w._oracle(), jacobi_sweep(np.pad(base, 1)))


def test_bfs_oracle_is_exact_fixed_point():
    w = make_workload("bfs", seed=3, size=16)
    lv = w._oracle()
    adj = w._graph()
    assert lv[0] == 0
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            assert abs(int(lv[u]) - int(lv[v])) <= 1 or (
                lv[u] >= 2**31 and lv[v] >= 2**31
            )


def test_tiny_queue_sheds_with_typed_accounting():
    cfg = TrafficConfig(
        scenario="stencil", seed=SEED, size=12,
        offered=5, service_rate=1, queue_capacity=1,
    )
    r = run_traffic(cfg, NPROC, SEED)
    assert r.ok and r.verified
    assert r.shed["queue_full"] > 0
    assert r.shed_rate > 0
    # shed tiles are re-offered later, so the oracle still verifies fully
    assert r.completed == 12 // 2


def test_run_traffic_rejects_wall_clock_pacing():
    cfg = TrafficConfig(scenario="stencil", tick_sleep_s=0.01)
    with pytest.raises(ValueError, match="proc backend only"):
        run_traffic(cfg, NPROC, SEED)


# ---------------------------------------------------------------------------
# workload oracles under a seeded mid-service kill + replay contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(FAULTED))
def test_workload_recovers_and_verifies_under_kill(scenario):
    size, point = FAULTED[scenario]
    cfg = TrafficConfig(scenario=scenario, seed=SEED, size=size)
    plan = FaultPlan(seed=SEED).kill(1, point)
    r = run_traffic(cfg, NPROC, SEED, plan=plan)
    assert r.ok and r.verified, (r.error, r.violations)
    assert r.recoveries >= 1
    live = [x for x in r.results if x is not None]
    assert len(live) == NPROC - 1
    assert all(x["nproc_final"] == NPROC - 1 for x in live)
    assert all(
        any(ev[0] == "recovered" for ev in x["events"]) for x in live
    )


@pytest.mark.parametrize("scenario", sorted(FAULTED))
def test_faulted_seed_replays_bit_identically(scenario):
    size, point = FAULTED[scenario]
    cfg = TrafficConfig(scenario=scenario, seed=SEED, size=size)
    plan = FaultPlan(seed=SEED).kill(1, point)
    a = run_traffic(cfg, NPROC, SEED, plan=plan)
    b = run_traffic(cfg, NPROC, SEED, plan=plan)
    assert a.digest == b.digest
    assert a.schedule_digest == b.schedule_digest
    assert a.shed == b.shed and a.retries == b.retries


def test_different_schedule_seeds_explore_distinct_traces():
    cfg = TrafficConfig(scenario="worksteal", seed=SEED, size=18)
    digests = {run_traffic(cfg, NPROC, s).schedule_digest for s in range(4)}
    assert len(digests) == 4


# ---------------------------------------------------------------------------
# the CLI: every fault flag is built into the plan, and one that cannot or
# did not run fails the command
# ---------------------------------------------------------------------------


def _cli(capsys, request, *argv):
    from repro.traffic.cli import main

    if "proc" in argv and request.config.getoption("--sanitize"):
        pytest.skip("proc backend does not support the ambient sanitizer")
    code = main(["--scenario", "stencil", *argv])
    return code, capsys.readouterr().out


def test_cli_rejects_a_fuzz_point_kill_on_procs(capsys, request):
    code, out = _cli(capsys, request, "--backend", "proc", "--nproc", "3", "--kill", "1@5")
    assert code == 1
    assert "proc backend cannot run" in out and "kill rank 1 @point 5" in out


def test_cli_rejects_a_wall_clock_kill_on_threads(capsys, request):
    code, out = _cli(capsys, request, "--nproc", "3", "--proc-kill", "1@0.1")
    assert code == 1
    assert "thread backend cannot run" in out and "kill rank 1 @0.1s" in out


def test_cli_fails_a_proc_kill_the_run_outlived(capsys, request):
    """A kill due after the last tick never fires: it is logged as missed,
    shown in the summary, and the command fails."""
    code, out = _cli(
        capsys, request, "--backend", "proc", "--nproc", "3", "--proc-kill", "2@30"
    )
    assert code == 1
    assert "verified=True" in out and "recoveries=0" in out
    assert "missed fault: kill rank 2 @30.0s never fired" in out
