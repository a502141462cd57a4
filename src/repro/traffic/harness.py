"""The traffic harness: service loop, recovery routing, and drivers.

:func:`traffic_body` is an SPMD body (``fn(comm, cfg)``) that runs one
rank of the service: each virtual *tick* it admits client arrivals
through the front-end (:mod:`repro.traffic.frontend`), expires overdue
requests, serves up to ``service_rate`` requests against the GA
workload, then exchanges a status tuple with every rank (one
``allgather`` per tick — the control-plane heartbeat that keeps ticks
in lockstep, gossips completions/effects, and promptly propagates a
poisoned world to every survivor).

Fault routing is the ULFM loop at tick granularity: a fatal error
(:class:`~repro.mpi.errors.TargetFailedError`,
:class:`~repro.mpi.errors.CommRevokedError`,
:class:`~repro.mpi.runtime.RankFailedError`) trips the circuit
breaker, revokes the world so no survivor stays blocked in the tick
collective, rendezvouses through ``agree``, runs
:func:`repro.recover.recover`, and rebuilds the workload from the last
replicated checkpoint; queued requests are shed, the breaker's cooldown
sheds fresh arrivals while the backlog drains, and idempotent payloads
make the at-least-once replay of the post-checkpoint window value-safe.
Transient errors (:class:`~repro.mpi.errors.OpTimeoutError`, including
the injector's :class:`~repro.mpi.errors.RetriesExhausted`) never
trigger recovery — the request retries with seeded
backoff-plus-jitter until its deadline or attempt budget runs out.

Drivers: :func:`run_traffic` runs the body under the deterministic
scheduler (thread backend) so a traffic seed — including its
shed/retry/violation trace — replays bit-identically;
:func:`run_traffic_proc` runs it wall-clock on the proc backend where
a :class:`~repro.faults.plan.FaultPlan` of ``after_s`` kills and stalls
delivers real ``SIGKILL`` / ``SIGSTOP`` mid-traffic.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

from ..mpi.errors import (
    CommRevokedError,
    MPIError,
    OpTimeoutError,
    RankKilledError,
    TargetFailedError,
)
from ..mpi.runtime import RankFailedError, Runtime
from .frontend import RETRY_TICKS, AdmissionQueue, CircuitBreaker, Overloaded, Request
from .workloads import make_workload

__all__ = [
    "TrafficConfig",
    "TrafficResult",
    "run_traffic",
    "run_traffic_proc",
    "trace_digest",
    "traffic_body",
]

#: a survivor treats these as "a peer failed — run collective recovery";
#: RankKilledError (the victim's own death notice) must propagate
_FATAL = (TargetFailedError, CommRevokedError, RankFailedError)

#: request-level transient failures: retry with backoff, never recover
_TRANSIENT = (OpTimeoutError,)


@dataclass(frozen=True)
class TrafficConfig:
    """One service-traffic scenario (picklable — shipped to proc ranks)."""

    scenario: str = "stencil"
    seed: int = 0
    size: int = 0            # workload scale knob (0 = workload default)
    offered: int = 3         # client arrivals per rank per tick
    service_rate: int = 2    # executions per rank per tick
    queue_capacity: int = 6
    deadline_ticks: int = 8
    max_attempts: int = 3
    breaker_threshold: int = 3
    breaker_cooldown: int = 3
    checkpoint_every: int = 4
    max_ticks: int = 150
    tick_sleep_s: float = 0.0  # wall pacing (proc backend only)
    datapath: str = "mpi2"


def traffic_body(comm, cfg: TrafficConfig) -> dict:
    """One rank of the traffic service; returns its per-rank record."""
    from ..armci import Armci
    from ..recover import recover

    workload = make_workload(cfg.scenario, cfg.seed, cfg.size)
    armci = Armci.init(comm, datapath=cfg.datapath)
    setup_retries = 0
    while True:
        # a wall-clock kill may land during the collective setup itself;
        # rebuild the world and start over (same ULFM loop as below)
        try:
            state = workload.setup(armci)
            break
        except RankKilledError:
            raise
        except _FATAL:
            try:
                armci.world.revoke()
            except MPIError:  # pragma: no cover - already revoked
                pass
            armci.world.agree(0)
            armci, _ = recover(armci)
            setup_retries += 1
            if setup_retries > comm.size:
                raise
    queue = AdmissionQueue(cfg.queue_capacity)
    breaker = CircuitBreaker(cfg.breaker_threshold, cfg.breaker_cooldown)
    rng = random.Random(((cfg.seed + 1) * 0x9E3779B1) ^ (comm.rank << 16))

    events: list = []
    latencies: list = []
    sheds = dict.fromkeys(
        ("queue_full", "breaker_open", "deadline", "gave_up", "recovery", "drain"), 0
    )
    offered_n = admitted_n = retries_n = completed_local = 0
    completed: set = set()
    per_tick: list = []
    recovery_ticks: list = []
    hwm = 0
    rid = comm.rank << 20
    ckpt = workload.checkpoint(state, completed, hwm)
    tick = 0
    awaiting_drain = False
    done = False

    def reject(reason: str, tick_: int, payload) -> None:
        nonlocal sheds
        sheds[reason] += 1
        events.append(("shed", tick_, reason, payload))
        workload.on_rejected(state, payload)

    while not done:
        if cfg.tick_sleep_s > 0.0:
            time.sleep(cfg.tick_sleep_s)
        try:
            rank, nproc = armci.my_id, armci.nproc
            # 1. arrivals through admission control
            if workload.pull_based:
                # backpressure form: only draw work the queue can hold
                budget = sum(
                    1
                    for _ in range(min(cfg.offered, queue.free))
                    if breaker.allow(tick)
                )
                for p in workload.generate(
                    state, rank, nproc, tick, rng, budget, completed
                ):
                    offered_n += 1
                    admitted_n += 1
                    rid += 1
                    queue.offer(Request(rid, p, tick, tick + cfg.deadline_ticks))
            else:
                for p in workload.generate(
                    state, rank, nproc, tick, rng, cfg.offered, completed
                ):
                    offered_n += 1
                    rid += 1
                    if not breaker.allow(tick):
                        reject("breaker_open", tick, p)
                        continue
                    try:
                        queue.offer(Request(rid, p, tick, tick + cfg.deadline_ticks))
                    except Overloaded:
                        reject("queue_full", tick, p)
                        continue
                    admitted_n += 1
            # 2. deadline expiry of queued work
            for req in queue.expire(tick):
                reject("deadline", tick, req.payload)
            # 3. serve up to service_rate requests
            effects_out: list = []
            newly: list = []
            for _ in range(cfg.service_rate):
                req = queue.pop_ready(tick)
                if req is None:
                    break
                try:
                    eff = workload.execute(state, req.payload)
                except RankKilledError:
                    raise
                except _TRANSIENT:
                    req.attempts += 1
                    breaker.record_failure(tick)
                    if req.attempts > cfg.max_attempts:
                        reject("gave_up", tick, req.payload)
                        continue
                    wait = RETRY_TICKS.steps(req.attempts - 1, rng)
                    if tick + wait > req.deadline:
                        reject("deadline", tick, req.payload)
                        continue
                    req.not_before = tick + wait
                    retries_n += 1
                    events.append(("retry", tick, req.payload, req.attempts, wait))
                    queue.requeue(req)
                else:
                    effects_out.extend(eff)
                    newly.append(req.payload)
                    latencies.append(tick - req.arrival + 1)
                    completed_local += 1
                    breaker.record_success(tick)
            # recovery backlog is drained once the queue is empty AND the
            # breaker has closed again (half-open probe succeeded)
            if awaiting_drain and not len(queue) and breaker.state == "closed":
                events.append(("drained", tick))
                awaiting_drain = False
            # 4. hard stop: drain whatever is left as shed load
            out_of_time = tick + 1 >= cfg.max_ticks
            if out_of_time:
                for req in queue.drain():
                    reject("drain", tick, req.payload)
            # 5. per-tick status exchange (the control-plane heartbeat)
            done_local = (
                workload.exhausted(state, rank, nproc, completed) and not len(queue)
            )
            stats = armci.world.allgather(
                (done_local, newly, effects_out, workload.watermark(state))
            )
            all_newly = [k for st in stats for k in st[1]]
            completed.update(all_newly)
            all_effects = [e for st in stats for e in st[2]]
            workload.apply_effects(state, rank, nproc, all_effects)
            hwm = max(hwm, max(st[3] for st in stats))
            per_tick.append(len(all_newly))
            done = (all(st[0] for st in stats) and not all_effects) or out_of_time
            # 6. replicated checkpoint at tick boundaries
            if not done and (tick + 1) % cfg.checkpoint_every == 0:
                ckpt = workload.checkpoint(state, completed, hwm)
        except RankKilledError:
            raise
        except _FATAL as exc:
            events.append(("fault", tick, type(exc).__name__))
            # poison the tick everywhere, rendezvous, then rebuild
            try:
                armci.world.revoke()
            except MPIError:  # pragma: no cover - already revoked
                pass
            armci.world.agree(0)
            armci, report = recover(armci)
            state = workload.restore(armci, ckpt)
            completed = set(ckpt["completed"])
            hwm = ckpt["watermark"]
            for req in queue.drain():
                reject("recovery", tick, req.payload)
            breaker.trip(tick)
            recovery_ticks.append(tick)
            awaiting_drain = True
            events.append(("recovered", tick, len(report.failed), armci.nproc))
            tick = max(armci.world.allgather(tick))
        tick += 1

    while True:
        # a late kill can land in the verification collective itself;
        # roll back to the checkpoint and verify that state instead
        try:
            ok_local = bool(workload.verify(state, completed))
            verified = all(armci.world.allgather(ok_local))
            break
        except RankKilledError:
            raise
        except _FATAL:
            try:
                armci.world.revoke()
            except MPIError:  # pragma: no cover - already revoked
                pass
            armci.world.agree(0)
            armci, report = recover(armci)
            state = workload.restore(armci, ckpt)
            completed = set(ckpt["completed"])
            recovery_ticks.append(tick)
            events.append(("recovered", tick, len(report.failed), armci.nproc))
    out = {
        "rank": comm.rank,
        "final_rank": armci.my_id,
        "nproc_final": armci.nproc,
        "ticks": tick,
        "offered": offered_n,
        "admitted": admitted_n,
        "retries": retries_n,
        "completed_local": completed_local,
        "completed": sorted(completed),
        "sheds": sheds,
        "latencies": latencies,
        "events": events,
        "breaker": list(breaker.transitions),
        "per_tick": per_tick,
        "recoveries": len(recovery_ticks),
        "recovery_ticks": recovery_ticks,
        "verified": verified,
    }
    armci.finalize()
    return out


def trace_digest(results) -> str:
    """sha256 over the canonical per-rank traffic trace.

    Covers every shed/retry/breaker/fault/recovery event, the latency
    series, and the completed set — the "same shed/retry/violation
    trace from the same seed" replay contract.  Dead ranks hash as a
    fixed marker.
    """
    h = hashlib.sha256()
    for r in results or []:
        if r is None:
            h.update(b"DEAD;")
            continue
        h.update(
            repr((
                r["events"],
                r["breaker"],
                sorted(r["sheds"].items()),
                r["retries"],
                r["latencies"],
                r["completed"],
            )).encode()
        )
        h.update(b";")
    return h.hexdigest()


@dataclass
class TrafficResult:
    """Aggregated run record: metrics over the per-rank results."""

    cfg: TrafficConfig
    nproc: int
    ok: bool
    verified: bool
    results: list
    digest: str
    schedule_digest: "str | None" = None
    error: "str | None" = None
    violations: list = field(default_factory=list)
    #: proc faults still pending when the run ended, as
    #: ``("missed", "kill"|"stall", rank, after_s)`` events
    missed: list = field(default_factory=list)
    ticks: int = 0
    offered: int = 0
    admitted: int = 0
    completed: int = 0
    retries: int = 0
    goodput: float = 0.0
    shed: dict = field(default_factory=dict)
    shed_rate: float = 0.0
    p50_ticks: float = 0.0
    p99_ticks: float = 0.0
    recoveries: int = 0
    recovery_dip: float = 0.0
    drain_ticks: int = 0

    @classmethod
    def from_results(cls, cfg, nproc, results, *, ok=True,
                     schedule_digest=None, error=None, violations=()):
        live = [r for r in (results or []) if r is not None]
        res = cls(
            cfg=cfg, nproc=nproc, ok=bool(ok and live),
            verified=bool(live) and all(r["verified"] for r in live),
            results=list(results or []), digest=trace_digest(results),
            schedule_digest=schedule_digest, error=error,
            violations=list(violations),
        )
        if not live:
            return res
        res.ticks = max(r["ticks"] for r in live)
        res.offered = sum(r["offered"] for r in live)
        res.admitted = sum(r["admitted"] for r in live)
        res.retries = sum(r["retries"] for r in live)
        res.completed = len(live[0]["completed"])
        res.goodput = res.completed / res.ticks if res.ticks else 0.0
        res.shed = {
            k: sum(r["sheds"][k] for r in live) for k in live[0]["sheds"]
        }
        total_shed = sum(res.shed.values())
        res.shed_rate = total_shed / res.offered if res.offered else 0.0
        lats = sorted(x for r in live for x in r["latencies"])
        if lats:
            res.p50_ticks = float(lats[len(lats) // 2])
            res.p99_ticks = float(lats[min(len(lats) - 1, (99 * len(lats)) // 100)])
        res.recoveries = max(r["recoveries"] for r in live)
        res._dip_and_drain(live)
        return res

    def _dip_and_drain(self, live) -> None:
        """Recovery-dip depth and backlog drain time from the timeline."""
        recs = sorted({t for r in live for t in r["recovery_ticks"]})
        if not recs:
            return
        t0 = recs[0]
        timeline = max((r["per_tick"] for r in live), key=len)
        pre = timeline[max(0, t0 - 3):t0] or [0]
        window = timeline[t0:t0 + self.cfg.breaker_cooldown + 1] or [0]
        self.recovery_dip = max(0.0, sum(pre) / len(pre) - min(window))
        drained = [
            ev[1]
            for r in live
            for ev in r["events"]
            if ev[0] == "drained" and ev[1] >= recs[-1]
        ]
        if drained:
            self.drain_ticks = max(drained) - recs[-1]

    def summary(self) -> str:
        shed = ", ".join(f"{k}={v}" for k, v in sorted(self.shed.items()) if v)
        lines = [
            f"traffic[{self.cfg.scenario}] nproc={self.nproc} "
            f"seed={self.cfg.seed} offered/tick/rank={self.cfg.offered}",
            f"  ok={self.ok} verified={self.verified} ticks={self.ticks} "
            f"completed={self.completed} goodput={self.goodput:.3f}/tick",
            f"  latency p50={self.p50_ticks:.0f} p99={self.p99_ticks:.0f} ticks; "
            f"retries={self.retries} shed_rate={self.shed_rate:.3f} "
            f"[{shed or 'none'}]",
            f"  recoveries={self.recoveries} dip={self.recovery_dip:.2f} "
            f"drain={self.drain_ticks} ticks",
            f"  digest {self.digest[:16]}…"
            + (f" schedule {self.schedule_digest[:16]}…"
               if self.schedule_digest else ""),
        ]
        if self.error:
            lines.append(f"  error: {self.error}")
        for v in self.violations:
            lines.append(f"  violation: {v}")
        for _, kind, rank, after_s in self.missed:
            lines.append(
                f"  missed fault: {kind} rank {rank} @{after_s}s never fired "
                "(the run ended first)"
            )
        return "\n".join(lines)


def run_traffic(
    cfg: TrafficConfig,
    nproc: int,
    schedule_seed: int = 0,
    *,
    plan=None,
    switch_prob: float = 0.25,
    sanitize: bool = True,
) -> TrafficResult:
    """Deterministic thread-backend run (optionally under a FaultPlan).

    The same ``(cfg, nproc, schedule_seed, plan)`` replays bit-
    identically: both the scheduler digest and the traffic trace digest
    are pure functions of those inputs.
    """
    if cfg.tick_sleep_s:
        raise ValueError("tick_sleep_s is wall pacing — proc backend only")
    from ..sanitizer.fuzz import run_schedule

    report = run_schedule(
        traffic_body, nproc, schedule_seed,
        args=(cfg,), plan=plan, switch_prob=switch_prob, sanitize=sanitize,
    )
    return TrafficResult.from_results(
        cfg, nproc, report.results, ok=report.ok,
        schedule_digest=report.digest, error=report.error,
        violations=report.violations,
    )


def run_traffic_proc(
    cfg: TrafficConfig,
    nproc: int,
    *,
    plan=None,
    heartbeat_s: float = 0.05,
    suspect_after: float = 0.25,
    join_timeout: float = 90.0,
) -> TrafficResult:
    """Wall-clock proc-backend run (optionally under a fault plan of
    ``after_s`` kills and stalls; one still pending when the run ends is
    listed in ``missed``)."""
    rt = Runtime(
        nproc, backend="proc",
        heartbeat_s=heartbeat_s, suspect_after=suspect_after,
    )
    if plan is not None:
        from ..faults.injector import FaultInjector

        rt.faults = FaultInjector(plan)
    error = None
    results = None
    try:
        results = rt.spmd(traffic_body, cfg, join_timeout=join_timeout)
    except Exception as exc:  # noqa: BLE001 - gate reports, caller decides
        error = repr(exc)
    res = TrafficResult.from_results(
        cfg, nproc, results, ok=error is None, error=error,
    )
    if rt.faults is not None:
        res.missed = [e for e in rt.faults.events if e[0] == "missed"]
    return res
