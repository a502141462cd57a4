"""Deterministic schedule fuzzing: run an SPMD body under seeded schedules.

Each :func:`run_schedule` call builds a fresh :class:`~repro.mpi.runtime.
Runtime`, installs a :class:`~repro.mpi.progress.DeterministicSchedule`
seeded with ``seed`` (and, by default, an :class:`~repro.sanitizer.
RmaSanitizer`), runs the body, and condenses the outcome into a
:class:`ScheduleReport` whose ``digest`` hashes the full scheduling
trace, final simulated clocks, recorded violations, and the error (if
any).  Because the schedule serialises execution and draws every
decision from the seed, re-running the same seed reproduces the same
digest bit-for-bit — a failing seed IS the reproducer.

:func:`fuzz_schedules` sweeps ``nschedules`` consecutive seeds and
reports each; callers filter for failures and replay the seed.
:func:`run_and_replay` runs one seed twice and says whether the digest
reproduced (the recover/sanitize gates and the regression corpus).

Passing ``plan=`` (a :class:`~repro.faults.plan.FaultPlan`) installs a
:class:`~repro.faults.injector.FaultInjector` on the runtime: the fault
scenario composes with the schedule, and the plan's canonical key plus
the injector's executed-fault log are folded into the digest — a
failing ``(seed, plan)`` pair replays bit-identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..mpi.errors import MPIError
from ..mpi.progress import DeterministicSchedule
from ..mpi.runtime import Runtime
from .sanitizer import RmaSanitizer

__all__ = ["ScheduleReport", "run_schedule", "run_and_replay", "fuzz_schedules",
           "format_reports"]


@dataclass
class ScheduleReport:
    """Outcome of one seeded schedule."""

    seed: int
    ok: bool
    digest: str
    error: "str | None" = None  # repr of the raised MPIError, if any
    violations: list = field(default_factory=list)  # str(RmaViolation)
    events: int = 0  # schedule trace length
    yields: int = 0  # preemptions taken at fuzz points
    max_clock: float = 0.0
    results: "list | None" = None  # per-rank return values on success
    plan: "str | None" = None  # FaultPlan.key() when faults were injected
    fault_events: int = 0  # faults actually executed by the injector
    dead_ranks: list = field(default_factory=list)  # ranks killed by the plan

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAIL {self.error}"
        return (
            f"seed {self.seed:>4}  digest {self.digest[:12]}  "
            f"events {self.events:>5}  yields {self.yields:>4}  {status}"
        )


def run_schedule(
    fn: Callable[..., Any],
    nproc: int,
    seed: int,
    *,
    args: Sequence[Any] = (),
    switch_prob: float = 0.25,
    sanitize: bool = True,
    check_nonstrict: bool = False,
    timing=None,
    plan=None,
) -> ScheduleReport:
    """Run ``fn(comm, *args)`` on ``nproc`` ranks under one seeded schedule.

    ``plan`` (a :class:`~repro.faults.plan.FaultPlan`) additionally
    installs a fault injector; the plan becomes part of the digest.
    """
    rt = Runtime(nproc, seed=seed)
    if timing is not None:
        rt.timing = timing
    sched = DeterministicSchedule(seed, switch_prob=switch_prob)
    sched.begin_run(rt)
    injector = None
    if plan is not None:
        from ..faults.injector import FaultInjector  # deferred: faults ↔ armci

        injector = FaultInjector(plan)
        rt.faults = injector
    san = None
    if sanitize:
        san = rt.sanitizer = RmaSanitizer(check_nonstrict=check_nonstrict)
    error: "Exception | None" = None
    results = None
    try:
        results = rt.spmd(fn, *args)
    except Exception as exc:  # noqa: BLE001 - any failure is a fuzz finding
        error = exc
    violations = [str(v) for v in san.violations] if san is not None else []
    digest = _digest(sched, rt, violations, error, injector)
    return ScheduleReport(
        seed=seed,
        ok=error is None,
        digest=digest,
        error=repr(error) if error is not None else None,
        violations=violations,
        events=len(sched.trace),
        yields=sum(1 for ev in sched.trace if ev[0] == "yield"),
        max_clock=rt.max_clock(),
        results=results,
        plan=plan.key() if plan is not None else None,
        fault_events=len(injector.events) if injector is not None else 0,
        dead_ranks=sorted(rt.dead_ranks),
    )


def run_and_replay(
    fn: Callable[..., Any], nproc: int, seed: int, **kw: Any
) -> "tuple[ScheduleReport, str | None]":
    """Run one seeded schedule twice; returns the first report and
    ``None`` when the second reproduced its digest, else the two digests
    as ``"<first> != <second>"`` (12 hex digits each)."""
    first = run_schedule(fn, nproc, seed, **kw)
    again = run_schedule(fn, nproc, seed, **kw)
    if again.digest == first.digest:
        return first, None
    return first, f"{first.digest[:12]} != {again.digest[:12]}"


def _digest(sched: DeterministicSchedule, rt: Runtime,
            violations: list, error, injector=None) -> str:
    payload = repr((
        sched.seed,
        None if injector is None else injector.plan.key(),
        None if injector is None else injector.events,
        sorted(rt.dead_ranks),
        sched.trace,
        [repr(c) for c in rt.clocks()],
        violations,
        repr(error) if error is not None else None,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def fuzz_schedules(
    fn: Callable[..., Any],
    nproc: int,
    *,
    nschedules: int = 16,
    base_seed: int = 0,
    **kw: Any,
) -> list[ScheduleReport]:
    """Run ``fn`` under ``nschedules`` consecutive seeds; report each."""
    return [
        run_schedule(fn, nproc, seed, **kw)
        for seed in range(base_seed, base_seed + nschedules)
    ]


def format_reports(reports: Sequence[ScheduleReport]) -> str:
    lines = [str(r) for r in reports]
    failed = [r for r in reports if not r.ok]
    lines.append(
        f"{len(reports)} schedule(s): {len(reports) - len(failed)} ok, "
        f"{len(failed)} failed"
    )
    for r in failed:
        hint = f"  replay with --seed {r.seed} --schedules 1"
        if r.plan:
            hint += " (and the identical --plan / fault flags)"
        lines.append(hint)
    return "\n".join(lines)
