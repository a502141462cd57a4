"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`
against a live runtime.

Install by assigning ``runtime.faults = FaultInjector(plan)`` before
``Runtime.spmd`` (or pass ``plan=`` to
:func:`repro.sanitizer.fuzz.run_schedule`, which does this and folds
the plan into the replay digest).  The runtime consults the injector at
three points:

``begin_run(runtime)``
    Called once by ``spmd``: installs seeded delivery-delay jitter into
    every rank's :class:`~repro.simtime.clock.SimClock` and swaps the
    installed timing policy's :class:`~repro.simtime.netmodel.PathModel`
    for its :meth:`~repro.simtime.netmodel.PathModel.degraded` copy.

``at_point(runtime, proc, kind)``
    Called from ``Runtime.fuzz_point`` — *not* holding the runtime
    condition variable.  Kill specs take the lock, run
    ``Runtime.mark_dead`` (which triggers the recovery death hooks),
    and raise :class:`~repro.mpi.errors.RankKilledError` inside the
    victim.  Stall specs hand the scheduler token away for N steps via
    ``DeterministicSchedule.forced_yield``.

``filter_rma(win, origin_world, kind, data)``
    Called by the window datapath *holding* the condition variable, so
    it must not block: returns the payload unchanged, a bit-flipped
    copy (``corrupt``), or ``None`` (``drop`` — the op silently moves
    no data, modeling a lost delivery).

All plan execution draws randomness from one ``random.Random`` seeded
by the plan; under a deterministic schedule every consultation happens
on the token-holding rank, so the whole fault scenario is a pure
function of ``(schedule seed, plan)``.
"""

from __future__ import annotations

import os
import random

import numpy as np

from ..backoff import STALL_STEPS, STALL_WAIT
from ..mpi.errors import RankKilledError, RetriesExhausted
from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Single-use executor of one :class:`FaultPlan` against one runtime.

    ``retries`` bounds the retry-with-backoff budget for *transient*
    stalls (``Stall(transient=True)``): attempt ``i`` absorbs up to
    ``2**i`` stall steps, so the budget covers ``2**(retries+1) - 1``
    steps in total before the stalled rank raises
    :class:`~repro.mpi.errors.RetriesExhausted`.  Defaults to the
    ``REPRO_FAULT_RETRIES`` environment variable (3).
    """

    def __init__(self, plan: FaultPlan, retries: "int | None" = None):
        self.plan = plan
        self.runtime = None
        if retries is None:
            retries = int(os.environ.get("REPRO_FAULT_RETRIES", "3"))
        self.retries = retries
        #: executed-fault log, e.g. ``("kill", rank, point, kind)`` — part
        #: of the replay digest, so divergent execution is detected
        self.events: list[tuple] = []
        self._rng = random.Random(0x0FAB17 ^ (plan.seed * 0x9E3779B1))
        self._point_counts: dict[int, int] = {}
        self._op_count = 0
        self._jitter_frac = sum(d.jitter_frac for d in plan.delays)

    # -- wiring ---------------------------------------------------------------
    def begin_run(self, runtime) -> None:
        """Attach to ``runtime`` (called by ``Runtime.spmd``); idempotent
        for the same runtime, single-use across runtimes."""
        if self.runtime is runtime:
            return
        if self.runtime is not None:
            raise RuntimeError("a FaultInjector is single-use; build a new one")
        self.runtime = runtime
        runtime.faults = self
        if self._jitter_frac > 0.0:
            for p in runtime.procs:
                p.clock.add_jitter(self._jitter)
        lat = 1.0
        bw = 1.0
        for d in self.plan.delays:
            lat *= d.latency_factor
            bw *= d.bw_factor
        if (lat > 1.0 or bw < 1.0) and runtime.timing is not None:
            path = getattr(runtime.timing, "path", None)
            if path is not None:
                runtime.timing.path = path.degraded(
                    latency_factor=lat, bw_factor=bw
                )

    def _jitter(self, kind: str, seconds: float) -> float:
        return seconds * self._jitter_frac * self._rng.random()

    def point_counts(self) -> dict[int, int]:
        """Fuzz points each rank reached (probe a run to size a kill matrix)."""
        return dict(self._point_counts)

    # -- fuzz-point hook (NOT holding runtime.cond) ----------------------------
    def at_point(self, runtime, proc, kind: str) -> None:
        rank = proc.rank
        if proc.dead:
            raise RankKilledError(
                f"rank {rank} was killed by fault injection"
            )
        idx = self._point_counts.get(rank, 0)
        self._point_counts[rank] = idx + 1
        for k in self.plan.kills:
            if k.rank == rank and k.point == idx and (k.kind in (None, kind)):
                with runtime.cond:
                    self.events.append(("kill", rank, idx, kind))
                    runtime.mark_dead(rank)
                raise RankKilledError(
                    f"rank {rank} killed at its fuzz point {idx} ({kind}) "
                    f"by fault plan"
                )
        for s in self.plan.stalls:
            if s.rank == rank and s.point == idx and (s.kind in (None, kind)):
                if s.transient:
                    self._transient_stall(runtime, rank, idx, kind, s)
                    continue
                with runtime.cond:
                    self.events.append(("stall", rank, idx, kind, s.steps))
                    sched = runtime.schedule
                    if sched is not None:
                        for _ in range(s.steps):
                            sched.forced_yield(rank, kind)
                    else:
                        # wall-clock mode: a bounded sleep models the stall
                        runtime.sleep(0.002 * s.steps)

    def _transient_stall(self, runtime, rank: int, idx: int, kind: str, s) -> None:
        """Retry-with-backoff through a transient stall (bounded attempts).

        Attempt ``i`` waits out up to :data:`repro.backoff.STALL_STEPS`
        scheduler steps (``2**i`` — deterministic, no shared RNG is
        consumed, so seeded replays are unaffected).  If the stall
        outlasts the whole budget, the rank raises a typed
        :class:`RetriesExhausted`; the fault was transient, so nothing
        is marked dead.
        """
        remaining = s.steps
        for attempt in range(self.retries + 1):
            burst = min(remaining, STALL_STEPS.steps(attempt))
            with runtime.cond:
                self.events.append(("retry", rank, idx, kind, attempt, burst))
                sched = runtime.schedule
                if sched is not None:
                    for _ in range(burst):
                        sched.forced_yield(rank, kind)
                else:
                    # wall-clock mode: deterministic exponential backoff
                    runtime.sleep(STALL_WAIT.delay(attempt))
            remaining -= burst
            if remaining <= 0:
                with runtime.cond:
                    self.events.append(("retry_cleared", rank, idx, kind, attempt))
                return
        with runtime.cond:
            self.events.append(("retries_exhausted", rank, idx, kind, self.retries + 1))
        raise RetriesExhausted(
            f"transient stall at rank {rank} fuzz point {idx} ({kind}) did not "
            f"clear within {self.retries + 1} attempts "
            f"({s.steps - remaining}/{s.steps} stall steps absorbed)"
        )

    # -- RMA datapath hook (HOLDING runtime.cond — must not block) -------------
    def filter_rma(self, win, origin_world: int, kind: str, data):
        """Pass/corrupt/drop one RMA payload; returns ``None`` to drop."""
        idx = self._op_count
        self._op_count += 1
        for c in self.plan.corruptions:
            if c.op == idx and (c.kind in (None, kind)):
                if c.mode == "drop":
                    self.events.append(("drop", idx, kind, origin_world))
                    return None
                corrupted = np.ascontiguousarray(data).copy()
                flat = corrupted.reshape(-1).view(np.uint8)
                if flat.size:
                    pos = self._rng.randrange(flat.size)
                    flat[pos] ^= np.uint8(1 << self._rng.randrange(8))
                    self.events.append(
                        ("corrupt", idx, kind, origin_world, pos)
                    )
                return corrupted
        return data
