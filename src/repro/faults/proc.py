"""Proc-backend fault injection: real signals on real processes.

The thread-backend injector (:mod:`repro.faults.injector`) schedules
faults at deterministic *fuzz points* — a coordinate system that only
exists when every rank runs under the giant lock in one address space.
Across OS processes there is no shared step counter, so the proc
backend accepts a different, smaller vocabulary measured in **wall-clock
seconds after launch** and executed with **real signals**:

* :class:`ProcKill` — ``SIGKILL`` the rank's process (no cleanup, no
  goodbye message; survivors learn of it from the heartbeat lease or
  the parent monitor's ``rank_dead`` broadcast),
* :class:`ProcStall` — ``SIGSTOP`` for a bounded interval, then
  ``SIGCONT``: the rank's heartbeat lease goes stale and peers may
  *suspect* it, but its pid stays alive so it is never declared dead
  (stalled-forever is indistinguishable from slow, exactly as in a real
  failure detector),
* :class:`ProcDelay` — hold the rank's body back ``startup_s`` seconds
  before it enters the user function (the pump thread is already
  heartbeating, so peers see a slow rank, not a dead one).

A :class:`ProcFaultPlan` is the frozen, composable description; a
:class:`ProcFaultInjector` (``proc_capable = True``) executes it from
the parent's monitor loop.  Install by assigning ``runtime.faults``
before :meth:`~repro.mpi.runtime.Runtime.spmd`::

    rt = Runtime(4, backend="proc")
    rt.faults = ProcFaultInjector(ProcFaultPlan(seed=0).kill(2, after_s=0.3))
    rt.spmd(body)

Timing is wall-clock, so *which operation* the victim dies inside is
not bit-reproducible the way thread-backend plans are — but the plan
itself (who dies, when, in what order) is, and the recovery protocol it
exercises must tolerate any interleaving anyway.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker

__all__ = [
    "ProcKill",
    "ProcStall",
    "ProcDelay",
    "ProcFaultPlan",
    "ProcFaultInjector",
    "sweep_stale_segments",
]

#: a ``repro-*`` shm segment untouched this long is an orphan of a
#: previous (crashed or SIGKILLed) run, not a live window of this one
STALE_SEGMENT_S = 600.0


def sweep_stale_segments(
    stale_after_s: "float | None" = STALE_SEGMENT_S,
    shm_dir: "str | os.PathLike" = "/dev/shm",
    pattern: str = "repro-*",
) -> "list[str]":
    """Unlink orphaned ``repro-*`` shared-memory segments; idempotent.

    The proc backend's own teardown sweeps the segments of *its* run id
    (``pattern``, ``stale_after_s=None``: any age); a SIGKILLed
    traffic-harness worker from an earlier run (or a run whose parent
    itself died) leaves segments no live process will ever reclaim.
    This sweeps any ``repro-*`` segment whose mtime is older than
    ``stale_after_s`` — age-gating keeps concurrent live runs safe,
    since their windows and heartbeat leases are touched far more often
    than that.  Returns the names removed; calling it twice is a no-op
    the second time (nothing matches, nothing raises).
    """
    shm = pathlib.Path(shm_dir)
    if not shm.is_dir():  # pragma: no cover - non-Linux shm layout
        return []
    removed: list[str] = []
    for seg in shm.glob(pattern):
        try:
            if stale_after_s is not None and (
                seg.stat().st_mtime > time.time() - stale_after_s
            ):
                continue
        except OSError:  # concurrently unlinked — already swept
            continue
        try:
            # register first (idempotent): unregistering a name the
            # tracker never saw makes its process print a KeyError
            # traceback at shutdown
            resource_tracker.register(f"/{seg.name}", "shared_memory")
            resource_tracker.unregister(f"/{seg.name}", "shared_memory")
        except Exception:  # pragma: no cover - tracker gone at exit
            pass
        try:
            seg.unlink()
        except OSError:  # pragma: no cover - concurrent unlink
            continue
        removed.append(seg.name)
    return removed


@dataclass(frozen=True)
class ProcKill:
    """``SIGKILL`` ``rank`` ``after_s`` seconds after the run starts."""

    rank: int
    after_s: float

    def __post_init__(self) -> None:
        if self.after_s < 0.0:
            raise ValueError("ProcKill.after_s must be >= 0")


@dataclass(frozen=True)
class ProcStall:
    """``SIGSTOP`` ``rank`` ``after_s`` seconds in, ``SIGCONT`` after
    ``for_s`` more seconds (``finish`` resumes it regardless, so a
    stalled child can never outlive the run)."""

    rank: int
    after_s: float
    for_s: float = 0.5

    def __post_init__(self) -> None:
        if self.after_s < 0.0 or self.for_s <= 0.0:
            raise ValueError("ProcStall: after_s must be >= 0 and for_s > 0")


@dataclass(frozen=True)
class ProcDelay:
    """Delay ``rank``'s entry into the user function by ``startup_s``."""

    rank: int
    startup_s: float

    def __post_init__(self) -> None:
        if self.startup_s < 0.0:
            raise ValueError("ProcDelay.startup_s must be >= 0")


@dataclass(frozen=True)
class ProcFaultPlan:
    """An immutable cross-process fault scenario (builder-style).

    ``seed`` names the scenario for replay bookkeeping (bench gates fold
    it into their records); the plan's execution consults no randomness.
    """

    seed: int = 0
    kills: tuple = field(default_factory=tuple)
    stalls: tuple = field(default_factory=tuple)
    delays: tuple = field(default_factory=tuple)

    def kill(self, rank: int, after_s: float) -> "ProcFaultPlan":
        return replace(self, kills=self.kills + (ProcKill(rank, after_s),))

    def stall(self, rank: int, after_s: float, for_s: float = 0.5) -> "ProcFaultPlan":
        return replace(self, stalls=self.stalls + (ProcStall(rank, after_s, for_s),))

    def delay(self, rank: int, startup_s: float) -> "ProcFaultPlan":
        return replace(self, delays=self.delays + (ProcDelay(rank, startup_s),))

    @property
    def empty(self) -> bool:
        return not (self.kills or self.stalls or self.delays)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for k in self.kills:
            parts.append(f"SIGKILL rank {k.rank} @{k.after_s}s")
        for s in self.stalls:
            parts.append(f"SIGSTOP rank {s.rank} @{s.after_s}s for {s.for_s}s")
        for d in self.delays:
            parts.append(f"delay rank {d.rank} start by {d.startup_s}s")
        return "; ".join(parts)


def _signal_child(child, sig: int) -> bool:
    """Deliver ``sig`` to a live child process; False if already gone."""
    pid = child.pid
    if pid is None or not child.is_alive():
        return False
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        return False
    return True


class ProcFaultInjector:
    """Executes a :class:`ProcFaultPlan` from the parent monitor loop.

    The proc backend recognises it by ``proc_capable`` and calls
    :meth:`start` once the children are launched, :meth:`poll` every
    monitor iteration, and :meth:`finish` unconditionally at teardown
    (first thing in the ``finally`` — a ``SIGSTOP``-ped child cannot
    handle the ``SIGTERM`` that follows).  ``startup_delays`` is read
    before fork and shipped to the children in their config tuple.
    """

    #: marks this injector as accepted by the proc backend's ``spmd``
    proc_capable = True

    def __init__(self, plan: ProcFaultPlan):
        self.plan = plan
        self._t0: "float | None" = None
        # (due_time, kind, rank) min-heap substitute: sorted list, popped
        # from the front as events fire
        self._pending: list[tuple[float, str, int, float]] = []
        self._stopped: set[int] = set()
        self.fired: list[tuple[str, int, float]] = []

    # -- lifecycle (called by the proc backend) ------------------------------------
    def startup_delays(self, nproc: int) -> dict[int, float]:
        """Per-rank startup delay in seconds (shipped to the children)."""
        return {
            d.rank: d.startup_s
            for d in self.plan.delays
            if 0 <= d.rank < nproc and d.startup_s > 0.0
        }

    def start(self, children: list) -> None:
        self._t0 = time.monotonic()
        events: list[tuple[float, str, int, float]] = []
        for k in self.plan.kills:
            if 0 <= k.rank < len(children):
                events.append((self._t0 + k.after_s, "kill", k.rank, 0.0))
        for s in self.plan.stalls:
            if 0 <= s.rank < len(children):
                events.append((self._t0 + s.after_s, "stop", s.rank, s.for_s))
        self._pending = sorted(events)

    def poll(self, children: list) -> None:
        """Fire every event whose due time has passed (monitor loop)."""
        if self._t0 is None:
            return
        now = time.monotonic()
        while self._pending and self._pending[0][0] <= now:
            due, kind, rank, for_s = self._pending.pop(0)
            if kind == "kill":
                if _signal_child(children[rank], signal.SIGKILL):
                    self.fired.append(("kill", rank, now - self._t0))
            elif kind == "stop":
                if _signal_child(children[rank], signal.SIGSTOP):
                    self._stopped.add(rank)
                    self.fired.append(("stop", rank, now - self._t0))
                    self._pending.append((now + for_s, "cont", rank, 0.0))
                    self._pending.sort()
            elif kind == "cont":
                self._resume(children, rank, now)

    def finish(self, children: list) -> None:
        """Resume every still-stopped child (teardown safety net).

        Also sweeps *stale* ``repro-*`` shm segments orphaned by earlier
        runs — a SIGKILL plan is exactly the kind of run that leaves
        them, so fault-injecting teardowns double as the janitor.
        """
        if self._t0 is None:
            return
        now = time.monotonic()
        for rank in sorted(self._stopped):
            self._resume(children, rank, now)
        self._pending = [e for e in self._pending if e[1] != "cont"]
        sweep_stale_segments()

    def _resume(self, children: list, rank: int, now: float) -> None:
        if rank in self._stopped:
            self._stopped.discard(rank)
            if _signal_child(children[rank], signal.SIGCONT):
                self.fired.append(("cont", rank, now - self._t0))
