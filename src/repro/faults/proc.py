"""Proc-backend fault delivery: real signals on real processes.

The thread backend executes a :class:`~repro.faults.plan.FaultPlan` at
deterministic *fuzz points* — a coordinate system that only exists when
every rank runs under the giant lock in one address space.  Across OS
processes there is no shared step counter, so the proc backend runs the
plan's wall-clock entries, ``after_s`` seconds after launch, with
**real signals**:

* a ``kill(rank, after_s=...)`` is ``SIGKILL`` on the rank's process (no
  cleanup, no goodbye message; survivors learn of it from the heartbeat
  lease or the parent monitor's ``rank_dead`` broadcast),
* a ``stall(rank, after_s=..., for_s=...)`` is ``SIGSTOP``, then
  ``SIGCONT`` ``for_s`` seconds later: the rank's heartbeat lease goes
  stale and peers may *suspect* it, but its pid stays alive so it is
  never declared dead (stalled-forever is indistinguishable from slow,
  exactly as in a real failure detector).

Install a plan the same way on both backends, before
:meth:`~repro.mpi.runtime.Runtime.spmd`::

    rt = Runtime(4, backend="proc")
    rt.faults = FaultInjector(FaultPlan(seed=0).kill(2, after_s=0.3))
    rt.spmd(body)

``spmd`` checks the plan through the injector's ``begin_run`` (a point
kill, a corrupt/drop or a delay raises a typed error there) and drives a
:class:`ProcSignals` from its monitor loop; every signal lands in the
injector's ``events`` as ``(kind, rank, seconds)``.

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
from multiprocessing import resource_tracker

__all__ = ["sweep_stale_segments"]

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


class ProcSignals:
    """Delivers a plan's ``after_s`` kills and stalls to ``children``.

    Built by the proc backend once the children are launched (the
    clock starts then); :meth:`poll` runs every monitor iteration and
    :meth:`finish` unconditionally at teardown (first thing in the
    ``finally`` — a ``SIGSTOP``-ped child cannot handle the ``SIGTERM``
    that follows).  Each delivered signal is appended to ``log`` as
    ``("kill"|"stop"|"cont", rank, seconds)``, and each kill or stall
    still due when the run ended as ``("missed", "kill"|"stall", rank,
    after_s)``.
    """

    def __init__(self, plan, log: list, children: list):
        self._log = log
        self._children = children
        self._t0 = time.monotonic()
        # (due_time, kind, rank, for_s, after_s), sorted; popped from the front
        self._pending = sorted(
            [(self._t0 + k.after_s, "kill", k.rank, 0.0, k.after_s) for k in plan.kills]
            + [
                (self._t0 + s.after_s, "stop", s.rank, s.for_s, s.after_s)
                for s in plan.stalls
            ]
        )
        self._stopped: set[int] = set()

    def poll(self) -> None:
        """Fire every signal whose due time has passed (monitor loop)."""
        now = time.monotonic()
        while self._pending and self._pending[0][0] <= now:
            _due, kind, rank, for_s, _after = self._pending.pop(0)
            if kind == "cont":
                self._resume(rank, now)
            elif _signal_child(
                self._children[rank],
                signal.SIGKILL if kind == "kill" else signal.SIGSTOP,
            ):
                self._log.append((kind, rank, now - self._t0))
                if kind == "stop":
                    self._stopped.add(rank)
                    self._pending.append((now + for_s, "cont", rank, 0.0, 0.0))
                    self._pending.sort()

    def finish(self) -> None:
        """Resume every still-stopped child (teardown safety net) and log
        every kill or stall that never fired as missed.

        Also sweeps *stale* ``repro-*`` shm segments orphaned by earlier
        runs — a SIGKILL plan is exactly the kind of run that leaves
        them, so fault-injecting teardowns double as the janitor.
        """
        now = time.monotonic()
        for rank in sorted(self._stopped):
            self._resume(rank, now)
        for _due, kind, rank, _for, after_s in self._pending:
            if kind != "cont":
                entry = "stall" if kind == "stop" else kind
                self._log.append(("missed", entry, rank, after_s))
        self._pending = []
        sweep_stale_segments()

    def _resume(self, rank: int, now: float) -> None:
        if rank in self._stopped:
            self._stopped.discard(rank)
            if _signal_child(self._children[rank], signal.SIGCONT):
                self._log.append(("cont", rank, now - self._t0))
