"""SPMD execution runtime: MPI ranks as Python threads.

The simulated MPI runs each rank as an OS thread executing the same
callable, mirroring ``mpiexec -n N python script.py``.  All MPI state
transitions happen under one runtime-wide condition variable (a "giant
lock"), which makes every simulated MPI operation linearisable and lets a
watchdog detect global deadlock — the failure mode §V-E.1 of the paper is
designed to avoid (circular window-lock dependencies between two
processes' communication operations).

Design notes
------------
* Blocking MPI semantics are implemented with ``Runtime.wait_for(pred)``:
  the calling rank sleeps on the shared condition until the predicate
  holds.  Any state change calls ``notify_progress()``.
* The watchdog is not timer-based guesswork: a rank that times out while
  **all** live ranks are blocked and the global progress counter has not
  moved declares deadlock, raising :class:`ProgressDeadlockError`
  everywhere.  Tests use this to prove that a naive "lock both windows"
  implementation of ARMCI's global-buffer communication deadlocks, while
  the staged implementation does not.
* If one rank raises, the failure is propagated: all other ranks are
  woken and raise :class:`RankFailedError`, and ``Runtime.spmd`` re-raises
  the original exception.  This keeps test failures crisp instead of
  hanging the suite.
* Each rank owns a :class:`~repro.simtime.clock.SimClock`; communication
  layers charge modeled costs to it.  Wall-clock time of the Python
  simulation is never used as a performance result.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any, Callable, Sequence

from ..backoff import LOCK_RETRY, BackoffPolicy
from ..simtime.clock import SimClock
from .backend import RuntimeBackend, resolve_backend
from .errors import (
    InternalError,
    OpTimeoutError,
    ProgressDeadlockError,
    RankKilledError,
    TargetFailedError,
)

__all__ = [
    "Proc",
    "RankFailedError",
    "RankKilledError",
    "Runtime",
    "RUNTIME_CREATION_HOOKS",
    "current_proc",
    "spmd_run",
]

#: callables invoked with each freshly constructed :class:`Runtime`.
#: Used by the sanitizer/fuzzer layers to install themselves ambiently
#: (e.g. ``pytest --sanitize``) without the runtime importing them.
RUNTIME_CREATION_HOOKS: "list[Callable[[Runtime], None]]" = []


class RankFailedError(ProgressDeadlockError):
    """Raised in surviving ranks after another rank failed."""


class Proc:
    """Per-rank context: identity, simulated clock, and scheduler state."""

    __slots__ = (
        "rank", "runtime", "clock", "blocked", "finished", "dead",
        "exception", "acked_dead",
    )

    def __init__(self, rank: int, runtime: "Runtime"):
        self.rank = rank
        self.runtime = runtime
        self.clock = SimClock()
        self.blocked = False
        self.finished = False
        #: set by :meth:`Runtime.mark_dead`; a dead rank's MPI calls raise
        self.dead = False
        self.exception: BaseException | None = None
        #: failed world ranks this rank has acknowledged (ULFM
        #: ``MPIX_Comm_failure_ack`` analogue); a dead-stall verdict only
        #: poisons waits of ranks with *unacknowledged* failures, which is
        #: what lets survivors regroup (``Comm.shrink``) after a kill.
        self.acked_dead: set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Proc rank={self.rank}>"


_tls = threading.local()


class _Released:
    """The ``with`` block of :meth:`Runtime.released`: the RLock's own
    save/restore of its recursion level, the pair ``Condition.wait`` uses
    (one C call each way)."""

    __slots__ = ("_lock", "_saved")

    def __init__(self, lock):
        self._lock = lock
        self._saved = None

    def __enter__(self) -> None:
        if self._lock._is_owned():
            self._saved = self._lock._release_save()

    def __exit__(self, *exc) -> None:
        if self._saved is not None:
            self._lock._acquire_restore(self._saved)


def current_proc() -> Proc:
    """The :class:`Proc` of the calling thread (must be inside ``spmd``)."""
    proc = getattr(_tls, "proc", None)
    if proc is None:
        raise InternalError("not inside an SPMD region")
    return proc


class Runtime:
    """Owns the rank threads and all shared simulated-MPI state.

    Parameters
    ----------
    nproc:
        Number of ranks.
    watchdog_s:
        Seconds a blocked rank waits before checking the all-blocked
        deadlock condition.  Small values make deadlock tests fast; the
        check never fires spuriously because it also requires the global
        progress counter to be unchanged.  ``None`` reads the
        ``REPRO_WATCHDOG_S`` environment variable (default 2.0).
    op_timeout_s:
        Optional per-operation timeout, *independent* of the watchdog:
        blocking waits passed a timeout raise :class:`OpTimeoutError`
        after this many seconds even while other ranks keep making
        progress (the watchdog only fires on *global* no-progress).
        ``None`` reads ``REPRO_OP_TIMEOUT_S`` (default: disabled).
        Ignored under a deterministic schedule, which has no wall clock.
    op_retries:
        Bounded retry budget used by lock acquisition paths after an
        :class:`OpTimeoutError` (``REPRO_OP_RETRIES``, default 3).
    heartbeat_s:
        Cross-process liveness lease refresh interval, used by the proc
        backend's failure detector: each rank process re-stamps its
        shared-memory heartbeat slot at least this often.  ``None``
        reads ``REPRO_HEARTBEAT_S`` (default 0.05).  Ignored by the
        thread backend, whose failure knowledge is in-process.
    suspect_after:
        Seconds a rank's heartbeat lease may go stale before its peers
        *suspect* it and start probing the process directly
        (exponential-backoff re-probing; only a pid that is actually
        gone — or a zombie — is declared dead, so a SIGSTOPped rank is
        stalled, never falsely killed).  ``None`` reads
        ``REPRO_SUSPECT_AFTER`` (default 1.0).
    seed:
        Seed for the runtime's backoff RNG (exponential backoff between
        lock retries is seeded so retry timing is reproducible).
    backend:
        Rank-execution backend: ``"thread"`` (default — ranks as OS
        threads under the giant lock, the deterministic path),
        ``"proc"`` (one OS process per rank with shared-memory windows),
        or a :class:`~repro.mpi.backend.RuntimeBackend` instance.
    apply_hooks:
        Run :data:`RUNTIME_CREATION_HOOKS` on this runtime (default).
        The proc backend builds per-child runtime replicas with
        ``apply_hooks=False`` so ambiently installed layers (sanitizer,
        schedule fuzzer, fault injector) are never silently duplicated
        into rank processes they cannot observe.
    """

    def __init__(
        self,
        nproc: int,
        watchdog_s: "float | None" = None,
        op_timeout_s: "float | None" = None,
        op_retries: "int | None" = None,
        seed: int = 0,
        backend: "str | RuntimeBackend | None" = None,
        apply_hooks: bool = True,
        heartbeat_s: "float | None" = None,
        suspect_after: "float | None" = None,
    ):
        if nproc < 1:
            raise InternalError(f"nproc must be >= 1, got {nproc}")
        self.nproc = nproc
        if watchdog_s is None:
            watchdog_s = float(os.environ.get("REPRO_WATCHDOG_S", "2.0"))
        self.watchdog_s = watchdog_s
        if op_timeout_s is None:
            env = os.environ.get("REPRO_OP_TIMEOUT_S", "")
            op_timeout_s = float(env) if env else None
        self.op_timeout_s = op_timeout_s
        if op_retries is None:
            op_retries = int(os.environ.get("REPRO_OP_RETRIES", "3"))
        self.op_retries = op_retries
        if heartbeat_s is None:
            heartbeat_s = float(os.environ.get("REPRO_HEARTBEAT_S", "0.05"))
        self.heartbeat_s = heartbeat_s
        if suspect_after is None:
            suspect_after = float(os.environ.get("REPRO_SUSPECT_AFTER", "1.0"))
        self.suspect_after = suspect_after
        #: world ranks hosted by *this* OS process, or ``None`` when all
        #: ranks share the process (thread backend).  The proc backend's
        #: child runtimes set this to ``{rank}``: acknowledgement-based
        #: recovery (``failure_ack`` clearing a peer-death poisoning,
        #: dead-stall clearing) must then only wait on local ranks —
        #: remote replicas acknowledge in their own processes.
        self.local_ranks: "set[int] | None" = None
        self.seed = seed
        self.backend = resolve_backend(backend)
        self._backoff_rng = random.Random(0x5DEECE66D ^ (seed << 16))
        #: the giant lock itself: ``with rt.giant_lock`` is ``with rt.cond``
        #: without the condition's Python-level enter/exit
        self.giant_lock = threading.RLock()
        self.cond = threading.Condition(self.giant_lock)
        #: how many ranks (and helper threads) are in :meth:`sleep` right now
        self._sleepers = 0
        #: set while a waiting thread sleeps on something other than
        #: :attr:`cond` (a proc rank on its own inbox), which
        #: :meth:`notify_progress` must then wake by calling it
        self.wake_reader: "Callable[[], None] | None" = None
        self.procs = [Proc(r, self) for r in range(nproc)]
        self.progress_counter = 0
        #: optional simtime timing policy consulted by communication layers
        self.timing = None
        self.failed: BaseException | None = None
        self._deadlocked = False
        self._next_context_id = 0
        #: registry used by collective-matching and window creation;
        #: maps arbitrary keys to in-flight collective state.
        self.shared: dict[Any, Any] = {}
        #: this run's communicators by context id and its agree/shrink
        #: rounds (``repro.mpi.comm._Registry``), installed with the world
        self.registry: Any = None
        #: optional RMA sanitizer (``repro.sanitizer``) consulted by windows
        self.sanitizer = None
        self._schedule = self._faults = None
        #: whether a fuzz point can run here: true while a schedule or a
        #: fault injector is installed (kept by their setters)
        self.fuzzing = False
        #: world ranks that have failed (fault injection / injected death)
        self.dead_ranks: set[int] = set()
        #: true once the runtime concluded no progress is possible *because*
        #: of dead ranks; blocked survivors then raise TargetFailedError
        self._dead_stall = False
        #: callbacks ``hook(world_rank)`` run under :attr:`cond` when a rank
        #: dies; communication layers register repair actions here (prune
        #: lock queues, fail matching receives, forward orphaned mutexes).
        self._death_hooks: list[Callable[[int], None]] = []
        #: exceptions raised by death hooks (recovery must not re-kill the
        #: runtime; tests assert this stays empty)
        self.death_hook_errors: list[BaseException] = []
        if apply_hooks:
            for hook in RUNTIME_CREATION_HOOKS:
                hook(self)

    @property
    def schedule(self):
        """Optional deterministic schedule (``repro.mpi.progress``)."""
        return self._schedule

    @schedule.setter
    def schedule(self, schedule) -> None:
        self._schedule = schedule
        self.fuzzing = schedule is not None or self._faults is not None

    @property
    def faults(self):
        """Optional fault injector (``repro.faults``) consulted at fuzz points."""
        return self._faults

    @faults.setter
    def faults(self, faults) -> None:
        self._faults = faults
        self.fuzzing = faults is not None or self._schedule is not None

    # -- scheduling -----------------------------------------------------------
    def notify_progress(self) -> None:
        """Record a state change and wake all sleeping ranks.

        Must be called with :attr:`cond` held.  With nobody asleep there is
        nobody to wake (the common case of a data op), so the condition's
        ``notify_all`` is not entered.
        """
        self.progress_counter += 1
        if self._sleepers:
            self.cond.notify_all()
            if self.wake_reader is not None:
                self.wake_reader()

    def sleep(self, timeout: float) -> bool:
        """``cond.wait(timeout)``, counted so that :meth:`notify_progress`
        knows whether anyone is asleep: every wait on :attr:`cond` goes
        through here (and a backend's :meth:`RuntimeBackend.idle` that
        waits elsewhere counts itself too).  Must be called with
        :attr:`cond` held (which guards the count); returns False on
        timeout."""
        self._sleepers += 1
        try:
            return self.cond.wait(timeout)
        finally:
            self._sleepers -= 1

    def released(self) -> "_Released":
        """Let go of :attr:`cond` for a ``with`` block, at every level of
        recursion this thread holds it (none is fine), and take it back
        after.

        For a blocking step that must not stop the process's other threads,
        such as a write to a full pipe.  Like :meth:`sleep`, it lets them
        change what the lock guards: the caller re-checks afterwards
        whatever it checked before.
        """
        return _Released(self.giant_lock)

    def wait_for(
        self,
        pred: Callable[[], Any],
        timeout_s: "float | None" = None,
        what: str = "operation",
        poll: "BackoffPolicy | None" = None,
    ) -> Any:
        """Block the calling rank until ``pred()`` returns something true,
        and return it.

        Must be called with :attr:`cond` held.  While ``pred()`` is false
        (a true one returns, whatever failure is known), raises
        :class:`ProgressDeadlockError` if the runtime concludes that no
        rank can make progress, :class:`RankFailedError` if another
        rank failed while we waited, :class:`TargetFailedError` if dead
        ranks make progress impossible, and :class:`OpTimeoutError` if
        ``timeout_s`` elapses first (wall-clock mode only — a
        deterministic schedule has no wall clock, so per-op timeouts are
        disabled under it and the deterministic dead-stall detection
        takes over).

        The sleep between tries is the backend's
        (:meth:`~repro.mpi.backend.RuntimeBackend.idle`): on procs the
        waiting rank reads its own inbox meanwhile.

        ``poll`` is for state in another process, which notifies nobody
        here (a ``flock``): the caller has just tried ``pred``, each later
        try comes one delay of the curve after the last (however early a
        notification wakes the wait) and wins over a failure noticed while
        sleeping, and the watchdog never counts the wait as blocked.
        """
        proc = current_proc()
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        tries = 0
        while True:
            if proc.dead:
                raise RankKilledError(f"rank {proc.rank} was killed by fault injection")
            # what has completed returns, whatever failure is known by now
            # (as after a poll): a collective whose result arrived before a
            # peer's death notice succeeds, and the next wait raises
            if poll is None:
                result = pred()
                if result:
                    return result
            self.check_wait(proc)
            if (
                deadline is not None
                and self._schedule is None
                and time.monotonic() >= deadline
            ):
                raise OpTimeoutError(f"{what} timed out after {timeout_s}s")
            if poll is not None:
                wake = time.monotonic() + poll.delay(tries)
                tries += 1
                while (left := wake - time.monotonic()) > 0:
                    self.sleep(left)
                result = pred()
                if result:
                    return result
                continue
            if self._schedule is not None:
                # deterministic mode: hand the token back to the scheduler
                # instead of sleeping on the watchdog; re-check pred when
                # (deterministically) re-dispatched.
                self._schedule.block(proc.rank)
                continue
            proc.blocked = True
            seen = self.progress_counter
            wait_s = self.watchdog_s
            if deadline is not None:
                wait_s = min(wait_s, max(deadline - time.monotonic(), 0.001))
            try:
                timed_out = not self.backend.idle(self, wait_s)
            finally:
                proc.blocked = False
            # The watchdog verdict is only valid after a *full* watchdog
            # interval: a wait shortened by a per-op deadline must not be
            # allowed to declare global deadlock early.
            full_wait = deadline is None or wait_s >= self.watchdog_s
            if timed_out and full_wait and self.progress_counter == seen and self._all_stuck():
                if self.dead_ranks:
                    self._dead_stall = True
                    self.cond.notify_all()
                    raise TargetFailedError(
                        f"no progress for {self.watchdog_s}s while rank(s) "
                        f"{sorted(self.dead_ranks)} are failed (watchdog)"
                    )
                self._deadlocked = True
                self.cond.notify_all()
                raise ProgressDeadlockError(
                    "all ranks blocked with no progress "
                    f"for {self.watchdog_s}s (watchdog)"
                )

    def check_wait(self, proc: Proc) -> None:
        """Raise what a wait of ``proc`` that has not completed raises
        now: :class:`RankFailedError` once another rank failed,
        :class:`TargetFailedError` in a dead stall ``proc`` has not
        acknowledged, :class:`ProgressDeadlockError` after a deadlock
        verdict.  Must be called with :attr:`cond` held."""
        if self.failed is not None:
            raise RankFailedError(f"rank failed elsewhere: {self.failed!r}")
        if self._dead_stall and (self.dead_ranks - proc.acked_dead):
            raise TargetFailedError(
                f"no rank can make progress while rank(s) "
                f"{sorted(self.dead_ranks - proc.acked_dead)} are failed"
            )
        if self._deadlocked:
            raise ProgressDeadlockError("deadlock detected among all ranks")

    def _all_stuck(self) -> bool:
        return all(p.blocked or p.finished for p in self.procs if p is not current_proc())

    def alloc_context_id(self) -> int:
        """Unique number for a context id no derivation names: an
        intercommunicator's, or a merged or singleton communicator's
        (must hold :attr:`cond`)."""
        self._next_context_id += 1
        return self._next_context_id

    def hosts(self, world_rank: int) -> bool:
        """True if ``world_rank`` runs in this OS process (every rank does
        on threads; only the child's own rank on procs)."""
        return self.local_ranks is None or world_rank in self.local_ranks

    # -- fault handling --------------------------------------------------------
    def mark_dead(self, world_rank: int) -> None:
        """Mark ``world_rank`` failed and run registered recovery hooks.

        Must be called with :attr:`cond` held.  Idempotent.  Hooks repair
        shared state orphaned by the death (window lock queues, pending
        receives, mutex byte vectors); a hook raising is a recovery bug,
        recorded in :attr:`death_hook_errors` rather than re-killing the
        runtime.
        """
        proc = self.procs[world_rank]
        if proc.dead:
            return
        proc.dead = True
        self.dead_ranks.add(world_rank)
        for hook in list(self._death_hooks):
            try:
                hook(world_rank)
            except BaseException as exc:  # noqa: BLE001 - recovery must not cascade
                self.death_hook_errors.append(exc)
        self._maybe_clear_dead_stall()
        self.notify_progress()

    def add_death_hook(self, hook: Callable[[int], None]) -> None:
        """Register ``hook(world_rank)`` to run (under :attr:`cond`) on death."""
        self._death_hooks.append(hook)

    def failure_ack(self) -> "frozenset[int]":
        """Acknowledge all currently-known failures for the calling rank.

        The ULFM ``MPIX_Comm_failure_ack`` analogue, lifted to the
        runtime (failure knowledge is global here, not per-communicator).
        Returns the full set of failed world ranks this rank has now
        acknowledged.  Once *every* live rank has acknowledged the
        current dead set, a standing dead-stall verdict is cleared so
        survivors can rendezvous (``Comm.agree`` / ``Comm.shrink``)
        instead of re-raising :class:`TargetFailedError` forever.  Under
        a deterministic schedule the call also re-enters the token
        regime, so recovery replays bit-identically from the seed.
        """
        proc = current_proc()
        with self.cond:
            proc.acked_dead |= self.dead_ranks
            acked = frozenset(proc.acked_dead)
            if self.schedule is not None:
                self.schedule.ack_point(proc.rank)
            self._maybe_clear_dead_stall()
            self._maybe_clear_peer_failure()
            if self.schedule is not None:
                self.schedule.ack_park(proc.rank)
        return acked

    def acked_failures(self) -> "frozenset[int]":
        """Failed world ranks the calling rank has acknowledged so far."""
        return frozenset(current_proc().acked_dead)

    def _maybe_clear_dead_stall(self) -> None:
        """Clear the dead-stall verdict once every live rank acknowledged.

        Must be called with :attr:`cond` held.  A dead-stall poisons the
        waits of ranks with unacknowledged failures; when the last live,
        unfinished rank acknowledges (or finishes, or dies), the verdict
        has served its purpose and blocking waits may resume — this is
        the hinge that turns "typed graceful degradation" (PR 3) into
        actual recovery.
        """
        if not self._dead_stall:
            return
        for p in self.procs:
            if p.dead or p.finished:
                continue
            if self.local_ranks is not None and p.rank not in self.local_ranks:
                continue  # remote replica acks in its own process
            if self.dead_ranks - p.acked_dead:
                return
        self._dead_stall = False
        if self.schedule is not None:
            self.schedule.stall_cleared()
        self.notify_progress()

    def _maybe_clear_peer_failure(self) -> None:
        """Clear a peer-death ``failed`` poisoning once locally acknowledged.

        Must be called with :attr:`cond` held.  On the proc backend a
        peer process dying sets :attr:`failed` to a
        :class:`RankFailedError` so every blocked wait in this process
        aborts promptly (mirroring the thread backend's propagate-and-
        join behaviour).  Unlike the thread backend, survivors here are
        expected to *recover in place* — once every local live rank has
        acknowledged the dead set, the poisoning has delivered its
        message and blocking may resume.  Only a ``RankFailedError``
        (peer death, not a local bug) is ever cleared, and only when
        :attr:`local_ranks` marks this runtime as a per-process replica.
        """
        if self.local_ranks is None or not isinstance(self.failed, RankFailedError):
            return
        for p in self.procs:
            if p.rank not in self.local_ranks or p.dead or p.finished:
                continue
            if self.dead_ranks - p.acked_dead:
                return
        self.failed = None
        self.notify_progress()

    def check_self_alive(self) -> None:
        """Raise :class:`RankKilledError` if the calling rank was killed.

        Called at MPI entry points so a killed rank unwinding through
        ``finally`` blocks cannot keep communicating (a crashed process
        releases no locks — recovery belongs to the runtime's death
        hooks, not the corpse).  No-op outside an SPMD region.
        """
        proc = getattr(_tls, "proc", None)
        if proc is not None and proc.dead:
            raise RankKilledError(f"rank {proc.rank} was killed by fault injection")

    def backoff(self, attempt: int) -> float:
        """Seeded exponential backoff before retry ``attempt`` (from 0).

        The curve is :data:`repro.backoff.LOCK_RETRY` jittered by the
        runtime's seeded RNG (one uniform draw per call, so replays of
        the same runtime seed consume the RNG identically).  Returns
        the chosen delay.  In wall-clock mode the calling rank sleeps
        on :attr:`cond` for that long (must hold :attr:`cond`); under a
        deterministic schedule no wall sleep happens — the delay is
        only reported so callers can charge it to simulated time.
        """
        delay = LOCK_RETRY.delay(attempt, self._backoff_rng)
        if self.schedule is None:
            self.sleep(delay)
        return delay

    def fuzz_point(self, kind: str) -> None:
        """A legal preemption point for the deterministic schedule fuzzer.

        Communication layers call this at operation boundaries (never
        with :attr:`cond` held).  Without a schedule installed it is a
        cheap no-op; with one, the scheduler may hand the token to
        another rank here, exercising a legal reordering.  An installed
        fault injector (``repro.faults``) is also consulted here — this
        is where a plan kills or stalls a rank.
        """
        if not self.fuzzing:
            return
        sched, faults = self._schedule, self._faults
        proc = getattr(_tls, "proc", None)
        if proc is None:
            return  # helper threads are not scheduled ranks
        if faults is not None:
            faults.at_point(self, proc, kind)  # may raise RankKilledError
        if sched is not None:
            with self.cond:
                sched.yield_point(proc.rank, kind)

    # -- execution ------------------------------------------------------------
    def spmd(
        self,
        fn: Callable[..., Any],
        *args: Any,
        join_timeout: float = 120.0,
    ) -> list[Any]:
        """Run ``fn(comm, *args)`` on every rank; return per-rank results.

        ``fn`` receives the world communicator as its first argument.
        The first exception raised by any rank is re-raised here after
        all ranks have been joined.  How the ranks execute — threads
        under the giant lock, or one OS process per rank — is the
        :attr:`backend`'s decision (see :mod:`repro.mpi.backend`).
        """
        return self.backend.spmd(self, fn, args, join_timeout)

    # -- simulated time --------------------------------------------------------
    def clocks(self) -> Sequence[float]:
        """Current simulated time on every rank."""
        return [p.clock.now for p in self.procs]

    def max_clock(self) -> float:
        return max(p.clock.now for p in self.procs)


def spmd_run(nproc: int, fn: Callable[..., Any], *args: Any, **kw: Any) -> list[Any]:
    """One-shot convenience: build a :class:`Runtime` and run ``fn`` on it."""
    return Runtime(nproc, **kw).spmd(fn, *args)
