"""Asynchronous-progress accounting (the CHT question, §IV-A) and the
deterministic schedule fuzzer built on the same runtime hooks.

Native ARMCI implementations usually run a *communication helper thread*
(CHT) on every node so one-sided operations progress even while the
target rank is busy in a BLAS call.  The MPI standard likewise requires
asynchronous progress for RMA, though implementations sometimes gate it
behind a runtime option because it costs a core or interrupt overhead.

In this simulated substrate, asynchronous progress is *structural*: RMA
operations execute entirely on the origin thread under the giant lock and
never require the target thread to run.  This module therefore does not
implement a helper thread; it provides the accounting object that the
performance model uses to charge the *cost* of progress options
(dedicated-core loss for a CHT, interrupt overhead for MPI async
progress), so application-level models (Fig. 6) can include it.

The second half of the module is :class:`DeterministicSchedule`: a
seeded, token-passing rank scheduler.  Every blocking MPI primitive
funnels through ``Runtime.wait_for`` and every RMA operation boundary
calls ``Runtime.fuzz_point``, so by parking all ranks except one and
drawing each dispatch decision from a seeded PRNG, the simulator can
explore *legal* interleavings of the paper's protocols (mutex handoff
§V-D, the two-epoch RMW, GMR free's leader election §V-B) and replay
any of them bit-identically from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "ProgressConfig",
    "DeterministicSchedule",
    "NATIVE_CHT",
    "MPI_ASYNC",
    "MPI_POLLING",
]


@dataclass(frozen=True)
class ProgressConfig:
    """How a runtime achieves asynchronous progress, and what it costs.

    Attributes
    ----------
    mode:
        ``"cht"`` — a dedicated communication helper thread per node
        (native ARMCI); ``"interrupt"`` — interrupt-driven progress (some
        MPI RMA implementations); ``"polling"`` — progress only inside
        MPI calls (asynchronous progress effectively off).
    core_fraction_lost:
        Fraction of one node's compute capacity consumed by the progress
        mechanism (a CHT burns a hardware thread; interrupts steal cycles).
    target_delay_factor:
        Multiplier on remote-operation latency when the target is busy in
        a non-communication call.  ``1.0`` = fully asynchronous; larger
        values model polling-only progress where a put must wait for the
        target's next MPI call.
    """

    mode: str = "cht"
    core_fraction_lost: float = 0.0
    target_delay_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("cht", "interrupt", "polling"):
            raise ValueError(f"unknown progress mode {self.mode!r}")
        if not 0.0 <= self.core_fraction_lost < 1.0:
            raise ValueError("core_fraction_lost must be in [0, 1)")
        if self.target_delay_factor < 1.0:
            raise ValueError("target_delay_factor must be >= 1")


class DeterministicSchedule:
    """Seeded token-passing scheduler over the SPMD rank threads.

    Exactly one rank holds the *token* (is running) at any moment; the
    others are parked on the runtime condition variable.  The token
    changes hands only at well-defined points:

    * ``block`` — the running rank entered ``Runtime.wait_for`` with a
      false predicate;
    * ``yield_point`` — the running rank crossed an operation boundary
      (``Runtime.fuzz_point``) and a seeded coin chose to preempt it;
    * ``thread_finished`` — the running rank's SPMD body returned.

    Every dispatch decision is drawn from one ``random.Random(seed)``;
    because execution between decisions is fully serialised, the decision
    sequence — and therefore the entire interleaving — is a pure function
    of the seed.  ``trace`` records it, so two runs with the same seed
    can be compared event-for-event (the fuzzer hashes this).

    Deadlock detection is deterministic too: when no rank is eligible
    (all blocked with no progress since they blocked) the schedule marks
    the runtime deadlocked and every rank raises — no wall-clock
    watchdog involved.
    """

    def __init__(
        self,
        seed: int,
        switch_prob: float = 0.25,
        trace_limit: int = 250_000,
    ):
        if not 0.0 <= switch_prob <= 1.0:
            raise ValueError(f"switch_prob must be in [0, 1], got {switch_prob}")
        self.seed = seed
        self.switch_prob = switch_prob
        self.rng = random.Random(seed)
        #: serialized event log: tuples like ("run", rank), ("yield", rank, kind)
        self.trace: list[tuple] = []
        self._trace_limit = trace_limit
        self.runtime = None
        self.nproc = 0
        self._running: "int | None" = None
        self._started: set[int] = set()
        self._ready: set[int] = set()
        #: rank -> runtime.progress_counter observed when it blocked
        self._blocked: dict[int, int] = {}
        self._finished: set[int] = set()

    # -- wiring ---------------------------------------------------------------
    def begin_run(self, runtime) -> None:
        """Attach to a runtime (called by ``Runtime.spmd``)."""
        if self.runtime is not None and self.runtime is not runtime:
            raise RuntimeError("a DeterministicSchedule is single-use")
        self.runtime = runtime
        self.nproc = runtime.nproc
        runtime.schedule = self

    def _event(self, *ev) -> None:
        rt = self.runtime
        if rt is not None and (rt.failed is not None or rt._deadlocked or rt._dead_stall):
            # the failure/deadlock point is deterministic; the teardown
            # stampede after it (ranks waking to raise) is OS-ordered —
            # keep it out of the replayable trace
            return
        if len(self.trace) < self._trace_limit:
            self.trace.append(ev)

    # -- thread lifecycle (all called with runtime.cond held) ------------------
    def thread_started(self, rank: int) -> None:
        self._started.add(rank)
        self._ready.add(rank)
        self._event("start", rank)
        if len(self._started) == self.nproc:
            # all ranks registered: the token regime begins
            self._dispatch()
        self._park(rank)

    def thread_finished(self, rank: int) -> None:
        self._finished.add(rank)
        self._ready.discard(rank)
        self._blocked.pop(rank, None)
        self._event("finish", rank)
        if self._running == rank:
            self._running = None
        if len(self._started) == self.nproc:
            self._dispatch()

    # -- scheduling points -----------------------------------------------------
    def block(self, rank: int) -> None:
        """The running rank's wait predicate is false; park it."""
        self._blocked[rank] = self.runtime.progress_counter
        self._ready.discard(rank)
        self._event("block", rank)
        if self._running == rank:
            self._running = None
        self._dispatch()
        self._park(rank)
        # re-dispatched: wait_for re-evaluates the predicate
        self._blocked.pop(rank, None)
        self._ready.add(rank)

    def yield_point(self, rank: int, kind: str) -> None:
        """Operation boundary: seeded coin decides whether to preempt."""
        if self._running != rank:
            return  # pre-token registration phase
        if self.rng.random() >= self.switch_prob:
            return
        self._event("yield", rank, kind)
        self._ready.add(rank)
        self._running = None
        self._dispatch()
        self._park(rank)

    def forced_yield(self, rank: int, kind: str) -> None:
        """Unconditional preemption (fault-injected stall): no coin toss.

        Used by ``repro.faults`` to take the token away from a stalled
        rank for one scheduler step.  If no other rank is eligible the
        dispatcher simply hands the token back, so a stall can never
        manufacture a deadlock on its own.
        """
        if self._running != rank:
            return
        self._event("stall", rank, kind)
        self._ready.add(rank)
        self._running = None
        self._dispatch()
        self._park(rank)

    # -- failure acknowledgment (ULFM recovery; called with cond held) ---------
    def ack_point(self, rank: int) -> None:
        """``rank`` acknowledged the current failures (``failure_ack``).

        During a dead-stall the token regime is suspended: every survivor
        raised out of its wait and is running its recovery handler
        unscheduled.  Acknowledging re-registers the rank as dispatchable
        so that when the *last* survivor acks (clearing the stall), the
        eligible set is exactly the live acknowledged ranks — independent
        of the OS order in which the handlers ran.
        """
        self._blocked.pop(rank, None)
        self._ready.add(rank)

    def stall_cleared(self) -> None:
        """The runtime cleared ``_dead_stall``: resume the token regime.

        Emits a single ``("recover", dead_ranks)`` trace event and hands
        the token to a seeded choice among the survivors.  No RNG was
        consumed while the regime was suspended (``yield_point`` and a
        ``Delay``'s clock jitter, ``FaultInjector._jitter``, are gated),
        so the post-recovery decision sequence is still a pure function
        of the seed.
        """
        self._event("recover", tuple(sorted(self.runtime.dead_ranks)))
        self._dispatch()

    def ack_park(self, rank: int) -> None:
        """Park an acknowledged rank until the resumed token reaches it."""
        if self._running == rank:
            return
        self._park(rank)

    # -- internals -------------------------------------------------------------
    def _eligible(self) -> list[int]:
        counter = self.runtime.progress_counter
        elig = set(self._ready)
        for rank, seen in self._blocked.items():
            if counter > seen:
                elig.add(rank)
        return sorted(elig)

    def _dispatch(self) -> None:
        rt = self.runtime
        if self._running is not None or rt.failed is not None or rt._dead_stall:
            # on failure, wake everyone so parked ranks can raise
            rt.cond.notify_all()
            return
        elig = self._eligible()
        if not elig:
            live = [r for r in self._started if r not in self._finished]
            if live:
                if rt.dead_ranks:
                    # survivors are stuck *because* of dead ranks: the
                    # deterministic analogue of the wall-clock watchdog's
                    # dead-stall verdict — typed TargetFailedError, not a
                    # deadlock diagnosis.
                    self._event("dead_stall")
                    rt._dead_stall = True
                else:
                    # deterministic deadlock: nobody can make progress
                    self._event("deadlock",)
                    rt._deadlocked = True
            rt.cond.notify_all()
            return
        choice = self.rng.choice(elig)
        self._running = choice
        self._event("run", choice)
        self.runtime.cond.notify_all()

    def _park(self, rank: int) -> None:
        from .errors import ProgressDeadlockError, TargetFailedError
        from .runtime import RankFailedError

        rt = self.runtime
        while self._running != rank:
            if rt.failed is not None:
                raise RankFailedError(f"rank failed elsewhere: {rt.failed!r}")
            unacked = rt.dead_ranks - rt.procs[rank].acked_dead
            if rt._dead_stall and unacked:
                raise TargetFailedError(
                    "deterministic schedule: no rank can make progress while "
                    f"rank(s) {sorted(unacked)} are failed (seed {self.seed})"
                )
            if rt._deadlocked:
                raise ProgressDeadlockError(
                    "deterministic schedule: all ranks blocked "
                    f"(seed {self.seed})"
                )
            # the timeout is a lost-wakeup safety net only; scheduling
            # decisions never depend on it, so determinism is preserved
            rt.sleep(1.0)


#: native ARMCI: helper thread consumes a share of a core, fully async
NATIVE_CHT = ProgressConfig(mode="cht", core_fraction_lost=1.0 / 16, target_delay_factor=1.0)
#: MPI with async progress enabled (interrupt-driven)
MPI_ASYNC = ProgressConfig(mode="interrupt", core_fraction_lost=0.02, target_delay_factor=1.0)
#: MPI with polling-only progress: remote ops stall on busy targets
MPI_POLLING = ProgressConfig(mode="polling", core_fraction_lost=0.0, target_delay_factor=4.0)
