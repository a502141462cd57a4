"""One exponential-backoff-with-jitter policy for every retry path.

Retry-with-backoff used to be re-derived ad hoc wherever it was needed:
lock acquisition (:meth:`~repro.mpi.runtime.Runtime.backoff`), the
fault injector's transient-stall budget
(:meth:`~repro.faults.injector.FaultInjector`), the proc backend's
suspected-pid probing (:mod:`repro.mpi.proc_child`) and contended
cross-process lock waits (:mod:`repro.mpi.proc_win`, :mod:`repro.mpi.mailbox`),
and the traffic harness's request
retries (:mod:`repro.traffic`).  All of them share
:class:`BackoffPolicy` — a frozen description of one geometric backoff
curve ``base * factor**attempt`` with an optional cap and optional
seeded jitter.

Jitter is multiplicative: when a ``random.Random`` is passed, the raw
delay is scaled by a uniform draw from ``[jitter, 1.0]`` — exactly one
RNG consultation per call, so seeded replays that thread a shared RNG
through here stay bit-identical.  Without an RNG (or with
``jitter=1.0``) the curve is fully deterministic, which is what the
step-counted consumers (scheduler stalls, heartbeat probe intervals)
want: no shared randomness is consumed at all.

The module deliberately imports nothing from the rest of ``repro`` so
every layer — runtime, backends, faults, traffic — can depend on it
without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BackoffPolicy", "FLOCK_WAIT", "LOCK_RETRY", "STALL_STEPS", "STALL_WAIT"]


@dataclass(frozen=True)
class BackoffPolicy:
    """A geometric backoff curve: ``base * factor**attempt``, capped.

    Parameters
    ----------
    base:
        Delay for attempt 0, in whatever unit the caller measures
        (seconds for wall-clock sleeps, scheduler steps, ticks,
        nanoseconds — the policy is unit-agnostic).
    factor:
        Geometric growth per attempt (>= 1).
    cap:
        Upper bound on the returned delay, or ``None`` for unbounded.
    jitter:
        Lower bound of the uniform jitter multiplier.  ``1.0`` disables
        jitter; ``0.5`` (the classic "equal jitter" shape) scales each
        delay by a seeded draw from ``[0.5, 1.0]``.  Jitter only
        applies when :meth:`delay` / :meth:`steps` receive an RNG.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: "float | None" = 1.0
    jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.base <= 0.0:
            raise ValueError(f"backoff base must be > 0, got {self.base}")
        if self.factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.factor}")
        if not 0.0 < self.jitter <= 1.0:
            raise ValueError(f"jitter must be in (0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng=None) -> float:
        """Delay before retry ``attempt`` (counted from 0).

        With ``rng`` (a ``random.Random``) and ``jitter < 1.0``, draws
        exactly one ``uniform(jitter, 1.0)`` multiplier; otherwise the
        result is a pure function of ``attempt``.
        """
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        scale = 1.0
        if rng is not None and self.jitter < 1.0:
            scale = rng.uniform(self.jitter, 1.0)
        try:
            raw = self.base * (scale * self.factor**attempt)
        except OverflowError:
            # an open-ended poll loop counts attempts without bound
            # (2.0**1024 leaves the float range): far past any cap
            raw = math.inf
        return raw if self.cap is None else min(raw, self.cap)

    def steps(self, attempt: int, rng=None) -> int:
        """Integer form of :meth:`delay` for step/tick-counted waits.

        Rounds up, never below 1 — a retry always waits at least one
        step, so step-counted loops provably make progress.
        """
        return max(1, math.ceil(self.delay(attempt, rng)))


#: lock-acquisition retry after a per-op timeout
#: (:meth:`~repro.mpi.runtime.Runtime.backoff`): 50 ms base, doubled,
#: capped at 1 s, with the runtime's seeded RNG providing jitter
LOCK_RETRY = BackoffPolicy(base=0.05, factor=2.0, cap=1.0, jitter=0.5)

#: transient-stall absorption in scheduler *steps*
#: (:class:`~repro.faults.injector.FaultInjector`): attempt ``i``
#: absorbs up to ``2**i`` steps, uncapped, no jitter (deterministic —
#: no shared RNG is consumed, so seeded replays are unaffected)
STALL_STEPS = BackoffPolicy(base=1.0, factor=2.0, cap=None, jitter=1.0)

#: the wall-clock twin of :data:`STALL_STEPS` for runs without a
#: deterministic schedule: 2 ms base, doubled, capped at 50 ms
STALL_WAIT = BackoffPolicy(base=0.002, factor=2.0, cap=0.05, jitter=1.0)

#: re-probe intervals of a contended cross-process lock or atomic
#: reservation (the ``poll`` of ``Runtime.wait_for`` in ``repro.mpi.proc_win``,
#: and an inbox write lock's retries in ``repro.mpi.mailbox``):
#: the first re-probe comes well inside one scheduler quantum — a holder is
#: typically done within a copy, tens to hundreds of microseconds — and
#: seven doublings later the poll rate is the flat 2 ms it always was, so a
#: long-held (or SIGSTOPped holder's) lock costs at most seven extra probes
#: over the whole wait
FLOCK_WAIT = BackoffPolicy(base=2e-5, factor=2.0, cap=0.002, jitter=1.0)
