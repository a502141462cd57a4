"""Simulated per-rank clocks and operation event logs.

Every rank of the simulated runtime owns a :class:`SimClock`.  Data
movement in the simulator is always *functionally* executed (NumPy
copies), while performance is *modeled*: each communication layer charges
an analytically computed cost to the initiating rank's clock.  Benchmarks
then report modeled seconds / bandwidth, never Python wall-clock.

The clock also keeps an optional bounded event log used by benchmark
harnesses to attribute time to operation classes (lock overhead vs. wire
transfer vs. packing), which is how the ablation benches break down where
epochs cost time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class TimedEvent:
    """One charged operation: ``at`` is the clock *after* the charge."""

    at: float
    kind: str
    seconds: float
    nbytes: int


class SimClock:
    """Monotone simulated clock, charged in seconds.

    ``jitter`` is an optional ``(kind, seconds) -> extra_seconds`` hook
    the schedule fuzzer installs to model variable delivery delay; the
    extra charge is clamped to be non-negative so the clock stays
    monotone.  Multiple sources (schedule fuzzer + fault injector) can
    coexist via :meth:`add_jitter`, which composes hooks additively.
    """

    __slots__ = ("now", "_log", "_log_limit", "jitter")

    def __init__(self, log_limit: int = 0):
        self.now = 0.0
        self._log: list[TimedEvent] = []
        self._log_limit = log_limit
        self.jitter = None

    def add_jitter(self, hook) -> None:
        """Install ``hook(kind, seconds) -> extra``, composing with any
        existing jitter source (extras add; each clamped by ``advance``)."""
        prev = self.jitter
        if prev is None:
            self.jitter = hook
        else:
            self.jitter = lambda kind, seconds: (
                prev(kind, seconds) + hook(kind, seconds)
            )

    def advance(self, seconds: float, kind: str = "op", nbytes: int = 0) -> float:
        """Charge ``seconds`` to this rank; returns the new time."""
        if seconds < 0:
            raise ValueError(f"negative time charge {seconds} for {kind}")
        if self.jitter is not None:
            seconds += max(0.0, self.jitter(kind, seconds))
        self.now += seconds
        if self._log_limit and len(self._log) < self._log_limit:
            self._log.append(TimedEvent(self.now, kind, seconds, nbytes))
        return self.now

    def sync_to(self, t: float) -> None:
        """Move forward to absolute time ``t`` (used by barrier-like ops)."""
        if t > self.now:
            self.now = t

    def reset(self) -> None:
        self.now = 0.0
        self._log.clear()

    @property
    def events(self) -> list[TimedEvent]:
        return list(self._log)


def elapsed_by_kind(events: Iterable[TimedEvent]) -> dict[str, float]:
    """Aggregate charged seconds per event kind."""
    out: dict[str, float] = {}
    for ev in events:
        out[ev.kind] = out.get(ev.kind, 0.0) + ev.seconds
    return out
