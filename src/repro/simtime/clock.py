"""Simulated per-rank clocks.

Every rank of the simulated runtime owns a :class:`SimClock`.  Data
movement in the simulator is always *functionally* executed (NumPy
copies), while performance is *modeled*: each communication layer charges
an analytically computed cost to the initiating rank's clock.  Benchmarks
then report modeled seconds / bandwidth, never Python wall-clock.
"""

from __future__ import annotations


class SimClock:
    """Monotone simulated clock, charged in seconds.

    ``jitter`` is an optional ``(kind, seconds) -> extra_seconds`` hook
    the schedule fuzzer installs to model variable delivery delay; the
    extra charge is clamped to be non-negative so the clock stays
    monotone.  Multiple sources (schedule fuzzer + fault injector) can
    coexist via :meth:`add_jitter`, which composes hooks additively.
    """

    __slots__ = ("now", "jitter")

    def __init__(self):
        self.now = 0.0
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
        """Charge ``seconds`` to this rank; returns the new time.  ``kind``
        names the charge for the jitter hook; ``nbytes`` is kept for
        callers that describe a transfer and is not read here."""
        if seconds < 0:
            raise ValueError(f"negative time charge {seconds} for {kind}")
        if self.jitter is not None:
            seconds += max(0.0, self.jitter(kind, seconds))
        self.now += seconds
        return self.now

    def sync_to(self, t: float) -> None:
        """Move forward to absolute time ``t`` (used by barrier-like ops)."""
        if t > self.now:
            self.now = t

    def reset(self) -> None:
        self.now = 0.0
