"""One rank's ARMCI operation record: the counters and the ARMCI_PROFILE trace.

Each ARMCI one-sided op is recorded once, by the rank that issued it, at
the point where :class:`~repro.armci.api.Armci` knows its kind, target and
exact bytes moved (``Armci._record``).  A rank's :class:`OpRecord` is
written by that rank alone, so it takes no lock; ``Armci.stats`` is the
:meth:`OpRecord.total` of the records of the ranks this process hosts.

Real ARMCI ships a profiling interposer that logs every one-sided call
with its target, size and duration.  Here that trace is a view of the
same record: ``Armci.trace()`` switches it on for the calling rank, and
from then on each public call also appends a :class:`TraceEvent` whose
duration is the modeled time from the op's entry to its record.  Tracing
off, the record appends nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

#: a rank's integer counters, all zero at init
COUNTERS = (
    "puts", "gets", "accs", "bytes_put", "bytes_got", "bytes_acc",
    "staged_copies", "rmw_ops", "fences", "coalesced", "drains",
)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded operation."""

    rank: int  # issuing process
    op: str  # the public call: "put_s", "nb_get", "rmw", ...
    target: int  # remote process
    nbytes: int  # bytes moved
    start: float  # simulated time at issue
    duration: float  # modeled duration

    @property
    def end(self) -> float:
        return self.start + self.duration


class OpRecord:
    """One rank's ARMCI ops: its counters, and its trace once switched on.

    ``iov_ops`` maps an IOV method to ``[ops, segments, bytes]``;
    ``coalesced`` counts nb ops merged into a queued one and ``drains``
    the nb queues completed (mpi3).  ``events`` is None until
    ``Armci.trace()``.  ``rank`` is the issuing world rank (-1 for a
    :meth:`total`).
    """

    __slots__ = COUNTERS + ("rank", "iov_ops", "events")

    def __init__(self, rank: int):
        for name in COUNTERS:
            setattr(self, name, 0)
        self.rank = rank
        self.iov_ops: dict[str, list[int]] = {}
        self.events: "list[TraceEvent] | None" = None

    @classmethod
    def total(cls, records) -> "OpRecord":
        """The counters of ``records`` summed (no events)."""
        out = cls(-1)
        for rec in records:
            for name in COUNTERS:
                setattr(out, name, getattr(out, name) + getattr(rec, name))
            for method, tally in rec.iov_ops.items():
                out.iov_ops[method] = [
                    a + b for a, b in zip(out.iov_ops.get(method, (0, 0, 0)), tally)
                ]
        return out

    # -- the trace view ----------------------------------------------------------
    def clear(self) -> None:
        """Drop the recorded events (tracing stays on)."""
        if self.events:
            self.events.clear()

    def summary_by_op(self) -> dict[str, tuple[int, int, float]]:
        """op -> (count, total bytes, total modeled seconds)."""
        out: dict[str, tuple[int, int, float]] = {}
        for ev in self.events or ():
            c, b, t = out.get(ev.op, (0, 0, 0.0))
            out[ev.op] = (c + 1, b + ev.nbytes, t + ev.duration)
        return out

    def traffic_matrix(self) -> dict[tuple[int, int], int]:
        """(origin, target) -> bytes moved."""
        out: dict[tuple[int, int], int] = {}
        for ev in self.events or ():
            key = (ev.rank, ev.target)
            out[key] = out.get(key, 0) + ev.nbytes
        return out

    def render(self, max_events: int = 0) -> str:
        """Human-readable trace report."""
        lines = ["ARMCI trace summary", "-------------------"]
        for op, (count, nbytes, seconds) in sorted(self.summary_by_op().items()):
            lines.append(
                f"{op:8s} x{count:<6d} {nbytes:>12d} B  {seconds * 1e6:10.1f} µs"
            )
        matrix = self.traffic_matrix()
        if matrix:
            lines.append("traffic (origin -> target):")
            for (src, dst), nbytes in sorted(matrix.items()):
                lines.append(f"  {src} -> {dst}: {nbytes} B")
        if max_events:
            lines.append("timeline:")
            for ev in (self.events or [])[:max_events]:
                lines.append(
                    f"  [{ev.rank}] t={ev.start * 1e6:9.2f}µs {ev.op:7s} "
                    f"-> {ev.target} ({ev.nbytes} B, {ev.duration * 1e6:.2f}µs)"
                )
        return "\n".join(lines)

