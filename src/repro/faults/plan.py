"""Seeded, serializable fault plans.

A :class:`FaultPlan` is a *pure description* of a fault scenario — which
rank dies at which operation boundary, who stalls, which RMA operation
is corrupted or dropped, how the network path degrades.  Plans are
frozen and composable (builder methods return new plans), have a stable
canonical :meth:`key` that the schedule fuzzer folds into its replay
digest, and round-trip through JSON so failing ``(seed, plan)`` pairs
can be checked into a regression corpus and replayed bit-identically.

Coordinates
-----------
* ``point`` counts a rank's **own** fuzz points (the calls to
  ``Runtime.fuzz_point`` it makes), starting at 0.  Under the
  deterministic schedule this is a pure function of ``(seed, plan)``,
  so "kill rank 2 at its 7th op boundary" is fully reproducible.
* ``op`` counts RMA data-movement operations **globally** in issue
  order (the order the injector's ``filter_rma`` sees them) — again
  deterministic under a schedule.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

__all__ = ["FaultPlan", "Kill", "Stall", "Corrupt", "Delay"]


@dataclass(frozen=True)
class Kill:
    """Kill ``rank`` at its ``point``-th fuzz point (optionally only if
    the point's kind matches ``kind``, e.g. ``"lock"`` or ``"put"``)."""

    rank: int
    point: int
    kind: "str | None" = None


@dataclass(frozen=True)
class Stall:
    """Take the token away from ``rank`` for ``steps`` scheduler steps
    at its ``point``-th fuzz point (deterministic-schedule runs only;
    wall-clock runs sleep a token amount instead).

    With ``transient=True`` the stall models a *transient* fault the
    injector works through with bounded retry-with-backoff: attempt
    ``i`` absorbs up to ``2**i`` stall steps, so a stall of ``steps``
    clears iff it fits in the injector's retry budget — otherwise the
    stalled rank raises a typed
    :class:`~repro.mpi.errors.RetriesExhausted` (distinct from a
    permanent ``kill``: nothing dies, the operation just gives up)."""

    rank: int
    point: int
    steps: int = 1
    kind: "str | None" = None
    transient: bool = False


@dataclass(frozen=True)
class Corrupt:
    """Corrupt (``mode="corrupt"``: flip one seeded bit) or drop
    (``mode="drop"``) the ``op``-th RMA operation, optionally only if it
    is of ``kind`` (``put``/``get``/``acc``)."""

    op: int
    mode: str = "corrupt"
    kind: "str | None" = None

    def __post_init__(self) -> None:
        if self.mode not in ("corrupt", "drop"):
            raise ValueError(f"Corrupt.mode must be corrupt|drop, got {self.mode!r}")


@dataclass(frozen=True)
class Delay:
    """Delivery-delay injection: seeded per-op clock jitter (a fraction
    of each charged cost) plus optional degradation of the installed
    :class:`~repro.simtime.netmodel.PathModel` (latency multiplied,
    bandwidth scaled down)."""

    jitter_frac: float = 0.0
    latency_factor: float = 1.0
    bw_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.jitter_frac < 0.0:
            raise ValueError("Delay.jitter_frac must be >= 0")
        if self.latency_factor < 1.0 or not 0.0 < self.bw_factor <= 1.0:
            raise ValueError(
                "Delay: latency_factor must be >= 1 and bw_factor in (0, 1]"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded fault scenario.

    ``seed`` drives every random choice the injector makes while
    *executing* the plan (which bit to flip, jitter magnitudes) — the
    plan itself contains no randomness.  Builder usage::

        plan = (FaultPlan(seed=7)
                .kill(rank=1, point=5)
                .delay(jitter_frac=0.2))
    """

    seed: int = 0
    kills: tuple = field(default_factory=tuple)
    stalls: tuple = field(default_factory=tuple)
    corruptions: tuple = field(default_factory=tuple)
    delays: tuple = field(default_factory=tuple)

    # -- builders -------------------------------------------------------------
    def kill(self, rank: int, point: int, kind: "str | None" = None) -> "FaultPlan":
        return replace(self, kills=self.kills + (Kill(rank, point, kind),))

    def stall(
        self,
        rank: int,
        point: int,
        steps: int = 1,
        kind: "str | None" = None,
        transient: bool = False,
    ) -> "FaultPlan":
        return replace(
            self, stalls=self.stalls + (Stall(rank, point, steps, kind, transient),)
        )

    def corrupt(self, op: int, kind: "str | None" = None) -> "FaultPlan":
        return replace(
            self, corruptions=self.corruptions + (Corrupt(op, "corrupt", kind),)
        )

    def drop(self, op: int, kind: "str | None" = None) -> "FaultPlan":
        return replace(
            self, corruptions=self.corruptions + (Corrupt(op, "drop", kind),)
        )

    def delay(
        self,
        jitter_frac: float = 0.0,
        latency_factor: float = 1.0,
        bw_factor: float = 1.0,
    ) -> "FaultPlan":
        return replace(
            self, delays=self.delays + (Delay(jitter_frac, latency_factor, bw_factor),)
        )

    # -- identity -------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not (self.kills or self.stalls or self.corruptions or self.delays)

    def key(self) -> str:
        """Canonical string identity, folded into replay digests."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for k in self.kills:
            parts.append(f"kill rank {k.rank} @point {k.point}"
                         + (f" [{k.kind}]" if k.kind else ""))
        for s in self.stalls:
            parts.append(f"stall rank {s.rank} @point {s.point} x{s.steps}"
                         + (" (transient)" if s.transient else "")
                         + (f" [{s.kind}]" if s.kind else ""))
        for c in self.corruptions:
            parts.append(f"{c.mode} op {c.op}" + (f" [{c.kind}]" if c.kind else ""))
        for d in self.delays:
            parts.append(
                f"delay jitter={d.jitter_frac} lat*{d.latency_factor} "
                f"bw*{d.bw_factor}"
            )
        return "; ".join(parts)

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "kill": [asdict(k) for k in self.kills],
            "stall": [asdict(s) for s in self.stalls],
            "corrupt": [asdict(c) for c in self.corruptions],
            "delay": [asdict(d) for d in self.delays],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            seed=int(d.get("seed", 0)),
            kills=tuple(Kill(**k) for k in d.get("kill", ())),
            stalls=tuple(Stall(**s) for s in d.get("stall", ())),
            corruptions=tuple(Corrupt(**c) for c in d.get("corrupt", ())),
            delays=tuple(Delay(**e) for e in d.get("delay", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
