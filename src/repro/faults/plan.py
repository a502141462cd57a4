"""Seeded, serializable fault plans — one vocabulary for both backends.

A :class:`FaultPlan` is a *pure description* of a fault scenario — which
rank dies or stalls and when, which RMA operation is corrupted or
dropped, how the network path degrades.  Plans are frozen and
composable (builder methods return new plans), have a stable canonical
:meth:`key` that the schedule fuzzer folds into its replay digest, and
round-trip through JSON so failing ``(seed, plan)`` pairs can be checked
into a regression corpus and replayed bit-identically.  Install one on
either backend with ``runtime.faults = FaultInjector(plan)``.

Coordinates
-----------
* ``point`` counts a rank's **own** fuzz points (the calls to
  ``Runtime.fuzz_point`` it makes), starting at 0.  Under the
  deterministic schedule this is a pure function of ``(seed, plan)``,
  so "kill rank 2 at its 7th op boundary" is fully reproducible.
  Thread backend only: fuzz points do not exist across processes.
* ``after_s`` is wall-clock seconds after the run starts.  Proc backend
  only, executed with real signals (``SIGKILL``; ``SIGSTOP`` and, after
  ``for_s``, ``SIGCONT``) by :mod:`repro.faults.proc`.
* ``op`` counts RMA data-movement operations **globally** in issue
  order (the order the injector's ``filter_rma`` sees them) — again
  deterministic under a schedule.  Thread backend only.

A kill or stall takes exactly one trigger, ``point`` or ``after_s``;
:meth:`FaultPlan.unsupported` names the entries a backend cannot run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

__all__ = ["FaultPlan", "Kill", "Stall", "Corrupt", "Delay"]


def _check_trigger(entry) -> None:
    """Validate a kill/stall's rank and its one trigger."""
    name = type(entry).__name__
    if entry.rank < 0:
        raise ValueError(f"{name}.rank must be >= 0, got {entry.rank}")
    if (entry.point is None) == (entry.after_s is None):
        raise ValueError(f"{name} takes exactly one trigger: point= or after_s=")
    if entry.point is not None and entry.point < 0:
        raise ValueError(f"{name}.point must be >= 0, got {entry.point}")
    if entry.after_s is not None and entry.after_s < 0:
        raise ValueError(f"{name}.after_s must be >= 0, got {entry.after_s}")


def _at(entry) -> str:
    kind = f" [{entry.kind}]" if entry.kind else ""
    if entry.point is not None:
        return f"@point {entry.point}{kind}"
    return f"@{entry.after_s}s{kind}"


@dataclass(frozen=True)
class Kill:
    """Kill ``rank`` at its ``point``-th fuzz point (optionally only if
    the point's kind matches ``kind``, e.g. ``"lock"`` or ``"put"``), or
    ``SIGKILL`` its process ``after_s`` seconds into a proc run."""

    rank: int
    point: "int | None" = None
    kind: "str | None" = None
    after_s: "float | None" = None

    def __post_init__(self) -> None:
        _check_trigger(self)

    def describe(self) -> str:
        return f"kill rank {self.rank} {_at(self)}"


@dataclass(frozen=True)
class Stall:
    """Take the token away from ``rank`` for ``steps`` scheduler steps
    at its ``point``-th fuzz point (deterministic-schedule runs only;
    wall-clock runs sleep a token amount instead) — or, with
    ``after_s``, ``SIGSTOP`` its process that many seconds into a proc
    run and ``SIGCONT`` it ``for_s`` seconds later (the run's teardown
    resumes it regardless, so a stalled child never outlives the run).

    With ``transient=True`` the stall models a *transient* fault the
    injector works through with bounded retry-with-backoff: attempt
    ``i`` absorbs up to ``2**i`` stall steps, so a stall of ``steps``
    clears iff it fits in the injector's retry budget — otherwise the
    stalled rank raises a typed
    :class:`~repro.mpi.errors.RetriesExhausted` (distinct from a
    permanent ``kill``: nothing dies, the operation just gives up)."""

    rank: int
    point: "int | None" = None
    steps: int = 1
    kind: "str | None" = None
    transient: bool = False
    after_s: "float | None" = None
    for_s: float = 0.5

    def __post_init__(self) -> None:
        _check_trigger(self)
        if self.steps < 1:
            raise ValueError(f"Stall.steps must be >= 1, got {self.steps}")
        if self.for_s <= 0.0:
            raise ValueError(f"Stall.for_s must be > 0, got {self.for_s}")

    def describe(self) -> str:
        if self.point is None:
            return f"stall rank {self.rank} {_at(self)} for {self.for_s}s"
        return (f"stall rank {self.rank} {_at(self)} x{self.steps}"
                + (" (transient)" if self.transient else ""))


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
        if self.op < 0:
            raise ValueError(f"Corrupt.op must be >= 0, got {self.op}")

    def describe(self) -> str:
        return f"{self.mode} op {self.op}" + (f" [{self.kind}]" if self.kind else "")


@dataclass(frozen=True)
class Delay:
    """Delivery-delay injection: seeded per-op clock jitter (a fraction
    of each charged cost) plus optional degradation of the installed
    :class:`~repro.simtime.netmodel.PathModel` (latency multiplied,
    bandwidth scaled down).  Both act on modeled time, so the runtime
    needs a ``timing`` policy; without one ``FaultInjector.begin_run``
    refuses the plan."""

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

    def describe(self) -> str:
        return (f"delay jitter={self.jitter_frac} lat*{self.latency_factor} "
                f"bw*{self.bw_factor}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded fault scenario.

    ``seed`` drives every random choice the injector makes while
    *executing* the plan (which bit to flip, jitter magnitudes) — the
    plan itself contains no randomness.  Builder usage::

        plan = (FaultPlan(seed=7)
                .kill(rank=1, point=5)
                .delay(jitter_frac=0.2))            # threads + runtime.timing
        FaultPlan(seed=7).kill(2, after_s=0.4)      # proc backend
    """

    seed: int = 0
    kills: tuple = field(default_factory=tuple)
    stalls: tuple = field(default_factory=tuple)
    corruptions: tuple = field(default_factory=tuple)
    delays: tuple = field(default_factory=tuple)

    # -- builders -------------------------------------------------------------
    def kill(
        self,
        rank: int,
        point: "int | None" = None,
        kind: "str | None" = None,
        *,
        after_s: "float | None" = None,
    ) -> "FaultPlan":
        return replace(self, kills=self.kills + (Kill(rank, point, kind, after_s),))

    def stall(
        self,
        rank: int,
        point: "int | None" = None,
        steps: int = 1,
        kind: "str | None" = None,
        transient: bool = False,
        *,
        after_s: "float | None" = None,
        for_s: float = 0.5,
    ) -> "FaultPlan":
        stall = Stall(rank, point, steps, kind, transient, after_s, for_s)
        return replace(self, stalls=self.stalls + (stall,))

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
    def entries(self) -> tuple:
        return self.kills + self.stalls + self.corruptions + self.delays

    @property
    def empty(self) -> bool:
        return not self.entries

    def key(self) -> str:
        """Canonical string identity, folded into replay digests."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        return "; ".join([f"seed={self.seed}", *(e.describe() for e in self.entries)])

    def unsupported(self, backend: str, nproc: int) -> list:
        """The entries a ``backend`` run of ``nproc`` ranks cannot execute.

        The proc backend runs only ``after_s=`` kills and stalls; the
        thread backend runs everything else; neither runs an entry for
        a rank the run does not have.
        """
        timed = backend == "proc"
        return [
            e for e in self.entries
            if (getattr(e, "after_s", None) is not None) != timed
            or getattr(e, "rank", -1) >= nproc
        ]

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
