"""The checked-in regression corpus of failing ``(seed, plan)`` pairs.

``tests/corpus/failing_seeds.json`` holds scenarios that once exposed a
bug (or pin a guaranteed-graceful failure mode).  Every entry is fully
deterministic — a scenario name, rank count, schedule seed, and a
serialized :class:`~repro.faults.plan.FaultPlan` — so it replays
bit-identically forever.  Each entry records the *expected* outcome:

``"expect": "ok"``
    the run completes with no error and no sanitizer violations;
``"expect": "<ErrorClassName>"``
    the run fails and ``report.error`` starts with that exception name
    (always one of the typed graceful-degradation classes).

An entry whose plan carries a ``Delay`` replays on the modeled
InfiniBand path (:data:`DELAY_PLATFORM`): a delay acts on modeled time
only, and a runtime without a timing policy refuses it.

The corpus is replayed by ``python -m repro.sanitize --sweep`` (and by
``tests/test_seed_sweep.py`` on every tier-1 run); each entry runs
*twice* and the two digests must match, so schedule/injector
nondeterminism is caught immediately.
"""

from __future__ import annotations

import json
import pathlib

from .plan import FaultPlan
from .scenarios import SCENARIOS

__all__ = ["DEFAULT_CORPUS", "load_corpus", "replay_entry"]

DEFAULT_CORPUS = (
    pathlib.Path(__file__).resolve().parents[3]
    / "tests"
    / "corpus"
    / "failing_seeds.json"
)

#: the :data:`repro.simtime.PLATFORMS` entry timing a plan with a ``Delay``
DELAY_PLATFORM = "ib"


def load_corpus(path: "pathlib.Path | str | None" = None) -> list:
    path = pathlib.Path(path) if path is not None else DEFAULT_CORPUS
    entries = json.loads(path.read_text())["entries"]
    for e in entries:
        for k in ("name", "scenario", "nproc", "seed", "plan", "expect"):
            if k not in e:
                raise ValueError(f"corpus entry missing {k!r}: {e}")
    return entries


def replay_entry(entry: dict) -> "tuple[bool, str]":
    """Replay one corpus entry twice; returns ``(passed, detail)``.

    Passes iff both runs produce the same digest AND the outcome matches
    ``entry["expect"]``.
    """
    from ..sanitizer.fuzz import run_and_replay
    from ..simtime import PLATFORMS, MPITimingPolicy

    fn = SCENARIOS[entry["scenario"]]
    plan = FaultPlan.from_dict(entry["plan"])
    timing = MPITimingPolicy(PLATFORMS[DELAY_PLATFORM].mpi) if plan.delays else None
    a, diverged = run_and_replay(fn, entry["nproc"], entry["seed"], plan=plan,
                                 timing=timing)
    if diverged:
        return False, f"nondeterministic replay: {diverged}"
    expect = entry["expect"]
    if expect == "ok":
        if not a.ok:
            return False, f"expected clean completion, got {a.error}"
        if a.violations:
            return False, f"expected clean completion, got violations {a.violations}"
        return True, f"ok digest={a.digest[:12]}"
    if a.ok:
        return False, f"expected {expect}, but the run completed"
    if not (a.error or "").startswith(expect):
        return False, f"expected {expect}, got {a.error}"
    return True, f"{expect} digest={a.digest[:12]}"
