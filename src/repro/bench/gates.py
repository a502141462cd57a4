"""The three correctness gates that record no baseline.

Each ``measure_*`` returns ``{row label: {"ok", "detail", "extra"}}``;
:func:`format_rows` prints the rows and :func:`check_rows` fails the
gate on any row that is not ok, so the ``sanitize``, ``recover`` and
``lint`` entries of :mod:`repro.bench.registry` differ only in what
they run.  All three fit a tier-1 budget (well under 60 s).

``python -m repro.bench --sanitize-smoke``
    One fuzzed deterministic schedule (plus a replay) over the two
    protocols whose correctness depends most delicately on operation
    ordering — the §V-D queueing mutexes and ARMCI_Rmw's two-epoch
    mutex-based protocol — with the RMA sanitizer installed.  Passing
    means neither protocol raised an RMA violation under a perturbed
    schedule, the results are correct (mutual exclusion preserved, the
    shared counter reached the exact expected value), and replaying the
    same seed reproduced the identical trace digest.

``python -m repro.bench --recover-smoke``
    Kills one rank mid-protocol in each recovery-capable §V scenario
    (:data:`repro.faults.scenarios.RECOVER_SCENARIOS`) under a fuzzed
    deterministic schedule, and requires the survivors to *complete*
    the computation — acknowledge the failure, revoke, agree, shrink,
    rebuild the ARMCI allocations (or restore the GA checkpoint), and
    verify the same values on the shrunken world.  Passing means every
    scenario finished ``ok`` (no hang, no untyped error) with the victim
    in ``dead_ranks``, the surviving results report the shrunken world
    size and at least one completed recovery round, and replaying the
    same ``(seed, plan)`` reproduced the identical trace digest —
    recovery itself is deterministic.

``python -m repro.bench --lint-smoke``
    Times a whole-repo ``repro.lint`` sweep and re-checks the
    conformance corpus, mirroring what CI runs.  Passing means
    ``examples benchmarks src tests`` lint clean (zero findings, zero
    parse errors — the same gate ``tests/test_lint.py`` enforces), every
    ``tests/lint_corpus/bad_*.py`` still fires at least one diagnostic
    (the analyzer has not gone silently blind), and the sweep finishes
    inside a generous wall-clock budget, so the linter stays cheap
    enough to run on every push.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from ..faults.plan import FaultPlan
from ..faults.scenarios import RECOVER_SCENARIOS
from ..lint.cli import _iter_py_files, lint_file, lint_paths
from ..sanitizer.fuzz import run_and_replay

NPROC = 4
SEED = 2012  # the paper's year; any seed works — the gates replay it

#: sanitize: increments of the shared counter per rank
INCREMENTS = 8

#: recover: the rank killed, and the fuzz point it dies at
#: (mid-protocol: after setup, inside the risky phase)
VICTIM = 2
POINT = 5

#: lint: wall-clock ceiling for the whole-repo sweep (seconds); the sweep
#: runs in ~1 s today, so tripping this means something pathological
BUDGET_S = 30.0
LINT_DIRS = ("examples", "benchmarks", "src", "tests")


def _row(ok: bool, detail: str, extra: "Iterable[str]" = ()) -> dict:
    return {"ok": bool(ok), "detail": detail, "extra": list(extra)}


def format_rows(results: dict) -> str:
    lines = []
    for label, row in results.items():
        lines.append(
            f"{label:<18} {row['detail']}  [{'ok' if row['ok'] else 'FAIL'}]"
        )
        lines.extend(f"  {x}" for x in row["extra"])
    return "\n".join(lines)


def check_rows(measured: dict, _committed: dict) -> "list[str]":
    return [
        f"{label}: {row['detail']}"
        for label, row in measured.items()
        if not row["ok"]
    ]


def _replay_word(diverged: "str | None") -> str:
    return "DIVERGED" if diverged else "identical"


def _read_counter(armci, ptrs):
    """Rank 0 reads the final counter value through direct local access."""
    total = None
    if armci.my_id == 0:
        view = armci.access_begin(ptrs[0], 8, np.int64)
        total = int(view[0])
        armci.access_end(ptrs[0])
    armci.barrier()
    return total


def _mutex_workload(comm):
    """Increment a non-atomic shared slot under a §V-D mutex."""
    from ..armci import Armci

    armci = Armci.init(comm)
    ptrs = armci.malloc(8 if armci.my_id == 0 else 0)
    mutexes = armci.create_mutexes(1)
    armci.barrier()
    buf = np.zeros(1, dtype=np.int64)
    for _ in range(INCREMENTS):
        mutexes.lock(0, 0)
        armci.get(ptrs[0], buf, 8)
        buf[0] += 1
        armci.put(buf, ptrs[0], 8)
        mutexes.unlock(0, 0)
    armci.barrier()
    total = _read_counter(armci, ptrs)
    mutexes.destroy()
    armci.finalize()
    return total


def _rmw_workload(comm):
    """Hammer one counter through the two-epoch mutex-based RMW."""
    from ..armci import Armci

    armci = Armci.init(comm)
    ptrs = armci.malloc(8 if armci.my_id == 0 else 0)
    armci.barrier()
    for _ in range(INCREMENTS):
        armci.rmw("fetch_and_add_long", ptrs[0], 1)
    armci.barrier()
    total = _read_counter(armci, ptrs)
    armci.finalize()
    return total


def measure_sanitize(_fast: bool = False) -> dict:
    results = {}
    for label, fn in (
        ("mutex handoff", _mutex_workload),
        ("mutex-based rmw", _rmw_workload),
    ):
        first, diverged = run_and_replay(fn, NPROC, SEED)
        clean = first.ok and not first.violations
        expected = NPROC * INCREMENTS
        got = first.results[0] if first.results else None
        results[label] = _row(
            clean and got == expected and not diverged,
            f"seed {SEED}: schedule {'clean' if clean else first.error}, "
            f"counter {got}/{expected}, replay {_replay_word(diverged)}",
        )
    return results


def measure_recover(_fast: bool = False) -> dict:
    results = {}
    for label, fn in RECOVER_SCENARIOS.items():
        plan = FaultPlan(seed=SEED).kill(VICTIM, POINT)
        first, diverged = run_and_replay(fn, NPROC, SEED, plan=plan)
        clean = first.ok and not first.violations
        live = [r for r in first.results or [] if r is not None]
        shrunken = NPROC - len(first.dead_ranks)
        # value checks live inside the scenarios; here we require that
        # every survivor finished, on the expected world, through >= 1
        # recovery
        completed = bool(live) and all(r[0] == shrunken for r in live)
        recovered = bool(first.dead_ranks) and all(r[1] >= 1 for r in live)
        results[label] = _row(
            clean and completed and recovered and not diverged,
            f"seed {SEED} kill {VICTIM}@{POINT}: "
            f"{'completed' if clean else first.error}, "
            f"world {NPROC}->{shrunken}, "
            f"recoveries {sorted({r[1] for r in live}) if live else '-'}, "
            f"replay {_replay_word(diverged)}",
        )
    return results


def measure_lint(_fast: bool = False) -> dict:
    root = Path(__file__).resolve().parents[3]
    paths = [str(root / d) for d in LINT_DIRS if (root / d).is_dir()]
    nfiles = sum(1 for _ in _iter_py_files(paths, include_corpus=False))
    t0 = time.perf_counter()
    diags, errors = lint_paths(paths)
    elapsed = time.perf_counter() - t0

    corpus = root / "tests" / "lint_corpus"
    bad = sorted(corpus.glob("bad_*.py")) if corpus.is_dir() else []
    silent = [p.name for p in bad if not lint_file(str(p))]
    return {
        "repo sweep": _row(
            not diags and not errors and elapsed < BUDGET_S,
            f"{nfiles} files in {elapsed:.2f}s (budget {BUDGET_S:.0f}s): "
            f"{len(diags)} findings, {len(errors)} parse errors",
            [d.format() for d in diags[:10]] + [str(e) for e in errors[:10]],
        ),
        "corpus sensitivity": _row(
            bool(bad) and not silent,
            f"{len(bad)} bad snippets, {len(bad) - len(silent)} firing",
            [f"silent: {os.path.join('tests/lint_corpus', n)}" for n in silent],
        ),
    }
