"""Sanitizer / fault-injection overhead ablation.

``python -m repro.bench --sanitize-ablation`` answers: what does the
dynamic-checking machinery *cost*?  One fixed workload pair — the §V-D
mutex-handoff and mutex-based-RMW protocol bodies from
:mod:`repro.faults.scenarios` — is executed under a seeded deterministic
schedule in four instrumentation configurations:

``schedule``
    the bare deterministic schedule (the floor everything is relative to);
``schedule+sanitizer``
    plus the :class:`~repro.sanitizer.RmaSanitizer` interposing on every
    window sync and data-movement event;
``schedule+faults``
    plus an *empty* :class:`~repro.faults.plan.FaultPlan` — the injector
    is consulted at every fuzz point and RMA payload but never fires,
    isolating the pure plumbing overhead of fault-injection readiness;
``schedule+sanitizer+faults``
    both (the configuration CI's fuzz gates run).

Reported numbers are wall seconds per SPMD run (best of ``repeats``
medians over a small seed sweep) and the overhead factor relative to
``schedule``.  The committed ``benchmarks/BENCH_sanitize_ablation.json``
records the trajectory; a summary lives in ``docs/sanitizer.md``.
"""

from __future__ import annotations

import statistics
import time

from .harness import format_table

NPROC = 4

#: instrumentation configurations: name -> (sanitize, with_faults)
CONFIGS: dict[str, tuple[bool, bool]] = {
    "schedule": (False, False),
    "schedule+sanitizer": (True, False),
    "schedule+faults": (False, True),
    "schedule+sanitizer+faults": (True, True),
}


def _run_once(fn, seed: int, sanitize: bool, with_faults: bool) -> float:
    from ..faults import FaultPlan
    from ..sanitizer.fuzz import run_schedule

    plan = FaultPlan(seed=seed) if with_faults else None
    t0 = time.perf_counter()
    report = run_schedule(fn, NPROC, seed, sanitize=sanitize, plan=plan)
    elapsed = time.perf_counter() - t0
    if not report.ok:
        raise RuntimeError(
            f"ablation workload failed under seed {seed}: {report.error}"
        )
    return elapsed


def measure(fast: bool = False) -> dict[str, dict[str, float]]:
    """Time every (workload, config) cell; returns nested results."""
    from ..faults.scenarios import SCENARIOS

    seeds = range(2) if fast else range(4)
    repeats = 2 if fast else 3
    workloads = {"mutex_handoff": SCENARIOS["mutex"],
                 "mutex_rmw": SCENARIOS["rmw"]}
    results: dict[str, dict[str, float]] = {}
    for wname, fn in workloads.items():
        cells: dict[str, float] = {}
        for cname, (sanitize, with_faults) in CONFIGS.items():
            best = min(
                statistics.median(
                    _run_once(fn, s, sanitize, with_faults) for s in seeds
                )
                for _ in range(repeats)
            )
            cells[cname] = best
        base = cells["schedule"]
        results[wname] = {
            **{f"{c}_s": v for c, v in cells.items()},
            **{
                f"{c}_overhead": (v / base if base > 0 else float("inf"))
                for c, v in cells.items()
                if c != "schedule"
            },
        }
    return results


def format_results(results: dict[str, dict[str, float]]) -> str:
    def cell(r: dict, cname: str) -> str:
        if cname == "schedule":
            return f"{r['schedule_s']:.4f}s"
        return f"{r[f'{cname}_s']:.4f}s ({r[f'{cname}_overhead']:.2f}x)"

    return format_table(
        "Sanitizer / fault-injection overhead ablation "
        f"(wall s per {NPROC}-rank run)",
        ["workload", *CONFIGS],
        [[wname, *(cell(r, c) for c in CONFIGS)] for wname, r in results.items()],
    )
