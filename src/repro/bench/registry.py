"""The one definition of every ``python -m repro.bench`` benchmark and gate.

A :class:`Bench` entry in :data:`BENCHES` holds only what differs
between benchmarks: a name, help text (also the baseline's ``note``),
``measure(fast) -> dict``, ``format(results) -> str``, the committed
baseline's file name, units and header, and pure :class:`Check`
predicates ``(measured, committed) -> [failure strings]``, each
declaring the host it needs as ``min_cpus``.  The baseline writer and
loader, the ``environment`` block and the gate runner (:func:`run_gate`)
exist once, here; :mod:`repro.bench.cli`, the Makefile's ``%-smoke``
rule and ``docs/benchmarks.md`` are driven by or tested against this
table, so a new gate costs one entry.  An entry names its module's
functions and constants without importing it: the module is imported
when the entry runs, so ``python -m repro.bench fig3`` loads none.

A gate ends in one line ``<NAME> SMOKE: <verdict>``.  ``ok``: every
check ran and passed.  ``FAIL`` (exit 1): unreadable baseline, the
measurement raised, a check returned failures, or a process-spawning
bench left something behind.  ``skipped(cpu_count=N<M)`` (exit 0):
nothing failed but a wall-clock check needs ``M`` usable CPUs and the
host has ``N``; ``--write`` records the verdict per check, so a number
measured where it could not be gated says so.
"""

from __future__ import annotations

import glob
import importlib
import json
import multiprocessing
import os
import pathlib
import platform
import tempfile
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: the committed baselines live in the repo's benchmarks/ directory
BASELINE_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks"

#: version of the one baseline layout :func:`write_baseline` produces
SCHEMA = 2

#: a speedup gate fails below ``committed / REGRESSION_FACTOR``
REGRESSION_FACTOR = 2.0

#: wall-clock floors (core scaling, detection latency, kill timing) mean
#: something only where the ranks really run in parallel
WALLCLOCK_MIN_CPUS = 4

#: what two ranks cost each other shows as soon as both run at once
CONTENTION_MIN_CPUS = 2

OK, FAIL = "ok", "FAIL"


def usable_cpus() -> int:
    """CPUs this process may run on (affinity/cgroup pinning respected)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment() -> dict:
    """Host metadata recorded in every baseline."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "usable_cpus": usable_cpus(),
    }


@dataclass(frozen=True)
class Check:
    """One pure gate predicate and the host it needs.

    ``fn(measured, committed)`` gets the fresh results and the committed
    baseline's ``results`` and returns failure strings (empty = pass).
    """

    name: str
    fn: Callable[[dict, dict], "list[str]"]
    min_cpus: int = 1


@dataclass(frozen=True)
class Bench:
    """What differs between two benchmarks; see the module docstring."""

    name: str
    help: str
    measure: Callable[[bool], dict]
    format: Callable[[dict], str]
    #: file name under benchmarks/, or None for a gate with no baseline
    baseline: "str | None" = None
    units: str = ""
    #: extra top-level keys of the baseline JSON (floors, seeds, ...),
    #: built when asked for (:attr:`header`)
    header_of: Callable[[], dict] = dict
    checks: "tuple[Check, ...]" = ()
    #: forks rank processes: the gate also fails on anything left behind
    spawns: bool = False

    @property
    def header(self) -> dict:
        return self.header_of()

    @property
    def alias(self) -> str:
        """Top-level flag spelling: ``--<name>-smoke`` for a gate,
        ``--<name>`` for a report-only bench."""
        return f"--{self.name}-smoke" if self.checks else f"--{self.name}"


def speedup_floors(floors_of: Callable[[str], "dict[str, float]"]):
    """Check builder for speedup-ratio benches.

    ``floors_of(workload)`` maps each gated metric to its absolute
    floor.  A metric fails below that floor or below the committed value
    / :data:`REGRESSION_FACTOR`.  Ratios, not times, are compared, so
    the check is stable across machines of different absolute speed.
    """

    def check(measured: dict, committed: dict) -> "list[str]":
        failures = []
        for name, r in measured.items():
            ref = committed.get(name)
            for metric, abs_floor in floors_of(name).items():
                if ref is None or metric not in ref:
                    failures.append(
                        f"{name}: {metric} missing from committed baseline"
                    )
                    continue
                floor = max(abs_floor, ref[metric] / REGRESSION_FACTOR)
                if r[metric] < floor:
                    failures.append(
                        f"{name}: {metric} {r[metric]:.2f}x fell below "
                        f"{floor:.2f}x (committed {ref[metric]:.2f}x / "
                        f"regression factor {REGRESSION_FACTOR}, absolute "
                        f"floor {abs_floor}x)"
                    )
        return failures

    return check


def run_checks(
    bench: Bench, measured: dict, committed: dict
) -> "list[tuple[Check, str, list[str]]]":
    """Evaluate every check: ``(check, verdict, failures)`` per check."""
    cpus = usable_cpus()
    outcomes = []
    for check in bench.checks:
        if cpus < check.min_cpus:
            outcomes.append((check, f"skipped(cpu_count={cpus}<{check.min_cpus})", []))
            continue
        failures = check.fn(measured, committed)
        outcomes.append((check, FAIL if failures else OK, failures))
    return outcomes


def baseline_path(bench: Bench, path: "str | os.PathLike | None" = None) -> pathlib.Path:
    return pathlib.Path(path) if path is not None else BASELINE_DIR / bench.baseline


def write_baseline(
    bench: Bench, results: dict, path: "str | os.PathLike | None" = None
) -> pathlib.Path:
    """Persist ``results`` as the bench's machine-readable trajectory file.

    The checks are evaluated against the results being written, so the
    file records which floors held, failed, or could not be enforced on
    the recording host.
    """
    path = baseline_path(bench, path)
    payload = {
        "schema": SCHEMA,
        "bench": bench.name,
        "units": bench.units,
        "note": bench.help,
        "environment": environment(),
        **bench.header,
        "checks": {
            check.name: {"min_cpus": check.min_cpus, "verdict": verdict}
            for check, verdict, _ in run_checks(bench, results, results)
        },
        "results": results,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(bench: Bench, path: "str | os.PathLike | None" = None) -> dict:
    """The committed baseline; ``OSError``/``ValueError`` when unusable."""
    payload = json.loads(baseline_path(bench, path).read_text())
    if payload.get("schema") != SCHEMA or "results" not in payload:
        raise ValueError(
            f"not a schema-{SCHEMA} baseline (regenerate with "
            f"`python -m repro.bench {bench.name} --write`)"
        )
    return payload


def _leftovers() -> "set[str]":
    """What a finished proc-backend run of this process must not leave
    behind: the segments and lock directories named after its runs
    (``repro-<pid>x<n>-…``, ``repro-proc-<pid>x…``) and its children —
    never another process's, which may be running beside it."""
    tmp = tempfile.gettempdir()
    mine = f"{os.getpid()}x"
    return {
        *glob.glob(f"/dev/shm/repro-{mine}*"),
        *glob.glob(os.path.join(tmp, f"repro-proc-{mine}*")),
        *(f"child process {p.pid}" for p in multiprocessing.active_children()),
    }


def run_gate(bench: Bench, path: "str | os.PathLike | None" = None) -> "tuple[str, str]":
    """The fast gate of one bench: ``(verdict, printable report)``."""
    tag = f"{bench.name.upper()} SMOKE"
    committed: dict = {}
    if bench.baseline:
        try:
            committed = load_baseline(bench, path)["results"]
        except (OSError, ValueError) as exc:
            return FAIL, (
                f"{tag}: {FAIL}\n  - unreadable baseline "
                f"{baseline_path(bench, path)}: {exc}"
            )
    before = _leftovers() if bench.spawns else set()
    lines: "list[str]" = []
    failures: "list[str]" = []
    verdicts: "list[str]" = []
    try:
        measured = bench.measure(True)
    except Exception as exc:  # noqa: BLE001 - any failure fails the gate
        lines.append(traceback.format_exc())
        failures.append(f"measurement raised: {exc!r}")
    else:
        lines += [bench.format(measured), ""]
        for check, verdict, found in run_checks(bench, measured, committed):
            lines.append(f"  [{verdict}] {check.name}")
            verdicts.append(verdict)
            failures += found
    if bench.spawns:
        failures += [f"left behind: {x}" for x in sorted(_leftovers() - before)]
    verdict = FAIL if failures else next((v for v in verdicts if v != OK), OK)
    lines.append(f"{tag}: {verdict}")
    lines += [f"  - {f}" for f in failures]
    return verdict, "\n".join(lines)


def _module(name: str):
    """``repro.bench.<name>``, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


def _lazy(module: str, attr: str) -> Callable:
    """A function of ``repro.bench.<module>`` that imports it when called."""

    def call(*args):
        return getattr(_module(module), attr)(*args)

    call.__name__ = attr
    return call


def _consts(module: str, **names: str) -> Callable[[], dict]:
    """A :attr:`Bench.header_of`: header key -> constant of ``module``."""
    return lambda: {k: getattr(_module(module), v) for k, v in names.items()}


def _traffic_header() -> dict:
    traffic = _module("traffic_smoke")
    return {
        "seed": traffic.SEED,
        "nproc": traffic.NPROC,
        "offered_sweep": list(traffic.OFFERED_SWEEP),
        "thread_kill": {"victim": traffic.VICTIM, "point": traffic.KILL_POINT},
        "proc_kill_fraction": traffic.PROC_KILL_FRACTION,
        "goodput_floor": traffic.GOODPUT_FLOOR,
    }


def _row_gate(name: str, help: str, measure: str, check: str) -> Bench:
    """A :mod:`repro.bench.gates` entry: rows in, any row not ok fails."""
    return Bench(name, help, _lazy("gates", measure), _lazy("gates", "format_rows"),
                 checks=(Check(check, _lazy("gates", "check_rows")),))


BENCHES: "dict[str, Bench]" = {
    b.name: b
    for b in (
        Bench(
            name="hotpath",
            help="vectorized-datapath microbenches (pack/unpack, strided "
            "translation, accumulate, conflict check and footprint, GA owner-plan "
            "replay, GMR lookup); 'baseline' is the "
            "retained pre-vectorization reference implementation measured "
            "by the same suite in the same process",
            measure=_lazy("hotpath", "measure"),
            format=_lazy("hotpath", "format_results"),
            baseline="BENCH_hotpath.json",
            units="seconds_per_op",
            header_of=_consts("hotpath", min_speedup="MIN_SPEEDUP"),
            checks=(
                Check(
                    "no speedup below its floor (min_speedup) or regressed >2x",
                    speedup_floors(
                        lambda name: {
                            "speedup": _module("hotpath").MIN_SPEEDUP.get(name, 1.0)
                        }
                    ),
                ),
            ),
        ),
        Bench(
            name="mpi3",
            help="MPI-3 flush-datapath benches on the simulated clock: eager "
            "per-op epochs (mpi2) vs deferred issue + per-target flush "
            "(mpi3), with and without adjacency coalescing",
            measure=_lazy("mpi3_smoke", "measure"),
            format=_lazy("mpi3_smoke", "format_results"),
            baseline="BENCH_mpi3_datapath.json",
            units="modeled_seconds_per_op",
            header_of=_consts(
                "mpi3_smoke", platform_model="PLATFORM_KEY", min_speedup="MIN_SPEEDUP"
            ),
            checks=(
                Check(
                    "flush-datapath and coalescing speedups hold their "
                    "floors (min_speedup) and did not regress >2x",
                    speedup_floors(lambda _name: _module("mpi3_smoke").MIN_SPEEDUP),
                ),
            ),
        ),
        Bench(
            name="procs",
            help="proc-backend (one OS process per rank) aggregate put/get "
            "throughput over shared-memory windows (ARMCI mpi3 datapath, "
            "ring workload over fixed-size slabs) for 1/2/4 ranks, the op time of two ranks accumulating into "
            "one slab, and of two ranks accumulating disjoint column bands of "
            "one matrix; absolute MB/s and us are machine-dependent trajectory "
            "data, only the 1->4 rank scaling ratio, the contended "
            "accumulate's mean/median ratio and the disjoint accumulate's "
            "ratio to the uncontended op are gated",
            measure=_lazy("procs_smoke", "measure"),
            format=_lazy("procs_smoke", "format_results"),
            baseline="BENCH_procs.json",
            units="wall_clock_MB_per_s",
            header_of=_consts(
                "procs_smoke",
                min_scaling="MIN_SCALING",
                max_acc_mean_over_median="MAX_ACC_MEAN_OVER_MEDIAN",
                max_disjoint_over_alone="MAX_DISJOINT_OVER_ALONE",
            ),
            checks=(
                Check(
                    "aggregate throughput scales >= min_scaling from 1 to 4 ranks",
                    _lazy("procs_smoke", "check_scaling"),
                    min_cpus=WALLCLOCK_MIN_CPUS,
                ),
                Check(
                    "contended accumulate mean/median <= max_acc_mean_over_median",
                    _lazy("procs_smoke", "check_contended_acc"),
                    min_cpus=CONTENTION_MIN_CPUS,
                ),
                Check(
                    "disjoint accumulate per-op time <= max_disjoint_over_alone x "
                    "the uncontended op's",
                    _lazy("procs_smoke", "check_disjoint_acc"),
                    min_cpus=CONTENTION_MIN_CPUS,
                ),
            ),
            spawns=True,
        ),
        Bench(
            name="proc-recover",
            help="proc-backend survivor restart: SIGKILL one rank "
            "mid-collective (victim, rank count and seed are in the baseline "
            "header), measure survivor-observed detection latency (marker-file monotonic "
            "stamp to first typed failure error) and recover+restore wall "
            "time per heartbeat interval; absolute seconds are machine-"
            "dependent trajectory data",
            measure=_lazy("proc_recover_smoke", "measure"),
            format=_lazy("proc_recover_smoke", "format_results"),
            baseline="BENCH_proc_recover.json",
            units="wall_clock_seconds",
            header_of=_consts(
                "proc_recover_smoke",
                seed="SEED",
                nproc="NPROC",
                victim="VICTIM",
                join_timeout_s="JOIN_TIMEOUT_S",
                detect_budget_s="DETECT_BUDGET_S",
            ),
            checks=(
                Check(
                    "restore value-correct on the shrunken grid",
                    _lazy("proc_recover_smoke", "check_value_correct"),
                ),
                Check(
                    "survivors detect the death inside detect_budget_s, an "
                    "order of magnitude before the join_timeout_s backstop",
                    _lazy("proc_recover_smoke", "check_detect_budget"),
                    min_cpus=WALLCLOCK_MIN_CPUS,
                ),
            ),
            spawns=True,
        ),
        Bench(
            name="traffic",
            help="service-style traffic harness over the GA layer: offered "
            "load vs goodput, p50/p99 latency in ticks, and shed rate per "
            "workload on the deterministic thread backend; the same "
            "workloads with a seeded mid-traffic kill; and a proc-backend "
            "fault-free vs SIGKILL degradation pair",
            measure=_lazy("traffic_smoke", "measure"),
            format=_lazy("traffic_smoke", "format_results"),
            baseline="BENCH_traffic.json",
            units="virtual_ticks (latency/goodput), wall_clock_seconds (proc)",
            header_of=_traffic_header,
            checks=(
                Check(
                    "all oracles verified; faulted runs recover and replay "
                    "bit-identically",
                    _lazy("traffic_smoke", "check_correctness"),
                ),
                Check(
                    "proc SIGKILL run recovers with goodput >= goodput_floor x "
                    "fault-free",
                    _lazy("traffic_smoke", "check_degradation"),
                    min_cpus=WALLCLOCK_MIN_CPUS,
                ),
            ),
            spawns=True,
        ),
        _row_gate(
            "sanitize",
            "fuzzed-schedule RMA sanitizer gate over the mutex and RMW "
            "protocols (<60 s)",
            "measure_sanitize",
            "no RMA violation, exact counters, identical replay",
        ),
        _row_gate(
            "recover",
            "rank-death recovery gate over every recovery scenario (<60 s)",
            "measure_recover",
            "every scenario completes value-correct on the shrunken world "
            "and replays bit-identically",
        ),
        _row_gate(
            "lint",
            "whole-repo static RMA/ARMCI sweep plus corpus sensitivity "
            "check (seconds)",
            "measure_lint",
            "repo lints clean inside the budget; every bad corpus snippet "
            "still fires",
        ),
        Bench(
            name="sanitize-ablation",
            help="dynamic-checking overhead ablation over the deterministic "
            "schedule: RMA sanitizer and (empty-plan) fault-injection "
            "plumbing, separately and combined; overhead factors are "
            "relative to the bare schedule in the same process (a report, "
            "no floor)",
            measure=_lazy("sanitize_ablation", "measure"),
            format=_lazy("sanitize_ablation", "format_results"),
            baseline="BENCH_sanitize_ablation.json",
            units="wall_seconds_per_spmd_run",
            header_of=_consts("sanitize_ablation", nproc="NPROC"),
        ),
    )
}
