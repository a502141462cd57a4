"""CLI: fuzz a script (or built-in scenario) under seeded schedules, the
RMA sanitizer and an optional fault plan.

``python -m repro.faults``, ``python -m repro.sanitize`` and ``python -m
repro.sanitizer`` are three spellings of this one :func:`main`::

    python -m repro.sanitize examples/quickstart.py --schedules 8
    python -m repro.sanitize examples/dynamic_load_balance.py \\
        --nproc 6 --seed 41 --schedules 1        # replay one seed
    python -m repro.sanitize --sweep --schedules 16   # CI seed-sweep gate

    # kill rank 1 at its 5th op boundary while fuzzing 8 schedules
    python -m repro.faults examples/quickstart.py --kill 1@5 --schedules 8

    # replay a corpus entry bit-identically
    python -m repro.faults scenario:mutex --plan plan.json --seed 41 \\
        --schedules 1

The positional argument is either a script path defining ``main(comm)``
(the ``examples/*.py`` convention) or ``scenario:NAME`` naming a
built-in §V protocol body from :mod:`repro.faults.scenarios` (the
``recover_*`` names are the survivor-restart bodies).  ``--sweep`` runs
the seed range over every :data:`~repro.faults.scenarios.SCENARIOS`
body, then replays the checked-in ``tests/corpus/failing_seeds.json``
regression corpus, each entry twice with digest-identity checking.
With no ``--plan`` and no fault flag nothing is injected.

Exit status is 0 iff every schedule ended *gracefully* with no recorded
violation, and every corpus entry reproduced its recorded outcome.  A
run is graceful when it is clean, or ends in a typed failure diagnosis
(:class:`~repro.mpi.errors.TargetFailedError`, including
:class:`~repro.armci.mutexes.MutexHolderFailed`) after the plan fired a
fault; with no fault fired only a clean run is graceful.  An untyped
error or deadlock is a robustness bug.
"""

from __future__ import annotations

import argparse
import inspect
import os
import pathlib
import runpy

from .plan import FaultPlan
from .scenarios import RECOVER_SCENARIOS, SCENARIOS

#: every body reachable as ``scenario:NAME`` — the §V protocols plus
#: their survivor-restart (``recover_*``) counterparts
_ALL_SCENARIOS = {
    **SCENARIOS,
    **{f"recover_{name}": fn for name, fn in RECOVER_SCENARIOS.items()},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run a script's main(comm) under the RMA sanitizer, "
        "seeded deterministic schedules and an optional fault plan "
        "(python -m repro.sanitize and python -m repro.sanitizer are the "
        "same command).",
    )
    parser.add_argument(
        "script", nargs="?", default=None,
        help="path to a script defining main(comm), or scenario:NAME "
        f"(one of {sorted(_ALL_SCENARIOS)})",
    )
    parser.add_argument("--sweep", action="store_true",
                        help="seed-sweep the §V protocol scenarios and "
                        "replay the failing-seeds corpus (no script needed)")
    parser.add_argument("--corpus", nargs="?", const="", default=None,
                        metavar="JSON",
                        help="replay the (seed, plan) regression corpus "
                        "(default: the checked-in tests/corpus file)")
    parser.add_argument("--nproc", type=int, default=4,
                        help="number of simulated ranks (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first schedule seed; also the plan seed unless "
                        "a --plan file provides one (default 0)")
    parser.add_argument("--schedules", type=int, default=8, metavar="K",
                        help="number of consecutive seeds to run (default 8)")
    parser.add_argument("--switch-prob", type=float, default=0.25,
                        help="preemption probability at each fuzz point")
    parser.add_argument("--no-sanitize", action="store_true",
                        help="fuzz schedules only, without the RMA sanitizer")
    parser.add_argument("--check-nonstrict", action="store_true",
                        help="apply conflict rules to strict=False windows too")
    parser.add_argument("--plan", metavar="FILE", default=None,
                        help="JSON fault plan (FaultPlan.to_json); inline "
                        "fault flags below are added on top of it")
    parser.add_argument("--kill", action="append", default=[],
                        metavar="RANK@POINT[:KIND]",
                        help="kill RANK at its POINT-th fuzz point")
    parser.add_argument("--stall", action="append", default=[],
                        metavar="RANK@POINT[:STEPS]",
                        help="stall RANK for STEPS scheduler steps (default 1)")
    parser.add_argument("--stall-transient", action="append", default=[],
                        metavar="RANK@POINT[:STEPS]",
                        help="transient stall: the injector retries with "
                        "exponential backoff; RetriesExhausted if STEPS "
                        "outlasts the budget")
    parser.add_argument("--fault-retries", type=int, default=None, metavar="N",
                        help="retry budget for transient stalls (default: "
                        "REPRO_FAULT_RETRIES or 3)")
    parser.add_argument("--corrupt", action="append", default=[], type=int,
                        metavar="OP", help="flip one seeded bit in RMA op #OP")
    parser.add_argument("--drop", action="append", default=[], type=int,
                        metavar="OP", help="silently drop RMA op #OP")
    return parser


def _parse_at(spec: str, what: str) -> tuple:
    """Parse RANK@POINT[:EXTRA] into (rank, point, extra-or-None)."""
    try:
        head, _, extra = spec.partition(":")
        rank_s, _, point_s = head.partition("@")
        return int(rank_s), int(point_s), extra or None
    except ValueError:
        raise SystemExit(f"bad --{what} spec {spec!r}: expected RANK@POINT[:X]")


def build_plan(args) -> "FaultPlan | None":
    """Compose the plan from --plan (if any) plus inline fault flags;
    ``None`` when neither asks for one."""
    if args.plan is not None:
        plan = FaultPlan.from_json(pathlib.Path(args.plan).read_text())
    else:
        plan = FaultPlan(seed=args.seed)
    for spec in args.kill:
        rank, point, kind = _parse_at(spec, "kill")
        plan = plan.kill(rank, point, kind)
    for spec in args.stall:
        rank, point, steps = _parse_at(spec, "stall")
        plan = plan.stall(rank, point, int(steps or 1))
    for spec in args.stall_transient:
        rank, point, steps = _parse_at(spec, "stall-transient")
        plan = plan.stall(rank, point, int(steps or 1), transient=True)
    for op in args.corrupt:
        plan = plan.corrupt(op)
    for op in args.drop:
        plan = plan.drop(op)
    return plan if args.plan is not None or not plan.empty else None


def load_entry(script: str):
    """Load ``script`` and return its ``main(comm)`` SPMD body."""
    ns = runpy.run_path(script, run_name="repro.sanitize.target")
    fn = ns.get("main")
    if fn is None:
        raise SystemExit(f"{script}: defines no main() function")
    params = [
        p for p in inspect.signature(fn).parameters.values()
        if p.default is inspect.Parameter.empty
        and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if len(params) != 1:
        raise SystemExit(
            f"{script}: main() must take exactly one required argument "
            "(the communicator) to run under the fuzzer"
        )
    return fn


def load_body(script: str):
    """A script path, or ``scenario:NAME`` from :data:`_ALL_SCENARIOS`."""
    if script.startswith("scenario:"):
        name = script[len("scenario:"):]
        try:
            return _ALL_SCENARIOS[name]
        except KeyError:
            raise SystemExit(
                f"unknown scenario {name!r}; choose from {sorted(_ALL_SCENARIOS)}"
            )
    return load_entry(script)


#: error classes that count as a *typed* failure diagnosis (report.error
#: is a repr, so the class name is its prefix)
_TYPED = ("TargetFailedError", "MutexHolderFailed", "RankKilledError",
          "OpTimeoutError", "RetriesExhausted", "CommRevokedError")


def graceful(report) -> bool:
    """A run is graceful iff clean, or typed-failure after injected faults."""
    if report.ok:
        return True
    if report.fault_events == 0:
        return False  # failed with no fault executed: a real finding
    err = report.error or ""
    return any(err.startswith(name) for name in _TYPED)


def _replay_corpus(path: str) -> int:
    """Replay the regression corpus; returns the number of failures."""
    from .corpus import load_corpus, replay_entry

    entries = load_corpus(path or None)
    failures = 0
    print(f"corpus: replaying {len(entries)} checked-in (seed, plan) entries")
    for entry in entries:
        passed, detail = replay_entry(entry)
        print(f"  {'PASS' if passed else 'FAIL'} {entry['name']}: {detail}")
        failures += 0 if passed else 1
    return failures


def main(argv: "list[str] | None" = None) -> int:
    from ..sanitizer.fuzz import format_reports, fuzz_schedules

    args = build_parser().parse_args(argv)
    if args.fault_retries is not None:
        os.environ["REPRO_FAULT_RETRIES"] = str(args.fault_retries)
    targets: list = []
    if args.sweep:
        targets = [(f"scenario:{n}", fn) for n, fn in sorted(SCENARIOS.items())]
        if args.corpus is None:
            args.corpus = ""  # --sweep implies the default corpus replay
    elif args.script is not None:
        targets = [(args.script, load_body(args.script))]
    elif args.corpus is None:
        raise SystemExit("nothing to do: give a script, --sweep, or --corpus")
    plan = build_plan(args)
    if plan is not None:
        print(f"fault plan: {plan.describe()}")
    bad = 0
    for label, fn in targets:
        reports = fuzz_schedules(
            fn,
            args.nproc,
            nschedules=args.schedules,
            base_seed=args.seed,
            switch_prob=args.switch_prob,
            sanitize=not args.no_sanitize,
            check_nonstrict=args.check_nonstrict,
            plan=plan,
        )
        if len(targets) > 1:
            print(f"== {label} ==")
        print(format_reports(reports))
        failed = [r for r in reports if not graceful(r) or r.violations]
        for r in failed:
            if not graceful(r):
                print(f"  seed {r.seed}: NOT graceful — {r.error}")
            for v in r.violations:
                print(f"  seed {r.seed}: {v}")
        bad += len(failed)
    if args.corpus is not None:
        bad += _replay_corpus(args.corpus)
    return 1 if bad else 0
