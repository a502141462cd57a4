"""CLI: run one traffic scenario and print its service report.

::

    python -m repro.traffic --scenario stencil --nproc 4 --seed 7
    python -m repro.traffic --scenario worksteal --kill 1@40
    python -m repro.traffic --scenario bfs --backend proc --proc-kill 2@0.4
    python -m repro.traffic --scenario stencil --seed 7 --replay

``--kill RANK@POINT`` injects a thread-backend
:class:`~repro.faults.plan.FaultPlan` kill at a fuzz point;
``--proc-kill RANK@AFTER_S`` / ``--proc-stall RANK@AFTER_S`` deliver a
real ``SIGKILL``/``SIGSTOP`` on the proc backend.  Every flag given
goes into one plan: a run rejects an entry its backend cannot execute
(``FaultPlan.unsupported``), and a proc kill or stall still pending when
the run ends is reported as missed.  ``--replay`` runs the
thread-backend scenario twice and fails unless both the scheduler
digest and the traffic trace digest are identical — the seed-replay
contract.  Exit status is 0 iff the run completed, the workload's
serial-numpy oracle verified, every proc fault fired, and (with
``--replay``) the digests matched.
"""

from __future__ import annotations

import argparse
import sys

from ..faults.plan import FaultPlan
from .harness import TrafficConfig, run_traffic, run_traffic_proc


def _rank_at(spec: str, what: str) -> "tuple[int, float]":
    try:
        rank, at = spec.split("@", 1)
        return int(rank), float(at)
    except ValueError:
        raise SystemExit(f"bad {what} spec {spec!r}: expected RANK@{what.upper()}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traffic",
        description="Service-style GA traffic: admission control, deadlines, "
        "retry/backoff, circuit breaker, and recovery under live faults.",
    )
    parser.add_argument("--scenario", default="stencil",
                        choices=("stencil", "worksteal", "bfs"),
                        help="traffic workload (default stencil)")
    parser.add_argument("--nproc", type=int, default=4,
                        help="number of ranks (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic + schedule seed (default 0)")
    parser.add_argument("--offered", type=int, default=3,
                        help="client arrivals per rank per tick (default 3)")
    parser.add_argument("--service-rate", type=int, default=2,
                        help="requests served per rank per tick (default 2)")
    parser.add_argument("--queue", type=int, default=6,
                        help="admission queue capacity (default 6)")
    parser.add_argument("--deadline", type=int, default=8,
                        help="per-request deadline in ticks (default 8)")
    parser.add_argument("--size", type=int, default=0,
                        help="workload scale (0 = workload default)")
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "proc"),
                        help="thread = deterministic scheduler; proc = real "
                        "processes with wall-clock faults")
    parser.add_argument("--kill", metavar="RANK@POINT", default=None,
                        help="thread backend: kill RANK at fuzz point POINT")
    parser.add_argument("--proc-kill", metavar="RANK@AFTER_S", default=None,
                        help="proc backend: SIGKILL RANK AFTER_S seconds in")
    parser.add_argument("--proc-stall", metavar="RANK@AFTER_S", default=None,
                        help="proc backend: SIGSTOP RANK AFTER_S seconds in "
                        "(resumed 0.5s later)")
    parser.add_argument("--tick-sleep", type=float, default=0.0,
                        help="proc backend: wall seconds to pace each tick")
    parser.add_argument("--replay", action="store_true",
                        help="thread backend: run twice, fail on any digest "
                        "mismatch (seed-replay contract)")
    return parser


def _fault_plan(args) -> "FaultPlan | None":
    """One plan from every fault flag given, whatever the backend: the
    run rejects an entry its backend cannot execute, naming it."""
    plan = FaultPlan(seed=args.seed)
    if args.kill:
        rank, point = _rank_at(args.kill, "point")
        plan = plan.kill(rank, int(point))
    if args.proc_kill:
        rank, after = _rank_at(args.proc_kill, "after_s")
        plan = plan.kill(rank, after_s=after)
    if args.proc_stall:
        rank, after = _rank_at(args.proc_stall, "after_s")
        plan = plan.stall(rank, after_s=after)
    return None if plan.empty else plan


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = TrafficConfig(
        scenario=args.scenario, seed=args.seed, size=args.size,
        offered=args.offered, service_rate=args.service_rate,
        queue_capacity=args.queue, deadline_ticks=args.deadline,
        tick_sleep_s=args.tick_sleep if args.backend == "proc" else 0.0,
    )
    plan = _fault_plan(args)
    if args.backend == "proc":
        result = run_traffic_proc(cfg, args.nproc, plan=plan)
        print(result.summary())
        return 0 if (result.ok and result.verified and not result.missed) else 1
    result = run_traffic(cfg, args.nproc, args.seed, plan=plan)
    print(result.summary())
    bad = not (result.ok and result.verified) or result.violations
    if args.replay:
        again = run_traffic(cfg, args.nproc, args.seed, plan=plan)
        same = (
            again.digest == result.digest
            and again.schedule_digest == result.schedule_digest
        )
        print(f"replay: {'identical' if same else 'DIVERGED'} "
              f"(trace {again.digest[:16]}…)")
        bad = bad or not same
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
