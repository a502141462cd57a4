"""Command-line figure regeneration: ``python -m repro.bench <figure>``.

Examples::

    python -m repro.bench table2
    python -m repro.bench fig3 --platform ib
    python -m repro.bench fig4 --platform bgp --kind get --seg-size 1024
    python -m repro.bench fig5
    python -m repro.bench fig6 --platform xe6 --kind triples
    python -m repro.bench all            # every figure (slow: full Fig. 4 grid)

Every entry of :data:`repro.bench.registry.BENCHES` (``hotpath``, ``mpi3``,
``procs``, ``proc-recover``, ``traffic``, ``sanitize``, ``recover``,
``lint``, ``sanitize-ablation``) is also a subcommand taking the same
four flags, and has a top-level alias::

    python -m repro.bench hotpath [--fast]     # measure and print
    python -m repro.bench hotpath --write      # rewrite benchmarks/BENCH_hotpath.json
    python -m repro.bench hotpath --smoke      # fast gate; exit 1 on FAIL
    python -m repro.bench --hotpath-smoke      # the same gate (`make hotpath-smoke`)
    python -m repro.bench --sanitize-ablation  # report-only bench: no -smoke suffix

The same series the pytest benches persist are printed to stdout.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from ..simtime import PLATFORMS
from .figures import (
    FIG4_SEG_SIZES,
    fig3_series,
    fig4_series,
    fig5_series,
    fig6_platform_series,
)
from .harness import format_series_table, format_table
from .registry import BENCHES, FAIL, Bench, run_gate, write_baseline

_PLATFORM_CHOICES = sorted(PLATFORMS) + ["all"]


def _platforms(arg: str):
    return list(PLATFORMS.values()) if arg == "all" else [PLATFORMS[arg]]


def cmd_table2(_args) -> None:
    headers = ["System", "Nodes", "Cores per Node", "Memory per Node",
               "Interconnect", "MPI Version"]
    rows = [p.table2_row() for p in PLATFORMS.values()]
    print(format_table("Table II: Experimental platforms", headers, rows))


def cmd_fig3(args) -> None:
    for platform in _platforms(args.platform):
        series = fig3_series(platform, exponents=(0, 25), step=args.step)
        print(format_series_table(
            f"Figure 3 — {platform.name}: contiguous bandwidth (GB/s)",
            "bytes", series,
        ))
        print()


def cmd_fig4(args) -> None:
    kinds = ["get", "acc", "put"] if args.kind == "all" else [args.kind]
    sizes = list(FIG4_SEG_SIZES) if args.seg_size == 0 else [args.seg_size]
    for platform in _platforms(args.platform):
        for kind in kinds:
            for seg in sizes:
                series = fig4_series(platform, kind, seg)
                print(format_series_table(
                    f"Figure 4 — {platform.name}: strided {kind}, "
                    f"SIZE={seg}B (GB/s)",
                    "nsegs", series,
                ))
                print()


def cmd_fig5(_args) -> None:
    series = fig5_series(PLATFORMS["ib"])
    print(format_series_table(
        "Figure 5 — registration interop, contiguous get (GB/s)",
        "bytes", series,
    ))


def cmd_fig6(args) -> None:
    kinds = ["ccsd", "triples"] if args.kind == "all" else [args.kind]
    for platform in _platforms(args.platform):
        for kind in kinds:
            if kind == "triples" and platform.key not in ("ib", "xe6"):
                continue  # the paper only shows (T) on these two
            series = fig6_platform_series(platform, kind=kind)
            print(format_series_table(
                f"Figure 6 — {platform.name}: {kind.upper()} time (min)",
                "cores", series,
            ))
            print()


def run_bench(bench: Bench, args) -> int:
    """One registry bench: gate it, or measure and optionally rewrite its
    baseline.  A bench with no baseline file is its gate."""
    if args.smoke or not bench.baseline:
        verdict, report = run_gate(bench, args.baseline)
        print(report)
        return 1 if verdict == FAIL else 0
    results = bench.measure(args.fast)
    print(bench.format(results))
    if args.write:
        print(f"\nwrote {write_baseline(bench, results, args.baseline)}")
    return 0


def cmd_all(args) -> None:
    cmd_table2(args)
    print()
    ns = argparse.Namespace(platform="all", step=1, kind="all", seg_size=0)
    cmd_fig3(ns)
    cmd_fig4(ns)
    cmd_fig5(ns)
    cmd_fig6(ns)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables and figures of the paper's §VII.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "table2", help="Table II platform characteristics"
    ).set_defaults(run=cmd_table2)

    p3 = sub.add_parser("fig3", help="contiguous bandwidth")
    p3.add_argument("--platform", choices=_PLATFORM_CHOICES, default="all")
    p3.add_argument("--step", type=int, default=1,
                    help="sample every Nth power of two (default 1)")
    p3.set_defaults(run=cmd_fig3)

    p4 = sub.add_parser("fig4", help="strided bandwidth by method")
    p4.add_argument("--platform", choices=_PLATFORM_CHOICES, default="all")
    p4.add_argument("--kind", choices=["get", "acc", "put", "all"], default="all")
    p4.add_argument("--seg-size", type=int, default=0,
                    help="segment size in bytes (0 = both paper sizes)")
    p4.set_defaults(run=cmd_fig4)

    sub.add_parser(
        "fig5", help="registration interoperability"
    ).set_defaults(run=cmd_fig5)

    p6 = sub.add_parser("fig6", help="NWChem CCSD/(T) scaling")
    p6.add_argument("--platform", choices=_PLATFORM_CHOICES, default="all")
    p6.add_argument("--kind", choices=["ccsd", "triples", "all"], default="all")
    p6.set_defaults(run=cmd_fig6)

    for bench in BENCHES.values():
        p = sub.add_parser(
            bench.name, help=bench.help, description=bench.help,
            epilog="gate checks: " + "; ".join(
                f"{c.name} (needs >= {c.min_cpus} usable CPU(s))"
                for c in bench.checks
            ) if bench.checks else None,
        )
        p.add_argument("--smoke", action="store_true",
                       help="fast gate against the committed baseline (exit "
                       "1 on FAIL; ok and skipped(cpu_count=N<M) exit 0)")
        p.add_argument("--fast", action="store_true",
                       help="shorter measurement (fewer repetitions/points)")
        p.add_argument("--write", action="store_true",
                       help="rewrite the committed baseline JSON")
        p.add_argument("--baseline", default=None,
                       help="override the baseline JSON path")
        p.set_defaults(run=partial(run_bench, bench))

    sub.add_parser(
        "all", help="every table and figure (slow: full Fig. 4 grid)"
    ).set_defaults(run=cmd_all)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # convenience aliases: `python -m repro.bench --hotpath-smoke` etc.
    for bench in BENCHES.values():
        if bench.alias in argv:
            smoke = ["--smoke"] if bench.checks else []
            argv = [bench.name, *smoke, *(a for a in argv if a != bench.alias)]
    args = build_parser().parse_args(argv)
    return int(args.run(args) or 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
