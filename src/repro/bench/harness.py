"""Benchmark harness utilities: sweeps, series, table formatting.

Two measurement styles coexist, per DESIGN.md:

* **simulated-execution measurements** (Figs. 3, 4 and the ablations):
  the real ARMCI-MPI / native-ARMCI code paths run on simulated ranks
  with a platform timing policy installed; reported time is the
  initiating rank's simulated-clock delta.  This exercises every layer
  (GMR translation, datatype flattening, epochs) end to end.
* **analytic composition** (Figs. 5, 6): closed-form model evaluation
  where execution at true scale is infeasible.

These helpers report *modeled* time only.  Python wall clock is
measured elsewhere in this package — the hot-path speedup ratios
(:mod:`repro.bench.hotpath`), the proc-backend throughput, recovery and
traffic benches, and the sanitizer ablation — by the entries of
:mod:`repro.bench.registry`, and end to end by ``benchmarks/e2e``;
pytest-benchmark covers the one place where real CPU time *is* the
paper's metric (the §VI-B conflict-tree comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..mpi.runtime import Runtime


def pow2_sizes(lo_exp: int, hi_exp: int, step: int = 1) -> list[int]:
    """[2^lo, ..., 2^hi] inclusive."""
    return [1 << e for e in range(lo_exp, hi_exp + 1, step)]


def gbps(nbytes: float, seconds: float) -> float:
    """Bandwidth in GB/s (returns 0 for zero-duration no-ops)."""
    return (nbytes / seconds) / 1e9 if seconds > 0 else 0.0


@dataclass
class Series:
    """One plotted line: (x, y) pairs plus identity."""

    label: str
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)

    def add(self, x, y) -> None:
        self.x.append(x)
        self.y.append(y)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    floatfmt: str = "{:.4g}",
) -> str:
    """Fixed-width text table (the benches' printed output)."""
    srows = [
        [floatfmt.format(c) if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [
        max(len(h), *(len(r[i]) for r in srows)) if srows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "  "
    lines = [title, "-" * len(title)]
    lines.append(sep.join(h.rjust(w) for h, w in zip(headers, widths)))
    for r in srows:
        lines.append(sep.join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(line.rstrip() for line in lines)


def format_series_table(title: str, xlabel: str, series: Sequence[Series]) -> str:
    """Tabulate several series sharing the same x axis."""
    if not series:
        return title
    xs = series[0].x
    for s in series:
        if s.x != xs:
            raise ValueError(f"series {s.label!r} has a different x axis")
    rows = [
        [x] + [s.y[i] for s in series]
        for i, x in enumerate(xs)
    ]
    return format_table(title, [xlabel] + [s.label for s in series], rows)


def run_measurement(
    nproc: int,
    fn: Callable,
    *args,
    timing=None,
    watchdog_s: float = 10.0,
) -> list:
    """Run an SPMD measurement function on a fresh simulated runtime.

    ``timing`` (a policy object) is installed on the runtime before the
    ranks start, so every MPI-level operation charges modeled cost.
    Returns the per-rank results of ``fn(comm, *args)``.
    """
    rt = Runtime(nproc, watchdog_s=watchdog_s)
    rt.timing = timing
    return rt.spmd(fn, *args)
