"""Proc-backend throughput benchmarks: put/get scaling with CPU cores.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_procs.py --benchmark-only -s

One arm per world size (1, 2, 4 ranks), each spawning real OS processes
(``Runtime(nproc, backend="proc")``) whose windows live in
``multiprocessing.shared_memory``; every rank ring-puts and ring-gets a
1 MiB slab through the ARMCI mpi3 datapath.  Unlike the modeled-clock
benches these are **wall-clock** numbers — the proc backend exists to
escape the GIL, and only a wall clock can see whether it did.

The scaling test asserts the acceptance floor (aggregate throughput
>= 2x from 1 to 4 ranks) where the host has the CPUs the check
declares, records the measured ratio with a ``skipped`` verdict on
smaller hosts, and rewrites ``benchmarks/BENCH_procs.json`` so the
trajectory is tracked from this PR on.  The floor, the writer and the
fast gate over that file (``python -m repro.bench --procs-smoke``) are
the ``procs`` entry of :mod:`repro.bench.registry`.
"""

from __future__ import annotations

import pytest

from repro.bench import procs_smoke
from repro.mpi.runtime import Runtime


@pytest.mark.parametrize("nproc", procs_smoke.NPROCS)
def test_procs_throughput_arm(benchmark, nproc):
    """Wall time of one ring put/get measurement at a given world size."""
    benchmark.pedantic(
        lambda: Runtime(nproc, backend="proc").spmd(
            procs_smoke._rank_body, procs_smoke.SLAB_BYTES, 4,
            join_timeout=300.0,
        ),
        rounds=2, iterations=1,
    )


def test_procs_scaling_and_write_baseline(regenerate_baseline):
    regenerate_baseline("procs")
