"""MPI-3 flush-datapath benchmarks: deferral + coalescing vs eager epochs.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_mpi3_datapath.py --benchmark-only -s

Three arms per workload, all driving the same nonblocking ARMCI calls:

* ``datapath="mpi2"`` — every nb op completes eagerly inside its own
  lock/unlock epoch (the §V-C discipline: nothing to defer);
* ``datapath="mpi3"`` with ``nb_coalesce_threshold=0`` — ops queue into
  the standing ``lock_all`` epoch and complete at one per-target flush;
* ``datapath="mpi3"`` with adjacency coalescing — a batch of adjacent
  small puts/accs merges into a single transfer before issue.

The speedup test asserts the acceptance floors (mpi3 >= 2x mpi2,
coalesced >= 1.5x uncoalesced, in modeled ops/s) and rewrites
``benchmarks/BENCH_mpi3_datapath.json`` so the perf trajectory is
tracked from this PR on.  The floors, the writer and the fast gate over
that file (``python -m repro.bench --mpi3-smoke``) are the ``mpi3``
entry of :mod:`repro.bench.registry`.
"""

from __future__ import annotations

import pytest

from repro.bench import mpi3_smoke


@pytest.mark.parametrize("workload", mpi3_smoke.WORKLOADS)
@pytest.mark.parametrize("arm", [a[0] for a in mpi3_smoke.ARMS])
def test_mpi3_datapath_arm(benchmark, workload, arm):
    """Wall time of one (workload, arm) measurement on the sim runtime."""
    from repro.bench import run_measurement
    from repro.simtime import PLATFORMS, MPITimingPolicy

    (_, datapath, coalesce), = [a for a in mpi3_smoke.ARMS if a[0] == arm]
    timing = MPITimingPolicy(PLATFORMS[mpi3_smoke.PLATFORM_KEY].mpi)
    benchmark.pedantic(
        lambda: run_measurement(
            2, mpi3_smoke._measure_arm, workload, datapath, coalesce, 4, {},
            timing=timing,
        ),
        rounds=2, iterations=1,
    )


def test_mpi3_datapath_speedups_and_write_baseline(regenerate_baseline):
    regenerate_baseline("mpi3")
