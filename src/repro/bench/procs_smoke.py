"""Proc-backend throughput benchmarks: aggregate put/get scaling with cores.

Unlike the modeled-clock benches in this package, these numbers are
**wall clock**: the whole point of ``backend="proc"``
(:mod:`repro.mpi.backend_proc`) is escaping the GIL, and only a wall
clock can see that.  Each rank ring-puts and ring-gets a slab through
the ARMCI mpi3 datapath (standing ``lock_all`` epoch + flush) over
shared-memory windows, for world sizes 1, 2, and 4; the headline metric
is *aggregate* throughput (total bytes moved by all ranks / slowest
rank's elapsed time), and the gate is the scaling ratio from 1 to 4
ranks.

Because the ratio compares the same machine against itself it is
host-relative — but it still needs cores to scale onto, so the
``procs`` entry of :mod:`repro.bench.registry` enforces the
``>= MIN_SCALING`` floor (:func:`check_scaling`) only on hosts with
``registry.WALLCLOCK_MIN_CPUS`` usable CPUs; elsewhere the verdict is
``skipped(cpu_count=N<M)`` and the ratio is recorded with it (scaling
is required "on a multi-core host").  Absolute MB/s are recorded in
``benchmarks/BENCH_procs.json`` for trajectory only and are never
gated: they are machine-dependent.
"""

from __future__ import annotations

import time

import numpy as np

from ..mpi.runtime import Runtime
from .harness import format_table

#: required aggregate-throughput scaling from 1 rank to 4 ranks
MIN_SCALING = 2.0

#: world sizes measured (the scaling ratio is last/first)
NPROCS = (1, 2, 4)

#: per-rank slab size; big enough that memcpy through the shared-memory
#: window dominates epoch/flush bookkeeping
SLAB_BYTES = 1 << 20


def _rank_body(comm, nbytes: int, nreps: int) -> float:
    """Ring put+get workload; returns this rank's elapsed wall seconds."""
    from ..armci import Armci

    armci = Armci.init(comm, datapath="mpi3")
    ptrs = armci.malloc(nbytes)
    me = armci.my_id
    right = (me + 1) % armci.nproc
    src = np.arange(nbytes, dtype=np.uint8)
    dst = np.empty(nbytes, dtype=np.uint8)
    armci.barrier()
    t0 = time.perf_counter()
    for _ in range(nreps):
        armci.put(src, ptrs[right], nbytes=nbytes)
        armci.fence(right)
        armci.get(ptrs[right], dst, nbytes=nbytes)
    elapsed = time.perf_counter() - t0
    armci.barrier()
    armci.free(ptrs[me])
    armci.finalize()
    return elapsed


def measure(fast: bool = False) -> dict:
    """Aggregate put/get throughput for each world size + scaling ratio."""
    nreps = 8 if fast else 32
    results: dict = {}
    for nproc in NPROCS:
        rt = Runtime(nproc, backend="proc")
        elapsed = rt.spmd(_rank_body, SLAB_BYTES, nreps, join_timeout=300.0)
        slowest = max(elapsed)
        moved = nproc * nreps * SLAB_BYTES * 2  # one put + one get per rep
        results[f"np{nproc}"] = {
            "aggregate_MB_per_s": moved / slowest / 1e6,
            "slowest_rank_s": slowest,
        }
    first, last = f"np{NPROCS[0]}", f"np{NPROCS[-1]}"
    results["scaling_1_to_4"] = (
        results[last]["aggregate_MB_per_s"] / results[first]["aggregate_MB_per_s"]
    )
    return results


def format_results(results: dict) -> str:
    table = format_table(
        "proc-backend put/get throughput (wall clock, shared-memory windows)",
        ["ranks", "aggregate MB/s", "slowest rank s"],
        [
            [n, f"{results[f'np{n}']['aggregate_MB_per_s']:.1f}",
             f"{results[f'np{n}']['slowest_rank_s']:.3f}"]
            for n in NPROCS
        ],
    )
    return (
        f"{table}\nscaling 1 -> {NPROCS[-1]} ranks: "
        f"{results['scaling_1_to_4']:.2f}x"
    )


def check_scaling(measured: dict, _committed: dict) -> "list[str]":
    """The core-scaling floor on the 1->4 rank aggregate-throughput ratio."""
    scaling = measured["scaling_1_to_4"]
    if scaling >= MIN_SCALING:
        return []
    return [
        f"aggregate throughput scaled only {scaling:.2f}x from 1 to "
        f"{NPROCS[-1]} ranks (floor {MIN_SCALING}x)"
    ]
