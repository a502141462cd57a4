"""MPI-3 datapath benchmarks: flush completion + nonblocking aggregation.

The datapath's performance claim has two halves, and the ``mpi3`` entry
of :mod:`repro.bench.registry` gates both against the committed
``benchmarks/BENCH_mpi3_datapath.json``:

* **datapath** — the same stream of small nonblocking operations under
  ``datapath="mpi2"`` (each op eager, in its own lock/unlock epoch — the
  §V-C discipline) vs ``datapath="mpi3"`` (ops queued into the standing
  ``lock_all`` epoch, issued in batches, completed by one per-target
  flush).  The mpi3 arm must be at least ``MIN_SPEEDUP["mpi3_speedup"]``
  faster in modeled ops/s.
* **coalescing** — the mpi3 arm with adjacency merging disabled
  (``nb_coalesce_threshold=0``) vs enabled.  Merging adjacent small
  puts/accs into few large transfers must buy at least
  ``MIN_SPEEDUP["coalesce_speedup"]`` on top of deferral alone.

All times are *modeled* seconds read from the simulated clock under the
``xe6`` platform's MPI path model (per-op lock/unlock cost vs cheap
in-epoch issue + flush), so results are machine-independent and
deterministic for a given code state: the smoke gate compares speedups
(each must hold its floor and stay within 2x of the committed value),
and a regression means the datapath itself — not the host — got slower.
"""

from __future__ import annotations

import numpy as np

from ..armci import Armci, ArmciConfig
from ..mpi.runtime import current_proc
from ..simtime import PLATFORMS, MPITimingPolicy
from .harness import format_table, run_measurement

#: acceptance floors (the ISSUE's gates), machine-independent
MIN_SPEEDUP = {"mpi3_speedup": 2.0, "coalesce_speedup": 1.5}

#: modeled platform: xe6 has per-op lock/unlock cost but no epoch-queue
#: pathology, so it isolates exactly what flush-completion removes
PLATFORM_KEY = "xe6"

#: ops per drained batch; == the default nb_max_pending so no arm
#: auto-drains mid-batch
BATCH = 64

#: bytes per operation (a GA-style element-wise update)
OP_BYTES = 8

#: adjacency-merge cap for the coalesced arm: one batch merges into one
#: BATCH * OP_BYTES transfer
COALESCE_LIMIT = BATCH * OP_BYTES

WORKLOADS = ("small_put", "small_acc")


# ---------------------------------------------------------------------------
# measurement (SPMD bodies on the simulated runtime)
# ---------------------------------------------------------------------------


def _measure_arm(comm, workload: str, datapath: str, coalesce: int, nbatches, out):
    """Per-rank modeled seconds per op for one (workload, arm) pair."""
    cfg = ArmciConfig(nb_coalesce_threshold=coalesce)
    rt = Armci.init(comm, config=cfg, datapath=datapath)
    ptrs = rt.malloc(BATCH * OP_BYTES)
    me = rt.my_id
    peer = (me + 1) % rt.nproc
    src = np.zeros(BATCH * OP_BYTES, dtype=np.uint8).reshape(BATCH, OP_BYTES)
    src[:] = np.arange(BATCH, dtype=np.uint8)[:, None]
    acc_src = np.ones(1, dtype=np.int64)
    op = rt.nb_put if workload == "small_put" else rt.nb_acc
    rt.barrier()
    clock = current_proc().clock
    t0 = clock.now
    for _ in range(nbatches):
        if workload == "small_put":
            handles = [
                op(src[i], ptrs[peer] + i * OP_BYTES, OP_BYTES)
                for i in range(BATCH)
            ]
        else:
            handles = [
                op(acc_src, ptrs[peer] + i * OP_BYTES, 1.0, OP_BYTES)
                for i in range(BATCH)
            ]
        rt.wait_all(handles)
    out[me] = (clock.now - t0) / (nbatches * BATCH)
    rt.barrier()
    rt.free(ptrs[me])
    rt.finalize()


ARMS = (
    # (result key, datapath, nb_coalesce_threshold)
    ("mpi2_s_per_op", "mpi2", 0),
    ("mpi3_s_per_op", "mpi3", 0),
    ("mpi3_coalesced_s_per_op", "mpi3", COALESCE_LIMIT),
)


def measure(fast: bool = False) -> dict[str, dict[str, float]]:
    """Run every workload x arm; returns per-workload times + speedups."""
    nbatches = 4 if fast else 16
    timing = MPITimingPolicy(PLATFORMS[PLATFORM_KEY].mpi)
    results: dict[str, dict[str, float]] = {}
    for workload in WORKLOADS:
        r: dict[str, float] = {}
        for key, datapath, coalesce in ARMS:
            out: dict = {}
            run_measurement(
                2, _measure_arm, workload, datapath, coalesce, nbatches, out,
                timing=timing,
            )
            r[key] = float(np.mean(list(out.values())))
        r["mpi3_speedup"] = r["mpi2_s_per_op"] / r["mpi3_s_per_op"]
        r["coalesce_speedup"] = r["mpi3_s_per_op"] / r["mpi3_coalesced_s_per_op"]
        results[workload] = r
    return results


def format_results(results: dict[str, dict[str, float]]) -> str:
    return format_table(
        f"MPI-3 datapath benchmarks (modeled s/op, {PLATFORM_KEY} model)",
        ["workload", "mpi2", "mpi3", "mpi3+coal", "mpi3 gain", "coal gain"],
        [
            [name, f"{r['mpi2_s_per_op']:.3e}", f"{r['mpi3_s_per_op']:.3e}",
             f"{r['mpi3_coalesced_s_per_op']:.3e}",
             f"{r['mpi3_speedup']:.1f}x", f"{r['coalesce_speedup']:.1f}x"]
            for name, r in results.items()
        ],
    )
