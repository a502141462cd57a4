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

A second row measures what two ranks cost *each other*: both produce
and accumulate slabs into the same bytes of rank 0's memory, so an
operation regularly meets the peer's reservation of its footprint held.
The two footprints are the same slab, so the row measures *overlapping*
footprints only (accumulates on disjoint bytes of one target do not
wait for each other at all).  Its gate is the
ratio of the mean to the median operation time
(:func:`check_contended_acc`): a wait that costs what the holder holds
keeps the two close, a wait that oversleeps (the flat 2 ms poll this
backend once had read 1.35-2.0) shows as a tail the median cannot see.
It needs two CPUs, not four, so it is the wall-clock check that fires
on a 2-CPU host.

A third row gates the overlap itself: two ranks accumulate *disjoint*
column bands of one matrix in rank 0's memory, back to back, so their
footprints interleave row by row but share no byte.  Its gate is the
per-op time of that op over the same op's with the other rank idle, in
adjacent runs, median over many such phases
(:func:`check_disjoint_acc`): reservations that let disjoint footprints
run at once keep it near 1 (two cores, each on its own band; 1.1-1.3
on the 2-CPU reference host), reservations that made them take turns
would put every op behind the peer's and read about 2 (1.8-2.1 there).
It needs two CPUs too.

Because the scaling ratio compares the same machine against itself it is
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

#: local work between two accumulates of the contended row (multiply +
#: add passes over a slab)
PRODUCE_PASSES = 6

#: repetitions of the contended row; the one with the smallest ratio counts
ACC_ROUNDS = 3

#: ceiling on mean / median operation time of the contended-accumulate row
MAX_ACC_MEAN_OVER_MEDIAN = 1.4

#: the disjoint-accumulate row's matrix in rank 0's memory, ``float64``:
#: rank ``r`` accumulates columns ``[r * BAND_COLS, (r + 1) * BAND_COLS)``
#: of every row, a 512 KiB band
BAND_ROWS, BAND_COLS = 256, 256

#: ceiling on the disjoint row's per-op time over the uncontended op's
MAX_DISJOINT_OVER_ALONE = 1.5


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


def _contended_acc_body(comm, nbytes: int, nreps: int) -> "list[float]":
    """Every rank accumulates a slab into rank 0's; wall seconds per op.

    Between two accumulates a rank *produces* its next contribution
    (:data:`PRODUCE_PASSES` local passes over a slab, untimed — the
    stand-in for the DGEMM tile an NWChem-style accumulate carries, ~4x
    the accumulate itself), so the peer's reservation is free most of the
    time and an operation that meets it held waits for one holder.  Back-to-back
    accumulates would measure something else: ``flock`` polling is not
    a fair queue, a saturated lock goes to whoever released it last, and
    mean/median reads ~2 however short a single wait is.
    """
    from ..armci import Armci

    armci = Armci.init(comm, datapath="mpi3")
    ptrs = armci.malloc(nbytes)
    tile = np.ones(nbytes // 8)
    src, kept = np.empty_like(tile), np.zeros_like(tile)
    armci.acc(tile, ptrs[0])  # warm: translation, datatypes, lock descriptors
    armci.barrier()
    times = []
    for rep in range(nreps):
        for _ in range(PRODUCE_PASSES):
            np.multiply(tile, rep + 1.0, out=src)
            np.add(kept, src, out=kept)
        t0 = time.perf_counter()
        armci.acc(src, ptrs[0])
        times.append(time.perf_counter() - t0)
    armci.barrier()
    armci.free(ptrs[armci.my_id])
    armci.finalize()
    return times


def _disjoint_acc_body(comm, phases: int, nreps: int) -> "list[tuple[float, float]]":
    """``phases`` pairs of back-to-back runs of ``nreps`` accumulates of a
    rank's column band of the matrix in rank 0's memory: rank 0 alone
    (rank 1 waits at a barrier), then both ranks at once.  Wall seconds of
    each run, ``(alone, together)`` per phase (rank 1's alone is 0)."""
    from ..armci import Armci

    armci = Armci.init(comm, datapath="mpi3")
    me = armci.my_id
    row_bytes = 2 * BAND_COLS * 8
    ptrs = armci.malloc(BAND_ROWS * row_bytes if me == 0 else 0)
    band = np.ones((BAND_ROWS, BAND_COLS))
    dst = ptrs[0] + me * BAND_COLS * 8

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(nreps):
            armci.acc_s(band, [BAND_COLS * 8], dst, [row_bytes], [BAND_COLS * 8, BAND_ROWS])
        return time.perf_counter() - t0

    run()  # warm: translation, datatypes, lock descriptors
    out = []
    for _ in range(phases):
        armci.barrier()
        alone = run() if me == 0 else 0.0
        armci.barrier()
        out.append((alone, run()))
    armci.barrier()
    armci.free(ptrs[me])
    armci.finalize()
    return out


def _disjoint_acc_row(phases: int, nreps: int) -> dict:
    """Per-op time of the band accumulate together over alone, per phase:
    the slowest rank's run over rank 0's run alone just before it (adjacent
    runs, so a host that drifts moves both).  The slowest rank, because
    ops that took turns would show as one rank done early and the other
    twice as long, which a median over both ranks' ops can miss — a flock
    is not a fair queue."""
    ranks = Runtime(2, backend="proc").spmd(
        _disjoint_acc_body, phases, nreps, join_timeout=300.0
    )
    alone = [a for a, _ in ranks[0]]
    together = [max(r0[1], r1[1]) for r0, r1 in zip(*ranks)]
    ratios = [t / a for a, t in zip(alone, together)]
    return {
        "alone_us": float(np.median(alone)) / nreps * 1e6,
        "together_us": float(np.median(together)) / nreps * 1e6,
        "together_over_alone": float(np.median(ratios)),
        "phases": phases,
    }


def measure(fast: bool = False) -> dict:
    """Aggregate put/get throughput for each world size + scaling ratio,
    the two-rank contended-accumulate row and the disjoint-accumulate
    row."""
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
    # best of ACC_ROUNDS: a shared host's noisy second only ever adds a
    # tail, an oversleeping wait puts one on every round
    rounds = [_contended_acc_round(400 if fast else 1000) for _ in range(ACC_ROUNDS)]
    results["contended_acc_np2"] = {
        **min(rounds, key=lambda r: r["mean_over_median"]),
        "mean_over_median_rounds": [r["mean_over_median"] for r in rounds],
    }
    results["disjoint_acc_np2"] = _disjoint_acc_row(30 if fast else 60, 20)
    return results


def _contended_acc_round(nreps: int) -> dict:
    per_rank = Runtime(2, backend="proc").spmd(
        _contended_acc_body, SLAB_BYTES, nreps, join_timeout=300.0
    )
    ops = np.concatenate(per_rank)
    mean_us, median_us = float(ops.mean() * 1e6), float(np.median(ops) * 1e6)
    return {
        "mean_us": mean_us,
        "median_us": median_us,
        "mean_over_median": mean_us / median_us,
    }


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
    acc = results["contended_acc_np2"]
    rounds = ", ".join(f"{r:.2f}" for r in acc["mean_over_median_rounds"])
    band = results["disjoint_acc_np2"]
    return (
        f"{table}\nscaling 1 -> {NPROCS[-1]} ranks: "
        f"{results['scaling_1_to_4']:.2f}x\n"
        f"contended accumulate, 2 ranks -> rank 0, {SLAB_BYTES // 1024} KiB: "
        f"mean {acc['mean_us']:.0f} us, median {acc['median_us']:.0f} us, "
        f"mean/median {acc['mean_over_median']:.2f} (best of {rounds})\n"
        f"disjoint accumulate, 2 ranks -> column bands of rank 0, "
        f"{BAND_ROWS * BAND_COLS * 8 // 1024} KiB each: {band['alone_us']:.0f} us "
        f"per op alone, {band['together_us']:.0f} us together, "
        f"{band['together_over_alone']:.2f}x (median of {band['phases']} phases)"
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


def check_contended_acc(measured: dict, _committed: dict) -> "list[str]":
    """Lock waits must not put a tail on the contended accumulate."""
    ratio = measured["contended_acc_np2"]["mean_over_median"]
    if ratio <= MAX_ACC_MEAN_OVER_MEDIAN:
        return []
    return [
        f"contended accumulate mean/median op time is {ratio:.2f} "
        f"(ceiling {MAX_ACC_MEAN_OVER_MEDIAN}): waits cost more than the "
        "holder holds"
    ]


def check_disjoint_acc(measured: dict, _committed: dict) -> "list[str]":
    """Accumulates on disjoint bytes of one target must not take turns."""
    ratio = measured["disjoint_acc_np2"]["together_over_alone"]
    if ratio <= MAX_DISJOINT_OVER_ALONE:
        return []
    return [
        f"disjoint accumulate per-op time is {ratio:.2f}x the uncontended "
        f"op's (ceiling {MAX_DISJOINT_OVER_ALONE}x): disjoint footprints "
        "waited for each other"
    ]
