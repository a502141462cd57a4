"""Proc-backend throughput benchmarks: aggregate put/get scaling with cores.

Unlike the modeled-clock benches in this package, these numbers are
**wall clock**: the whole point of ``backend="proc"``
(:mod:`repro.mpi.backend_proc`) is escaping the GIL, and only a wall
clock can see that.  Each rank ring-puts and ring-gets a slab through
the ARMCI mpi3 datapath (standing ``lock_all`` epoch + flush) over
shared-memory windows, for world sizes 1, 2, and 4; the headline metric
is *aggregate* throughput (total bytes moved by all ranks / slowest
rank's elapsed time), the median of :data:`THROUGHPUT_RUNS` timed runs
per world size, and the gate is the scaling ratio from 1 to 4 ranks.

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
time of a run of that op with both ranks at it over the same run less
what it waited for reservations held elsewhere
(``ProcWin.reservation_wait_s``), the larger of the two ranks', median
over many runs (:func:`check_disjoint_acc`): reservations that let
disjoint footprints run at once keep it near 1 (1.00-1.05 on the 2-CPU
reference host, 1.16 at worst beside a test run), reservations that
made them take turns put every op behind the peer's and read about 2.
The run's time over the same op's with the other rank idle is recorded
beside it, not gated: on two CPUs that share a memory bus it also holds
the bands' memory contention (two plain numpy loops adding into
disjoint bands of one segment read 1.56-1.92 there), which no
reservation can remove.  It needs two CPUs too.

A fourth row times a message between two ranks: a ``send``/``recv``
ping-pong against a raw pipe + pickle ping-pong between the same two
rank processes, in alternating blocks of one run.  Each rank's thread is
pinned to a CPU of its own for the row, and to one shared CPU for a
second reading: unpinned, the scheduler may run the raw loop on two CPUs
and the runtime's on one (or the reverse), and the ratio would compare
placements.  Its gate is how the messages travel, not how long they
take (:func:`check_p2p_pingpong`): of one more block's messages, the
share that the receiving rank's own thread read from its inbox while it
waited, against the pump thread's (a design that hands every message
over from the pump reads 0).  The latency ratio is recorded, not gated:
it does not cancel host speed — the runtime's path is mostly Python,
the raw loop mostly the kernel's wake-up — and on the 2-CPU reference
host it read 2.5-3.3 over 20 runs and 3.1-4.5 beside a test suite.

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

#: timed runs per world size; a throughput row is their median (a single
#: ~20 ms run read np1 anywhere from 2.8k to 6.1k MB/s on unchanged code)
THROUGHPUT_RUNS = 5

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

#: ceiling on the disjoint row's run time over the same run less its
#: reservation waits
MAX_DISJOINT_OVER_UNWAITED = 1.5

#: round trips per block of the ping-pong row
PINGPONG_ROUNDS = 200

#: floor on the share of the ping-pong's messages that the rank waiting
#: for them read itself, ranks on two CPUs
MIN_WAITER_SHARE = 0.9


def _rank_body(comm, nbytes: int, nreps: int, runs: int = 1) -> "list[float]":
    """Ring put+get workload, ``runs`` times; returns this rank's elapsed
    wall seconds per run."""
    from ..armci import Armci

    armci = Armci.init(comm, datapath="mpi3")
    ptrs = armci.malloc(nbytes)
    me = armci.my_id
    right = (me + 1) % armci.nproc
    src = np.arange(nbytes, dtype=np.uint8)
    dst = np.empty(nbytes, dtype=np.uint8)
    elapsed = []
    for _ in range(runs):
        armci.barrier()
        t0 = time.perf_counter()
        for _ in range(nreps):
            armci.put(src, ptrs[right], nbytes=nbytes)
            armci.fence(right)
            armci.get(ptrs[right], dst, nbytes=nbytes)
        elapsed.append(time.perf_counter() - t0)
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
    accumulates would measure something else: lock polling is not
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


def _disjoint_acc_body(comm, phases: int, nreps: int) -> "list[tuple[float, float, float]]":
    """``phases`` pairs of back-to-back runs of ``nreps`` accumulates of a
    rank's column band of the matrix in rank 0's memory: rank 0 alone
    (rank 1 waits at a barrier), then both ranks at once.  Per phase, wall
    seconds of each run and the together run's reservation waits,
    ``(alone, together, waited)`` (rank 1's alone is 0)."""
    from ..armci import Armci

    armci = Armci.init(comm, datapath="mpi3")
    me = armci.my_id
    row_bytes = 2 * BAND_COLS * 8
    ptrs = armci.malloc(BAND_ROWS * row_bytes if me == 0 else 0)
    win = armci.table.require(ptrs[0]).win
    band = np.ones((BAND_ROWS, BAND_COLS))
    dst = ptrs[0] + me * BAND_COLS * 8

    def run() -> "tuple[float, float]":
        waited, t0 = win.reservation_wait_s, time.perf_counter()
        for _ in range(nreps):
            armci.acc_s(band, [BAND_COLS * 8], dst, [row_bytes], [BAND_COLS * 8, BAND_ROWS])
        return time.perf_counter() - t0, win.reservation_wait_s - waited

    run()  # warm: translation, datatypes, lock descriptors
    out = []
    for _ in range(phases):
        armci.barrier()
        alone = run()[0] if me == 0 else 0.0
        armci.barrier()
        out.append((alone, *run()))
    armci.barrier()
    armci.free(ptrs[me])
    armci.finalize()
    return out


def _disjoint_acc_row(phases: int, nreps: int) -> dict:
    """Per phase, the together run of the band accumulate over the same
    run less its reservation waits, the larger of the two ranks' (gated),
    and the slower rank's together run over rank 0's run alone just
    before it (recorded); medians over phases.  The larger, because ops
    that took turns could show as one rank done early and the other
    waiting through the peer's run, which a median over both ranks can
    miss — a polled lock is not a fair queue."""
    ranks = Runtime(2, backend="proc").spmd(
        _disjoint_acc_body, phases, nreps, join_timeout=300.0
    )
    alone = [a for a, _, _ in ranks[0]]
    together = [max(r0[1], r1[1]) for r0, r1 in zip(*ranks)]
    unwaited = [
        max(t / (t - w) for _, t, w in pair) for pair in zip(*ranks)
    ]
    return {
        "alone_us": float(np.median(alone)) / nreps * 1e6,
        "together_us": float(np.median(together)) / nreps * 1e6,
        "together_over_alone": float(np.median([t / a for a, t in zip(alone, together)])),
        "together_over_unwaited": float(np.median(unwaited)),
        "phases": phases,
    }


def _pingpong_body(
    comm, pipes, cpus, blocks: int, rounds: int
) -> "tuple[list[tuple[float, float]], float]":
    """Alternating blocks of ``rounds`` round trips, raw then runtime, each
    rank's thread pinned to ``cpus[rank]``: one-way microseconds of each
    block, ``(raw, send/recv)``, and, from one more runtime block, the
    share of the messages this rank read itself.  The raw loop is what a
    message needs at least: the same tuple pickled, one ``os.write``, one
    ``os.read``, one unpickle, over pipes created before the fork."""
    import os
    import pickle
    import threading

    os.sched_setaffinity(0, {cpus[comm.rank]})
    me, peer = comm.rank, 1 - comm.rank
    (r0, w0), (r1, w1) = pipes
    rd, wr = (r1, w0) if me == 0 else (r0, w1)
    msg = ("p2p", comm.context_id, me, peer, 1, b"ping")

    def raw_send() -> None:
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        os.write(wr, len(data).to_bytes(8, "little") + data)

    def raw_recv() -> None:
        pickle.loads(os.read(rd, 4096)[8:])

    def per_way(t0: float) -> float:
        return (time.perf_counter() - t0) / rounds / 2 * 1e6

    def pingpong() -> None:
        for _ in range(rounds):
            if me == 0:
                comm.send(b"ping", 1, tag=1)
                comm.recv(source=1, tag=1)
            else:
                comm.recv(source=0, tag=1)
                comm.send(b"ping", 0, tag=1)

    out = []
    for _ in range(blocks):
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(rounds):
            if me == 0:
                raw_send()
                raw_recv()
            else:
                raw_recv()
                raw_send()
        raw = per_way(t0)
        comm.barrier()
        t0 = time.perf_counter()
        pingpong()
        out.append((raw, per_way(t0)))
    # who reads the messages: count, per thread, the ping-pong messages
    # this rank's backend applies (untimed: the count wraps each one)
    backend, rank_thread, read = comm.runtime.backend, threading.current_thread(), [0, 0]

    def counted(runtime, msg) -> None:
        if msg[0] == "p2p" and msg[4] == 1:
            read[threading.current_thread() is rank_thread] += 1
        type(backend).dispatch(backend, runtime, msg)

    comm.barrier()
    backend.dispatch = counted
    pingpong()
    comm.barrier()
    del backend.dispatch
    return out, read[1] / max(sum(read), 1)


def _pingpong_row(blocks: int) -> dict:
    """The ping-pong's one-way latencies, ranks on two CPUs and on one:
    medians over blocks and the median of the per-block ratios; and the
    share of the messages the waiting rank read itself, the lower of the
    two ranks'."""
    import os

    usable = sorted(os.sched_getaffinity(0))
    out = {"blocks": blocks}
    for name, cpus in (("two_cpus", usable[:2]), ("one_cpu", usable[:1] * 2)):
        if len(cpus) < 2:  # a one-CPU host: no two-CPU reading
            continue
        pipes = [os.pipe(), os.pipe()]  # inherited by the forked ranks
        try:
            ranks = Runtime(2, backend="proc").spmd(
                _pingpong_body, pipes, cpus, blocks, PINGPONG_ROUNDS,
                join_timeout=300.0,
            )
        finally:
            for fd in (fd for pair in pipes for fd in pair):
                os.close(fd)
        blocks0 = ranks[0][0]
        raw, proc = zip(*blocks0)
        out[name] = {
            "raw_us": float(np.median(raw)),
            "p2p_us": float(np.median(proc)),
            "p2p_over_raw": float(np.median([p / r for r, p in blocks0])),
            "waiter_share": min(share for _, share in ranks),
        }
    return out


def measure(fast: bool = False) -> dict:
    """Aggregate put/get throughput for each world size + scaling ratio,
    the two-rank contended-accumulate row, the disjoint-accumulate row
    and the ping-pong row."""
    nreps = 8 if fast else 32
    results: dict = {}
    for nproc in NPROCS:
        rt = Runtime(nproc, backend="proc")
        per_rank = rt.spmd(
            _rank_body, SLAB_BYTES, nreps, THROUGHPUT_RUNS, join_timeout=300.0
        )
        # each run's slowest rank, then the median run
        slowest = float(np.median([max(run) for run in zip(*per_rank)]))
        moved = nproc * nreps * SLAB_BYTES * 2  # one put + one get per rep
        results[f"np{nproc}"] = {
            "aggregate_MB_per_s": moved / slowest / 1e6,
            "slowest_rank_s": slowest,
            "runs": THROUGHPUT_RUNS,
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
    results["p2p_pingpong_np2"] = _pingpong_row(31)
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
        "proc-backend put/get throughput (wall clock, shared-memory windows; "
        f"median of {THROUGHPUT_RUNS} runs)",
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
    pp = results["p2p_pingpong_np2"]
    pingpong = "".join(
        f"\np2p ping-pong, 2 ranks on {where}: send/recv {pp[key]['p2p_us']:.1f} us "
        f"one way, raw pipe + pickle {pp[key]['raw_us']:.1f} us, "
        f"{pp[key]['p2p_over_raw']:.2f}x (median of {pp['blocks']} blocks); "
        f"{pp[key]['waiter_share']:.0%} read by the waiting rank itself"
        for key, where in (("two_cpus", "two CPUs"), ("one_cpu", "one CPU"))
        if key in pp
    )
    return (
        f"{table}\nscaling 1 -> {NPROCS[-1]} ranks: "
        f"{results['scaling_1_to_4']:.2f}x\n"
        f"contended accumulate, 2 ranks -> rank 0, {SLAB_BYTES // 1024} KiB: "
        f"mean {acc['mean_us']:.0f} us, median {acc['median_us']:.0f} us, "
        f"mean/median {acc['mean_over_median']:.2f} (best of {rounds})\n"
        f"disjoint accumulate, 2 ranks -> column bands of rank 0, "
        f"{BAND_ROWS * BAND_COLS * 8 // 1024} KiB each: {band['alone_us']:.0f} us "
        f"per op alone, {band['together_us']:.0f} us together "
        f"({band['together_over_alone']:.2f}x), together over the same run "
        f"less its reservation waits {band['together_over_unwaited']:.2f}x "
        f"(median of {band['phases']} phases)"
        f"{pingpong}"
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
    ratio = measured["disjoint_acc_np2"]["together_over_unwaited"]
    if ratio <= MAX_DISJOINT_OVER_UNWAITED:
        return []
    return [
        f"disjoint accumulate run time is {ratio:.2f}x the same run less its "
        f"reservation waits (ceiling {MAX_DISJOINT_OVER_UNWAITED}x): disjoint "
        "footprints waited for each other"
    ]


def check_p2p_pingpong(measured: dict, _committed: dict) -> "list[str]":
    """A rank waiting in ``recv`` reads its message itself: at least
    :data:`MIN_WAITER_SHARE` of the ping-pong's, ranks on two CPUs."""
    share = measured["p2p_pingpong_np2"]["two_cpus"]["waiter_share"]
    if share >= MIN_WAITER_SHARE:
        return []
    return [
        f"the waiting rank read only {share:.0%} of the ping-pong's messages "
        f"itself (floor {MIN_WAITER_SHARE:.0%}): the rest took the pump's hop"
    ]
