"""Proc-backend recovery benchmark: SIGKILL detection latency + recovery time.

A real process death on ``backend="proc"`` is detected by two racing
paths — the parent monitor noticing the child's exit and broadcasting
``rank_dead``, and the peers' shared-memory heartbeat lease going stale
past ``suspect_after`` with the pid gone.  This bench measures what a
survivor actually experiences: the wall-clock gap between the victim's
``SIGKILL`` (stamped to a marker file, ``fsync``-ed, immediately before
the kill — ``CLOCK_MONOTONIC`` is system-wide, so the stamps compare
across processes) and the survivor catching its first typed failure
error, swept over two heartbeat intervals.  It then times the full
survivor restart — :func:`repro.recover.recover` + GA checkpoint
restore-with-redistribution — and verifies the restored values against
the seeded base, so the number is only recorded for a *correct*
recovery.

The workload replays from ``SEED``: array contents, shape, and the
victim are pure functions of it.  Absolute seconds are machine-dependent
trajectory data in ``benchmarks/BENCH_proc_recover.json``; the gate is
the detection-latency ceiling (detection must come well before the
``join_timeout`` deadlock backstop, :func:`check_detect_budget`), which
the ``proc-recover`` entry of :mod:`repro.bench.registry` enforces only
on hosts with at least ``registry.WALLCLOCK_MIN_CPUS`` usable CPUs,
where the survivors actually run in parallel and timing is meaningful.
Value correctness (:func:`check_value_correct`) is gated on every host.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import tempfile
import time

import numpy as np

from ..mpi.runtime import Runtime
from .harness import format_table

#: world size and the rank the scenario kills
NPROC = 4
VICTIM = 2
#: seeds the GA contents (and therefore the post-restore verification)
SEED = 11
#: heartbeat intervals swept; suspect_after scales with each
HEARTBEATS = (0.05, 0.2)
#: the deadlock backstop the runs use …
JOIN_TIMEOUT_S = 60.0
#: … and the gated ceiling on survivor-observed detection latency:
#: detection must beat the backstop by an order of magnitude
DETECT_BUDGET_S = JOIN_TIMEOUT_S * 0.1

_SHAPE = (12, 12)


def _base(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 1000, size=_SHAPE, dtype=np.int64
    )


def _create_filled(armci, base: np.ndarray):
    """A fresh GA holding ``base`` (each rank writes its own block)."""
    from ..ga import GlobalArray

    ga = GlobalArray.create(armci, _SHAPE, "i8")
    blk = ga.distribution()
    if blk.size:
        view = ga.access()
        view[...] = base[tuple(slice(l, h) for l, h in zip(blk.lo, blk.hi))]
        ga.release()
    ga.sync()
    return ga


def _rank_body(comm, marker: str, seed: int):
    """Seeded kill-and-recover workload; survivors return their timings."""
    from ..armci import Armci
    from ..armci.mutexes import MutexHolderFailed
    from ..ga import GlobalArray
    from ..mpi.errors import (
        CommRevokedError,
        OpTimeoutError,
        TargetFailedError,
    )
    from ..mpi.runtime import RankFailedError
    from ..recover import recover

    recoverable = (
        TargetFailedError,
        RankFailedError,
        CommRevokedError,
        OpTimeoutError,
        MutexHolderFailed,
    )
    base = _base(seed)
    armci = Armci.init(comm)
    ga = _create_filled(armci, base)
    ckpt = None
    t_detect = None
    recovery_s = None
    try:
        ckpt = ga.checkpoint()
        if armci.my_id == VICTIM:
            with open(marker, "w") as f:
                f.write(repr(time.monotonic()))
                f.flush()
                os.fsync(f.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        # survivors sit in collectives until failure detection poisons
        # them — this is exactly the latency being measured
        for _ in range(100_000):
            comm.allgather(comm.rank)
        flag = 1
    except recoverable:
        t_detect = time.monotonic()
        armci.world.revoke()
        flag = 0
    if not armci.world.agree(flag):
        t0 = time.monotonic()
        armci, report = recover(armci)
        assert VICTIM in report.failed, report
        have_ckpt = ckpt is not None and np.array_equal(ckpt.data, base)
        if armci.world.agree(1 if have_ckpt else 0):
            ga = GlobalArray.restore(armci, ckpt)
        else:  # pragma: no cover - kill raced the checkpoint barrier
            ga = _create_filled(armci, base)
        recovery_s = time.monotonic() - t0
    full = ga.get([0, 0], list(_SHAPE))
    ga.sync()
    return {
        "t_detect": t_detect,
        "recovery_s": recovery_s,
        "nproc_after": armci.nproc,
        # the timing only counts if the recovery is value-correct
        "value_correct": bool(np.array_equal(full, base)),
    }


def _stats(xs: "list[float]") -> dict:
    return {"min": min(xs), "max": max(xs), "mean": sum(xs) / len(xs)}


def _run_once(heartbeat_s: float) -> dict:
    suspect_after = max(4.0 * heartbeat_s, 0.2)
    tmp = tempfile.mkdtemp(prefix="repro-recover-")
    marker = os.path.join(tmp, "t_kill")
    try:
        rt = Runtime(
            NPROC,
            backend="proc",
            heartbeat_s=heartbeat_s,
            suspect_after=suspect_after,
        )
        out = rt.spmd(_rank_body, marker, SEED, join_timeout=JOIN_TIMEOUT_S)
        t_kill = float(pathlib.Path(marker).read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    survivors = [r for r in out if r is not None]
    if len(survivors) != NPROC - 1:
        raise RuntimeError(f"expected {NPROC - 1} survivor results, got {out!r}")
    detect = [s["t_detect"] - t_kill for s in survivors]
    recovery = [s["recovery_s"] for s in survivors]
    assert all(s["nproc_after"] == NPROC - 1 for s in survivors), survivors
    return {
        "heartbeat_s": heartbeat_s,
        "suspect_after_s": suspect_after,
        "value_correct": all(s["value_correct"] for s in survivors),
        "detect_latency_s": _stats(detect),
        "recovery_wall_s": _stats(recovery),
    }


def measure(fast: bool = False) -> dict:
    """Detection latency + recovery wall time for each heartbeat interval."""
    sweep = HEARTBEATS[:1] if fast else HEARTBEATS
    runs = {f"hb{hb:g}": _run_once(hb) for hb in sweep}
    return {
        "runs": runs,
        "worst_detect_latency_s": max(
            r["detect_latency_s"]["max"] for r in runs.values()
        ),
    }


def format_results(results: dict) -> str:
    rows = []
    for r in results["runs"].values():
        d, w = r["detect_latency_s"], r["recovery_wall_s"]
        rows.append([
            f"{r['heartbeat_s']:.3f}", f"{r['suspect_after_s']:.2f}",
            f"{d['min']:.3f}/{d['mean']:.3f}/{d['max']:.3f}", f"{w['mean']:.3f}",
        ])
    table = format_table(
        f"proc-backend recovery (SIGKILL rank {VICTIM} of {NPROC}, seed {SEED})",
        ["heartbeat s", "suspect s", "detect s (min/mean/max)", "recover s (mean)"],
        rows,
    )
    return (
        f"{table}\nworst detection latency: "
        f"{results['worst_detect_latency_s']:.3f}s (budget {DETECT_BUDGET_S:g}s)"
    )


def check_value_correct(measured: dict, _committed: dict) -> "list[str]":
    """Every survivor must read back the seeded base after the restore."""
    return [
        f"{key}: restored GA diverged from the seed"
        for key, r in measured["runs"].items()
        if not r["value_correct"]
    ]


def check_detect_budget(measured: dict, _committed: dict) -> "list[str]":
    """Detection must beat the ``join_timeout`` backstop by 10x."""
    worst = measured["worst_detect_latency_s"]
    if worst <= DETECT_BUDGET_S:
        return []
    return [
        f"survivors took {worst:.3f}s to observe the death (budget "
        f"{DETECT_BUDGET_S:g}s, join_timeout {JOIN_TIMEOUT_S:g}s)"
    ]
