"""Tests for MPI RMA windows: the strict MPI-2 semantics ARMCI-MPI targets.

These tests pin exactly the rules §III and §V of the paper design around:
epochs, one-lock-per-window, conflicting-access errors, deferred get
delivery, exclusive-lock DLA, and the MPI-3 gating.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.mpi.errors import (
    ArgumentError,
    RMAConflictError,
    RMARangeError,
    RMASyncError,
    WinError,
)

from conftest import spmd


def _win(comm, n_doubles=16, **kw):
    local = np.zeros(n_doubles, dtype="f8")
    win = mpi.Win.create(comm, local, **kw)
    return win, local


# ---------------------------------------------------------------------------
# basic data movement
# ---------------------------------------------------------------------------


def test_put_get_roundtrip():
    def main(comm):
        win, local = _win(comm)
        if comm.rank == 1:
            win.lock(0)
            win.put(np.arange(16.0), 0)
            win.unlock(0)
        comm.barrier()
        if comm.rank == 0:
            assert local[5] == 5.0
        out = np.zeros(16)
        win.lock(0, mpi.LOCK_SHARED)
        win.get(out, 0)
        win.unlock(0)
        np.testing.assert_array_equal(out, np.arange(16.0))
        win.free()

    spmd(3, main)


def test_get_not_delivered_until_unlock():
    def main(comm):
        win, local = _win(comm)
        if comm.rank == 0:
            local[:] = 9.0
        comm.barrier()
        if comm.rank == 1:
            out = np.zeros(16)
            win.lock(0)
            win.get(out, 0)
            assert np.all(out == 0.0), "get must not complete before unlock"
            win.unlock(0)
            assert np.all(out == 9.0)
        comm.barrier()
        win.free()

    spmd(2, main)


def test_accumulate_sum():
    def main(comm):
        win, local = _win(comm, 4)
        comm.barrier()
        win.lock(0)
        win.accumulate(np.full(4, 1.5), 0, op="MPI_SUM")
        win.unlock(0)
        comm.barrier()
        if comm.rank == 0:
            assert np.all(local == 1.5 * comm.size)
        win.free()

    spmd(4, main)


def test_accumulate_replace_and_min():
    def main(comm):
        win, local = _win(comm, 2)
        if comm.rank == 0:
            local[:] = [10.0, 10.0]
        comm.barrier()
        if comm.rank == 1:
            win.lock(0)
            win.accumulate(np.array([3.0, 99.0]), 0, op=mpi.MIN)
            win.unlock(0)
            win.lock(0)
            win.accumulate(np.array([7.0, 7.0]), 0, op=mpi.REPLACE)
            win.unlock(0)
        comm.barrier()
        if comm.rank == 0:
            assert local.tolist() == [7.0, 7.0]
        win.free()

    spmd(2, main)


def test_put_with_target_datatype():
    def main(comm):
        win, local = _win(comm, 16)
        if comm.rank == 1:
            t = mpi.vector(4, 1, 4, mpi.DOUBLE).commit()
            win.lock(0)
            win.put(np.array([1.0, 2.0, 3.0, 4.0]), 0, target_datatype=t)
            win.unlock(0)
        comm.barrier()
        if comm.rank == 0:
            assert local[::4].tolist() == [1.0, 2.0, 3.0, 4.0]
            assert local[1] == 0.0
        win.free()

    spmd(2, main)


def test_get_with_origin_datatype():
    def main(comm):
        win, local = _win(comm, 8)
        if comm.rank == 0:
            local[:] = np.arange(8.0)
        comm.barrier()
        if comm.rank == 1:
            out = np.zeros(8)
            t = mpi.vector(4, 1, 2, mpi.DOUBLE).commit()
            # fetch first 4 doubles, scatter into every other slot
            win.lock(0, mpi.LOCK_SHARED)
            win.get(out, 0, target_datatype=mpi.contiguous(4, mpi.DOUBLE).commit(),
                    origin_datatype=t)
            win.unlock(0)
            assert out[::2].tolist() == [0.0, 1.0, 2.0, 3.0]
            assert out[1::2].tolist() == [0.0] * 4
        comm.barrier()
        win.free()

    spmd(2, main)


def test_heterogeneous_window_sizes_and_zero_size():
    def main(comm):
        n = 8 if comm.rank == 0 else 0
        local = np.zeros(n, dtype="f8")
        win = mpi.Win.create(comm, local if n else None)
        assert win.size_of(0) == 64
        assert win.size_of(1) == 0
        if comm.rank == 1:
            win.lock(0)
            win.put(np.ones(8), 0)
            win.unlock(0)
        comm.barrier()
        if comm.rank == 0:
            assert np.all(local == 1.0)
        win.free()

    spmd(2, main)


def test_out_of_range_access_raises():
    def main(comm):
        win, _ = _win(comm, 4)
        win.lock(0, mpi.LOCK_SHARED)
        with pytest.raises(RMARangeError):
            win.get(np.zeros(100), 0)
        win.unlock(0)
        win.free()

    spmd(1, main)


# ---------------------------------------------------------------------------
# epoch discipline
# ---------------------------------------------------------------------------


def test_op_outside_epoch_raises():
    def main(comm):
        win, _ = _win(comm)
        with pytest.raises(RMASyncError):
            win.put(np.zeros(4), 0)
        win.free()

    spmd(2, main)


def test_unlock_without_lock_raises():
    def main(comm):
        win, _ = _win(comm)
        with pytest.raises(RMASyncError):
            win.unlock(0)
        win.free()

    spmd(2, main)


def test_double_lock_same_window_raises():
    """MPI-2: one lock per window per process — the rule that forces
    ARMCI-MPI to stage transfers whose local buffer is also global."""

    def main(comm):
        win, _ = _win(comm)
        win.lock(0)
        with pytest.raises(RMASyncError):
            win.lock(1)
        win.unlock(0)
        win.free()

    spmd(2, main)


def test_free_with_open_epoch_raises():
    def main(comm):
        win, _ = _win(comm)
        if comm.rank == 0:
            win.lock(1)
            with pytest.raises((RMASyncError, mpi.RankFailedError)):
                win.free()
            win.unlock(1)
        else:
            with pytest.raises((RMASyncError, mpi.RankFailedError)):
                win.free()

    spmd(2, main, watchdog_s=0.3)


def test_exclusive_lock_mutual_exclusion():
    """Exclusive epochs on one target must serialise: increments never race."""

    def main(comm):
        win, local = _win(comm, 1)
        comm.barrier()
        for _ in range(25):
            win.lock(0, mpi.LOCK_EXCLUSIVE)
            out = np.zeros(1)
            win.get(out, 0)
            win.unlock(0)
            win.lock(0, mpi.LOCK_EXCLUSIVE)
            win.put(out + 1.0, 0)
            win.unlock(0)
        comm.barrier()
        # NOTE: get-then-put in separate epochs is NOT atomic (that is the
        # point of §V-D's mutexes) — so we only check a weaker invariant:
        if comm.rank == 0:
            assert 25 <= local[0] <= 25 * comm.size
        win.free()

    spmd(2, main)


def test_shared_then_exclusive_queueing():
    def main(comm):
        win, local = _win(comm, 4)
        comm.barrier()
        # all ranks take shared locks to read; then rank 0 writes exclusively
        win.lock(0, mpi.LOCK_SHARED)
        out = np.zeros(4)
        win.get(out, 0)
        win.unlock(0)
        comm.barrier()
        if comm.rank == 0:
            win.lock(0, mpi.LOCK_EXCLUSIVE)
            win.put(np.ones(4), 0)
            win.unlock(0)
        comm.barrier()
        win.lock(0, mpi.LOCK_SHARED)
        win.get(out, 0)
        win.unlock(0)
        assert np.all(out == 1.0)
        win.free()

    spmd(4, main)


# ---------------------------------------------------------------------------
# conflicting access detection (the MPI-2 'erroneous program' rules)
# ---------------------------------------------------------------------------


def test_overlapping_put_put_same_epoch_raises():
    def main(comm):
        win, _ = _win(comm)
        win.lock(0)
        win.put(np.ones(4), 0, target_offset=0)
        with pytest.raises(RMAConflictError):
            win.put(np.ones(4), 0, target_offset=16)  # bytes 16..48 overlap 0..32
        win.unlock(0)
        win.free()

    spmd(2, main)


def test_put_get_overlap_same_epoch_raises():
    def main(comm):
        win, _ = _win(comm)
        win.lock(0)
        win.put(np.ones(2), 0)
        with pytest.raises(RMAConflictError):
            win.get(np.zeros(2), 0)
        win.unlock(0)
        win.free()

    spmd(1, main)


def test_disjoint_ops_same_epoch_allowed():
    def main(comm):
        win, local = _win(comm)
        win.lock(0)
        win.put(np.ones(4), 0, target_offset=0)
        win.put(np.full(4, 2.0), 0, target_offset=32)
        out = np.zeros(4)
        win.get(out, 0, target_offset=64)
        win.unlock(0)
        win.free()

    spmd(1, main)


def test_same_op_accumulate_overlap_allowed():
    def main(comm):
        win, local = _win(comm, 4)
        win.lock(0, mpi.LOCK_SHARED)
        win.accumulate(np.ones(4), 0, op="MPI_SUM")
        win.accumulate(np.ones(4), 0, op="MPI_SUM")
        win.unlock(0)
        if comm.rank == 0:
            pass
        win.free()

    spmd(1, main)


def test_different_op_accumulate_overlap_raises():
    def main(comm):
        win, _ = _win(comm, 4)
        win.lock(0)
        win.accumulate(np.ones(4), 0, op="MPI_SUM")
        with pytest.raises(RMAConflictError):
            win.accumulate(np.ones(4), 0, op="MPI_PROD")
        win.unlock(0)
        win.free()

    spmd(1, main)


def test_cross_origin_shared_lock_conflict_raises():
    """Two origins with shared locks writing the same bytes is erroneous."""

    def main(comm):
        win, _ = _win(comm, 4)
        comm.barrier()
        if comm.rank == 0:
            win.lock(2, mpi.LOCK_SHARED)
            win.put(np.ones(4), 2)
            comm.barrier()  # hold epoch open while rank 1 collides
            comm.barrier()
            win.unlock(2)
        elif comm.rank == 1:
            win.lock(2, mpi.LOCK_SHARED)
            comm.barrier()
            with pytest.raises(RMAConflictError):
                win.put(np.full(4, 2.0), 2)
            comm.barrier()
            win.unlock(2)
        else:
            comm.barrier()
            comm.barrier()
        comm.barrier()
        win.free()

    spmd(3, main)


def test_cross_origin_same_op_accumulate_allowed():
    def main(comm):
        win, local = _win(comm, 4)
        comm.barrier()
        if comm.rank in (0, 1):
            win.lock(2, mpi.LOCK_SHARED)
            win.accumulate(np.ones(4), 2, op="MPI_SUM")
            win.unlock(2)
        comm.barrier()
        if comm.rank == 2:
            assert np.all(local == 2.0)
        win.free()

    spmd(3, main)


def test_strict_false_permits_conflicts():
    """Permissive mode models coherent systems (§V-E.1 last paragraph)."""

    def main(comm):
        win, _ = _win(comm, strict=False)
        win.lock(0)
        win.put(np.ones(4), 0)
        win.put(np.full(4, 2.0), 0)  # would raise under strict
        win.unlock(0)
        win.free()

    spmd(1, main)


# ---------------------------------------------------------------------------
# direct local access (the rule behind ARMCI's DLA extension)
# ---------------------------------------------------------------------------


def test_local_view_requires_exclusive_self_lock():
    def main(comm):
        win, _ = _win(comm)
        with pytest.raises(RMASyncError):
            win.local_view()
        win.lock(comm.rank, mpi.LOCK_SHARED)
        with pytest.raises(RMASyncError):
            win.local_view()  # shared is not enough
        win.unlock(comm.rank)
        win.lock(comm.rank, mpi.LOCK_EXCLUSIVE)
        view = win.local_view("f8")
        view[0] = 42.0
        win.unlock(comm.rank)
        win.free()

    spmd(2, main)


def test_local_view_nonstrict_allows_bare_access():
    def main(comm):
        win, _ = _win(comm, strict=False)
        view = win.local_view("f8")
        view[:] = 1.0
        win.free()

    spmd(1, main)


# ---------------------------------------------------------------------------
# deadlock: the §V-E.1 circular-lock hazard is REAL in this substrate
# ---------------------------------------------------------------------------


def test_circular_window_locks_deadlock():
    """Rank 0 locks winA@0 then winB@1 while rank 1 locks winB@1 then
    winA@0: a circular dependence between two windows. The naive
    implementation the paper warns about really deadlocks here."""

    def main(comm):
        a, _ = _win(comm)
        b, _ = _win(comm)
        comm.barrier()
        if comm.rank == 0:
            a.lock(0)
            comm.barrier()  # both hold their first lock
            b.lock(1)  # blocks forever
            b.unlock(1)
            a.unlock(0)
        else:
            b.lock(1)
            comm.barrier()
            a.lock(0)  # blocks forever
            a.unlock(0)
            b.unlock(1)

    with pytest.raises(mpi.ProgressDeadlockError):
        spmd(2, main, watchdog_s=0.3)


# ---------------------------------------------------------------------------
# MPI-3 gating and extensions (§VIII-B made concrete)
# ---------------------------------------------------------------------------


def test_mpi3_features_gated_off_by_default():
    def main(comm):
        win, _ = _win(comm)
        with pytest.raises(WinError):
            win.flush(0)
        with pytest.raises(WinError):
            win.lock_all()
        with pytest.raises(WinError):
            win.fetch_and_op(1, 0, 0)
        win.free()

    spmd(1, main)


def test_mpi3_flush_completes_get_mid_epoch():
    def main(comm):
        win, local = _win(comm, 4, mpi3=True)
        if comm.rank == 0:
            local[:] = 3.0
        comm.barrier()
        if comm.rank == 1:
            out = np.zeros(4)
            win.lock(0, mpi.LOCK_SHARED)
            win.get(out, 0)
            win.flush(0)
            assert np.all(out == 3.0), "flush must deliver without unlock"
            win.unlock(0)
        comm.barrier()
        win.free()

    spmd(2, main)


def test_mpi3_op_with_flush_completes_before_returning():
    """``flush=True`` completes an op as a following ``flush`` would: a get
    has landed (and so has an earlier pending one), and an earlier
    unflushed put is no longer a conflict for a later op of the epoch."""

    def main(comm):
        win, local = _win(comm, 4, mpi3=True)
        if comm.rank == 0:
            local[:] = 3.0
        comm.barrier()
        if comm.rank == 1:
            win.lock_all()
            early, out = np.zeros(4), np.zeros(4)
            win.get(early, 0)
            win.get(out, 0, flush=True)
            assert np.all(out == 3.0) and np.all(early == 3.0)
            win.put(np.full(2, 5.0), 0, flush=True)
            win.accumulate(np.ones(2), 0, flush=True)
            assert win.fetch_and_op(1.0, 0, 8, mpi.DOUBLE, flush=True) == 6.0
            win.get(out, 0, flush=True)
            assert out.tolist() == [6.0, 7.0, 3.0, 3.0]
            for completes in (
                lambda: win.put(np.ones(1), 0, 0, flush=True),
                lambda: win.get(np.zeros(1), 0, 0, flush=True),
                lambda: win.accumulate(np.ones(1), 0, 0, flush=True),
                lambda: win.fetch_and_op(1.0, 0, 0, mpi.DOUBLE, flush=True),
            ):
                win.put(np.zeros(1), 0, 24)  # unflushed
                completes()
                win.get(out[:1], 0, 24, flush=True)  # overlaps it: no conflict
            win.put(np.zeros(1), 0, 24)
            with pytest.raises(RMAConflictError, match="in the same epoch"):
                win.get(out[:1], 0, 24, flush=True)  # the unflushed put is checked
            win.unlock_all()
        comm.barrier()
        win.free()

    spmd(2, main)


def test_op_with_flush_needs_mpi3_before_it_moves_data():
    def main(comm):
        win, local = _win(comm, 2)
        win.lock(0)
        with pytest.raises(WinError, match="flush requires MPI-3"):
            win.put(np.ones(2), 0, flush=True)
        win.unlock(0)
        assert not local.any()
        win.free()

    spmd(1, main)


def test_mpi3_fetch_and_op_atomic_counter():
    def main(comm):
        win, local = _win(comm, 0, mpi3=True)
        counter = np.zeros(1, dtype="i8")
        cwin = mpi.Win.create(comm, counter if comm.rank == 0 else None, mpi3=True)
        comm.barrier()
        got = []
        for _ in range(10):
            cwin.lock(0, mpi.LOCK_SHARED)
            old = cwin.fetch_and_op(1, 0, 0, mpi.LONG, op="MPI_SUM")
            cwin.unlock(0)
            got.append(old)
        all_got = comm.allgather(got)
        flat = sorted(x for sub in all_got for x in sub)
        assert flat == list(range(10 * comm.size)), "fetch_and_add must hand out unique values"
        comm.barrier()
        win.free()
        cwin.free()

    spmd(3, main)


def test_mpi3_compare_and_swap():
    def main(comm):
        val = np.zeros(1, dtype="i8")
        win = mpi.Win.create(comm, val if comm.rank == 0 else None, mpi3=True)
        comm.barrier()
        win.lock(0, mpi.LOCK_SHARED)
        old = win.compare_and_swap(0, comm.rank + 100, 0, 0, mpi.LONG)
        win.unlock(0)
        winners = comm.allgather(old == 0)
        assert sum(winners) == 1, "exactly one CAS must win"
        comm.barrier()
        win.free()

    spmd(4, main)


def test_mpi3_lock_all_and_flush_all():
    def main(comm):
        win, local = _win(comm, 2, mpi3=True)
        local[:] = comm.rank
        comm.barrier()
        outs = [np.zeros(2) for _ in range(comm.size)]
        win.lock_all()
        for t in range(comm.size):
            win.get(outs[t], t)
        win.flush_all()
        for t in range(comm.size):
            assert np.all(outs[t] == t)
        win.unlock_all()
        comm.barrier()
        win.free()

    spmd(3, main)


def test_flush_and_flush_all_towards_a_failed_target_both_raise():
    """``flush_all`` is ``flush`` on each of the origin's epochs, so a get
    pending to a failed target fails both the same way — ``flush_all`` does
    not complete it from the dead rank's memory."""
    from repro.mpi.errors import RankKilledError, TargetFailedError

    rt = mpi.Runtime(2, watchdog_s=2.0)

    def main(comm):
        win, local = _win(comm, 1, mpi3=True)
        local[:] = 7.0
        comm.barrier()
        if comm.rank == 1:
            comm.barrier()  # rank 0's get is pending
            with rt.cond:
                rt.mark_dead(comm.world_rank(1))
            raise RankKilledError("rank 1 dies")
        win.lock_all()
        out = np.zeros(1)
        win.get(out, 1)
        comm.barrier()
        with rt.cond:
            rt.wait_for(lambda: rt.dead_ranks, what="death observed")
        with pytest.raises(TargetFailedError, match=r"flush\(1\)"):
            win.flush(1)
        with pytest.raises(TargetFailedError, match=r"flush\(1\)"):
            win.flush_all()
        return out[0]

    assert rt.spmd(main) == [0.0, None]


def test_mpi3_rget_request_delivery():
    def main(comm):
        win, local = _win(comm, 2, mpi3=True)
        if comm.rank == 0:
            local[:] = 5.0
        comm.barrier()
        if comm.rank == 1:
            out = np.zeros(2)
            win.lock(0, mpi.LOCK_SHARED)
            req = win.rget(out, 0)
            req.wait()
            assert np.all(out == 5.0)
            win.unlock(0)
        comm.barrier()
        win.free()

    spmd(2, main)


def _positional_rget_body(comm):
    win = mpi.Win.create(comm, np.arange(8.0), disp_unit=8, mpi3=True)
    comm.barrier()
    if comm.rank == 1:
        out = np.zeros(2)
        win.lock(0, mpi.LOCK_SHARED)
        req = win.rget(out, 0, 4)  # target_offset, positionally, as rput takes it
        assert not out.any(), "rget must not deliver before wait()"
        req.wait()
        np.testing.assert_array_equal(out, [4.0, 5.0])
        win.unlock(0)
    comm.barrier()
    win.free()


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_rget_takes_positional_target_arguments_and_delivers_at_wait(backend):
    _runtime(backend).spmd(_positional_rget_body)


def test_freed_window_rejects_ops():
    def main(comm):
        win, _ = _win(comm)
        win.free()
        with pytest.raises(WinError):
            win.lock(0)

    spmd(2, main)


# ---------------------------------------------------------------------------
# an op in an epoch of its own (``lock=``): lock, op and unlock in one call
# ---------------------------------------------------------------------------


def _op(win, kind, target, **kw):
    """One small ``kind`` op towards ``target``'s first two doubles."""
    if kind == "put":
        win.put(np.ones(2), target, 0, **kw)
    elif kind == "get":
        win.get(np.zeros(2), target, 0, **kw)
    else:
        win.accumulate(np.ones(2), target, 0, **kw)


def _three_calls(win, kind, target, mode):
    """What ``lock=mode`` stands for: ``lock``, the op, ``unlock``."""
    win.lock(target, mode)
    try:
        _op(win, kind, target)
    finally:
        win.unlock(target)


def _raises_alike(win, kind, target, mode):
    """The op with ``lock=mode`` raises what the three calls raise, with
    the same text; returns the error."""
    with pytest.raises(Exception) as three:
        _three_calls(win, kind, target, mode)
    with pytest.raises(three.type) as one:
        _op(win, kind, target, lock=mode)
    assert str(one.value) == str(three.value)
    return one.value


def _no_epoch_of(win, comm):
    origin = comm.world_rank(comm.rank)
    return origin not in win._open and not [at for at in win._epochs_at if origin in at]


def _runtime(backend):
    # procs take no ambient sanitizer or injector
    return mpi.Runtime(2, backend=backend, watchdog_s=5.0, apply_hooks=backend == "thread")


def _own_epoch_body(comm):
    win = mpi.Win.create(comm, np.full(4, comm.rank + 1.0))
    peer = 1 - comm.rank
    out = np.zeros(4)
    win.get(out, peer, lock=mpi.LOCK_SHARED)
    landed = out.tolist() == [peer + 1.0] * 4
    clean = _no_epoch_of(win, comm)
    comm.barrier()
    if comm.rank == 0:
        win.put(np.full(2, 5.0), 1, 0, lock=mpi.LOCK_EXCLUSIVE)
        win.accumulate(np.ones(2), 1, 8, lock=mpi.LOCK_EXCLUSIVE)
        clean = clean and _no_epoch_of(win, comm)
        win.get(out, 1, lock=mpi.LOCK_SHARED)
    comm.barrier()
    win.free()
    return landed, clean, out.tolist()


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_op_with_lock_is_an_epoch_of_its_own(backend):
    """``lock=mode`` runs the op in an epoch of its own: on return no epoch
    is open and a get's data is in the origin, without an unlock call."""
    got = _runtime(backend).spmd(_own_epoch_body, join_timeout=60.0)
    assert [landed and clean for landed, clean, _ in got] == [True, True]
    assert got[0][2] == [5.0, 6.0, 3.0, 2.0]


def _own_epoch_errors_body(comm):
    from repro.armci import Armci

    a = Armci.init(comm)
    ptrs = a.malloc(32)
    win = a.table.require(ptrs[0]).win
    me, peer = a.my_id, 1 - a.my_id
    for kind in ("put", "get", "acc"):
        err = _raises_alike(win, kind, peer, "bogus")
        assert isinstance(err, ArgumentError) and "unknown lock mode" in str(err)
        win.lock(me, mpi.LOCK_SHARED)  # a second lock on the window
        try:
            err = _raises_alike(win, kind, peer, mpi.LOCK_EXCLUSIVE)
            assert isinstance(err, RMASyncError) and "already holds a lock" in str(err)
        finally:
            win.unlock(me)
        with pytest.raises(ArgumentError, match="completes at its unlock"):
            _op(win, kind, peer, lock=mpi.LOCK_EXCLUSIVE, flush=True)
    a.access_begin(ptrs[me], 32)  # holds the exclusive self-lock
    try:
        for kind in ("put", "get", "acc"):
            # (a sanitizer names this one lock-while-dla)
            assert isinstance(_raises_alike(win, kind, peer, mpi.LOCK_SHARED), RMASyncError)
    finally:
        a.access_end(ptrs[me])
    assert _no_epoch_of(win, comm)
    a.barrier()
    a.free(ptrs[me])
    for kind in ("put", "get", "acc"):
        err = _raises_alike(win, kind, peer, mpi.LOCK_EXCLUSIVE)
        assert isinstance(err, WinError) and "freed window" in str(err)
    a.finalize()
    return True


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_op_with_lock_raises_what_lock_op_unlock_raise(backend):
    """Each rule an op in its own epoch meets gives the error, text and
    all, that ``lock``; op; ``unlock`` gives: an unknown mode, a second
    lock on the window (also the self-lock ``access_begin`` holds), a
    freed window."""
    assert _runtime(backend).spmd(_own_epoch_errors_body, join_timeout=60.0) == [
        True, True,
    ]


def _own_epoch_dead_target_body(comm, backend):
    import os
    import signal
    import time

    from repro.mpi.errors import RankKilledError, TargetFailedError

    win, _ = _win(comm, 4)  # repro: lint-ignore[lint-leak] — no collective free past a death
    comm.barrier()
    rt = comm.runtime
    if comm.rank == 1:
        if backend == "proc":
            os.kill(os.getpid(), signal.SIGKILL)
        with rt.cond:
            rt.mark_dead(comm.world_rank(1))
        raise RankKilledError("rank 1 dies")
    deadline = time.monotonic() + 30.0
    while not rt.dead_ranks:  # observed: marked here, or the pump's report
        assert time.monotonic() < deadline
        time.sleep(0.01)
    for kind in ("put", "get", "acc"):
        err = _raises_alike(win, kind, 1, mpi.LOCK_EXCLUSIVE)
        assert isinstance(err, TargetFailedError) and "has failed" in str(err)
    return _no_epoch_of(win, comm)


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_op_with_lock_towards_a_dead_target_raises_as_lock_does(backend):
    got = _runtime(backend).spmd(
        _own_epoch_dead_target_body, backend, join_timeout=60.0
    )
    assert got == [True, None]


def test_op_with_lock_on_a_failed_runtime_or_killed_caller_raises_as_lock_does():
    """The free-lock grant still makes the raises of a wait: with
    ``runtime.failed`` set an op in its own epoch raises ``RankFailedError``
    (a killed caller ``RankKilledError``), as ``lock`` does, and leaves no
    epoch or held lock behind."""
    from repro.mpi.errors import RankKilledError
    from repro.mpi.runtime import RankFailedError, current_proc

    def main(comm):
        win, _ = _win(comm, 4)
        rt, proc = comm.runtime, current_proc()
        for kind in ("put", "get", "acc"):
            rt.failed = RankFailedError("rank 9 failed")
            try:
                assert isinstance(
                    _raises_alike(win, kind, 0, mpi.LOCK_EXCLUSIVE), RankFailedError
                )
            finally:
                rt.failed = None
            proc.dead = True
            try:
                assert isinstance(
                    _raises_alike(win, kind, 0, mpi.LOCK_SHARED), RankKilledError
                )
            finally:
                proc.dead = False
            assert _no_epoch_of(win, comm) and not win._locks[0].holders
            _op(win, kind, 0, lock=mpi.LOCK_EXCLUSIVE)  # the lock is free again
        win.free()

    spmd(1, main)


@pytest.mark.parametrize(
    "condition", ["killed caller", "runtime failed", "dead stall", "deadlock"]
)
def test_free_lock_grant_makes_the_raises_of_a_wait_first(condition):
    """``Win._acquire`` grants a free lock without queueing, but only past
    the raises ``Runtime.wait_for`` makes before it tests its predicate;
    a raise leaves the lock free and unqueued."""
    from repro.mpi.errors import (
        ProgressDeadlockError,
        RankKilledError,
        TargetFailedError,
    )
    from repro.mpi.runtime import RankFailedError, current_proc

    expected = {
        "killed caller": RankKilledError,
        "runtime failed": RankFailedError,
        "dead stall": TargetFailedError,
        "deadlock": ProgressDeadlockError,
    }[condition]

    def main(comm):
        win, _ = _win(comm, 4)
        rt = comm.runtime
        if comm.rank == 0:
            proc, ls = current_proc(), win._locks[1]
            with rt.cond:  # nobody else observes the planted condition
                if condition == "killed caller":
                    proc.dead = True
                elif condition == "runtime failed":
                    rt.failed = RankFailedError("rank 1 failed")
                elif condition == "dead stall":
                    rt.dead_ranks.add(1)
                    rt._dead_stall = True
                else:
                    rt._deadlocked = True
                try:
                    with pytest.raises(expected) as raised:
                        win._acquire(proc.rank, 1, mpi.LOCK_EXCLUSIVE)
                finally:
                    proc.dead, rt.failed = False, None
                    rt._dead_stall = rt._deadlocked = False
                    rt.dead_ranks.discard(1)
                assert type(raised.value) is expected
                assert ls.mode is None and not ls.holders and not ls.queue
        comm.barrier()
        win.free()

    spmd(2, main)


def test_op_with_lock_keeps_its_fuzz_points_under_a_schedule():
    """Under a schedule an ARMCI mpi2 put stays three sections: with every
    coin landing on a switch, its fuzz points are lock, put, unlock."""
    from repro.armci import Armci
    from repro.mpi.progress import DeterministicSchedule

    rt = mpi.Runtime(2, seed=5, watchdog_s=5.0)
    sched = DeterministicSchedule(5, switch_prob=1.0)
    sched.begin_run(rt)

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        if a.my_id == 0:
            a.put(np.ones(4), ptrs[1])
        a.barrier()
        a.free(ptrs[a.my_id])
        a.finalize()

    rt.spmd(main)
    rma = [ev[2] for ev in sched.trace if ev[0] == "yield" and ev[2].startswith("rma:")]
    assert rma == ["rma:lock", "rma:put", "rma:unlock"]


def test_op_with_lock_charges_modeled_time_as_lock_op_unlock():
    """A fused op in its own epoch advances the simulated clock by what
    ``lock``; op; ``unlock`` charge, in the same order — and one that
    completes itself (``flush=True`` on an mpi3 window inside
    ``lock_all``) by what the op and ``flush(t)`` charge."""
    from repro.mpi.runtime import current_proc
    from repro.simtime import INFINIBAND, MPITimingPolicy

    rt = mpi.Runtime(1)
    rt.timing = MPITimingPolicy(INFINIBAND.mpi)

    def main(comm):
        win, _ = _win(comm, 64)
        win3, _ = _win(comm, 64, mpi3=True)
        clock, charged = current_proc().clock, []
        clock.add_jitter(lambda kind, seconds: charged.append((kind, seconds)) or 0.0)

        def charge(issue):
            charged.clear()
            clock.now = 0.0
            issue()
            return clock.now, list(charged)

        def flushed(kind, fused):
            win3.lock_all()  # a fresh epoch each: an op's cost depends on its index
            try:
                return charge(
                    (lambda: _op(win3, kind, 0, flush=True)) if fused
                    else (lambda: (_op(win3, kind, 0), win3.flush(0)))
                )
            finally:
                win3.unlock_all()

        for kind in ("put", "get", "acc"):
            got = charge(lambda: _op(win, kind, 0, lock=mpi.LOCK_EXCLUSIVE))
            assert got == charge(lambda: _three_calls(win, kind, 0, mpi.LOCK_EXCLUSIVE))
            assert [k for k, _ in got[1]] == ["rma:lock", f"rma:{kind}", "rma:unlock"]
            got = flushed(kind, True)
            assert got == flushed(kind, False)
            assert [k for k, _ in got[1]] == [f"rma:{kind}", "rma:flush"]
        win3.free()
        win.free()

    rt.spmd(main)


# ---------------------------------------------------------------------------
# property test: the epoch conflict checker vs a naive oracle
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


def _oracle_conflicts(ops):
    """Naive O(N^2) MPI-2 conflict oracle over (kind, opname, lo, hi)."""
    for i in range(len(ops)):
        k1, o1, lo1, hi1 = ops[i]
        for j in range(i):
            k2, o2, lo2, hi2 = ops[j]
            if lo1 < hi2 and lo2 < hi1:  # overlap
                if k1 == "get" and k2 == "get":
                    continue
                if k1 == "acc" and k2 == "acc" and o1 == o2:
                    continue
                return i  # first op index that conflicts
    return None


@st.composite
def _epoch_ops(draw):
    n = draw(st.integers(1, 12))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["put", "get", "acc"]))
        opname = draw(st.sampled_from(["MPI_SUM", "MPI_PROD"])) if kind == "acc" else None
        lo = draw(st.integers(0, 12)) * 8
        ln = draw(st.integers(1, 4)) * 8
        ops.append((kind, opname, lo, lo + ln))
    return ops


@settings(max_examples=60, deadline=None)
@given(ops=_epoch_ops())
def test_epoch_conflict_checker_matches_oracle(ops):
    """The window's interval-coverage checker must agree exactly with a
    naive pairwise MPI-2 conflict oracle on random op sequences."""
    expected = _oracle_conflicts(ops)
    observed = {}

    def main(comm):
        local = np.zeros(160, dtype="f8")
        win = mpi.Win.create(comm, local)
        win.lock(0)
        try:
            for i, (kind, opname, lo, hi) in enumerate(ops):
                buf = np.zeros((hi - lo) // 8)
                try:
                    if kind == "put":
                        win.put(buf, 0, lo)
                    elif kind == "get":
                        win.get(buf, 0, lo)
                    else:
                        win.accumulate(buf, 0, lo, op=opname)
                except RMAConflictError:
                    observed["at"] = i
                    return
            observed["at"] = None
        finally:
            win.unlock(0)
            win.free()  # the early returns above must not leak the window

    spmd(1, main)
    assert observed["at"] == expected


# ---------------------------------------------------------------------------
# property test: Win.accumulate vs a per-element traversal-order reference
# ---------------------------------------------------------------------------

_ACC_REF = {
    "MPI_SUM": lambda a, b: a + b,
    "MPI_PROD": lambda a, b: a * b,
    "MPI_MAX": max,
    "MPI_MIN": min,
    "MPI_BAND": lambda a, b: a & b,
    "MPI_LXOR": lambda a, b: type(a)(bool(a) != bool(b)),
    "MPI_REPLACE": lambda a, b: b,
    "MPI_NO_OP": lambda a, b: a,
}


def _accumulate_reference(mem, segments, src, opname):
    """Naive accumulate: one element at a time, in traversal order."""
    fn, isz, pos = _ACC_REF[opname], src.dtype.itemsize, 0
    for off, ln in segments:
        for e in range(off, off + ln, isz):
            cell = mem[e : e + isz].view(src.dtype)
            cell[0] = fn(cell[0], src[pos])
            pos += 1
    assert pos == len(src)


@st.composite
def _acc_cases(draw):
    """(dtype, op, layout name, byte segments, datatype builder, misalignment)."""
    dtype = np.dtype(draw(st.sampled_from(["i4", "i8", "f4", "f8"])))
    ops = sorted(_ACC_REF)
    if dtype.kind == "f":
        ops.remove("MPI_BAND")  # bitwise ops are undefined on floats
    opname = draw(st.sampled_from(ops))
    isz = dtype.itemsize
    elem = mpi.datatypes.from_numpy_dtype(dtype)
    layout = draw(st.sampled_from(
        ["contiguous", "strided", "self-overlapping", "irregular"]
    ))
    if layout == "contiguous":
        n = draw(st.integers(0, 12))
        segments, build = [(0, n * isz)], None
    elif layout in ("strided", "self-overlapping"):
        rows, bl = draw(st.integers(2, 5)), draw(st.integers(2, 4))
        step = (
            draw(st.integers(bl, bl + 3)) if layout == "strided"
            else draw(st.integers(1, bl - 1))
        )
        segments = [(r * step * isz, bl * isz) for r in range(rows)]
        build = lambda: mpi.datatypes.hvector(rows, bl, step * isz, elem)  # noqa: E731
    else:
        # zero-length blocks, any traversal order; disjoint (laid out by
        # gaps) or free to overlap (drawn displacements)
        lens = draw(st.lists(st.integers(0, 3), min_size=2, max_size=6))
        if draw(st.booleans()):
            gaps = draw(st.lists(st.integers(0, 2), min_size=len(lens), max_size=len(lens)))
            ends = np.cumsum(np.add(lens, gaps))
            blocks = draw(st.permutations(list(zip(lens, (ends - lens).tolist()))))
        else:
            blocks = [(bl, draw(st.integers(0, 24))) for bl in lens]
        segments = [(d * isz, bl * isz) for bl, d in blocks if bl]
        build = lambda: mpi.datatypes.hindexed(  # noqa: E731
            [bl for bl, _ in blocks], [d * isz for _, d in blocks], elem
        )
    return dtype, opname, segments, build, draw(st.integers(1, 7)), draw(st.integers(0, 4))


def _misaligned_window_memory(nbytes, misalign):
    """``nbytes`` of zeroed memory whose *address* is ``misalign`` mod 8."""
    raw = np.zeros(nbytes + 16, dtype=np.uint8)
    start = (misalign - raw.ctypes.data) % 8
    return raw[start : start + nbytes]


@settings(max_examples=150, deadline=None)
@given(case=_acc_cases(), seed=st.integers(0, 2**16))
def test_accumulate_matches_per_element_reference(case, seed):
    """Every layout class x op x element type, on window memory that is not
    itemsize-aligned in absolute address: the in-place strided pass, the
    element-index fallback and the traversal-order loop all equal a naive
    per-element accumulate."""
    dtype, opname, segments, build, misalign, disp = case
    isz = dtype.itemsize
    rng = np.random.default_rng(seed)
    nelems = sum(ln for _, ln in segments) // isz
    # small integers: exact in every dtype, no overflow after 5 overlapping PRODs
    src = rng.integers(-3, 4, nelems).astype(dtype)
    local = _misaligned_window_memory(40 * 8, misalign)
    local.view(dtype)[:] = rng.integers(-3, 4, local.nbytes // isz).astype(dtype)
    expect = local.copy()
    _accumulate_reference(
        expect, [(off + disp * isz, ln) for off, ln in segments], src, opname
    )

    def main(comm):
        win = mpi.Win.create(comm, local)
        t = build().commit() if build is not None else None
        win.lock(0)
        win.accumulate(src, 0, disp * isz, op=opname, target_datatype=t)
        win.unlock(0)
        win.free()

    spmd(1, main)
    assert local.tobytes() == expect.tobytes()


def test_accumulate_origin_aliasing_the_target_reads_the_old_values():
    """An origin inside the target's own exposed memory is snapshotted
    first: the in-place pass must not read elements it already updated."""

    def main(comm):
        local = np.arange(12.0)
        win = mpi.Win.create(comm, local)
        t = mpi.vector(4, 2, 3, mpi.DOUBLE).commit()  # rows {0,1} {3,4} {6,7} {9,10}
        win.lock(0)
        win.accumulate(local[1:9], 0, 0, target_datatype=t)
        win.unlock(0)
        expect = np.arange(12.0)
        expect[[0, 1, 3, 4, 6, 7, 9, 10]] += np.arange(1.0, 9.0)
        np.testing.assert_array_equal(local, expect)
        win.free()

    spmd(1, main)


@pytest.mark.parametrize(
    "target_offset, blocklengths, disps",
    [
        (4, [1], [0]),  # displaced by half an element
        (0, [2, 2], [0, 20]),  # second block starts mid-element
    ],
)
def test_accumulate_misaligned_segment_raises(target_offset, blocklengths, disps):
    def main(comm):
        local = np.zeros(8)
        win = mpi.Win.create(comm, local)
        t = mpi.hindexed(blocklengths, disps, mpi.DOUBLE).commit()
        win.lock(0)
        with pytest.raises(mpi.ArgumentError, match="not aligned to float64 elements"):
            win.accumulate(
                np.ones(sum(blocklengths)), 0, target_offset, target_datatype=t
            )
        win.unlock(0)
        assert not local.any()
        win.free()

    spmd(1, main)


def test_get_origin_datatype_out_of_bounds_raises():
    """The origin layout must fit inside the origin buffer — silently
    clamped writes would be data loss."""

    def main(comm):
        local = np.zeros(16, dtype="f8")
        win = mpi.Win.create(comm, local)
        out = np.zeros(2)  # 16 bytes, but the layout reaches byte 80
        t = mpi.vector(2, 1, 9, mpi.DOUBLE).commit()
        win.lock(0, mpi.LOCK_SHARED)
        with pytest.raises(mpi.ArgumentError):
            win.get(out, 0,
                    target_datatype=mpi.contiguous(2, mpi.DOUBLE).commit(),
                    origin_datatype=t)
        win.unlock(0)
        win.free()

    spmd(1, main)


# ---------------------------------------------------------------------------
# put/get copy kernel: one strided copy vs. a per-segment reference
# ---------------------------------------------------------------------------


def _transfer_reference(dst, dst_segments, src, src_segments):
    """Naive put/get: snapshot the source segments in traversal order, then
    store them segment by segment (later segments win where they overlap)."""
    payload = np.concatenate(
        [src[off : off + ln].copy() for off, ln in src_segments]
        + [np.empty(0, np.uint8)]
    )
    pos = 0
    for off, ln in dst_segments:
        dst[off : off + ln] = payload[pos : pos + ln]
        pos += ln
    assert pos == len(payload)


def _irregular_blocks(draw, lens):
    """(length, displacement) blocks: any traversal order; disjoint (laid
    out by gaps) or free to overlap (drawn displacements)."""
    if draw(st.booleans()):
        gaps = draw(st.lists(st.integers(0, 2), min_size=len(lens), max_size=len(lens)))
        ends = np.cumsum(np.add(lens, gaps))
        return draw(st.permutations(list(zip(lens, (ends - lens).tolist()))))
    return [(bl, draw(st.integers(0, 24))) for bl in lens]


@st.composite
def _transfer_cases(draw):
    """Byte layouts of one put/get: a target layout, then an origin layout
    carrying the same number of bytes.  Each is (segments, type builder)."""
    layout = draw(st.sampled_from(
        ["contiguous", "strided", "self-overlapping", "irregular"]
    ))
    if layout == "contiguous":
        target = [(0, draw(st.integers(0, 24)))], None
    elif layout in ("strided", "self-overlapping"):
        rows, bl = draw(st.integers(2, 5)), draw(st.integers(2, 6))
        step = (
            draw(st.integers(bl, bl + 3)) if layout == "strided"
            else draw(st.integers(1, bl - 1))
        )
        target = (
            [(r * step, bl) for r in range(rows)],
            lambda: mpi.datatypes.hvector(rows, bl, step, mpi.BYTE),
        )
    else:  # zero-length blocks, permuted order
        blocks = _irregular_blocks(
            draw, draw(st.lists(st.integers(0, 3), min_size=2, max_size=6))
        )
        target = (
            [(d, bl) for bl, d in blocks if bl],
            lambda: mpi.datatypes.hindexed(
                [bl for bl, _ in blocks], [d for _, d in blocks], mpi.BYTE
            ),
        )
    total = sum(ln for _, ln in target[0])
    divisors = [d for d in range(1, total + 1) if total % d == 0]
    olayout = draw(st.sampled_from(
        ["contiguous", "vector", "subarray", "irregular"] if total else ["contiguous"]
    ))
    if olayout == "contiguous":
        origin = [(0, total)], None
    elif olayout == "vector":
        obl = draw(st.sampled_from(divisors))
        ostep = obl + draw(st.integers(0, 3))
        origin = (
            [(r * ostep, obl) for r in range(total // obl)],
            lambda: mpi.datatypes.hvector(total // obl, obl, ostep, mpi.BYTE),
        )
    elif olayout == "subarray":
        obl = draw(st.sampled_from(divisors))
        orows = total // obl
        r0, c0 = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        width = c0 + obl + draw(st.integers(0, 3))
        origin = (
            [((r0 + r) * width + c0, obl) for r in range(orows)],
            lambda: mpi.datatypes.subarray(
                [r0 + orows + 1, width], [orows, obl], [r0, c0], mpi.BYTE
            ),
        )
    else:
        cuts = sorted(draw(st.lists(st.integers(0, total), max_size=4)))
        lens = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        oblocks = _irregular_blocks(draw, lens)
        origin = (
            [(d, bl) for bl, d in oblocks if bl],
            lambda: mpi.datatypes.hindexed(
                [bl for bl, _ in oblocks], [d for _, d in oblocks], mpi.BYTE
            ),
        )
    return target, origin


def _overlapping(segments):
    ordered = sorted(segments)
    return any(a[0] + a[1] > b[0] for a, b in zip(ordered, ordered[1:]))


@settings(max_examples=200, deadline=None)
@given(
    case=_transfer_cases(),
    kind=st.sampled_from(["put", "get"]),
    misalign=st.integers(1, 7),
    disp=st.integers(0, 4),
    alias_at=st.none() | st.integers(0, 40),
    seed=st.integers(0, 2**16),
)
def test_put_get_match_per_segment_reference(case, kind, misalign, disp, alias_at, seed):
    """Origin {contiguous, vector, subarray, irregular} x target {contiguous,
    strided, self-overlapping, irregular}, on window memory misaligned in
    absolute address, with the origin optionally *inside* the target's
    exposed memory: the one-strided-copy kernel and the pack/unpack path
    both equal a naive per-segment transfer."""
    (tsegs, tbuild), (osegs, obuild) = case
    tsegs = [(off + disp, ln) for off, ln in tsegs]
    rng = np.random.default_rng(seed)
    local = _misaligned_window_memory(400, misalign)
    local[:] = rng.integers(0, 256, 400, dtype=np.uint8)
    osize = max((off + ln for off, ln in osegs), default=0)
    if obuild is not None:
        osize += 3  # the origin buffer may extend past the layout
    if alias_at is None:
        obuf = rng.integers(0, 256, osize, dtype=np.uint8)
        expect_local, expect_obuf = local.copy(), obuf.copy()
    else:
        obuf = local[alias_at : alias_at + osize]
        expect_local = local.copy()
        expect_obuf = expect_local[alias_at : alias_at + osize]
    if kind == "put":
        _transfer_reference(expect_local, tsegs, expect_obuf, osegs)
    else:
        _transfer_reference(expect_obuf, osegs, expect_local, tsegs)
    # overlapping target segments within one put/get are a conflict on a
    # strict window; the relaxed one keeps traversal-order semantics
    strict = not _overlapping(tsegs)

    def main(comm):
        win = mpi.Win.create(comm, local, strict=strict)
        tt = tbuild().commit() if tbuild is not None else None
        ot = obuild().commit() if obuild is not None else None
        win.lock(0)
        getattr(win, kind)(obuf, 0, disp, target_datatype=tt, origin_datatype=ot)
        win.unlock(0)
        win.free()

    spmd(1, main)
    assert local.tobytes() == expect_local.tobytes()
    assert obuf.tobytes() == expect_obuf.tobytes()


def _strided_target(comm):
    """A 2-rank mpi3 window of 12 doubles and a 4x2 vector layout on it."""
    win, local = _win(comm, 12, mpi3=True)
    if comm.rank == 0:
        local[:] = np.arange(12.0)
    comm.barrier()
    return win, mpi.vector(4, 2, 3, mpi.DOUBLE).commit()


_ROWS = [0, 1, 3, 4, 6, 7, 9, 10]  # the elements that layout selects


def test_strided_get_completes_at_flush_under_lock_all_not_before():
    def main(comm):
        win, t = _strided_target(comm)
        if comm.rank == 1:
            out = np.zeros(8)
            win.lock_all()
            win.get(out, 0, target_datatype=t)
            assert not out.any(), "get must not deliver before completion"
            win.flush(0)
            np.testing.assert_array_equal(out, np.arange(12.0)[_ROWS])
            win.unlock_all()
        comm.barrier()
        win.free()

    spmd(2, main)


def test_strided_rget_completes_at_wait_not_before():
    def main(comm):
        win, t = _strided_target(comm)
        if comm.rank == 1:
            out = np.zeros(8)
            win.lock(0, mpi.LOCK_SHARED)
            req = win.rget(out, 0, target_datatype=t)
            assert not out.any(), "rget must not deliver before wait()"
            req.wait()
            np.testing.assert_array_equal(out, np.arange(12.0)[_ROWS])
            win.unlock(0)
        comm.barrier()
        win.free()

    spmd(2, main)


@pytest.mark.parametrize("kind", ["put", "get"])
@pytest.mark.parametrize("mode", ["corrupt", "drop"])
def test_fault_plan_still_filters_a_strided_payload(kind, mode):
    """With an injector installed the transfer packs its payload so
    ``filter_rma`` can see it: corrupt flips exactly one bit of a strided
    put/get, drop leaves the destination untouched."""
    from repro.faults import FaultInjector, FaultPlan

    def main(comm):
        local = np.zeros(12)
        win = mpi.Win.create(comm, local)
        t = mpi.vector(4, 2, 3, mpi.DOUBLE).commit()
        src = np.arange(1.0, 9.0)
        win.lock(0)
        win.put(src, 0, target_datatype=t)  # op 0: the faulted op when kind == "put"
        win.unlock(0)
        out = np.zeros(8)
        win.lock(0)
        win.get(out, 0, target_datatype=t)  # op 1
        win.unlock(0)
        win.free()
        return src, out

    plan = getattr(FaultPlan(seed=3), mode)(0 if kind == "put" else 1)
    rt = mpi.Runtime(1, watchdog_s=0.4)
    FaultInjector(plan).begin_run(rt)
    (src, out), = rt.spmd(main)
    if mode == "drop":
        assert not out.any()
    else:
        diff = np.bitwise_xor(src.view(np.uint8), out.view(np.uint8))
        assert np.unpackbits(diff).sum() == 1


# ---------------------------------------------------------------------------
# _IntervalSet: compaction threshold and single-interval fast paths
# ---------------------------------------------------------------------------


def _fp(offsets, lengths):
    """A footprint as ``_IntervalSet`` takes it: the access's segment map."""
    return mpi.datatypes.SegmentMap(np.array(offsets, np.int64), np.array(lengths, np.int64))


def test_interval_set_compaction_threshold_is_named_constant():
    """The class compacts at the module constant (docstring/constant drift
    regression: the docstring used to claim 32 while the code used 8)."""
    from repro.mpi.rma_rules import INTERVAL_COMPACT_AT, _IntervalSet

    assert _IntervalSet._COMPACT_AT == INTERVAL_COMPACT_AT
    assert "INTERVAL_COMPACT_AT" in _IntervalSet.__doc__
    assert "every 32" not in _IntervalSet.__doc__

    iset = _IntervalSet()
    for i in range(INTERVAL_COMPACT_AT - 1):
        iset.add(_fp([i * 10], [5]))
    assert len(iset._pending) == INTERVAL_COMPACT_AT - 1
    assert len(iset._cov_off) == 0
    iset.add(_fp([INTERVAL_COMPACT_AT * 10], [5]))
    assert len(iset._pending) == 0  # folded into the compacted coverage
    assert len(iset._cov_off) > 0
    assert iset.count == INTERVAL_COMPACT_AT


def test_interval_set_single_interval_queries():
    """The scalar fast path must agree with interval semantics exactly:
    touching intervals do not overlap, one-byte intrusions do."""
    from repro.mpi.rma_rules import _IntervalSet

    iset = _IntervalSet()
    iset.add(_fp([100], [50]))

    def q(off, ln):
        return iset.overlaps(_fp([off], [ln]))

    assert not q(0, 100)    # ends exactly at the start
    assert not q(150, 10)   # begins exactly at the end
    assert q(99, 2)         # one byte inside from the left
    assert q(149, 1)        # last byte
    assert q(0, 1000)       # engulfing
    # after compaction the same answers must hold against the coverage array
    for i in range(20):
        iset.add(_fp([1000 + 64 * i], [32]))
    assert not q(150, 10)
    assert q(100, 1)
    assert q(1000 + 64 * 7, 5)
    assert not q(1000 + 64 * 7 + 32, 32)


def test_interval_set_multi_interval_query_against_pending():
    """Multi-segment queries still take the sorted path over pending
    batches; bounding-box rejection must not produce false negatives."""
    from repro.mpi.rma_rules import _IntervalSet

    iset = _IntervalSet()
    # an unsorted pending batch (traversal order != address order)
    iset.add(_fp([500, 100], [10, 10]))
    assert iset.overlaps(_fp([700, 505], [5, 2]))
    assert not iset.overlaps(_fp([200, 600], [10, 10]))


# ---------------------------------------------------------------------------
# footprints: conflicts are answered from bounding boxes first, then exactly
# ---------------------------------------------------------------------------


def _band(width=16):
    """Four rows of ``width`` bytes, 64 apart: a column band of a 4x64 tile."""
    return mpi.datatypes.hvector(4, width, 64, mpi.BYTE).commit()


def _band_ops(win, target):
    """Column bands [0,16), [16,32) and [32,48) of one row range: their
    bounding boxes all meet, their segments interleave without touching."""
    win.put(np.ones(64, np.uint8), target, 0, target_datatype=_band())
    win.get(np.zeros(64, np.uint8), target, 16, target_datatype=_band())
    win.accumulate(np.ones(64, np.uint8), target, 32, target_datatype=_band())
    win.accumulate(np.ones(64, np.uint8), target, 32, target_datatype=_band())


@pytest.mark.parametrize("strict", [True, False])
def test_interleaved_bands_conflict_only_where_segments_overlap(strict):
    def main(comm):
        win, _ = mpi.Win.allocate(comm, 256, strict=strict)
        comm.barrier()
        if comm.rank == 0:
            win.lock(1)
            _band_ops(win, 1)
            narrow = _band(8)
            win.put(np.ones(32, np.uint8), 1, 48, target_datatype=narrow)  # [48,56): free
            for kind, call, disp in [
                ("put", win.put, 4),          # columns [4,12): inside the put band
                ("put", win.put, 20),         # ... inside the get band
                ("get", win.get, 36),         # ... inside the accumulate band
                ("put", win.put, 12),         # columns [12,20): both
            ]:
                if strict:
                    with pytest.raises(RMAConflictError):
                        call(np.ones(32, np.uint8), 1, disp, target_datatype=narrow)
                else:
                    call(np.ones(32, np.uint8), 1, disp, target_datatype=narrow)
            win.get(np.zeros(32, np.uint8), 1, 20, target_datatype=narrow)  # get over get
            win.unlock(1)
        comm.barrier()
        win.free()

    spmd(2, main)


def test_interleaved_bands_across_two_origins_shared_epochs():
    """The records another origin's epoch holds are searched the same way."""

    def main(comm):
        win, local = mpi.Win.allocate(comm, 256)
        comm.barrier()
        if comm.rank < 2:
            win.lock(2, mpi.LOCK_SHARED)
        if comm.rank == 0:
            _band_ops(win, 2)
        comm.barrier()
        if comm.rank == 1:
            narrow = _band(8)
            # rows of its own between origin 0's bands: boxes meet, no overlap
            win.put(np.full(32, 7, np.uint8), 2, 48, target_datatype=narrow)
            win.accumulate(np.ones(32, np.uint8), 2, 36, target_datatype=narrow)  # same op
            with pytest.raises(RMAConflictError):
                win.put(np.ones(32, np.uint8), 2, 4, target_datatype=narrow)
            with pytest.raises(RMAConflictError):
                win.put(np.ones(32, np.uint8), 2, 20, target_datatype=narrow)
            with pytest.raises(RMAConflictError):
                win.get(np.zeros(32, np.uint8), 2, 36, target_datatype=narrow)
        comm.barrier()
        if comm.rank < 2:
            win.unlock(2)
        comm.barrier()
        if comm.rank == 2:
            tile = local.reshape(4, 64)
            assert (tile[:, 0:16] == 1).all() and (tile[:, 48:56] == 7).all()
            assert (tile[:, 32:36] == 2).all() and (tile[:, 36:44] == 3).all()
            assert not tile[:, 16:32].any() and not tile[:, 56:].any()
        win.free()

    spmd(3, main)


@settings(max_examples=300, deadline=None)
@given(
    start=st.integers(0, 40), step=st.integers(1, 40), seg_len=st.integers(1, 24),
    n=st.integers(1, 5), itemsize=st.sampled_from([2, 4, 8]), closed=st.booleans(),
)
def test_accumulate_alignment_closed_form_equals_the_array_form(
    start, step, seg_len, n, itemsize, closed
):
    """``_check_acc_alignment`` decides alignment of a progression from
    ``(start, step, seg_len, n)``; the verdict — and the interval the error
    names — must be the one the offsets/lengths arrays give.  ``n == 1`` keeps
    whatever step it was built with, which must then not matter."""
    from repro.mpi import ops as mpi_ops
    from repro.mpi.datatypes import SegmentMap
    from repro.mpi.rma_rules import _check_acc_alignment
    from repro.mpi.window import _accumulate_into

    offsets = start + step * np.arange(n)
    lengths = np.full(n, seg_len)
    if closed and step >= seg_len:
        segmap = SegmentMap._closed_form(start, step, seg_len, n)
    else:
        segmap = SegmentMap(offsets, lengths)
    base = np.dtype(f"i{itemsize}")
    misaligned = [
        (int(o), int(o + ln)) for o, ln in zip(offsets, lengths) if o % itemsize or ln % itemsize
    ]
    buf = np.zeros(int(offsets[-1]) + seg_len + 8, np.uint8)
    data = np.ones(n * seg_len, np.uint8)
    def accumulate():  # what Win.accumulate runs per target
        _check_acc_alignment(segmap, base)
        _accumulate_into(buf, segmap, data, base, mpi_ops.SUM)

    if misaligned:
        lo, hi = misaligned[0]
        with pytest.raises(mpi.ArgumentError, match=rf"segment \[{lo},{hi}\) not aligned"):
            accumulate()
        assert not buf.any()
    else:
        accumulate()
        assert buf.any()


# ---------------------------------------------------------------------------
# a rejected accumulate leaves nothing behind
# ---------------------------------------------------------------------------


def _rejected_accumulate_body(comm):
    win, _ = mpi.Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1, "exclusive")
        with pytest.raises(mpi.ArgumentError, match=r"segment \[3,19\) not aligned to float64"):
            win.accumulate(np.ones(2), 1, 3)  # f8 elements at byte 3
        # no footprint was recorded, so [0, 8) conflicts with nothing
        win.put(np.full(8, 5, np.uint8), 1, 0)
        win.unlock(1)
    comm.barrier()
    if comm.rank == 1:
        win.lock(1, "exclusive")
        got = win.local_view().copy()
        win.unlock(1)
        assert (got[:8] == 5).all() and not got[8:].any()
    comm.barrier()
    win.free()


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_rejected_accumulate_records_and_counts_nothing(backend):
    """The element-alignment check runs before the access is recorded, so an
    accumulate that raises cannot make a later op of the epoch conflict.
    (A plain runtime: no ambient sanitizer or injector, which procs reject.)"""
    rt = mpi.Runtime(2, backend=backend, watchdog_s=5.0, apply_hooks=False)
    rt.spmd(_rejected_accumulate_body)


# ---------------------------------------------------------------------------
# the record every lock epoch of one (origin, target) pair reuses
# ---------------------------------------------------------------------------


def _reused_epoch_body(comm):
    """Rank 0 runs epochs on target 1 back to back, all in the one record
    the pair reuses; each must start as a fresh one would."""
    win, _ = mpi.Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        me = comm.world_rank(0)
        data1, data2 = np.arange(1, 9, dtype=np.uint8), np.arange(11, 19, dtype=np.uint8)
        records = set()
        # an epoch that raised: its put is recorded, the overlapping get is not
        win.lock(1)
        records.add(id(win._epochs_at[1][me]))
        win.put(data1, 1, 16)
        with pytest.raises(RMAConflictError, match="get conflicts with earlier put"):
            win.get(np.zeros(8, np.uint8), 1, 16)
        win.unlock(1)
        # the next epoch meets none of it: a put over that put is clean
        win.lock(1)
        records.add(id(win._epochs_at[1][me]))
        win.put(data2, 1, 16)
        win.unlock(1)
        # a get lands at its own epoch's unlock ...
        got = np.full(8, 0xFF, np.uint8)
        win.lock(1)
        records.add(id(win._epochs_at[1][me]))
        win.get(got, 1, 16)
        assert (got == 0xFF).all()  # not before the unlock
        win.unlock(1)
        assert (got == data2).all()
        # ... and never again: the next epoch's unlock leaves it alone
        win.lock(1)
        records.add(id(win._epochs_at[1][me]))
        win.put(data1, 1, 16)
        win.unlock(1)
        assert (got == data2).all()
        assert len(records) == 1  # one record, reused
        assert not any(win._epochs_at) and not win._open
        # the lock rules' texts, made inline, are the ones made in turn
        win.lock(0)
        with pytest.raises(RMASyncError) as nested:
            win.lock(1)  # repro: lint-ignore[lock-nesting]
        win.unlock(0)
        with pytest.raises(RMASyncError) as unmatched:
            win.unlock(1)  # repro: lint-ignore[lock-unmatched]
        assert str(nested.value) == (
            f"[MPI_ERR_RMA_SYNC] origin {me} already holds a lock on target 0 of "
            "this window (MPI-2 allows one lock per window per process)"
        )
        assert str(unmatched.value) == (
            f"[MPI_ERR_RMA_SYNC] unlock(1) without a matching lock by origin {me}"
        )
        win.lock(1)
        win.unlock(1)
    comm.barrier()
    win.free()


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_a_reused_epoch_record_carries_nothing_over(backend):
    """Accesses of an epoch that raised, and a get delivered at its epoch's
    unlock, reach no later epoch of the pair; the lock rules still raise
    with their texts.  (A plain runtime: no ambient sanitizer or injector,
    which procs reject.)"""
    rt = mpi.Runtime(2, backend=backend, watchdog_s=5.0, apply_hooks=False)
    rt.spmd(_reused_epoch_body, join_timeout=120.0)
