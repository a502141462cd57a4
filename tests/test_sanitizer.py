"""Regression tests for the RMA sanitizer: one seeded violation per rule
class, each paired with a clean counterpart that must stay silent.

Every violating program asserts three things: the *structured* exception
type, the machine-readable ``ViolationKind``, and that the exception is
still an instance of the plain MPI error class existing handlers key on.
The clean counterparts run the legal version of the same pattern and
assert the sanitizer recorded nothing — the per-rule half of the
zero-false-positive guarantee (``pytest --sanitize`` is the suite-wide
half).
"""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

from repro.armci import Armci
from repro.armci.access_modes import AccessMode
from repro.mpi.errors import (
    ArgumentError,
    RMAConflictError,
    RMARangeError,
    RMASyncError,
)
from repro.mpi.runtime import Runtime
from repro.mpi.window import LOCK_EXCLUSIVE, LOCK_SHARED, Win
from repro.sanitizer import (
    CATALOG,
    ConflictViolationError,
    ModeViolationError,
    RangeViolationError,
    RmaSanitizer,
    SyncViolationError,
    ViolationKind,
)


def run_san(nproc, fn, *args, mode="raise", check_nonstrict=False):
    """Run ``fn(comm, *args)`` with a sanitizer installed; return it."""
    rt = Runtime(nproc, watchdog_s=0.4)
    rt.sanitizer = RmaSanitizer(mode=mode, check_nonstrict=check_nonstrict)
    results = rt.spmd(fn, *args)
    return rt.sanitizer, results


def expect_violation(exc_cls, kind, legacy_cls, nproc, fn, *args, **kw):
    """Assert ``fn`` raises the structured error with the given kind."""
    with pytest.raises(exc_cls) as ei:
        run_san(nproc, fn, *args, **kw)
    v = ei.value.violation
    assert v.kind is kind
    assert isinstance(ei.value, legacy_cls)
    # the catalog covers the kind and the message carries its section
    assert CATALOG[v.kind].section in str(ei.value)
    return v


# -- EPOCH: RMA op outside any access epoch (§III) --------------------------------


def _epoch_violation(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.put(np.ones(8, dtype=np.uint8), 1)  # no lock held  # repro: lint-ignore[epoch]


def _epoch_clean(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(np.ones(8, dtype=np.uint8), 1)
        win.unlock(1)


def test_epoch_violation_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.EPOCH, RMASyncError, 2, _epoch_violation
    )
    assert v.rank == 0 and v.op == "put" and v.target == 1


def test_epoch_clean_counterpart():
    san, _ = run_san(2, _epoch_clean)
    assert san.violations == []


# -- LOCK_NESTING / LOCK_UNMATCHED: lock discipline (§III, §V-E.1) ----------------


def _nesting_violation(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(0)
        win.lock(1)  # second lock on the same window  # repro: lint-ignore[lock-nesting]


def _nesting_clean(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(0)
        win.unlock(0)
        win.lock(1)
        win.unlock(1)


def _unmatched_violation(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.unlock(1)  # never locked  # repro: lint-ignore[lock-unmatched]


def test_lock_nesting_violation_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.LOCK_NESTING, RMASyncError,
        2, _nesting_violation,
    )
    assert "one lock per window" in v.detail


def test_lock_nesting_clean_counterpart():
    san, _ = run_san(2, _nesting_clean)
    assert san.violations == []


def test_lock_unmatched_violation_detected():
    expect_violation(
        SyncViolationError, ViolationKind.LOCK_UNMATCHED, RMASyncError,
        2, _unmatched_violation,
    )


# -- CONFLICT: overlapping put/get within one epoch (§III) ------------------------


def _conflict_violation(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(np.ones(8, dtype=np.uint8), 1)
        win.put(np.ones(8, dtype=np.uint8), 1, 4)  # overlaps [4, 8)


def _conflict_clean(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(np.ones(8, dtype=np.uint8), 1)
        win.put(np.ones(8, dtype=np.uint8), 1, 8)  # disjoint
        win.unlock(1)


def test_conflict_violation_detected():
    v = expect_violation(
        ConflictViolationError, ViolationKind.CONFLICT, RMAConflictError,
        2, _conflict_violation,
    )
    assert v.ranges  # byte interval reported


def test_conflict_clean_counterpart():
    san, _ = run_san(2, _conflict_clean)
    assert san.violations == []


# -- ACC_INTERLEAVE: different reduction ops on one region (§III) -----------------


def _acc_interleave_violation(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.accumulate(np.ones(4), 1, 0, op="MPI_SUM")
        win.accumulate(np.ones(4), 1, 0, op="MPI_MAX")  # same bytes, new op


def _acc_interleave_clean(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.accumulate(np.ones(4), 1, 0, op="MPI_SUM")
        win.accumulate(np.ones(4), 1, 0, op="MPI_SUM")  # same op: atomic
        win.unlock(1)


def test_acc_interleave_violation_detected():
    expect_violation(
        ConflictViolationError, ViolationKind.ACC_INTERLEAVE, RMAConflictError,
        2, _acc_interleave_violation,
    )


def test_acc_interleave_clean_counterpart():
    san, _ = run_san(2, _acc_interleave_clean)
    assert san.violations == []


# -- LOCAL_ALIAS: origin buffer aliases the window's own memory (§V-E.1) ----------


def _local_alias_violation(comm):
    win, local = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(local[:8], 1)  # origin IS this window's exposed memory


def _local_alias_clean(comm):
    win, local = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(local[:8].copy(), 1)  # staged through a private buffer
        win.unlock(1)


def test_local_alias_violation_detected():
    v = expect_violation(
        ConflictViolationError, ViolationKind.LOCAL_ALIAS, RMAConflictError,
        2, _local_alias_violation,
    )
    assert "stage" in v.detail


def test_local_alias_clean_counterpart():
    san, _ = run_san(2, _local_alias_clean)
    assert san.violations == []


# -- LOCAL_LOAD_STORE: bare direct access to exposed memory (§III, §V-E) ----------


def _bare_local_violation(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.local_view()  # no exclusive self-lock  # repro: lint-ignore[local-load-store]


def _bare_local_clean(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(0, LOCK_EXCLUSIVE)
        view = win.local_view()
        view[0] = 7
        win.unlock(0)


def test_local_load_store_violation_detected():
    expect_violation(
        SyncViolationError, ViolationKind.LOCAL_LOAD_STORE, RMASyncError,
        2, _bare_local_violation,
    )


def test_local_load_store_clean_counterpart():
    san, _ = run_san(2, _bare_local_clean)
    assert san.violations == []


# -- RANGE: datatype footprint outside the target region (§V-A) -------------------


def _range_violation(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(np.ones(128, dtype=np.uint8), 1)  # 128 B into a 64 B region


def _range_clean(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(np.ones(64, dtype=np.uint8), 1)
        win.unlock(1)


def test_range_violation_detected():
    v = expect_violation(
        RangeViolationError, ViolationKind.RANGE, RMARangeError,
        2, _range_violation,
    )
    assert v.ranges == ((0, 128),)


def test_range_clean_counterpart():
    san, _ = run_san(2, _range_clean)
    assert san.violations == []


# -- rmw atomics vs put/get: the window never checks these itself -----------------


def _rmw_conflict_violation(comm):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    if comm.rank == 0:
        out = np.zeros(1, dtype=np.int64)
        win.lock(1)
        win.fetch_and_op(1, 1, 0)
        win.get(out, 1)  # overlaps the atomic's slot in the same epoch


def _rmw_clean(comm):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.fetch_and_op(1, 1, 0)
        win.fetch_and_op(2, 1, 0)  # atomics are mutually atomic
        win.compare_and_swap(3, 9, 1, 0)
        win.unlock(1)


def test_rmw_vs_get_conflict_detected():
    expect_violation(
        ConflictViolationError, ViolationKind.CONFLICT, RMAConflictError,
        2, _rmw_conflict_violation,
    )


def test_rmw_atomics_clean_counterpart():
    san, _ = run_san(2, _rmw_clean)
    assert san.violations == []


# -- ACCESS_MODE: op excluded by the declared GMR mode (§VIII-A) ------------------


def _mode_violation(comm):
    armci = Armci.init(comm)
    ptrs = armci.malloc(64)  # repro: lint-ignore[lint-leak] — the put below aborts the run
    armci.set_access_mode(ptrs[armci.my_id], AccessMode.READ_ONLY)
    if armci.my_id == 0:
        armci.put(np.ones(8, dtype=np.uint8), ptrs[1], 8)  # put on read-only


def _mode_clean(comm):
    armci = Armci.init(comm)
    ptrs = armci.malloc(64)
    armci.set_access_mode(ptrs[armci.my_id], AccessMode.READ_ONLY)
    buf = np.zeros(8, dtype=np.uint8)
    armci.get(ptrs[(armci.my_id + 1) % armci.nproc], buf, 8)  # gets allowed
    armci.set_access_mode(ptrs[armci.my_id], AccessMode.DEFAULT)
    armci.finalize()


def test_access_mode_violation_detected():
    v = expect_violation(
        ModeViolationError, ViolationKind.ACCESS_MODE, ArgumentError,
        2, _mode_violation,
    )
    assert "read_only" in v.detail


def test_access_mode_clean_counterpart():
    san, _ = run_san(2, _mode_clean)
    assert san.violations == []


# -- LOCK_WHILE_DLA and DLA: direct-local-access discipline (§V-E) ----------------


def _lock_while_dla_violation(comm):
    armci = Armci.init(comm)
    ptrs = armci.malloc(64)  # repro: lint-ignore[lint-leak] — the put below aborts the run
    armci.barrier()
    if armci.my_id == 0:
        armci.access_begin(ptrs[0], 8, np.int64)
        # communicating through the same window while DLA is open
        armci.put(np.ones(8, dtype=np.uint8), ptrs[1], 8)  # repro: lint-ignore[lock-while-dla]


def _lock_while_dla_clean(comm):
    armci = Armci.init(comm)
    ptrs = armci.malloc(64)
    armci.barrier()
    if armci.my_id == 0:
        view = armci.access_begin(ptrs[0], 8, np.int64)
        view[0] = 42
        armci.access_end(ptrs[0])
        armci.put(np.ones(8, dtype=np.uint8), ptrs[1], 8)
    armci.barrier()
    armci.finalize()


def test_lock_while_dla_violation_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.LOCK_WHILE_DLA, RMASyncError,
        2, _lock_while_dla_violation,
    )
    assert "direct-local-access" in v.detail


def test_lock_while_dla_clean_counterpart():
    san, _ = run_san(2, _lock_while_dla_clean)
    assert san.violations == []


def _dla_nested_violation(comm):
    armci = Armci.init(comm)
    ptrs = armci.malloc(64)  # repro: lint-ignore[lint-leak] — the nested begin aborts the run
    armci.barrier()
    if armci.my_id == 0:
        armci.access_begin(ptrs[0], 8, np.int64)
        armci.access_begin(ptrs[0], 8, np.int64)  # DLA epochs do not nest  # repro: lint-ignore[dla]


def _dla_unmatched_violation(comm):
    armci = Armci.init(comm)
    ptrs = armci.malloc(64)  # repro: lint-ignore[lint-leak] — the access_end aborts the run
    armci.barrier()
    if armci.my_id == 0:
        armci.access_end(ptrs[0])  # never began  # repro: lint-ignore[dla]


def _dla_clean(comm):
    armci = Armci.init(comm)
    ptrs = armci.malloc(64)
    armci.barrier()
    for _ in range(2):  # sequential epochs are fine, only nesting is not
        view = armci.access_begin(ptrs[armci.my_id], 8, np.int64)
        view[0] += 1
        armci.access_end(ptrs[armci.my_id])
    armci.barrier()
    armci.finalize()


def test_dla_nesting_violation_detected():
    expect_violation(
        SyncViolationError, ViolationKind.DLA, RMASyncError,
        2, _dla_nested_violation,
    )


def test_dla_unmatched_end_violation_detected():
    expect_violation(
        SyncViolationError, ViolationKind.DLA, RMASyncError,
        2, _dla_unmatched_violation,
    )


def test_dla_clean_counterpart():
    san, _ = run_san(2, _dla_clean)
    assert san.violations == []


# -- REQUEST / FLUSH and lock_all cycling: the gated MPI-3 surface (§VIII-B) ------


def _request_violation(comm):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.rput(np.ones(8, dtype=np.uint8), 1)  # request never waited on  # repro: lint-ignore[request]
        win.unlock(1)


def _request_clean(comm):
    win, local = Win.allocate(comm, 64, mpi3=True)
    local[:] = comm.rank
    comm.barrier()
    if comm.rank == 0:
        out = np.zeros(8, dtype=np.uint8)
        win.lock(1)
        req = win.rput(np.ones(8, dtype=np.uint8), 1)
        req.wait()
        greq = win.rget(out, 1, target_offset=8)
        flag, _ = greq.test()  # test() completes eager requests too
        assert flag and np.all(out == 1)
        win.unlock(1)
    comm.barrier()


def test_request_completion_violation_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.REQUEST, RMASyncError,
        2, _request_violation,
    )
    assert v.rank == 0 and v.op == "unlock" and "rput/rget" in v.detail


def test_request_completion_clean_counterpart():
    san, _ = run_san(2, _request_clean)
    assert san.violations == []


def _flush_violation(comm):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    if comm.rank == 0:
        win.flush(1)  # no epoch open  # repro: lint-ignore[flush]


def _flush_all_violation(comm):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    if comm.rank == 0:
        win.flush_all()  # no epoch open  # repro: lint-ignore[flush]


def _lock_all_cycle_clean(comm):
    win, local = Win.allocate(comm, 64, mpi3=True)
    local[:] = comm.rank
    comm.barrier()
    out = np.zeros(8, dtype=np.uint8)
    win.lock_all()
    win.get(out, (comm.rank + 1) % comm.size)
    win.flush_all()
    req = win.rget(out, comm.rank)
    req.wait()
    win.flush(comm.rank)
    win.unlock_all()
    comm.barrier()


def test_flush_outside_epoch_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.FLUSH, RMASyncError, 2, _flush_violation
    )
    assert v.op == "flush" and v.target == 1


def test_flush_all_outside_epoch_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.FLUSH, RMASyncError, 2, _flush_all_violation
    )
    assert v.op == "flush_all" and v.target == -1


def test_lock_all_flush_cycle_clean():
    san, _ = run_san(3, _lock_all_cycle_clean)
    assert san.violations == []


def _lock_all_nesting_violation(comm):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    win.lock_all()  # repro: lint-ignore[lint-leak] — the nested lock_all aborts the run
    if comm.rank == 0:
        win.lock_all()  # lock_all does not nest  # repro: lint-ignore[lock-nesting]


def _unlock_all_unmatched_violation(comm):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    if comm.rank == 0:
        win.unlock_all()  # never opened  # repro: lint-ignore[lock-unmatched]


def test_lock_all_nesting_violation_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.LOCK_NESTING, RMASyncError,
        2, _lock_all_nesting_violation,
    )
    assert v.op == "lock_all"


def test_unlock_all_unmatched_violation_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.LOCK_UNMATCHED, RMASyncError,
        2, _unlock_all_unmatched_violation,
    )
    assert v.op == "unlock_all"


def test_request_pending_recorded_in_record_mode():
    san, _ = run_san(2, _request_violation, mode="record")
    kinds = [v.kind for v in san.violations]
    assert kinds.count(ViolationKind.REQUEST) == 1


# -- modes and gating --------------------------------------------------------------


def _nonstrict_conflict(comm):
    win, _ = Win.allocate(comm, 64, strict=False)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(np.ones(8, dtype=np.uint8), 1)
        win.put(np.full(8, 2, dtype=np.uint8), 1)  # overlap; relaxed window
        win.unlock(1)
    comm.barrier()


def test_record_mode_collects_without_raising():
    san, _ = run_san(2, _nonstrict_conflict, mode="record", check_nonstrict=True)
    kinds = {v.kind for v in san.violations}
    assert ViolationKind.CONFLICT in kinds


def test_check_nonstrict_raises_on_relaxed_window():
    with pytest.raises(ConflictViolationError) as ei:
        run_san(2, _nonstrict_conflict, check_nonstrict=True)
    assert ei.value.violation.kind is ViolationKind.CONFLICT


def test_nonstrict_windows_exempt_by_default():
    # relaxed windows model coherent shortcuts: conflicts are their right
    san, _ = run_san(2, _nonstrict_conflict)
    assert san.violations == []


# -- NB_PENDING: mpi3 queued op never reaching a completion point (§VIII-B) -------


def _nb_pending_violation(comm):
    a = Armci.init(comm, datapath="mpi3")
    ptrs = a.malloc(8)  # repro: lint-ignore[lint-leak]
    a.barrier()
    if a.my_id == 0:
        a.nb_put(np.ones(8, dtype=np.uint8), ptrs[1], 8)  # repro: lint-ignore[nb-pending]
        # a finalize that skipped every completion point: the audit must
        # report the op that never flushed
        a._nbq.audit_finalize()


def _nb_pending_clean(comm):
    a = Armci.init(comm, datapath="mpi3")
    ptrs = a.malloc(8)
    a.barrier()
    a.nb_put(np.ones(8, dtype=np.uint8), ptrs[(a.my_id + 1) % a.nproc], 8)  # repro: lint-ignore[nb-pending]
    a.finalize()  # the finalize barrier drains; the audit stays silent


def test_nb_pending_violation_detected():
    v = expect_violation(
        SyncViolationError, ViolationKind.NB_PENDING, RMASyncError,
        2, _nb_pending_violation,
    )
    assert "completion point" in v.detail


def test_nb_pending_clean_counterpart():
    san, _ = run_san(2, _nb_pending_clean)
    assert san.violations == []


def test_nb_ledger_tracks_enqueue_and_drain():
    counts: list[int] = []

    def body(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(16)
        a.barrier()
        if a.my_id == 0:
            san = a.world.runtime.sanitizer
            gmr = a.table.require(ptrs[1])
            a.nb_put(np.ones(8, dtype=np.uint8), ptrs[1], 8)  # repro: lint-ignore[nb-pending]
            a.nb_put(np.ones(8, dtype=np.uint8), ptrs[1] + 8, 8)  # repro: lint-ignore[nb-pending]
            counts.append(san.nb_pending_count(gmr.win, 0, 1))
            a.fence(1)
            counts.append(san.nb_pending_count(gmr.win, 0, 1))
        a.barrier()
        a.free(ptrs[a.my_id])

    run_san(2, body)
    assert counts == [2, 0]


def test_catalog_covers_every_kind():
    assert set(CATALOG) == set(ViolationKind)
    for entry in CATALOG.values():
        assert entry.section.startswith("§")
        assert entry.rule and entry.fix


def test_violation_str_mentions_kind_and_section():
    v = expect_violation(
        ConflictViolationError, ViolationKind.CONFLICT, RMAConflictError,
        2, _conflict_violation,
    )
    s = str(v)
    assert "[conflict]" in s and "§III" in s and "rank 0" in s


# -- zero-false-positive representative: a real staged workload, sanitized --------


@pytest.mark.sanitize
def test_staged_armci_workload_is_sanitizer_clean(run4):
    """ARMCI-MPI's own protocols must never trip the checker (marker form)."""

    def body(comm):
        armci = Armci.init(comm)
        ptrs = armci.malloc(64)
        counters = armci.malloc(8 if armci.my_id == 0 else 0)
        right = (armci.my_id + 1) % armci.nproc
        armci.put(np.full(8, 1.0), ptrs[right])
        armci.barrier()
        out = np.zeros(8)
        armci.get(ptrs[armci.my_id], out)
        armci.barrier()
        armci.acc(out, ptrs[0], scale=0.5)
        task = armci.rmw("fetch_and_add_long", counters[0], 1)
        armci.barrier()
        armci.finalize()
        return float(out.sum()), task

    results = run4(body)
    assert sorted(t for _, t in results) == [0, 1, 2, 3]
    assert all(s == 8.0 for s, _ in results)


# -- one checker: the window evaluates, the sanitizer reports ---------------------


def run_plain(nproc, fn, *args):
    """Run ``fn`` with no sanitizer at all (even under ``pytest --sanitize``)."""
    rt = Runtime(nproc, watchdog_s=0.4)
    rt.sanitizer = None
    return rt.spmd(fn, *args)


def _acc_interleave_relaxed(comm):
    win, _ = Win.allocate(comm, 64, strict=False)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.accumulate(np.ones(4), 1, 0, op="MPI_SUM")
        win.accumulate(np.ones(4), 1, 0, op="MPI_MAX")
        win.unlock(1)
    comm.barrier()


def _local_alias_relaxed(comm):
    win, local = Win.allocate(comm, 64, strict=False)
    comm.barrier()
    if comm.rank == 0:
        win.lock(1)
        win.put(local[:8], 1)
        win.unlock(1)
    comm.barrier()


def _bare_local_relaxed(comm):
    win, _ = Win.allocate(comm, 64, strict=False)
    comm.barrier()
    if comm.rank == 0:
        win.local_view()  # repro: lint-ignore[local-load-store]
    comm.barrier()


#: kind -> (violating program, plain error the evaluating layer raises by
#: itself or None for a sanitizer-only rule, str(violation) snapshot,
#: the same misuse on a strict=False window or None if strictness is moot)
RULES = {
    ViolationKind.EPOCH: (
        _epoch_violation, RMASyncError,
        "RMA violation [epoch] (§III): rank 0 op put target 1 win 0: RMA "
        "operation outside any access epoch",
        None,
    ),
    ViolationKind.LOCK_NESTING: (
        _nesting_violation, RMASyncError,
        "RMA violation [lock-nesting] (§III, §V-E.1): rank 0 op lock target 1 "
        "win 0: already holds a lock on target 0 of this window (one lock per "
        "window per process)",
        None,
    ),
    ViolationKind.LOCK_UNMATCHED: (
        _unmatched_violation, RMASyncError,
        "RMA violation [lock-unmatched] (§III): rank 0 op unlock target 1 win "
        "0: unlock without a matching lock by this origin",
        None,
    ),
    ViolationKind.LOCK_WHILE_DLA: (
        _lock_while_dla_violation, RMASyncError,
        "RMA violation [lock-while-dla] (§V-E): rank 0 op lock target 1 win 0: "
        "lock attempt while a direct-local-access epoch is open on the same "
        "window (the §V-C double-lock hazard)",
        None,
    ),
    ViolationKind.CONFLICT: (
        _conflict_violation, RMAConflictError,
        "RMA violation [conflict] (§III): rank 0 op put target 1 win 0 bytes "
        "[4,12): put overlaps an earlier put access in the same epoch",
        _nonstrict_conflict,
    ),
    ViolationKind.ACC_INTERLEAVE: (
        _acc_interleave_violation, RMAConflictError,
        "RMA violation [acc-interleave] (§III): rank 0 op acc target 1 win 0 "
        "bytes [0,32): acc overlaps an earlier acc(MPI_SUM) access in the same "
        "epoch",
        _acc_interleave_relaxed,
    ),
    ViolationKind.LOCAL_ALIAS: (
        _local_alias_violation, None,
        "RMA violation [local-alias] (§V-E.1): rank 0 op put target 1 win 0: "
        "local buffer aliases this window's exposed memory on the origin; "
        "accessing it needs a second lock on the same window (stage through a "
        "private buffer instead)",
        _local_alias_relaxed,
    ),
    ViolationKind.LOCAL_LOAD_STORE: (
        _bare_local_violation, RMASyncError,
        "RMA violation [local-load-store] (§III, §V-E): rank 0 op local_view "
        "target 0 win 0: direct load/store of exposed memory without an "
        "exclusive self-lock",
        _bare_local_relaxed,
    ),
    ViolationKind.ACCESS_MODE: (
        _mode_violation, ArgumentError,
        "RMA violation [access-mode] (§VIII-A): rank 0 op put win 0: put on "
        "GMR N violates declared access mode read_only",
        None,
    ),
    ViolationKind.RANGE: (
        _range_violation, RMARangeError,
        "RMA violation [range] (§V-A): rank 0 op put target 1 win 0 bytes "
        "[0,128): datatype footprint exceeds the 64-byte window region at the "
        "target",
        None,
    ),
    ViolationKind.DLA: (
        _dla_nested_violation, RMASyncError,
        "RMA violation [dla] (§V-E): rank 0 op access_begin win 0: nested "
        "access_begin on GMR N: direct-access epochs do not nest",
        None,
    ),
    ViolationKind.REQUEST: (
        _request_violation, None,
        "RMA violation [request] (§VIII-B): rank 0 op unlock target 1 win 0: 1 "
        "request-based op(s) (rput/rget) never completed with wait/test before "
        "the epoch closed",
        None,
    ),
    ViolationKind.FLUSH: (
        _flush_violation, RMASyncError,
        "RMA violation [flush] (§VIII-B): rank 0 op flush target 1 win 0: flush "
        "outside any passive-target epoch: nothing to complete",
        None,
    ),
    ViolationKind.NB_PENDING: (
        _nb_pending_violation, None,
        "RMA violation [nb-pending] (§VIII-B): rank 0 op finalize target 1 win "
        "0: 1 queued nonblocking op(s) never reached a completion point "
        "(wait/wait_all/fence/barrier) before finalize",
        None,
    ),
}


def _snap(violation) -> str:
    """``str(violation)`` with the process-global GMR id masked."""
    return re.sub(r"GMR \d+", "GMR N", str(violation))


def test_rules_table_covers_every_dynamic_kind():
    from repro.sanitizer import LINT_ONLY_KINDS

    assert set(RULES) == set(ViolationKind) - LINT_ONLY_KINDS


@pytest.mark.parametrize("kind", list(RULES), ids=lambda k: k.value)
def test_outcome_matrix(kind):
    """Who raises what, per rule x {no sanitizer, raise, record} x strictness."""
    program, plain_cls, snapshot, relaxed = RULES[kind]

    # no sanitizer: the evaluating layer's own plain error, if it has one
    if plain_cls is None:
        run_plain(2, program)
    else:
        with pytest.raises(plain_cls) as ei:
            run_plain(2, program)
        assert not hasattr(ei.value, "violation")

    # raise: the structured subclass, str(violation) byte for byte
    with pytest.raises(plain_cls or Exception) as ei:
        run_san(2, program)
    assert ei.value.violation.kind is kind
    assert _snap(ei.value.violation) == snapshot

    # record: recorded exactly once, and the plain error still fires
    rt = Runtime(2, watchdog_s=0.4)
    san = rt.sanitizer = RmaSanitizer(mode="record")
    if plain_cls is None:
        rt.spmd(program)
    else:
        with pytest.raises(plain_cls) as ei:
            rt.spmd(program)
        assert not hasattr(ei.value, "violation")
    assert [_snap(v) for v in san.violations if v.kind is kind] == [snapshot]

    if relaxed is None:
        return
    # a relaxed window is exempt: silent unless check_nonstrict asks ...
    run_plain(2, relaxed)
    san, _ = run_san(2, relaxed)
    assert san.violations == []
    # ... and then only the sanitizer objects (no plain error in record mode)
    with pytest.raises(Exception) as ei:
        run_san(2, relaxed, check_nonstrict=True)
    assert ei.value.violation.kind is kind
    san, _ = run_san(2, relaxed, mode="record", check_nonstrict=True)
    assert [v.kind for v in san.violations] == [kind]


def test_one_conflict_search_per_candidate_epoch(monkeypatch):
    """Under the sanitizer a strict put is conflict-checked once, not twice."""
    from repro.mpi.window import _Epoch

    searches = []
    real = _Epoch.conflict_class

    def counting(self, kind, opname, fp):
        searches.append((self.origin, self.target, kind))
        return real(self, kind, opname, fp)

    def body(comm):
        win, _ = Win.allocate(comm, 64)
        comm.barrier()
        win.lock(1, LOCK_SHARED)  # two concurrent epochs on target 1
        comm.barrier()
        if comm.rank == 0:
            monkeypatch.setattr(_Epoch, "conflict_class", counting)
            win.put(np.ones(8, dtype=np.uint8), 1)
            monkeypatch.undo()
        comm.barrier()
        win.unlock(1)

    san, _ = run_san(2, body)
    assert san.violations == []
    # the origin's own epoch and the one concurrent epoch: one search each
    assert sorted(searches) == [(0, 1, "put"), (1, 1, "put")]


def test_sanitizer_reads_no_window_privates():
    import repro.sanitizer

    for path in pathlib.Path(repro.sanitizer.__file__).parent.glob("*.py"):
        assert not re.search(r"\bwin\._", path.read_text()), path.name


# -- conflict footprints: bounding boxes first, segments only where boxes meet ----


def _bands(comm, strict, shared, overlap):
    """Column bands of a 4-row tile (64-byte pitch) on the last rank: bytes
    [0,16) of every row put, [16,32) got, then an 8-byte band put into the
    free columns [32,40) or, with ``overlap``, at column 4 — inside the
    first put's rows.  ``shared``: the second band comes from a second
    origin's concurrent shared epoch."""
    from repro.mpi import datatypes as dt

    wide = dt.hvector(4, 16, 64, dt.BYTE).commit()
    narrow = dt.hvector(4, 8, 64, dt.BYTE).commit()
    target = comm.size - 1
    win, _ = Win.allocate(comm, 256, strict=strict)
    comm.barrier()
    second = 1 if shared else 0
    mode = LOCK_SHARED if shared else LOCK_EXCLUSIVE
    if comm.rank in (0, second):
        win.lock(target, mode)
    if comm.rank == 0:
        win.put(np.ones(64, dtype=np.uint8), target, 0, target_datatype=wide)
        win.get(np.zeros(64, dtype=np.uint8), target, 16, target_datatype=wide)
    comm.barrier()
    if comm.rank == second:
        win.put(
            np.ones(32, dtype=np.uint8), target, 4 if overlap else 32, target_datatype=narrow
        )
    comm.barrier()
    if comm.rank in (0, second):
        win.unlock(target)
    comm.barrier()


@pytest.mark.parametrize("shared", [False, True], ids=["same-epoch", "two-origins"])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "check_nonstrict"])
def test_band_conflicts_are_exact_and_report_the_bounding_box(strict, shared):
    """Interleaved bands whose boxes meet are clean; bands whose segments
    overlap raise what they always raised — same plain message, same
    violation text, footprint ``((lo, hi),)`` = the new op's bounding box."""
    nproc = 3 if shared else 2
    who = (
        "in a concurrent epoch of origin 0" if shared else "in the same epoch"
    )
    origin = 1 if shared else 0
    plain = (
        f"put by origin 1 conflicts with concurrent put by origin 0 on target "
        f"{nproc - 1} (both hold shared locks)"
        if shared
        else f"put conflicts with earlier put in the same epoch (origin 0 -> target {nproc - 1})"
    )
    san, _ = run_san(nproc, _bands, strict, shared, False, check_nonstrict=not strict)
    assert san.violations == []
    with pytest.raises(ConflictViolationError) as ei:
        run_san(nproc, _bands, strict, shared, True, check_nonstrict=not strict)
    v = ei.value.violation
    assert v.kind is ViolationKind.CONFLICT and v.ranges == ((4, 204),)
    assert str(v) == (
        f"RMA violation [conflict] (§III): rank {origin} op put target {nproc - 1} "
        f"win 0 bytes [4,204): put overlaps an earlier put access {who}"
    )
    if strict:
        run_plain(nproc, _bands, strict, shared, False)
        with pytest.raises(RMAConflictError) as ei:
            run_plain(nproc, _bands, strict, shared, True)
        assert str(ei.value) == "[MPI_ERR_RMA_CONFLICT] " + plain
    else:  # a relaxed window is entitled to it
        run_plain(nproc, _bands, strict, shared, True)
        san, _ = run_san(nproc, _bands, strict, shared, True)
        assert san.violations == []
