"""Tests for the first-class MPI-3 flush datapath (``datapath="mpi3"``).

Covers the PR's acceptance contract: nonblocking operations observably
*defer* (the target is untouched and ``test()`` reports False until a
completion point), the coalescing queue merges adjacent small ops,
conflicting enqueues pre-drain to preserve location consistency, and
the strided/IOV/RMW surfaces all stay value-correct on the flush path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import Armci, ArmciConfig
from repro.mpi.errors import ArgumentError, RMAConflictError
from repro.mpi.progress import DeterministicSchedule
from repro.mpi.runtime import Runtime
from repro.sanitizer.fuzz import fuzz_schedules

from conftest import spmd


def _local_bytes(a: Armci, ptr, nbytes: int) -> np.ndarray:
    """Snapshot the calling rank's own slab through DLA."""
    buf = a.access_begin(ptr, nbytes)
    out = buf.copy()
    a.access_end(ptr)
    return out


# ---------------------------------------------------------------------------
# deferral: the acceptance test — nb ops observably do nothing until a
# completion point
# ---------------------------------------------------------------------------


def test_nb_put_defers_until_wait():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(8)
        me = a.my_id
        data = np.full(8, 7, dtype=np.uint8)
        a.barrier()
        if me == 0:
            h = a.nb_put(data, ptrs[1], 8)
            assert h.test() is False, "queued op must not report complete"
            assert a._nbq.pending() == 1
            comm.send(None, 1, tag=1)  # "queued, not drained"
            comm.recv(source=1, tag=2)  # target confirmed it saw nothing
            h.wait()
            assert h.test() is True
            assert a._nbq.pending() == 0
            comm.send(None, 1, tag=3)
        else:
            comm.recv(source=0, tag=1)
            assert not _local_bytes(a, ptrs[1], 8).any(), (
                "nb_put must not touch the target before a completion point"
            )
            comm.send(None, 0, tag=2)
            comm.recv(source=0, tag=3)
            assert (_local_bytes(a, ptrs[1], 8) == 7).all()
        a.barrier()
        a.free(ptrs[me])

    spmd(2, main)


def test_nb_get_fills_destination_only_at_wait():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(8)
        me = a.my_id
        if me == 1:
            buf = a.access_begin(ptrs[1], 8)
            buf[:] = 9
            a.access_end(ptrs[1])
        a.barrier()
        if me == 0:
            out = np.zeros(8, dtype=np.uint8)
            h = a.nb_get(ptrs[1], out, 8)
            assert h.test() is False
            assert not out.any(), "nb_get must not fill before the drain"
            h.wait()
            assert (out == 9).all()
        a.barrier()
        a.free(ptrs[me])

    spmd(2, main)


def test_fence_and_barrier_drain_the_queue():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(16)
        me = a.my_id
        a.barrier()
        h = a.nb_put(np.full(4, me + 1, dtype=np.uint8), ptrs[1 - me], 4)
        assert a._nbq.pending() == 1
        a.fence(1 - me)  # per-target remote completion
        assert a._nbq.pending() == 0
        assert h.test() is True
        h2 = a.nb_acc(np.ones(1, dtype=np.int64), ptrs[1 - me] + 8, 1.0, 8)
        a.barrier()  # fence_all + process barrier
        assert h2.test() is True
        assert (_local_bytes(a, ptrs[me], 4) == 2 - me).all()
        a.free(ptrs[me])

    spmd(2, main)


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------


def test_adjacent_puts_coalesce_into_one_entry():
    def main(comm):
        cfg = ArmciConfig(nb_coalesce_threshold=64)
        a = Armci.init(comm, config=cfg, datapath="mpi3")
        ptrs = a.malloc(64)
        me = a.my_id
        a.barrier()
        if me == 0:
            src = np.arange(64, dtype=np.uint8)
            handles = [a.nb_put(src[i * 8 : (i + 1) * 8], ptrs[1] + i * 8, 8)
                       for i in range(8)]
            # 8 adjacent 8-byte puts within the 64-byte cap -> one entry
            assert a._nbq.pending() == 1
            assert a.record.coalesced == 7
            a.wait_all(handles)
            assert all(h.test() for h in handles)
        a.barrier()
        if me == 1:
            assert (_local_bytes(a, ptrs[1], 64) == np.arange(64)).all()
        a.barrier()
        a.free(ptrs[me])

    spmd(2, main)


def test_threshold_zero_disables_coalescing():
    def main(comm):
        cfg = ArmciConfig(nb_coalesce_threshold=0)
        a = Armci.init(comm, config=cfg, datapath="mpi3")
        ptrs = a.malloc(64)
        a.barrier()
        if a.my_id == 0:
            src = np.arange(64, dtype=np.uint8)
            handles = [a.nb_put(src[i * 8 : (i + 1) * 8], ptrs[1] + i * 8, 8)
                       for i in range(8)]
            assert a._nbq.pending() == 8
            assert a.record.coalesced == 0
            a.wait_all(handles)
        a.barrier()
        if a.my_id == 1:
            assert (_local_bytes(a, ptrs[1], 64) == np.arange(64)).all()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_coalescing_respects_threshold_cap():
    def main(comm):
        cfg = ArmciConfig(nb_coalesce_threshold=16)
        a = Armci.init(comm, config=cfg, datapath="mpi3")
        ptrs = a.malloc(64)
        a.barrier()
        if a.my_id == 0:
            src = np.arange(64, dtype=np.uint8)
            for i in range(8):
                a.nb_put(src[i * 8 : (i + 1) * 8], ptrs[1] + i * 8, 8)  # repro: lint-ignore[nb-pending]
            # merged pairwise: 16-byte entries, never past the cap
            assert a._nbq.pending() == 4
            a.fence(1)
        a.barrier()
        if a.my_id == 1:
            assert (_local_bytes(a, ptrs[1], 64) == np.arange(64)).all()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_acc_coalescing_keeps_accumulation_semantics():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(32)
        a.barrier()
        if a.my_id == 0:
            one = np.ones(2, dtype=np.int64)
            handles = [a.nb_acc(one, ptrs[1] + i * 16, 1.0, 16) for i in range(2)]
            assert a._nbq.pending() == 1  # adjacent same-dtype accs merge
            handles += [a.nb_acc(one, ptrs[1] + i * 16, 1.0, 16) for i in range(2)]
            a.wait_all(handles)
        a.barrier()
        if a.my_id == 1:
            vals = _local_bytes(a, ptrs[1], 32).view(np.int64)
            assert (vals == 2).all()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


# ---------------------------------------------------------------------------
# queue discipline: conflicts and depth
# ---------------------------------------------------------------------------


def test_conflicting_enqueue_pre_drains_for_location_consistency():
    def main(comm):
        cfg = ArmciConfig(nb_coalesce_threshold=0)
        a = Armci.init(comm, config=cfg, datapath="mpi3")
        ptrs = a.malloc(8)
        a.barrier()
        if a.my_id == 0:
            h1 = a.nb_put(np.full(8, 3, dtype=np.uint8), ptrs[1], 8)
            out = np.zeros(8, dtype=np.uint8)
            # overlapping get conflicts with the queued put: the queue
            # drains first, so per-location program order holds
            h2 = a.nb_get(ptrs[1], out, 8)
            assert h1.test() is True, "conflict must have drained the put"
            h2.wait()
            assert (out == 3).all()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_blocking_op_completes_queued_conflicts_first():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(8)
        a.barrier()
        if a.my_id == 0:
            a.nb_put(np.full(8, 5, dtype=np.uint8), ptrs[1], 8)  # repro: lint-ignore[nb-pending]
            out = np.zeros(8, dtype=np.uint8)
            a.get(ptrs[1], out, 8)  # blocking read of the same location
            assert (out == 5).all()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_queue_auto_drains_past_max_pending():
    def main(comm):
        cfg = ArmciConfig(nb_coalesce_threshold=0, nb_max_pending=4)
        a = Armci.init(comm, config=cfg, datapath="mpi3")
        ptrs = a.malloc(64)
        a.barrier()
        if a.my_id == 0:
            src = np.arange(48, dtype=np.uint8)
            for i in range(6):
                a.nb_put(src[i * 8 : (i + 1) * 8], ptrs[1] + i * 8, 8)  # repro: lint-ignore[nb-pending]
            assert a._nbq.pending() <= 4
            assert a.record.drains >= 1
            a.fence(1)
        a.barrier()
        if a.my_id == 1:
            assert (_local_bytes(a, ptrs[1], 48) == np.arange(48)).all()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


# ---------------------------------------------------------------------------
# handle semantics
# ---------------------------------------------------------------------------


def test_wait_all_surfaces_first_failure_with_kind_and_target():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(16)
        a.barrier()
        if a.my_id == 0:
            h1 = a.nb_put(np.ones(8, dtype=np.uint8), ptrs[1], 8)
            h2 = a.nb_put(np.ones(8, dtype=np.uint8), ptrs[1] + 8, 8)
            # fail both handles the way recovery does when the world dies
            a._nbq.discard(RuntimeError("boom"))
            assert h1.test() and h2.test()  # failed counts as complete
            with pytest.raises(RuntimeError, match="boom") as ei:
                a.wait_all([h1, h2])
            notes = "\n".join(getattr(ei.value, "__notes__", []))
            assert "nb_put" in notes and "target 1" in notes
            assert "+1 more failed handle" in notes
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_failed_handle_reraises_on_every_wait():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(8)
        a.barrier()
        if a.my_id == 0:
            h = a.nb_put(np.ones(8, dtype=np.uint8), ptrs[1], 8)
            a._nbq.discard(ValueError("gone"))
            for _ in range(2):
                with pytest.raises(ValueError, match="gone"):
                    h.wait()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_mpi2_nb_get_writeback_runs_exactly_once_under_polling():
    """Satellite fix: repeated test() must not re-run the staged write-back."""

    def main(comm):
        a = Armci.init(comm)  # mpi2: eager, only the write-back is deferred
        ptrs = a.malloc(16)
        me = a.my_id
        a.put(np.full(8, 4, dtype=np.uint8), ptrs[me] + 8, 8)
        a.barrier()
        # destination inside global memory -> staged get with write-back
        h = a.nb_get(ptrs[1 - me] + 8, ptrs[me], 8)
        assert h.test() is True
        assert h.test() is True  # idempotent; callback already consumed
        h.wait()
        assert (_local_bytes(a, ptrs[me], 8) == 4).all()
        a.barrier()
        a.free(ptrs[me])

    spmd(2, main)


def test_nb_zero_byte_op_is_immediately_complete():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(8)
        a.barrier()
        h = a.nb_put(np.zeros(0, dtype=np.uint8), ptrs[1 - a.my_id], 0)
        assert h.test() is True
        assert a._nbq.pending() == 0
        h.wait()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


# ---------------------------------------------------------------------------
# the rest of the ARMCI surface on the flush path
# ---------------------------------------------------------------------------


def test_rmw_fetch_and_add_under_mpi3():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(8 if a.my_id == 0 else 0)
        a.barrier()
        seen = [a.rmw("fetch_and_add_long", ptrs[0], 1) for _ in range(5)]
        a.barrier()
        if a.my_id == 0:
            counter = _local_bytes(a, ptrs[0], 8).view(np.int64)[0]
            assert counter == 5 * a.nproc
        assert len(set(seen)) == len(seen)  # each fetch saw a unique value
        a.barrier()
        a.free(ptrs[a.my_id] if a.my_id == 0 else None)

    spmd(4, main)


def test_strided_roundtrip_under_mpi3():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(64)
        me = a.my_id
        a.barrier()
        if me == 0:
            src = np.arange(16, dtype=np.uint8)
            # 4 segments of 4 bytes, remote stride 16
            a.put_s(src, [4], ptrs[1], [16], [4, 4])
            out = np.zeros(16, dtype=np.uint8)
            a.get_s(ptrs[1], [16], out, [4], [4, 4])
            assert (out == src).all()
        a.barrier()
        if me == 1:
            slab = _local_bytes(a, ptrs[1], 64)
            for seg in range(4):
                assert (slab[seg * 16 : seg * 16 + 4]
                        == np.arange(seg * 4, seg * 4 + 4)).all()
        a.barrier()
        a.free(ptrs[me])

    spmd(2, main)


def test_iov_roundtrip_under_mpi3():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(64)
        a.barrier()
        if a.my_id == 0:
            src = np.arange(12, dtype=np.uint8)
            dsts = [ptrs[1], ptrs[1] + 24, ptrs[1] + 48]
            a.putv(src, [0, 4, 8], dsts, 4)
            out = np.zeros(12, dtype=np.uint8)
            a.getv(dsts, out, [0, 4, 8], 4)
            assert (out == src).all()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_free_drains_queued_ops_to_the_dying_gmr():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(8)
        a.barrier()
        h = a.nb_put(np.full(8, a.my_id + 1, dtype=np.uint8), ptrs[1 - a.my_id], 8)
        a.barrier()  # barrier drains; then free must find nothing queued
        assert h.test() is True
        a.free(ptrs[a.my_id])
        assert a._nbq.pending() == 0

    spmd(2, main)


def test_ga_nxtval_counter_under_mpi3():
    """GA's NXTVAL counter rides the native fetch_and_op on this path."""

    def main(comm):
        from repro.ga.counters import SharedCounter

        a = Armci.init(comm, datapath="mpi3")
        c = SharedCounter(a)
        tasks = [c.next() for _ in range(3)]
        a.barrier()
        assert c.read() == 3 * a.nproc
        assert len(set(tasks)) == 3
        c.destroy()

    spmd(4, main)


def test_datapath_argument_validated():
    def main(comm):
        with pytest.raises(ArgumentError):
            Armci.init(comm, datapath="mpi4")

    spmd(2, main)


def test_finalize_audits_drained_queues():
    """The drained-queue-at-finalize invariant holds on the clean path."""

    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(8)
        a.barrier()
        a.nb_put(np.ones(8, dtype=np.uint8), ptrs[1 - a.my_id], 8)  # repro: lint-ignore[nb-pending]
        a.finalize()  # barrier + free drain everything; audit stays quiet
        assert a._nbq.pending() == 0

    spmd(2, main)


def test_mpi3_datapath_implies_mpi3_windows():
    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        assert a.mpi3 is True
        assert a.datapath == "mpi3"
        b_ptrs = a.malloc(8)
        a.barrier()
        a.free(b_ptrs[a.my_id])

    spmd(2, main)

    def main2(comm):
        a = Armci.init(comm)
        assert a.datapath == "mpi2"
        assert a._flush_mode is False

    spmd(2, main2)


# ---------------------------------------------------------------------------
# a blocking op is one window transaction: it records no footprint, yet is
# still checked against every footprint another origin left recorded
# ---------------------------------------------------------------------------


def test_blocking_put_still_conflicts_with_another_origins_unflushed_put():
    """Origin 1 leaves a put unflushed in its ``lock_all`` epoch on target 0.
    Origin 0's blocking put over those bytes fails with the cross-origin
    conflict text, and one beside them goes through."""

    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(64)
        gmr = a.table.require(ptrs[0])
        win_rank, disp = gmr.displacement(ptrs[0])
        a.barrier()
        if a.my_id == 1:
            gmr.win.put(np.ones(16, np.uint8), win_rank, disp)  # not flushed
        a.barrier()
        if a.my_id == 0:
            with pytest.raises(
                RMAConflictError,
                match=r"\] put by origin 0 conflicts with concurrent put by origin 1 "
                r"on target 0 \(both hold shared locks\)$",
            ):
                a.put(np.zeros(8, np.uint8), ptrs[0] + 8)
            a.put(np.full(8, 2, np.uint8), ptrs[0] + 32)
        a.barrier()
        if a.my_id == 1:
            gmr.win.flush(win_rank)
        a.barrier()
        if a.my_id == 0:
            got = _local_bytes(a, ptrs[0], 64)
            assert (got[:16] == 1).all() and (got[32:40] == 2).all()
            assert not got[16:32].any() and not got[40:].any()
        a.barrier()
        a.free(ptrs[a.my_id])
        a.finalize()

    Runtime(2, watchdog_s=2.0, apply_hooks=False).spmd(main)


def _overlapping_blocking_puts(comm):
    """Origins 0 and 1 each put the same 16 bytes of rank 2's slab."""
    a = Armci.init(comm, datapath="mpi3")
    ptrs = a.malloc(64 if a.my_id == 2 else 0)
    a.barrier()
    if a.my_id < 2:
        a.put(np.full(16, a.my_id + 1, np.uint8), ptrs[2])
    a.barrier()
    a.free(ptrs[a.my_id])
    a.finalize()
    return "ok"


def test_fuzzer_still_finds_the_race_between_blocking_puts():
    """Under a schedule an op and its flush stay two sections with a fuzz
    point between them, so some seeds interleave the other origin's put
    there and fail with the conflict, and others pass."""
    reports = fuzz_schedules(_overlapping_blocking_puts, 3, nschedules=24)
    failing = [r for r in reports if not r.ok]
    assert failing, "no seed interleaved the two blocking puts"
    assert [r for r in reports if r.ok], "every seed failed"
    assert all("conflict" in r.error.lower() for r in failing)


def test_scheduled_blocking_put_yields_before_its_flush():
    """A scheduled run's fuzz-point trace still shows ``rma:put`` and then
    ``rma:flush`` for one blocking put (a coin that always preempts)."""
    rt = Runtime(2)
    sched = DeterministicSchedule(0, switch_prob=1.0)
    sched.begin_run(rt)

    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(16)
        a.barrier()
        if a.my_id == 0:
            a.put(np.ones(16, np.uint8), ptrs[1])
        a.barrier()
        a.free(ptrs[a.my_id])
        a.finalize()

    rt.spmd(main)
    kinds = [ev[2] for ev in sched.trace if ev[:2] == ("yield", 0)]
    at = kinds.index("rma:put")
    assert kinds[at + 1] == "rma:flush", kinds
