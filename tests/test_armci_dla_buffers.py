"""Tests for direct local access (§V-E) and global-buffer staging (§V-E.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.armci import Armci, ArmciConfig
from repro.mpi.errors import ArgumentError, RMASyncError
from repro.mpi.window import LOCK_EXCLUSIVE

from conftest import spmd


# ---------------------------------------------------------------------------
# DLA: access_begin / access_end
# ---------------------------------------------------------------------------


def test_access_begin_gives_writable_view():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        view = a.access_begin(ptrs[a.my_id], 64, "f8")
        view[:] = float(a.my_id)
        a.access_end(ptrs[a.my_id])
        a.barrier()
        nbr = (a.my_id + 1) % a.nproc
        v = np.zeros(8)
        a.get(ptrs[nbr], v)
        assert np.all(v == float(nbr))
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(3, main)


def test_access_begin_remote_pointer_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        other = (a.my_id + 1) % a.nproc
        with pytest.raises(ArgumentError):
            a.access_begin(ptrs[other], 16)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_nested_access_begin_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        a.access_begin(ptrs[a.my_id], 16)
        with pytest.raises(RMASyncError):
            a.access_begin(ptrs[a.my_id], 8)
        a.access_end(ptrs[a.my_id])
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(1, main)


def test_access_end_without_begin_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        with pytest.raises(RMASyncError):
            a.access_end(ptrs[a.my_id])
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(1, main)


def test_communication_during_dla_on_same_gmr_raises():
    """One lock per window per process: DLA + put through the same GMR
    from the same process is erroneous (§V-E)."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(32)
        a.access_begin(ptrs[a.my_id], 32)
        with pytest.raises(RMASyncError):
            a.put(np.zeros(2), ptrs[(a.my_id + 1) % a.nproc])
        a.access_end(ptrs[a.my_id])
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_dla_excludes_remote_access():
    """While rank 0 holds DLA, a remote put to it must wait, not corrupt."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        if a.my_id == 0:
            view = a.access_begin(ptrs[0], 8, "f8")
            view[0] = 1.0
            comm.barrier()  # rank 1 issues a put now; it must block
            assert view[0] == 1.0  # our exclusive lock holds writers off
            a.access_end(ptrs[0])
            # after release the put lands
            got = np.zeros(1)
            while got[0] != 2.0:
                a.get(ptrs[0], got)
        else:
            comm.barrier()
            a.put(np.array([2.0]), ptrs[0])  # blocks until access_end
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_dla_mixed_dtype_views():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        view = a.access_begin(ptrs[a.my_id] + 8, 8, "i8")
        view[0] = 7
        a.access_end(ptrs[a.my_id] + 8)
        a.barrier()
        v = np.zeros(2, dtype="i8")
        a.get(ptrs[a.my_id], v)
        assert v.tolist() == [0, 7]
        a.free(ptrs[a.my_id])

    spmd(1, main)


# ---------------------------------------------------------------------------
# Global-buffer staging (§V-E.1)
# ---------------------------------------------------------------------------


def test_put_from_global_buffer_is_staged():
    """Local source inside a window: must stage, and must count a copy."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        # initialise my slab via DLA
        view = a.access_begin(ptrs[a.my_id], 64, "f8")
        view[:] = np.arange(8.0) + 10 * a.my_id
        a.access_end(ptrs[a.my_id])
        a.barrier()
        if a.my_id == 0:
            # ARMCI-style: local buffer IS my global allocation
            a.put(ptrs[0], ptrs[1], nbytes=64)
            assert a.stats.staged_copies >= 1
        a.barrier()
        if a.my_id == 1:
            v = np.zeros(8)
            a.get(ptrs[1], v)
            np.testing.assert_array_equal(v, np.arange(8.0))
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_get_into_global_buffer_is_staged():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        if a.my_id == 1:
            view = a.access_begin(ptrs[1], 64, "f8")
            view[:] = 5.0
            a.access_end(ptrs[1])
        a.barrier()
        if a.my_id == 0:
            # destination is my own global slab
            a.get(ptrs[1], ptrs[0], nbytes=64)
            assert a.stats.staged_copies >= 1
            v = np.zeros(8)
            a.get(ptrs[0], v)
            assert np.all(v == 5.0)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_numpy_view_aliasing_detected():
    """Even a raw numpy view of window memory (not a GlobalPtr) is staged."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        before = a.stats.staged_copies
        if a.my_id == 0:
            slab = a.table.require(ptrs[0]).local_slab().view("f8")
            # write through DLA first so the bytes are defined
            v = a.access_begin(ptrs[0], 64, "f8")
            v[:] = 3.0
            a.access_end(ptrs[0])
            a.put(slab, ptrs[1])  # slab aliases the window -> staged
            assert a.stats.staged_copies > before
        a.barrier()
        if a.my_id == 1:
            out = np.zeros(8)
            a.get(ptrs[1], out)
            assert np.all(out == 3.0)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_plain_buffer_not_staged():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        a.put(np.zeros(2), ptrs[a.my_id])
        assert a.stats.staged_copies == 0
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_naive_global_buffer_handling_deadlocks():
    """The §V-E.1 hazard made concrete: two processes that lock their own
    window region and then the partner's (instead of staging) deadlock.

    This is the exact circular-dependence scenario the staging protocol
    exists to avoid; ARMCI-MPI's `put` (previous tests) does not hang.
    """

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(32)
        gmr = a.table.require(ptrs[a.my_id])
        me = gmr.group.rank
        partner = (me + 1) % a.nproc
        comm.barrier()
        # naive: hold the local lock while asking for the remote one
        gmr.win.lock(me, LOCK_EXCLUSIVE)
        comm.barrier()  # both now hold their self-lock... but MPI-2 says
        # one lock per window per process: the second lock below is the
        # same window, so this raises rather than deadlocks
        gmr.win.lock(partner, LOCK_EXCLUSIVE)

    with pytest.raises((RMASyncError, mpi.RankFailedError)):
        spmd(2, main, watchdog_s=0.3)


def test_two_window_circular_lock_deadlocks():
    """With two distinct windows the same naive pattern really deadlocks."""

    def main(comm):
        a = Armci.init(comm)
        p1 = a.malloc(32)
        p2 = a.malloc(32)
        g1 = a.table.require(p1[a.my_id])
        g2 = a.table.require(p2[a.my_id])
        comm.barrier()
        if a.my_id == 0:
            g1.win.lock(0, LOCK_EXCLUSIVE)
            comm.barrier()
            g2.win.lock(1, LOCK_EXCLUSIVE)  # never granted
        else:
            g2.win.lock(1, LOCK_EXCLUSIVE)
            comm.barrier()
            g1.win.lock(0, LOCK_EXCLUSIVE)  # never granted

    with pytest.raises(mpi.ProgressDeadlockError):
        spmd(2, main, watchdog_s=0.3)


def test_coherent_shortcut_skips_staging():
    def main(comm):
        a = Armci.init(
            comm, ArmciConfig(coherent_shortcut=True), strict=False
        )
        ptrs = a.malloc(64)
        if a.my_id == 0:
            a.put(ptrs[0], ptrs[1], nbytes=64)
            assert a.stats.staged_copies == 0
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


#: form -> the f8 elements of the 128-byte local slab the op addresses
_STAGED_ELEMS = {"contiguous": [0, 1, 2, 3], "strided": [0, 1, 4, 5], "iov": [0, 1, 4, 5]}


def _slab_op(a, form, kind, slab, ptr):
    """``kind`` between 32 bytes of ``slab`` (the caller's own global
    memory; two 16-byte segments 32 apart unless contiguous) and the
    first 32 bytes at ``ptr``."""
    if form == "contiguous":
        call = {"put": (a.put, slab[:32], ptr), "get": (a.get, ptr, slab[:32]),
                "acc": (a.acc, slab[:32].view("f8"), ptr)}
    elif form == "strided":
        call = {"put": (a.put_s, slab, [32], ptr, [16], [16, 2]),
                "get": (a.get_s, ptr, [16], slab, [32], [16, 2]),
                "acc": (a.acc_s, slab, [32], ptr, [16], [16, 2])}
    else:
        addrs = [ptr, ptr + 16]
        call = {"put": (a.putv, slab, [0, 32], addrs, 16),
                "get": (a.getv, addrs, slab, [0, 32], 16),
                "acc": (a.accv, slab, [0, 32], addrs, 16)}
    fn, *args = call[kind]
    fn(*args)


@pytest.mark.parametrize("shortcut", [False, True], ids=["staged", "coherent_shortcut"])
@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
@pytest.mark.parametrize("kind", ["put", "get", "acc"])
@pytest.mark.parametrize("form", sorted(_STAGED_ELEMS))
def test_staging_matrix(form, kind, datapath, shortcut):
    """§V-E.1 for every op family: with the local side a view of the
    caller's own slab the data is right, a staged get leaves the bytes
    between and after its segments alone, and exactly one staging copy is
    counted per op (none under ``coherent_shortcut``)."""
    elems = _STAGED_ELEMS[form]
    remote = 100.0 + np.arange(4)

    def main(comm):
        a = Armci.init(
            comm, ArmciConfig(coherent_shortcut=shortcut),
            strict=not shortcut, datapath=datapath,
        )
        ptrs = a.malloc(128)
        mine = a.access_begin(ptrs[a.my_id], 128, "f8")
        mine.view(np.uint8)[:] = 0xEE
        if a.my_id == 0 and kind != "get":
            mine[elems] = np.arange(1.0, 5.0)
        elif a.my_id == 1:
            mine[:4] = remote
        a.access_end(ptrs[a.my_id])
        a.barrier()
        if a.my_id == 0:
            before = a.stats.staged_copies
            _slab_op(a, form, kind, a.table.require(ptrs[0]).local_slab(), ptrs[1])
            assert a.stats.staged_copies - before == (not shortcut)
        a.barrier()
        after = np.zeros(16)
        a.get(ptrs[a.my_id], after)
        untouched = np.ones(16, dtype=bool)  # per f8 element of the slab
        if a.my_id == 0:
            expect = remote if kind == "get" else np.arange(1.0, 5.0)
            np.testing.assert_array_equal(after[elems], expect)
            untouched[elems] = False
        else:
            expect = {"put": np.arange(1.0, 5.0), "get": remote,
                      "acc": remote + np.arange(1.0, 5.0)}[kind]
            np.testing.assert_array_equal(after[:4], expect)
            untouched[:4] = False
        assert (after[untouched].view(np.uint8) == 0xEE).all()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)
