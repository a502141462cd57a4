"""Tests for the §V-D queueing mutexes and mutex-based RMW."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.armci import (
    FETCH_AND_ADD,
    FETCH_AND_ADD_LONG,
    SWAP,
    SWAP_LONG,
    Armci,
    MutexSet,
)
from repro.mpi import Comm, Win
from repro.mpi.errors import ArgumentError
from repro.mpi.runtime import Runtime

from conftest import spmd


def _run_on(backend, request, nproc, main):
    """``main`` on ``nproc`` ranks of ``backend``: threads with the suite's
    fast watchdog, or one process per rank (which does not take the
    ambient sanitizer)."""
    if backend == "thread":
        return spmd(nproc, main)
    if request.config.getoption("--sanitize"):
        pytest.skip("proc backend does not support the ambient sanitizer")
    return Runtime(nproc, backend="proc").spmd(main, join_timeout=120.0)


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_mutex_mutual_exclusion_counter(backend, request):
    """Unprotected read-modify-write would lose updates; the mutex must not."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        mtx = a.create_mutexes(1)
        reps = 10
        for _ in range(reps):
            mtx.lock(0, 0)
            v = np.zeros(1)
            a.get(ptrs[0], v)
            a.put(v + 1.0, ptrs[0])
            mtx.unlock(0, 0)
        a.barrier()
        if a.my_id == 0:
            v = np.zeros(1)
            a.get(ptrs[0], v)
            assert v[0] == reps * a.nproc, "lost updates under the mutex!"
        a.barrier()
        mtx.destroy()
        a.free(ptrs[a.my_id])

    _run_on(backend, request, 4, main)


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_mutexes_on_every_host_and_index(backend, request):
    def main(comm):
        a = Armci.init(comm)
        mtx = a.create_mutexes(3)
        # lock/unlock every (mutex, host) pair
        for host in range(a.nproc):
            for m in range(3):
                mtx.lock(m, host)
                mtx.unlock(m, host)
        a.barrier()
        mtx.destroy()

    _run_on(backend, request, 3, main)


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_mutex_blocks_until_released(backend, request):
    def main(comm):
        a = Armci.init(comm)
        mtx = a.create_mutexes(1)
        order = a.world  # use comm for signalling
        if a.my_id == 0:
            mtx.lock(0, 0)
            comm.barrier()  # rank 1 now tries to lock and enqueues
            comm.send("release-soon", dest=1)
            mtx.unlock(0, 0)  # hands off to rank 1
        elif a.my_id == 1:
            comm.barrier()
            comm.recv(source=0)
            mtx.lock(0, 0)  # must succeed via handoff
            mtx.unlock(0, 0)
        else:
            comm.barrier()
        a.barrier()
        mtx.destroy()

    _run_on(backend, request, 3, main)


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_trylock(backend, request):
    def main(comm):
        a = Armci.init(comm)
        mtx = a.create_mutexes(1)
        if a.my_id == 0:
            assert mtx.trylock(0, 0)  # uncontended
            comm.barrier()
            comm.barrier()
            mtx.unlock(0, 0)
        else:
            comm.barrier()
            assert not mtx.trylock(0, 0)  # held by rank 0
            comm.barrier()
        a.barrier()
        mtx.destroy()

    _run_on(backend, request, 2, main)


def test_mutex_invalid_args():
    def main(comm):
        a = Armci.init(comm)
        mtx = a.create_mutexes(2)
        with pytest.raises(ArgumentError):
            mtx.lock(5, 0)
        with pytest.raises(ArgumentError):
            mtx.lock(0, 99)
        a.barrier()
        mtx.destroy()

    spmd(2, main)


# ---------------------------------------------------------------------------
# RMW (§V-D): two-epoch mutex-based implementation
# ---------------------------------------------------------------------------


def test_fetch_and_add_unique_values():
    """The classic NXTVAL test: concurrent fetch-and-adds must hand out
    every value exactly once."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        got = [a.rmw(FETCH_AND_ADD_LONG, ptrs[0], 1) for _ in range(8)]
        allv = comm.allgather(got)
        flat = sorted(x for sub in allv for x in sub)
        assert flat == list(range(8 * a.nproc))
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(4, main)


def test_fetch_and_add_int32():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        old = a.rmw(FETCH_AND_ADD, ptrs[a.my_id], 7)
        assert old == 0
        old2 = a.rmw(FETCH_AND_ADD, ptrs[a.my_id], 1)
        assert old2 == 7
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_swap():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        if a.my_id == 0:
            assert a.rmw(SWAP_LONG, ptrs[0], 42) == 0
            assert a.rmw(SWAP_LONG, ptrs[0], 7) == 42
            assert a.rmw(SWAP, ptrs[0], 3) in (7, 3)  # i4 view of the i8 slot
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_rmw_misaligned_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        with pytest.raises(ArgumentError):
            a.rmw(FETCH_AND_ADD_LONG, ptrs[a.my_id] + 3, 1)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(1, main)


def test_rmw_unknown_op_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        with pytest.raises(ArgumentError):
            a.rmw("compare_exchange", ptrs[0], 1)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(1, main)


def test_rmw_mpi3_fast_path():
    """On the mpi3 datapath, RMW uses fetch_and_op — no mutex traffic."""

    def main(comm):
        a = Armci.init(comm, strict=True, datapath="mpi3")
        ptrs = a.malloc(8)
        got = [a.rmw(FETCH_AND_ADD_LONG, ptrs[0], 1) for _ in range(10)]
        allv = comm.allgather(got)
        flat = sorted(x for sub in allv for x in sub)
        assert flat == list(range(10 * a.nproc))
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(3, main)


def test_rmw_different_gmrs_do_not_interfere():
    def main(comm):
        a = Armci.init(comm)
        p1 = a.malloc(8)
        p2 = a.malloc(8)
        a.rmw(FETCH_AND_ADD_LONG, p1[0], 1)
        a.rmw(FETCH_AND_ADD_LONG, p2[0], 10)
        a.barrier()
        if a.my_id == 0:
            v1 = np.zeros(1, dtype="i8")
            v2 = np.zeros(1, dtype="i8")
            a.get(p1[0], v1)
            a.get(p2[0], v2)
            assert v1[0] == a.nproc
            assert v2[0] == 10 * a.nproc
        a.barrier()
        a.free(p2[a.my_id])
        a.free(p1[a.my_id])

    spmd(3, main)


# ---------------------------------------------------------------------------
# the §V-D holder record: one int32 per mutex in each host's window slice
# ---------------------------------------------------------------------------


def _holder_record_body(comm):
    """What ranks 0 and 1 read from the record around a contended handoff
    of mutex 1 hosted on rank 1 (ordering by p2p messages, never by waits
    on the record itself: a read right after the message must be current)."""
    import time

    from repro.armci.mutexes import MutexSet

    ms = MutexSet.create(comm, 2)
    n, me, seen = comm.size, comm.rank, {}
    if me == 0:
        ms.lock(1, 1)
        comm.send("locked", 1, tag=5)
        queue = ms._win.exposed_buffer(1)
        while not queue[1 * n + 1]:  # rank 1 enqueued behind us
            time.sleep(0.0005)
        ms.unlock(1, 1)
        seen["after_handoff"] = ms.holder(1, 1)
        comm.send("read", 1, tag=7)  # rank 1 releases only after this read
        comm.recv(source=1, tag=6)
        seen["after_release"] = ms.holder(1, 1)
    elif me == 1:
        comm.recv(source=0, tag=5)
        seen["after_lock"] = ms.holder(1, 1)
        seen["untouched"] = [ms.holder(1, 0), ms.holder(0, 1), ms.holder(0, 0)]
        ms.lock(1, 1)
        seen["owner"] = ms.holder(1, 1)
        comm.recv(source=0, tag=7)
        ms.unlock(1, 1)
        seen["after_release"] = ms.holder(1, 1)
        comm.send("released", 0, tag=6)
    comm.barrier()
    # the byte vectors are where they always were; the records sit behind
    # them, 4-aligned, and are all free again
    slab = ms._win.exposed_buffer(me)
    seen["slab"] = (slab.nbytes, slab.tolist() == [0] * slab.nbytes)
    comm.barrier()
    ms.destroy()
    return seen


@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_holder_record_is_current_on_every_rank(backend, request):
    from repro.mpi.runtime import Runtime

    if backend == "proc" and request.config.getoption("--sanitize"):
        pytest.skip("proc backend does not support the ambient sanitizer")
    rt = Runtime(3, backend=backend)
    r0, r1, r2 = rt.spmd(_holder_record_body, join_timeout=120.0)
    assert r0 == {"after_handoff": 1, "after_release": None, "slab": (16, True)}
    assert r1 == {
        "after_lock": 0, "untouched": [None, None, None], "owner": 1,
        "after_release": None, "slab": (16, True),
    }
    assert r2 == {"slab": (16, True)}  # 2 mutexes x 3 ranks -> 6, padded to 8, + 2 x 4


@pytest.mark.parametrize(
    "datapath, windows, mutex_sets, dups", [("mpi3", 1, 0, 0), ("mpi2", 2, 1, 1)]
)
def test_malloc_builds_the_rmw_mutex_only_on_mpi2(
    monkeypatch, datapath, windows, mutex_sets, dups
):
    """§VIII-B: on mpi3 ``Armci.rmw`` is one ``fetch_and_op``, so a malloc
    is one window; only mpi2's mutex-based RMW needs the §V-D mutex (a
    derived communicator and a second window)."""
    made = {"win": 0, "mutex_set": 0, "dup": 0}
    lock = threading.Lock()  # the ranks are threads

    def counting(key, fn):
        def wrapper(*args, **kw):
            with lock:
                made[key] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(Win, "allocate", classmethod(counting("win", Win.allocate.__func__)))
    monkeypatch.setattr(
        MutexSet, "create", classmethod(counting("mutex_set", MutexSet.create.__func__))
    )
    monkeypatch.setattr(Comm, "dup", counting("dup", Comm.dup))

    def main(comm):
        a = Armci.init(comm, datapath=datapath)
        comm.barrier()
        if comm.rank == 0:
            made.update(win=0, mutex_set=0, dup=0)
        comm.barrier()
        ptrs = a.malloc(64)
        comm.barrier()
        seen = (dict(made), len(a._gmr_mutexes))
        a.free(ptrs[a.my_id])
        return seen

    nproc = 2
    for counts, held in spmd(nproc, main):
        assert counts == {
            "win": windows * nproc, "mutex_set": mutex_sets * nproc, "dup": dups * nproc
        }
        assert held == mutex_sets
