"""Window memory on both backends: what ``Win.allocate`` hands back, and
which arrays ``Win.create`` accepts.

``Win.allocate`` lets the backend allocate the memory (``MPI_Win_allocate``):
``np.zeros`` on threads, a fresh shared-memory segment on procs, into
which nothing is copied.  The array it returns *is* this rank's exposed
memory on both, so a put into the window shows in it and a store through
it (inside an exclusive self-lock) is what a peer's get reads.
``Win.create`` exposes the caller's array byte for byte, so it takes only a
C-contiguous one: flattening any other would expose a private copy.
"""

from __future__ import annotations

import os
import pathlib
import resource

import numpy as np
import pytest

from repro import mpi
from repro.mpi.errors import ArgumentError

BACKENDS = ["thread", "proc"]


def _runtime(backend):
    # procs take no ambient sanitizer or injector
    return mpi.Runtime(2, backend=backend, watchdog_s=5.0, apply_hooks=backend == "thread")


def _put_shows_in_memory_body(comm):
    win, mem = mpi.Win.allocate(comm, 16, mpi3=True)
    me = comm.rank
    win.lock(me)
    win.put(np.array([7 + me], dtype=np.uint8), me, 0, flush=True)
    seen = int(mem[0])
    shared = np.shares_memory(mem, win.exposed_buffer(me))
    win.unlock(me)
    comm.barrier()
    win.free()
    return seen, shared


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_put_into_the_own_slot_shows_in_the_allocated_array(backend):
    assert _runtime(backend).spmd(_put_shows_in_memory_body) == [(7, True), (8, True)]


def _store_is_read_by_peer_body(comm):
    win, mem = mpi.Win.allocate(comm, 16)
    me, peer = comm.rank, 1 - comm.rank
    win.lock(me)  # exclusive: the direct store's epoch
    mem[:8] = 40 + me
    win.unlock(me)
    comm.barrier()
    out = np.zeros(8, dtype=np.uint8)
    win.lock(peer, mpi.LOCK_SHARED)
    win.get(out, peer, 0)
    win.unlock(peer)
    comm.barrier()
    win.free()
    return out.tolist()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_store_through_the_allocated_array_is_what_a_peer_gets(backend):
    assert _runtime(backend).spmd(_store_is_read_by_peer_body) == [[41] * 8, [40] * 8]


def _fresh_allocation_body(comm):
    n = 1 << 16
    me = comm.rank
    win, mem = mpi.Win.allocate(comm, n)
    win.lock(me)
    mem[:] = 0xAB
    win.unlock(me)
    comm.barrier()
    win.free()
    del mem
    win, mem = mpi.Win.allocate(comm, n)
    win.lock(me)
    zero = mem.size == n and not mem.any()
    win.unlock(me)
    comm.barrier()
    win.free()
    return zero


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_fresh_allocation_reads_zero_after_one_of_its_size_was_written_and_freed(backend):
    assert _runtime(backend).spmd(_fresh_allocation_body) == [True, True]


def _minor_faults_body(comm, nbytes):
    mpi.Win.allocate(comm, 4096)[0].free()  # the path's first use, off the count
    comm.barrier()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    win = mpi.Win.allocate(comm, nbytes)[0]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    comm.barrier()
    win.free()
    return faults


def test_allocating_proc_window_memory_touches_none_of_it():
    """A copy into the segment would fault in every page of it (16 384 of
    4 KiB for 64 MiB); the kernel's zero fill faults in none."""
    faults = _runtime("proc").spmd(_minor_faults_body, 64 << 20)
    assert max(faults) < 1024, faults


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _kept_past_free_body(comm):
    comm.barrier()
    before = _open_fds()
    win, mem = mpi.Win.allocate(comm, 64)
    me = comm.rank
    name = win._segment.name
    win.lock(me)
    mem[:] = 5 + me
    win.unlock(me)
    comm.barrier()
    win.free()
    mem[1] += 1  # still mapped: the array keeps its segment
    vals = mem[:2].tolist()
    del mem  # the last array over the segment: now it is closed
    return name, vals, _open_fds() - before


def test_proc_memory_kept_past_free_stays_mapped_until_dropped():
    shm = pathlib.Path("/dev/shm")
    if not shm.is_dir():
        pytest.skip("no /dev/shm on this platform")
    got = _runtime("proc").spmd(_kept_past_free_body)
    assert [vals for _, vals, _ in got] == [[5, 6], [6, 7]]
    # unlinked at free, and no descriptor left once the array is dropped
    assert not [name for name, _, _ in got if (shm / name).exists()]
    assert [leaked for _, _, leaked in got] == [0, 0]


def _noncontiguous_body(comm):
    base = np.zeros((8, 8))
    for local in (base[::2, :], base[:, ::2]):  # copied by reshape / not viewable
        with pytest.raises(ArgumentError, match="C-contiguous"):
            mpi.Win.create(comm, local)
    # a contiguous block of rows is still a view of ``base``
    win = mpi.Win.create(comm, base[2:4])
    me = comm.rank
    win.lock(me)
    win.put(np.array([3.0]), me, 8)
    win.unlock(me)
    comm.barrier()
    win.free()
    return base[2, 1] == 3.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_create_refuses_a_strided_array(backend):
    exposed = _runtime(backend).spmd(_noncontiguous_body)
    # threads expose the caller's array itself; procs expose a copy
    assert exposed == [backend == "thread"] * 2
