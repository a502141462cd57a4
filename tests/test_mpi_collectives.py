"""Tests for collective operations and communicator management."""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.mpi.errors import ArgumentError, InternalError, RankError
from repro.mpi.runtime import Runtime

from conftest import spmd

#: communicator management is one implementation (``Comm``) on both
#: backends, so its tests run on both
BACKENDS = ["thread", "proc"]


def spmd_on(backend, nproc, fn):
    """:func:`spmd` on ``backend``: one forked process per rank for
    ``proc``, with no ambient sanitizer or injector (procs reject both)."""
    if backend == "thread":
        return spmd(nproc, fn)
    rt = Runtime(nproc, backend="proc", apply_hooks=False)
    return rt.spmd(fn, join_timeout=120.0)


def test_barrier_all_ranks():
    order = []

    def main(comm):
        order.append(("pre", comm.rank))
        comm.barrier()
        order.append(("post", comm.rank))

    spmd(4, main)
    pres = [i for i, (k, _) in enumerate(order) if k == "pre"]
    posts = [i for i, (k, _) in enumerate(order) if k == "post"]
    assert max(pres) < min(posts)


def test_bcast_buffer():
    def main(comm):
        buf = np.zeros(5, dtype="i4")
        if comm.rank == 2:
            buf[:] = [1, 2, 3, 4, 5]
        comm.bcast(buf, root=2)
        assert buf.tolist() == [1, 2, 3, 4, 5]

    spmd(4, main)


def test_bcast_obj():
    def main(comm):
        obj = {"x": 1} if comm.rank == 0 else None
        got = comm.bcast_obj(obj, root=0)
        assert got == {"x": 1}

    spmd(3, main)


def test_bcast_size_mismatch_raises():
    def main(comm):
        buf = np.zeros(5 if comm.rank == 0 else 3)
        if comm.rank == 0:
            comm.bcast(buf, root=0)
        else:
            with pytest.raises(ArgumentError):
                comm.bcast(buf, root=0)

    # the inner pytest.raises asserts non-root ranks raise; rank 0 completes
    spmd(2, main)


def test_gather_and_allgather():
    def main(comm):
        g = comm.gather(comm.rank * 10, root=1)
        if comm.rank == 1:
            assert g == [0, 10, 20, 30]
        else:
            assert g is None
        ag = comm.allgather(comm.rank + 1)
        assert ag == [1, 2, 3, 4]

    spmd(4, main)


def test_scatter():
    def main(comm):
        objs = [f"item{i}" for i in range(3)] if comm.rank == 0 else None
        got = comm.scatter(objs, root=0)
        assert got == f"item{comm.rank}"

    spmd(3, main)


def test_scatter_wrong_length_raises():
    def main(comm):
        if comm.rank == 0:
            with pytest.raises(ArgumentError):
                comm.scatter(["only-one"], root=0)
        # make other ranks do a matching no-op path: nothing to do
        return None

    spmd(2, main, watchdog_s=0.3)


def test_alltoall():
    def main(comm):
        sends = [(comm.rank, dst) for dst in range(comm.size)]
        got = comm.alltoall(sends)
        assert got == [(src, comm.rank) for src in range(comm.size)]

    spmd(4, main)


def test_reduce_sum_and_allreduce():
    def main(comm):
        v = np.array([comm.rank + 1, 2.0])
        r = comm.reduce(v, op="MPI_SUM", root=0)
        if comm.rank == 0:
            assert r.tolist() == [1 + 2 + 3, 6.0]
        else:
            assert r is None
        ar = comm.allreduce(v, op=mpi.MAX)
        assert ar.tolist() == [3, 2.0]

    spmd(3, main)


def test_reduce_shape_mismatch_raises():
    def main(comm):
        v = np.zeros(comm.rank + 1)
        comm.allreduce(v)

    with pytest.raises((ArgumentError, mpi.RankFailedError)):
        spmd(2, main)


def test_scan_exscan():
    def main(comm):
        v = np.array([comm.rank + 1], dtype="i8")
        inc = comm.scan(v)
        assert inc[0] == sum(range(1, comm.rank + 2))
        exc = comm.exscan(v)
        if comm.rank == 0:
            assert exc is None
        else:
            assert exc[0] == sum(range(1, comm.rank + 1))

    spmd(4, main)


def test_reduce_logical_ops():
    def main(comm):
        v = np.array([comm.rank % 2], dtype="i4")
        assert comm.allreduce(v, op=mpi.LOR)[0] == 1
        assert comm.allreduce(v, op=mpi.LAND)[0] == 0
        b = np.array([1 << comm.rank], dtype="i4")
        assert comm.allreduce(b, op=mpi.BOR)[0] == 0b1111

    spmd(4, main)


def test_mismatched_collectives_raise():
    def main(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.allgather(1)

    with pytest.raises((InternalError, mpi.RankFailedError)):
        spmd(2, main)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("derive", ["dup", "create"])
def test_derivation_cannot_match_another_collective(backend, derive):
    """A ``dup``/``create`` is a collective of its own kind: against a
    ``barrier`` it raises, as any mismatched pair does, instead of handing
    rank 0 a communicator rank 1 never built."""

    def main(comm):
        if comm.rank == 0:
            new = comm.dup() if derive == "dup" else comm.create(comm.group)
            return derive, new.context_id
        comm.barrier()
        return "barrier", None

    with pytest.raises(InternalError, match="collective mismatch"):
        spmd_on(backend, 2, main)


def test_invalid_root_raises():
    def main(comm):
        with pytest.raises(RankError):
            comm.bcast_obj(None, root=99)

    spmd(2, main)


# ---------------------------------------------------------------------------
# communicator management
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_dup_isolates_p2p(backend):
    def main(comm):
        dup = comm.dup()
        assert dup.context_id != comm.context_id
        if comm.rank == 0:
            comm.send("on-comm", dest=1, tag=1)
            dup.send("on-dup", dest=1, tag=1)
        else:
            obj, _ = dup.recv(source=0, tag=1)
            assert obj == "on-dup"
            obj, _ = comm.recv(source=0, tag=1)
            assert obj == "on-comm"

    spmd_on(backend, 2, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_split_by_parity(backend):
    def main(comm):
        sub = comm.split(color=comm.rank % 2, key=-comm.rank)
        assert sub.size == 2
        # key ordering: higher original rank first (key = -rank)
        expected_world = sorted(
            [r for r in range(4) if r % 2 == comm.rank % 2], reverse=True
        )
        assert list(sub.group.members) == expected_world
        total = sub.allreduce(np.array([comm.rank]))
        assert total[0] == sum(expected_world)

    spmd_on(backend, 4, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_split_undefined_color(backend):
    def main(comm):
        sub = comm.split(color=0 if comm.rank == 0 else -1)
        if comm.rank == 0:
            assert sub is not None and sub.size == 1
        else:
            assert sub is None

    spmd_on(backend, 3, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_comm_create_subgroup(backend):
    def main(comm):
        grp = comm.group.incl([1, 2])
        sub = comm.create(grp)
        if comm.rank in (1, 2):
            assert sub is not None
            assert sub.size == 2
            assert sub.rank == comm.rank - 1
        else:
            assert sub is None

    spmd_on(backend, 4, main)


def test_rank_outside_subcomm_raises():
    def main(comm):
        sub = comm.split(color=0 if comm.rank < 2 else -1)
        if comm.rank >= 2:
            assert sub is None
        else:
            assert sub.rank == comm.rank

    spmd(4, main)


# ---------------------------------------------------------------------------
# intercommunicators
# ---------------------------------------------------------------------------


def test_intercomm_create_and_p2p():
    def main(comm):
        half = comm.split(color=comm.rank // 2)
        # leaders are world ranks 0 and 2 (= bridge ranks 0 and 2)
        remote_leader = 2 if comm.rank < 2 else 0
        inter = half.create_intercomm(0, comm, remote_leader, tag=99)
        assert inter.size == 2 and inter.remote_size == 2
        # exchange: local rank i <-> remote rank i
        inter.send(("hello", comm.rank), dest=inter.rank, tag=5)
        (msg, src_world), st = inter.recv(source=inter.rank, tag=5)
        assert msg == "hello"
        assert st.source == inter.rank

    spmd(4, main)


def test_intercomm_merge_order():
    def main(comm):
        half = comm.split(color=comm.rank // 2)
        remote_leader = 2 if comm.rank < 2 else 0
        inter = half.create_intercomm(0, comm, remote_leader, tag=7)
        merged = inter.merge(high=(comm.rank >= 2))
        assert merged.size == 4
        # low group (world 0,1) must come first
        assert list(merged.group.members) == [0, 1, 2, 3]
        total = merged.allreduce(np.array([1]))
        assert total[0] == 4

    spmd(4, main)
