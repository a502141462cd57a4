"""Tests for the ARMCI-MPI core: allocation, contiguous ops, consistency."""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.armci import Armci, ArmciConfig, GlobalPtr
from repro.mpi.errors import ArgumentError

from conftest import spmd


def test_malloc_returns_base_pointer_vector():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(128)
        assert len(ptrs) == a.nproc
        for r, p in enumerate(ptrs):
            assert p.rank == r
            assert not p.is_null
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(4, main)


def test_zero_size_slice_gets_null_pointer():
    def main(comm):
        a = Armci.init(comm)
        n = 64 if a.my_id != 1 else 0
        ptrs = a.malloc(n)
        assert ptrs[1].is_null
        assert not ptrs[0].is_null
        # communication with the NULL slice is erroneous
        if a.my_id == 0:
            with pytest.raises(ArgumentError):
                a.put(np.zeros(4), ptrs[1])
        a.barrier()
        a.free(None if a.my_id == 1 else ptrs[a.my_id])

    spmd(3, main)


def test_free_leader_election_with_null_members():
    """§V-B: members with NULL slices still participate in free."""

    def main(comm):
        a = Armci.init(comm)
        # only the last rank gets memory -> it becomes the free leader
        n = 32 if a.my_id == a.nproc - 1 else 0
        ptrs = a.malloc(n)
        a.barrier()
        a.free(ptrs[a.my_id] if n else None)
        assert len(a.table) == 0

    spmd(4, main)


def test_free_all_null_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)  # a real allocation to keep the table nonempty
        with pytest.raises(ArgumentError):
            a.free(None)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_put_get_roundtrip_all_pairs():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8 * a.nproc)
        me = a.my_id
        # everyone writes its id into slot `me` of every process
        for t in range(a.nproc):
            a.put(np.array([float(me)]), ptrs[t] + 8 * me)
        a.barrier()
        mine = np.zeros(a.nproc)
        a.get(ptrs[me], mine)
        assert mine.tolist() == [float(r) for r in range(a.nproc)]
        a.barrier()
        a.free(ptrs[me])

    spmd(4, main)


def test_pointer_arithmetic():
    p = GlobalPtr(3, 0x1000)
    assert (p + 16).addr == 0x1010
    assert (p + 16 - 16) == p
    assert p.rank == 3


def test_get_into_preexisting_data_overwrites_exactly():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(32)
        if a.my_id == 0:
            a.put(np.arange(4.0), ptrs[0])
        a.barrier()
        if a.my_id == 1:
            buf = np.full(6, -1.0)
            a.get(ptrs[0], buf[1:5], nbytes=32)
            assert buf.tolist() == [-1.0, 0.0, 1.0, 2.0, 3.0, -1.0]
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_accumulate_is_atomic_under_contention():
    """All ranks accumulate into one slot concurrently; sum must be exact.

    This passes only because accumulate uses MPI_SUM atomically — the
    reason GA can implement its hot accumulate path on MPI RMA at all.
    """

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        reps = 20
        for _ in range(reps):
            a.acc(np.ones(1), ptrs[0])
        a.barrier()
        if a.my_id == 0:
            v = np.zeros(1)
            a.get(ptrs[0], v)
            assert v[0] == reps * a.nproc
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(4, main)


def test_acc_scale_matches_armci_acc_dbl():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(32)
        if a.my_id == 0:
            a.put(np.array([1.0, 2.0, 3.0, 4.0]), ptrs[1])
        a.barrier()
        if a.my_id == 0:
            a.acc(np.array([10.0, 10.0, 10.0, 10.0]), ptrs[1], scale=0.5)
        a.barrier()
        if a.my_id == 1:
            v = np.zeros(4)
            a.get(ptrs[1], v)
            assert v.tolist() == [6.0, 7.0, 8.0, 9.0]
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_acc_does_not_mutate_source_buffer():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        src = np.array([2.0])
        a.acc(src, ptrs[0], scale=3.0)
        assert src[0] == 2.0
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_int_accumulate():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        a.acc(np.array([1, 2], dtype="i4"), ptrs[0])
        a.barrier()
        if a.my_id == 0:
            v = np.zeros(2, dtype="i4")
            a.get(ptrs[0], v)
            assert v.tolist() == [a.nproc, 2 * a.nproc]
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(3, main)


def test_location_consistency_own_ops_ordered():
    """§IV-A: a process observes its own ops to one target in issue order."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        if a.my_id == 1:
            for v in range(10):
                a.put(np.array([float(v)]), ptrs[0])
                out = np.zeros(1)
                a.get(ptrs[0], out)
                assert out[0] == float(v), "own writes must be ordered"
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_fence_is_noop_and_remote_completion_on_return():
    """§V-F: ops complete remotely before returning, so Fence has no work."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        if a.my_id == 0:
            a.put(np.array([4.25]), ptrs[1])
            a.fence(1)  # no-op
            comm.send("done", dest=1)
        else:
            comm.recv(source=0)
            # the put had already completed remotely WITHOUT any fence,
            # because each op closes its own exclusive epoch
            v = np.zeros(1)
            a.get(ptrs[1], v)
            assert v[0] == 4.25
        a.barrier()
        a.free(ptrs[a.my_id])
        assert a.stats.fences >= 1 or a.my_id != 0

    spmd(2, main)


def test_fence_invalid_target_raises():
    def main(comm):
        a = Armci.init(comm)
        with pytest.raises(ArgumentError):
            a.fence(99)

    spmd(2, main)


def test_nonblocking_ops():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        h1 = a.nb_put(np.array([1.5]), ptrs[0])
        a.wait(h1)
        a.barrier()
        out = np.zeros(1)
        h2 = a.nb_get(ptrs[0], out)
        a.wait_all([h2])
        assert out[0] == 1.5
        a.barrier()  # nobody may accumulate before all gets completed
        h3 = a.nb_acc(np.array([0.5]), ptrs[0])
        assert h3.test() or True
        a.wait(h3)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_multiple_allocations_translation():
    """The GMR table must route each pointer to the right window."""

    def main(comm):
        a = Armci.init(comm)
        p1 = a.malloc(16)
        p2 = a.malloc(16)
        a.put(np.array([1.0, 1.0]), p1[0])
        a.put(np.array([2.0, 2.0]), p2[0])
        a.barrier()
        if a.my_id == 0:
            v1, v2 = np.zeros(2), np.zeros(2)
            a.get(p1[0], v1)
            a.get(p2[0], v2)
            assert np.all(v1 == 1.0) and np.all(v2 == 2.0)
        a.barrier()
        a.free(p2[a.my_id])
        a.free(p1[a.my_id])
        assert len(a.table) == 0

    spmd(2, main)


def test_dangling_pointer_after_free_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        keep = ptrs[0]
        a.barrier()
        a.free(ptrs[a.my_id])
        with pytest.raises(ArgumentError):
            a.get(keep, np.zeros(2))

    spmd(2, main)


def test_out_of_allocation_pointer_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        with pytest.raises(ArgumentError):
            a.put(np.zeros(4), ptrs[0] + 16)  # starts at end: 32B overflows
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_put_larger_than_buffer_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(8)
        with pytest.raises((ArgumentError, mpi.RMARangeError)):
            a.put(np.zeros(100), ptrs[0])
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_stats_counting():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        a.put(np.zeros(8), ptrs[a.my_id])
        a.get(ptrs[a.my_id], np.zeros(8))
        a.acc(np.zeros(8), ptrs[a.my_id])
        a.barrier()
        assert a.stats.puts == a.nproc
        assert a.stats.gets == a.nproc
        assert a.stats.accs == a.nproc
        assert a.stats.bytes_put == 64 * a.nproc
        a.free(ptrs[a.my_id])

    spmd(4, main)


def test_finalize_frees_everything():
    def main(comm):
        a = Armci.init(comm)
        _first = a.malloc(16)  # deliberately left for finalize to free
        _second = a.malloc(0 if a.my_id == 0 else 8)
        a.finalize()
        assert len(a.table) == 0

    spmd(3, main)


def test_coherent_shortcut_requires_nonstrict():
    def main(comm):
        with pytest.raises(ArgumentError):
            Armci.init(comm, ArmciConfig(coherent_shortcut=True), strict=True)

    spmd(1, main)


def test_one_transfer_path_structure():
    """Structural guard (ROADMAP aim 2, one concept / one implementation):
    in the modules that move ARMCI data, MPI RMA is called on a GMR window
    only inside ``Armci._issue``, the §V-E.1 alias probe has one caller,
    and the §VIII-A gate is one function reached only from target
    resolution.  (``mutexes.py`` is exempt: its byte-vector window is not
    a GMR — no staging, no access mode.)"""
    import ast
    import pathlib

    import repro.armci

    pkg = pathlib.Path(repro.armci.__file__).parent
    assert not (pkg / "buffers.py").exists()

    calls: dict[str, list[str]] = {}  # what is called -> the scopes calling it
    gate_defs = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + [child.name]
                if child.name == "_check_mode":
                    gate_defs.append(".".join(inner))
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                attr, receiver = child.func.attr, ast.unparse(child.func.value)
                if attr in ("put", "get", "accumulate"):
                    if receiver == "win" or receiver.endswith(".win"):
                        calls.setdefault("window RMA", []).append(".".join(scope))
                elif attr in ("find_local_buffer", "_check_mode"):
                    calls.setdefault(attr, []).append(".".join(scope))
            walk(child, inner)

    for name in ("api", "iov", "nbqueue", "rmw", "dla"):
        walk(ast.parse((pkg / f"{name}.py").read_text()), [name])

    assert calls["window RMA"] == ["api.Armci._issue"] * 3  # put, get, accumulate
    assert calls["find_local_buffer"] == ["api.Armci._stage"]
    assert gate_defs == ["api.Armci._check_mode"]
    # iov._lookup is what both IOV address-array resolvers resolve through
    assert calls["_check_mode"] == ["api.Armci._target", "iov._lookup"]
