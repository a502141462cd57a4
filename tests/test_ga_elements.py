"""Tests for GA element-list access (gather/scatter/read_inc) and patch
collectives — the IOV-backed corners of the GA surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import Armci, ArmciConfig
from repro.armci_ds import DataServerArmci
from repro.armci_native import NativeArmci
from repro.ga import (
    GlobalArray,
    copy_patch,
    fill,
    fill_patch,
    gather,
    read_inc,
    scale_patch,
    scatter,
    scatter_acc,
    sum_all,
    zero,
)
from repro.mpi.errors import ArgumentError

from conftest import spmd


@pytest.fixture(params=["mpi", "native", "ds"])
def flavor(request):
    return request.param


def _rt(comm, flavor):
    if flavor == "mpi":
        return Armci.init(comm)
    if flavor == "ds":
        return DataServerArmci.init(comm)
    return NativeArmci.init(comm)


def test_gather_elements_across_owners(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        ref = np.arange(64.0).reshape(8, 8)
        if rt.my_id == 0:
            ga.put((0, 0), (8, 8), ref)
        ga.sync()
        subs = [(0, 0), (7, 7), (3, 4), (4, 3), (0, 7)]
        got = gather(ga, subs)
        np.testing.assert_array_equal(got, [ref[i, j] for i, j in subs])
        ga.sync()
        ga.destroy()

    spmd(4, main)


def test_scatter_then_gather_roundtrip(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (6, 6), "f8")
        zero(ga)
        if rt.my_id == 1:
            subs = [(0, 0), (5, 5), (2, 3), (3, 2)]
            scatter(ga, subs, [1.0, 2.0, 3.0, 4.0])
        ga.sync()
        got = gather(ga, [(0, 0), (5, 5), (2, 3), (3, 2), (1, 1)])
        assert got.tolist() == [1.0, 2.0, 3.0, 4.0, 0.0]
        assert sum_all(ga) == pytest.approx(10.0)
        ga.destroy()

    spmd(4, main)


def test_scatter_acc_is_atomic(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (4, 4), "f8")
        zero(ga)
        subs = [(0, 0), (3, 3)]
        scatter_acc(ga, subs, [1.0, 2.0], alpha=0.5)
        ga.sync()
        got = gather(ga, subs)
        n = rt.nproc
        assert got.tolist() == [0.5 * n, 1.0 * n]
        ga.destroy()

    spmd(4, main)


def test_scatter_duplicate_subscripts_raise():
    def main(comm):
        rt = Armci.init(comm)
        ga = GlobalArray.create(rt, (4, 4), "f8")
        with pytest.raises(ArgumentError):
            scatter(ga, [(1, 1), (1, 1)], [1.0, 2.0])
        ga.sync()
        ga.destroy()

    spmd(2, main)


def test_scatter_length_mismatch_raises():
    def main(comm):
        rt = Armci.init(comm)
        ga = GlobalArray.create(rt, (4,), "f8")
        with pytest.raises(ArgumentError):
            scatter(ga, [(0,)], [1.0, 2.0])
        ga.sync()
        ga.destroy()

    spmd(1, main)


def test_gather_empty(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (4,), "f8")
        assert gather(ga, np.zeros((0, 1), dtype=np.int64)).size == 0
        # an empty *list* has no (n, ndim) shape; still nothing to move
        scatter(ga, [], [])
        scatter_acc(ga, [], np.ones(0))
        ga.sync()
        ga.destroy()

    spmd(2, main)


def test_gather_uses_iov_machinery():
    """Element gathers on ARMCI-MPI must route through getv (IOV, §VI-A)."""

    def main(comm):
        rt = Armci.init(comm, ArmciConfig(iov_method="auto"))
        ga = GlobalArray.create(rt, (8,), "f8")
        fill(ga, 2.0)
        if rt.my_id == 0:
            gather(ga, [(0,), (1,), (6,), (7,)])
            assert rt.stats.iov_ops, "gather must go through IOV operations"
        ga.sync()
        ga.destroy()

    spmd(2, main)


def test_read_inc_unique_tickets(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (4,), "i8")
        zero(ga)
        got = [read_inc(ga, (2,)) for _ in range(5)]
        allv = comm.allgather(got)
        flat = sorted(x for sub in allv for x in sub)
        assert flat == list(range(5 * rt.nproc))
        ga.destroy()

    spmd(3, main)


def test_read_inc_requires_i8():
    def main(comm):
        rt = Armci.init(comm)
        ga = GlobalArray.create(rt, (4,), "f8")
        with pytest.raises(ArgumentError):
            read_inc(ga, (0,))
        ga.sync()
        ga.destroy()

    spmd(1, main)


# ---------------------------------------------------------------------------
# patch collectives
# ---------------------------------------------------------------------------


def test_fill_and_scale_patch(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        zero(ga)
        fill_patch(ga, (2, 2), (6, 6), 3.0)
        assert sum_all(ga) == pytest.approx(3.0 * 16)
        scale_patch(ga, (2, 2), (4, 4), 2.0)
        got = ga.get((0, 0), (8, 8))
        assert got[2:4, 2:4].sum() == pytest.approx(6.0 * 4)
        assert got[4:6, 4:6].sum() == pytest.approx(3.0 * 4)
        ga.sync()
        ga.destroy()

    spmd(4, main)


def test_copy_patch_between_arrays(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        a = GlobalArray.create(rt, (6, 6), name="a")
        b = GlobalArray.create(rt, (6, 6), name="b")
        ref = np.arange(36.0).reshape(6, 6)
        if rt.my_id == 0:
            a.put((0, 0), (6, 6), ref)
        a.sync()
        zero(b)
        copy_patch(a, (1, 1), (4, 4), b, (2, 2), (5, 5))
        got = b.get((0, 0), (6, 6))
        np.testing.assert_array_equal(got[2:5, 2:5], ref[1:4, 1:4])
        assert got.sum() == ref[1:4, 1:4].sum()
        b.destroy()
        a.destroy()

    spmd(4, main)


def test_copy_patch_shape_mismatch_raises():
    def main(comm):
        rt = Armci.init(comm)
        a = GlobalArray.create(rt, (4, 4), name="a")
        b = GlobalArray.create(rt, (4, 4), name="b")
        with pytest.raises(ArgumentError):
            copy_patch(a, (0, 0), (2, 2), b, (0, 0), (3, 3))
        a.sync()
        b.destroy()
        a.destroy()

    spmd(2, main)


def test_copy_patch_within_same_array(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 4), "f8")
        zero(ga)
        fill_patch(ga, (0, 0), (2, 4), 7.0)
        copy_patch(ga, (0, 0), (2, 4), ga, (6, 0), (8, 4))
        got = ga.get((0, 0), (8, 4))
        assert got[6:8].sum() == pytest.approx(7.0 * 8)
        assert got[2:6].sum() == 0.0
        ga.sync()
        ga.destroy()

    spmd(4, main)
