"""Tests for the data-server backend (§IX's two-sided ARMCI) and its
three-way differential agreement with the other stacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import Armci
from repro.armci_ds import DataServerArmci
from repro.armci_native import NativeArmci
from repro.ga import GlobalArray, TaskPool, dgemm, fill, sum_all, zero
from repro.mpi.errors import ArgumentError
from repro.nwchem import CcsdDriver, CcsdProblem, ring_ccd_dense

from conftest import spmd


def test_ds_put_get_acc():
    def main(comm):
        ds = DataServerArmci.init(comm)
        ptrs = ds.malloc(64)
        right = (ds.my_id + 1) % ds.nproc
        ds.put(np.arange(8.0), ptrs[right])
        ds.barrier()
        v = np.zeros(8)
        ds.get(ptrs[ds.my_id], v)
        np.testing.assert_array_equal(v, np.arange(8.0))
        ds.barrier()
        ds.acc(np.ones(8), ptrs[0], scale=0.25)
        ds.barrier()
        if ds.my_id == 0:
            ds.get(ptrs[0], v)
            np.testing.assert_array_equal(v, np.arange(8.0) + 0.25 * ds.nproc)
        ds.barrier()
        ds.free(ptrs[ds.my_id])
        ds.shutdown()

    spmd(3, main)


def test_ds_strided_and_iov():
    def main(comm):
        ds = DataServerArmci.init(comm)
        ptrs = ds.malloc(512)
        if ds.my_id == 0:
            ds.put_s(np.arange(16.0), [32], ptrs[1] + 64, [64], [32, 4])
        ds.barrier()
        if ds.my_id == 1:
            v = np.zeros(64)
            ds.get(ptrs[1], v)
            arr = v.reshape(8, 8)
            np.testing.assert_array_equal(arr[1:5, :4], np.arange(16.0).reshape(4, 4))
            out = np.zeros(16)
            ds.getv(
                [ptrs[1] + 64 + 64 * k for k in range(4)],
                out, [32 * k for k in range(4)], 32,
            )
            np.testing.assert_array_equal(out, np.arange(16.0))
        ds.barrier()
        ds.free(ptrs[ds.my_id])
        ds.shutdown()

    spmd(2, main)


def test_ds_rmw_unique():
    def main(comm):
        ds = DataServerArmci.init(comm)
        ptrs = ds.malloc(8)
        got = [ds.rmw("fetch_and_add_long", ptrs[0], 1) for _ in range(6)]
        allv = comm.allgather(got)
        flat = sorted(x for sub in allv for x in sub)
        assert flat == list(range(6 * ds.nproc))
        ds.barrier()
        ds.free(ptrs[ds.my_id])
        ds.shutdown()

    spmd(4, main)


def test_ds_server_error_propagates_to_client():
    def main(comm):
        ds = DataServerArmci.init(comm)
        ptrs = ds.malloc(16)
        from repro.armci import GlobalPtr

        with pytest.raises(ArgumentError):
            ds.get(GlobalPtr(0, 0xDEAD0000), np.zeros(1))
        ds.barrier()
        ds.free(ptrs[ds.my_id])
        ds.shutdown()

    spmd(2, main)


def test_ds_bottleneck_is_observable():
    """All clients hammer rank 0's server: its service count dominates."""

    def main(comm):
        ds = DataServerArmci.init(comm)
        ptrs = ds.malloc(64)
        for _ in range(10):
            ds.acc(np.ones(1), ptrs[0])
        ds.barrier()
        served = ds.requests_served
        if ds.my_id == 0:
            assert served[0] >= 10 * ds.nproc
            assert served[0] > max(served[1:], default=0)
        ds.barrier()
        ds.free(ptrs[ds.my_id])
        ds.shutdown()

    spmd(4, main)


def test_ga_runs_on_ds_backend():
    def main(comm):
        ds = DataServerArmci.init(comm)
        a = GlobalArray.create(ds, (8, 8), name="A")
        b = GlobalArray.create(ds, (8, 8), name="B")
        c = GlobalArray.create(ds, (8, 8), name="C")
        fill(a, 1.0)
        fill(b, 0.5)
        dgemm(1.0, a, b, 0.0, c)
        assert sum_all(c) == pytest.approx(8 * 8 * 4.0)
        pool = TaskPool(ds, 10)
        mine = list(pool.tasks())
        counts = comm.allgather(len(mine))
        assert sum(counts) == 10
        pool.destroy()
        ds.barrier()
        ds.shutdown()

    spmd(4, main)


def test_three_way_differential_ccsd():
    """The CCSD proxy produces the same energy on ALL THREE stacks."""
    problem = CcsdProblem(no=2, nv=3, tile=3, iterations=4)
    energies = {}
    for flavor in ("mpi", "native", "ds"):
        out = {}

        def main(comm, flavor=flavor, out=out):
            rt = {
                "mpi": lambda: Armci.init(comm),
                "native": lambda: NativeArmci.init(comm),
                "ds": lambda: DataServerArmci.init(comm),
            }[flavor]()
            driver = CcsdDriver(rt, problem)
            out["e"], _ = driver.solve()
            driver.destroy()
            if flavor == "ds":
                rt.shutdown()

        spmd(3, main)
        energies[flavor] = out["e"]
    e_ref, _, _ = ring_ccd_dense(problem.no, problem.nv, problem.iterations)
    for flavor, e in energies.items():
        assert e == pytest.approx(e_ref, rel=1e-10), flavor


def test_ds_modeled_cost_includes_two_message_latency():
    from repro.mpi.runtime import Runtime, current_proc
    from repro.simtime import INFINIBAND

    rt = Runtime(2)

    def main(comm):
        ds = DataServerArmci.init(comm, path=INFINIBAND.native)
        ptrs = ds.malloc(1 << 16)
        ds.barrier()
        if ds.my_id == 0:
            clock = current_proc().clock
            t0 = clock.now
            ds.get(ptrs[1], np.zeros(1 << 13), nbytes=1 << 16)
            dt = clock.now - t0
            p = INFINIBAND.native
            # two-sided request/response: strictly more than the one-sided path
            assert dt > p.xfer_time("get", 1 << 16)
            assert dt >= 2 * p.latency
        ds.barrier()
        ds.free(ptrs[ds.my_id])
        ds.shutdown()

    rt.spmd(main)


def test_data_server_is_native_with_a_server():
    """Structural guard (ROADMAP aim 2, one concept / one implementation):
    the §IX stack is the native engine with its applier run on the target's
    server thread — it defines none of the ARMCI surface itself — and GA
    reaches every runtime through the same public calls."""
    import pathlib

    import repro.ga

    assert issubclass(DataServerArmci, NativeArmci)
    surface = {
        "malloc", "free", "put", "get", "acc", "put_s", "get_s", "acc_s",
        "putv", "getv", "accv", "rmw", "_find", "_locate",
    }
    assert not surface & set(vars(DataServerArmci))
    for path in pathlib.Path(repro.ga.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "hasattr(self.runtime" not in text, path.name
        assert "runtime._locate" not in text, path.name


@pytest.mark.parametrize("stack", [NativeArmci, DataServerArmci],
                         ids=lambda s: s.__name__)
def test_ga_direct_access_on_baselines(stack):
    """GA_Access/GA_Release on both baselines: stores through the view are
    what a remote get reads, a nested access() is refused, and
    checkpoint/restore (which writes through access()) round-trips."""

    def main(comm):
        rt = stack.init(comm)
        ga = GlobalArray.create(rt, (6, 4), name="A")
        view = ga.access()
        with pytest.raises(ArgumentError):
            ga.access()
        view[...] = 10.0 * (rt.my_id + 1)
        ga.release()
        ga.sync()
        full = ga.get((0, 0), (6, 4))
        expect = np.zeros((6, 4))
        for r in range(rt.nproc):
            block = ga.distribution(r)
            expect[tuple(slice(l, h) for l, h in zip(block.lo, block.hi))] = 10.0 * (r + 1)
        np.testing.assert_array_equal(full, expect)
        back = GlobalArray.restore(rt, ga.checkpoint(), name="B")
        np.testing.assert_array_equal(back.get((0, 0), (6, 4)), expect)
        back.sync()
        back.destroy()
        ga.destroy()
        if stack is DataServerArmci:
            rt.shutdown()

    spmd(3, main)
