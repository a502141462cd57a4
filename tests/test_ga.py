"""Tests for the Global Arrays layer over both ARMCI runtimes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import Armci
from repro.armci_ds import DataServerArmci
from repro.armci_native import NativeArmci
from repro.ga import (
    GlobalArray,
    Patch,
    SharedCounter,
    TaskPool,
    add,
    copy,
    dgemm,
    dot,
    fill,
    norm2,
    scale,
    sum_all,
    transpose,
    zero,
)
from repro.mpi.errors import ArgumentError

from conftest import spmd


def _rt(comm, flavor):
    if flavor == "mpi":
        return Armci.init(comm)
    if flavor == "ds":
        return DataServerArmci.init(comm)
    return NativeArmci.init(comm)


@pytest.fixture(params=["mpi", "native", "ds"])
def flavor(request):
    return request.param


def test_create_and_distribution(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8", name="A")
        blocks = [ga.distribution(r) for r in range(rt.nproc)]
        # blocks tile the array exactly
        total = sum(b.size for b in blocks)
        assert total == 64
        ga.destroy()

    spmd(4, main)


def test_put_get_full_array(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        ref = np.arange(64.0).reshape(8, 8)
        if rt.my_id == 0:
            ga.put((0, 0), (8, 8), ref)
        ga.sync()
        got = ga.get((0, 0), (8, 8))
        np.testing.assert_array_equal(got, ref)
        ga.destroy()

    spmd(4, main)


def test_patch_put_get_spanning_owners(flavor):
    """Figure 2: a patch spanning 4 owners decomposes into 4 strided ops."""

    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        zero(ga)
        if rt.my_id == 3:
            patch = np.arange(16.0).reshape(4, 4)
            ga.put((2, 2), (6, 6), patch)
        ga.sync()
        got = ga.get((2, 2), (6, 6))
        np.testing.assert_array_equal(got, np.arange(16.0).reshape(4, 4))
        # the rest stayed zero
        full = ga.get((0, 0), (8, 8))
        assert full.sum() == np.arange(16.0).sum()
        ga.destroy()

    spmd(4, main)


def test_fig2_decomposition_op_counts():
    """The spanning patch issues exactly one strided op per owner (ARMCI-MPI)."""

    def main(comm):
        rt = Armci.init(comm)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        ga.sync()
        before = rt.stats.puts
        if rt.my_id == 0:
            ga.put((2, 2), (6, 6), np.ones((4, 4)))
            assert rt.stats.puts - before == 4  # 2x2 process grid -> 4 PutS
        ga.sync()
        ga.destroy()

    spmd(4, main)


def test_acc_patch(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (6, 6), "f8")
        zero(ga)
        ones = np.ones((3, 3))
        ga.acc((1, 1), (4, 4), ones, alpha=0.5)
        ga.sync()
        got = ga.get((0, 0), (6, 6))
        assert got[1:4, 1:4].sum() == pytest.approx(0.5 * 9 * rt.nproc)
        assert got.sum() == pytest.approx(0.5 * 9 * rt.nproc)
        ga.destroy()

    spmd(4, main)


def test_1d_array(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (17,), "i8")
        if rt.my_id == 1:
            ga.put((3,), (12,), np.arange(3, 12, dtype="i8"))
        ga.sync()
        got = ga.get((0,), (17,))
        assert got[3:12].tolist() == list(range(3, 12))
        ga.destroy()

    spmd(3, main)


def test_3d_array(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (4, 4, 4), "f8")
        ref = np.arange(64.0).reshape(4, 4, 4)
        if rt.my_id == 0:
            ga.put((0, 0, 0), (4, 4, 4), ref)
        ga.sync()
        got = ga.get((1, 1, 1), (3, 3, 3))
        np.testing.assert_array_equal(got, ref[1:3, 1:3, 1:3])
        ga.destroy()

    spmd(4, main)


def test_access_release(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (6, 6), "f8")
        block = ga.distribution()
        if not block.empty:
            view = ga.access()
            view[...] = float(rt.my_id)
            ga.release()
        ga.sync()
        full = ga.get((0, 0), (6, 6))
        for r in range(rt.nproc):
            b = ga.distribution(r)
            if not b.empty:
                sub = full[b.lo[0] : b.hi[0], b.lo[1] : b.hi[1]]
                assert np.all(sub == float(r))
        ga.destroy()

    spmd(4, main)


def test_release_without_access_raises(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (4, 4))
        with pytest.raises(ArgumentError):
            ga.release()
        ga.sync()
        ga.destroy()

    spmd(2, main)


def test_wrong_patch_shape_raises(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (4, 4))
        with pytest.raises(ArgumentError):
            ga.put((0, 0), (2, 2), np.ones((3, 3)))
        with pytest.raises(ArgumentError):
            ga.put((0, 0), (6, 6), np.ones((6, 6)))  # out of bounds
        ga.sync()
        ga.destroy()

    spmd(2, main)


def test_dtype_mismatch_raises(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (4,), "f8")
        with pytest.raises(ArgumentError):
            ga.put((0,), (4,), np.ones(4, dtype="f4"))
        ga.sync()
        ga.destroy()

    spmd(1, main)


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------


def test_fill_scale_sum(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (10, 10))
        fill(ga, 2.0)
        assert sum_all(ga) == pytest.approx(200.0)
        scale(ga, 0.5)
        assert sum_all(ga) == pytest.approx(100.0)
        ga.destroy()

    spmd(4, main)


def test_copy_add_dot_norm(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        a = GlobalArray.create(rt, (6, 6), name="a")
        b = GlobalArray.create(rt, (6, 6), name="b")
        c = GlobalArray.create(rt, (6, 6), name="c")
        fill(a, 1.0)
        fill(b, 2.0)
        copy(a, c)
        assert sum_all(c) == pytest.approx(36.0)
        add(2.0, a, 1.0, b, c)  # c = 2*1 + 2 = 4
        assert sum_all(c) == pytest.approx(144.0)
        assert dot(a, b) == pytest.approx(72.0)
        assert norm2(c) == pytest.approx(np.sqrt(36 * 16.0))
        for g in (c, b, a):
            g.destroy()

    spmd(4, main)


@pytest.mark.parametrize("k_tile", [0, 3])
def test_dgemm_matches_numpy(flavor, k_tile):
    def main(comm):
        rt = _rt(comm, flavor)
        rng = np.random.default_rng(5)
        m, k, n = 9, 7, 8
        A = rng.random((m, k))
        B = rng.random((k, n))
        C0 = rng.random((m, n))
        ga_a = GlobalArray.create(rt, (m, k), name="A")
        ga_b = GlobalArray.create(rt, (k, n), name="B")
        ga_c = GlobalArray.create(rt, (m, n), name="C")
        if rt.my_id == 0:
            ga_a.put((0, 0), (m, k), A)
            ga_b.put((0, 0), (k, n), B)
            ga_c.put((0, 0), (m, n), C0)
        ga_c.sync()
        dgemm(0.5, ga_a, ga_b, 2.0, ga_c, k_tile=k_tile)
        got = ga_c.get((0, 0), (m, n))
        np.testing.assert_allclose(got, 0.5 * A @ B + 2.0 * C0, rtol=1e-12)
        for g in (ga_c, ga_b, ga_a):
            g.destroy()

    spmd(4, main)


def test_transpose(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        A = np.arange(24.0).reshape(4, 6)
        ga_a = GlobalArray.create(rt, (4, 6), name="A")
        ga_b = GlobalArray.create(rt, (6, 4), name="B")
        if rt.my_id == 0:
            ga_a.put((0, 0), (4, 6), A)
        ga_a.sync()
        transpose(ga_a, ga_b)
        got = ga_b.get((0, 0), (6, 4))
        np.testing.assert_array_equal(got, A.T)
        ga_b.destroy()
        ga_a.destroy()

    spmd(4, main)


# ---------------------------------------------------------------------------
# counters / task pool
# ---------------------------------------------------------------------------


def test_shared_counter_unique_draws(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ctr = SharedCounter(rt)
        got = [ctr.next() for _ in range(6)]
        allv = comm.allgather(got)
        flat = sorted(x for sub in allv for x in sub)
        assert flat == list(range(6 * rt.nproc))
        ctr.reset(100)
        assert ctr.read() == 100
        ctr.destroy()

    spmd(3, main)


def test_task_pool_covers_all_tasks_once(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        pool = TaskPool(rt, 37)
        mine = list(pool.tasks())
        allv = comm.allgather(mine)
        flat = sorted(x for sub in allv for x in sub)
        assert flat == list(range(37))
        pool.destroy()

    spmd(4, main)


def test_task_pool_empty(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        pool = TaskPool(rt, 0)
        assert list(pool.tasks()) == []
        pool.destroy()

    spmd(2, main)


def test_duplicate_array(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        a = GlobalArray.create(rt, (5, 5), name="a")
        fill(a, 3.0)
        b = a.duplicate()
        assert b.shape == a.shape
        copy(a, b)
        assert sum_all(b) == pytest.approx(75.0)
        b.destroy()
        a.destroy()

    spmd(3, main)


# ---------------------------------------------------------------------------
# transfers address the user's buffer in place: one strided piece per owner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape, chunk, nproc",
    [
        ((12, 16), (12, 1), 2),   # column split: every piece is strided locally
        ((12, 16), None, 4),      # 2x2 grid: 4 owners
        ((6, 5, 8), None, 4),     # 3-D: non-arithmetic maps, the pack/unpack path
    ],
)
def test_put_get_acc_match_numpy_across_owner_grids(flavor, shape, chunk, nproc):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, shape, "f8", chunk=chunk)
        zero(ga)
        lo = tuple(1 for _ in shape)
        hi = tuple(s - 1 for s in shape)
        inner = tuple(slice(l, h) for l, h in zip(lo, hi))
        ref = np.zeros(shape)
        rng = np.random.default_rng(5)
        data = rng.integers(-9, 10, [h - l for l, h in zip(lo, hi)]).astype("f8")
        if rt.my_id == 0:
            assert len(list(ga.dist.locate(Patch(lo, hi)))) == nproc
            ga.put(lo, hi, data)
            ga.acc(lo, hi, data, alpha=2.0)
        ref[inner] = 3.0 * data
        ga.sync()
        np.testing.assert_array_equal(ga.get(lo, hi), ref[inner])
        np.testing.assert_array_equal(ga.get([0] * len(shape), shape), ref)
        ga.sync()
        ga.destroy()

    spmd(nproc, main)


def test_get_fills_a_strided_out_slice_in_place(flavor):
    """``out=`` a row-major slice of a larger array is written through its
    own strides — its neighbours are untouched — and is what is returned."""

    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        ref = np.arange(64.0).reshape(8, 8)
        if rt.my_id == 0:
            ga.put((0, 0), (8, 8), ref)
        ga.sync()
        big = np.full((10, 12), -1.0)
        out = big[2:8, 3:9]
        assert ga.get((1, 1), (7, 7), out=out) is out
        expect = np.full((10, 12), -1.0)
        expect[2:8, 3:9] = ref[1:7, 1:7]
        np.testing.assert_array_equal(big, expect)
        ga.sync()
        # the same slice as a put/acc source
        if rt.my_id == 0:
            ga.put((0, 0), (6, 6), out)
            ga.acc((0, 0), (6, 6), out)
        ga.sync()
        np.testing.assert_array_equal(ga.get((0, 0), (6, 6)), 2 * ref[1:7, 1:7])
        ga.sync()
        ga.destroy()

    spmd(4, main)


@pytest.mark.parametrize(
    "make_out",
    [
        lambda: np.zeros((6, 6), order="F"),   # Fortran order
        lambda: np.zeros((6, 6))[::-1],        # negative outer stride
        lambda: np.zeros((6, 12))[:, ::2],     # non-unit inner stride
        lambda: np.zeros((6, 6)).T,            # transposed view
    ],
    ids=["fortran", "negative-stride", "inner-stride-2", "transposed"],
)
def test_layouts_without_a_strided_description_go_through_one_temporary(make_out):
    def main(comm):
        rt = Armci.init(comm)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        ref = np.arange(64.0).reshape(8, 8)
        if rt.my_id == 0:
            ga.put((0, 0), (8, 8), ref)
        ga.sync()
        out = make_out()
        assert ga.get((1, 1), (7, 7), out=out) is out
        np.testing.assert_array_equal(out, ref[1:7, 1:7])
        ga.sync()
        if rt.my_id == 1:  # and as a source
            src = make_out()
            src[...] = ref[:6, :6] + 100
            ga.put((2, 2), (8, 8), src)
        ga.sync()
        np.testing.assert_array_equal(ga.get((2, 2), (8, 8)), ref[:6, :6] + 100)
        ga.sync()
        ga.destroy()

    spmd(4, main)


@pytest.mark.parametrize(
    "lo, hi, view",
    [
        ((3, 0), (4, 8), lambda x: x[None, :]),               # strides (0, 8)
        ((0, 3), (8, 4), lambda x: x[:, None]),               # strides (8, 0)
        ((3, 0), (4, 8), np.atleast_2d),
        ((0, 3), (8, 4), lambda x: x.reshape(1, 8).T),        # strides (8, 64)
        ((0, 3), (8, 4), lambda x: np.stack([x, x], 1)[:, 0:1]),  # strides (16, 8)
    ],
    ids=["newaxis-row", "newaxis-col", "atleast_2d", "transposed-row", "sliced-col"],
)
def test_unit_dimensions_with_any_stride_are_addressed_in_place(flavor, lo, hi, view):
    """A size-1 dimension's stride is never stepped, so numpy stores whatever
    it likes there; such buffers are still C-contiguous and take no copy."""

    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        zero(ga)
        vals = np.arange(1.0, 9.0)
        if rt.my_id == 0:
            assert len(list(ga.dist.locate(Patch(lo, hi)))) == 2
            ga.put(lo, hi, view(vals))
            ga.acc(lo, hi, view(vals), alpha=2.0)
        ga.sync()
        line = np.zeros(8)
        out = view(line)
        assert ga.get(lo, hi, out=out) is out
        np.testing.assert_array_equal(out, view(3 * vals))
        if np.shares_memory(out, line):  # written through, not into a temporary
            np.testing.assert_array_equal(line, 3 * vals)
        ga.sync()
        ga.destroy()

    spmd(4, main)


def test_empty_patches_move_nothing(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        zero(ga)
        for lo, hi in [((0, 0), (0, 4)), ((2, 2), (2, 2)), ((0, 0), (4, 0))]:
            got = ga.get(lo, hi)
            assert got.shape == tuple(h - l for l, h in zip(lo, hi))
            ga.put(lo, hi, got)
            ga.acc(lo, hi, np.zeros((8, 16))[: got.shape[0], : 2 * got.shape[1] : 2])
        ga.sync()
        assert not ga.get((0, 0), (8, 8)).any()
        ga.sync()
        ga.destroy()

    spmd(4, main)


def test_get_into_a_read_only_out_raises(flavor):
    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        zero(ga)
        out = np.ones((4, 4))
        out.flags.writeable = False
        with pytest.raises(ArgumentError, match="writable"):
            ga.get((0, 0), (4, 4), out=out)
        assert out.all()
        ga.put((0, 0), (4, 4), out)  # a read-only *source* is fine
        ga.sync()
        ga.destroy()

    spmd(2, main)


def test_straddling_get_moves_the_payload_once(request):
    """One copy, provably: a 512x512 get across two owners allocates nothing
    payload-sized (no staged payload, no per-owner ``sub`` array) and the
    datatype engine never packs it."""
    import tracemalloc

    if request.config.getoption("--faults"):
        pytest.skip("an installed fault injector is handed the packed payload")

    from repro.mpi import datatypes as dt

    def main(comm):
        rt = Armci.init(comm, datapath="mpi3")
        ga = GlobalArray.create(rt, (2048, 2048), "f8")
        ga.sync()
        if rt.my_id == 0:
            band = np.arange(2048.0 * 512).reshape(2048, 512)
            ga.put((0, 0), (2048, 512), band)
            out = np.empty((512, 512))
            ga.get((700, 0), (1212, 512), out=out)  # warm the translation memo
            packs = []
            real = dt.SegmentMap.gather
            dt.SegmentMap.gather = lambda self, *a, **kw: (packs.append(1), real(self, *a, **kw))[1]
            tracemalloc.start()
            try:
                ga.get((800, 0), (1312, 512), out=out)  # rows 800..1311: both owners
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                dt.SegmentMap.gather = real
            np.testing.assert_array_equal(out, band[800:1312])
            assert peak < 0.25 * out.nbytes, f"{peak} bytes allocated for a {out.nbytes}-byte get"
            assert not packs
        ga.sync()
        ga.destroy()

    spmd(2, main)


def test_wrapped_periodic_get_fills_out_in_place(request):
    """A periodic get addresses each wrapped piece's slice of ``out``
    directly: nothing payload-sized is allocated beyond ``out`` itself."""
    import tracemalloc

    from repro.ga import periodic_get

    if request.config.getoption("--faults"):
        pytest.skip("an installed fault injector is handed the packed payload")

    def main(comm):
        rt = Armci.init(comm, datapath="mpi3")
        ga = GlobalArray.create(rt, (512, 512), "f8")
        ga.sync()
        if rt.my_id == 0:
            full = np.arange(512.0 * 512).reshape(512, 512)
            ga.put((0, 0), (512, 512), full)
            out = np.empty((256, 256))
            periodic_get(ga, (-100, -100), (156, 156), out=out)  # warm the memos
            out[:] = 0
            tracemalloc.start()
            try:
                periodic_get(ga, (-100, -100), (156, 156), out=out)  # 4 pieces
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            idx = np.arange(-100, 156) % 512
            np.testing.assert_array_equal(out, full[np.ix_(idx, idx)])
            assert peak < 0.25 * out.nbytes, f"{peak} bytes allocated for a {out.nbytes}-byte get"
        ga.sync()
        ga.destroy()

    spmd(2, main)
