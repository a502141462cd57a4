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


# ---------------------------------------------------------------------------
# patch bounds are integers
# ---------------------------------------------------------------------------


def test_non_integer_patch_bounds_raise(flavor):
    """``int(0.9)`` is 0: a float bound used to be truncated silently (and
    would now key an owner plan).  Only integers — numpy's included — are
    patch bounds, for the plain and the periodic operations alike."""
    from repro.ga import periodic_acc, periodic_get, periodic_put

    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, (8, 8), "f8", name="A")
        ref = np.arange(64.0).reshape(8, 8)
        if rt.my_id == 0:
            ga.put((0, 0), (8, 8), ref)
        ga.sync()
        data = np.ones((2, 2))
        for lo, hi, bad in [
            ((0.9, 0.9), (2.9, 2.9), "lo=0.9"),
            ((0, 0), (2, 2.0), "hi=2.0"),
            ((0, "1"), (2, 3), "lo='1'"),
            ((0, 0), (np.float64(2), 2), "hi="),
        ]:
            for op in (
                lambda: ga.get(lo, hi),
                lambda: ga.put(lo, hi, data),
                lambda: ga.acc(lo, hi, data),
                lambda: periodic_get(ga, lo, hi),
                lambda: periodic_put(ga, lo, hi, data),
                lambda: periodic_acc(ga, lo, hi, data),
            ):
                with pytest.raises(ArgumentError, match="A: patch bound " + bad):
                    op()
        ga.sync()
        # nothing was written, and numpy integers are as good as Python's
        lo, hi = np.array([1, 2]), (np.int64(3), np.int32(4))
        np.testing.assert_array_equal(ga.get(lo, hi), ref[1:3, 2:4])
        np.testing.assert_array_equal(periodic_get(ga, lo, hi), ref[1:3, 2:4])
        np.testing.assert_array_equal(ga.get((0, 0), (8, 8)), ref)
        ga.sync()
        ga.destroy()

    spmd(2, main)


# ---------------------------------------------------------------------------
# owner plans: a patch class is decomposed once and replayed with an offset
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.armci.gmr import GlobalPtr  # noqa: E402
from repro.armci.strided import local_patch_view  # noqa: E402
from repro.bench.hotpath import owner_pieces_uncompiled  # noqa: E402
from repro.ga import BlockDistribution  # noqa: E402

#: (shape, nproc, chunk): a 2x1 and a 2x2 owner grid, and a 3-D one
PLAN_GRIDS = [((12, 10), 2, (1, 10)), ((12, 10), 4, None), ((5, 6, 7), 4, None)]

#: how the user's buffer holds a patch of ``shape``
BUFFER_LAYOUTS = {
    "contiguous": lambda shape: np.zeros(shape),
    "slice": lambda shape: np.zeros([n + 3 for n in shape])[tuple(slice(1, n + 1) for n in shape)],
    "newaxis": lambda shape: (
        np.zeros(shape[1:])[None, ...] if shape[0] == 1 else np.zeros(shape)
    ),
}


def offline_ga(dist, shape) -> GlobalArray:
    """A GlobalArray with made-up base pointers: enough to derive arguments."""
    ptrs = [GlobalPtr(r, 0x1000 + 0x100000 * r) for r in range(dist.nproc)]
    return GlobalArray(None, shape, "f8", ptrs, dist, "offline")


@st.composite
def patches(draw, shape):
    """A patch of an array of ``shape``: any in-range ``lo <= hi`` — inside
    one block or across several, touching the edges, size 1, empty."""
    lo = [draw(st.integers(0, n)) for n in shape]
    hi = [draw(st.integers(l, n)) for l, n in zip(lo, shape)]
    return Patch(tuple(lo), tuple(hi))


def same_pieces(ga, patch, layout) -> int:
    """Hold ``ga._owner_pieces`` to the pieces derived from ``dist.locate``
    for this very patch, twice (cold, then certainly warm); returns their
    number."""
    buf = BUFFER_LAYOUTS[layout](patch.shape)
    flat, buf_strides = local_patch_view(buf)
    expected = list(owner_pieces_uncompiled(ga, patch, flat, buf_strides))
    for _ in range(2):
        got = list(ga._owner_pieces(patch, flat, buf_strides))
        assert len(got) == len(expected)
        for (g_loc, *g_rest), (e_loc, *e_rest) in zip(got, expected):
            assert g_rest == e_rest  # strides, remote pointer, count
            assert g_loc.nbytes == e_loc.nbytes and np.shares_memory(g_loc, e_loc) == bool(
                e_loc.nbytes
            )
            if e_loc.nbytes:  # the same first byte of the user's buffer
                assert g_loc.ctypes.data == e_loc.ctypes.data
    return len(expected)


@pytest.mark.parametrize("shape, nproc, chunk", PLAN_GRIDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_replayed_pieces_equal_the_ones_locate_derives(shape, nproc, chunk, data):
    ga = offline_ga(BlockDistribution(shape, nproc, chunk), shape)
    for _ in range(4):  # several classes share one table, some recur
        patch = data.draw(patches(shape))
        same_pieces(ga, patch, data.draw(st.sampled_from(sorted(BUFFER_LAYOUTS))))
    assert len(ga._plans) <= 4 * len(BUFFER_LAYOUTS)


def test_one_plan_serves_every_patch_of_its_class():
    """Translating a patch inside the same blocks keeps its class: the whole
    stream below compiles three plans (inside, straddling 2, straddling 4)."""
    shape = (12, 10)
    dist = BlockDistribution(shape, 4)  # blocks of 6x5
    ga = offline_ga(dist, shape)
    inside = [Patch((r, c), (r + 2, c + 2)) for r in range(4) for c in range(3)]
    rows = [Patch((5, c), (7, c + 2)) for c in range(3)]  # cut at row 6
    four = [Patch((5, 4), (7, 6))]
    located = []
    real = dist.locate
    dist.locate = lambda patch: (located.append(patch), real(patch))[1]
    for patch in inside + rows + four + inside:
        npieces = same_pieces(ga, patch, "contiguous")
        assert npieces == (1 if patch in inside else 2 if patch in rows else 4)
    assert len(ga._plans) == 3
    # (the oracle calls locate once per same_pieces; the plan three times in all)
    assert len(located) == len(inside + rows + four + inside) + 3
    # out-of-range patches are never compiled: locate refuses them every time
    for lo, hi in [((-1, 0), (2, 2)), ((0, 0), (13, 2)), ((12, 0), (13, 0)), ((0, 11), (0, 11))]:
        for _ in range(2):
            with pytest.raises(ArgumentError, match="outside array shape"):
                list(ga._owner_pieces(Patch(lo, hi), np.zeros(0, np.uint8), [80, 8]))
    assert len(ga._plans) == 3
    # ... whereas an empty patch on the array's far edge is a class of its own
    assert list(ga._owner_pieces(Patch((12, 10), (12, 10)), np.zeros(0, np.uint8), [8, 8])) == []


@pytest.mark.parametrize("shape, nproc, chunk", PLAN_GRIDS)
def test_cold_and_warm_patch_ops_match_numpy(flavor, shape, nproc, chunk):
    """put/acc/get of random patches — each issued twice, so once through a
    fresh plan and once through its replay — against a numpy replica."""

    def main(comm):
        rt = _rt(comm, flavor)
        ga = GlobalArray.create(rt, shape, "f8", chunk=chunk)
        zero(ga)
        ref = np.zeros(shape)
        rng = np.random.default_rng(11)
        for step in range(24):
            lo = [int(rng.integers(0, n + 1)) for n in shape]
            hi = [int(rng.integers(l, n + 1)) for l, n in zip(lo, shape)]
            sl = tuple(slice(l, h) for l, h in zip(lo, hi))
            layout = sorted(BUFFER_LAYOUTS)[step % len(BUFFER_LAYOUTS)]
            buf = BUFFER_LAYOUTS[layout](ref[sl].shape)
            buf[...] = rng.integers(-9, 10, buf.shape)
            for _ in range(2):
                if rt.my_id == step % nproc:
                    if step % 2:
                        ga.put(lo, hi, buf)
                    else:
                        ga.acc(lo, hi, buf, alpha=2.0)
                if step % 2:
                    ref[sl] = buf
                else:
                    ref[sl] += 2.0 * buf
                ga.sync()
                out = BUFFER_LAYOUTS[layout](ref[sl].shape)
                assert ga.get(lo, hi, out=out) is out
                np.testing.assert_array_equal(out, ref[sl])
                ga.sync()
        np.testing.assert_array_equal(ga.get([0] * len(shape), shape), ref)
        ga.sync()
        ga.destroy()

    spmd(nproc, main)


#: the row count of every owner-straddling patch below: cut at rows 1..P-1
STRADDLE_P = 32


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
@pytest.mark.parametrize("backend", ["thread", "proc"])
@pytest.mark.parametrize(
    "shape, lo, hi",
    [
        ((2 * STRADDLE_P, 12), (0, 2), (STRADDLE_P, 9)),  # 2-D: one-row units
        ((2 * STRADDLE_P, 4, 6), (0, 1, 1), (STRADDLE_P, 4, 5)),  # 3-D: two stride levels
    ],
)
def test_every_cut_of_a_straddling_patch_matches_numpy(backend, datapath, shape, lo, hi):
    """A ``P``-row patch cut by the owner boundary at each row 1..P-1: the
    pieces' heights travel as the MPI count over one compiled op per width.
    put and acc from a slice of a wider buffer, and get into one, equal a
    numpy replay, and the buffer's bytes around the slice are untouched."""
    from repro.mpi.runtime import Runtime

    P = STRADDLE_P

    def main(comm):
        a = Armci.init(comm, datapath=datapath)
        ga = GlobalArray.create(a, shape, "f8", chunk=(1, *shape[1:]))  # 2 row blocks
        zero(ga)
        ref = np.zeros(shape)
        rng = np.random.default_rng(P)
        for cut in range(1, P):
            plo, phi = (P - cut, *lo[1:]), (2 * P - cut, *hi[1:])
            assert len(list(ga.dist.locate(Patch(plo, phi)))) == 2
            sl = tuple(slice(l, h) for l, h in zip(plo, phi))
            pshape = ref[sl].shape
            wide = np.zeros([n + 2 for n in pshape])
            inner = tuple(slice(1, n + 1) for n in pshape)
            data, more = (rng.integers(-9, 10, pshape).astype("f8") for _ in range(2))
            if a.my_id == cut % 2:
                wide[inner] = data
                ga.put(plo, phi, wide[inner])
                wide[inner] = more
                ga.acc(plo, phi, wide[inner], alpha=2.0)
            ref[sl] = data + 2.0 * more
            ga.sync()
            out = np.full([n + 2 for n in pshape], -1.0)
            ga.get(plo, phi, out=out[inner])
            np.testing.assert_array_equal(out[inner], ref[sl])
            out[inner] = -1.0
            assert (out == -1.0).all()
            ga.sync()
        np.testing.assert_array_equal(ga.get((0,) * len(shape), shape), ref)
        ga.sync()
        ga.destroy()
        a.finalize()

    # (the ambient sanitizer and injector are thread-backend only)
    Runtime(2, backend=backend, watchdog_s=10.0, apply_hooks=backend == "thread").spmd(main)


def test_a_warm_stream_derives_nothing(monkeypatch):
    """Once every patch class and strided descriptor of a stream has been
    seen, an op runs no owner decomposition, no strided translation and no
    descriptor validation — while every piece still goes through
    ``put_s/get_s/acc_s`` (the layer traces, tracers and the other ARMCI
    stacks hook) and through the per-op target resolution."""
    from repro.armci import strided
    from repro.armci.gmr import GmrTable

    counts = dict.fromkeys(
        ["locate", "strided_datatype", "StridedSpec", "put_s", "get_s", "acc_s", "require"], 0
    )

    def counting(holder, attr, name):
        real = getattr(holder, attr)

        def wrapper(*args, **kw):
            counts[name] += 1
            return real(*args, **kw)

        monkeypatch.setattr(holder, attr, wrapper)

    def stream(ga, buf):
        """Local, remote and straddling patches; returns the piece count."""
        pieces = 0
        for r, c, n in [(1, 1, 1), (9, 2, 1), (6, 3, 2), (2, 5, 1), (10, 0, 1), (7, 4, 2)]:
            ga.put((r, c), (r + 3, c + 4), buf)
            ga.acc((r, c), (r + 3, c + 4), buf)
            ga.get((r, c), (r + 3, c + 4), out=buf)
            pieces += 3 * n
        return pieces

    def main(comm):
        rt = Armci.init(comm, datapath="mpi3")
        ga = GlobalArray.create(rt, (16, 10), "f8", chunk=(1, 10))  # 2 row blocks
        zero(ga)
        if rt.my_id == 0:
            buf = np.ones((3, 4))
            stream(ga, buf)  # cold
            counting(BlockDistribution, "locate", "locate")
            counting(strided, "strided_datatype", "strided_datatype")
            counting(strided.StridedSpec, "__post_init__", "StridedSpec")
            counting(GmrTable, "require", "require")
            for name in ("put_s", "get_s", "acc_s"):
                counting(Armci, name, name)
            pieces = stream(ga, buf)  # warm
            monkeypatch.undo()
            assert pieces == 24
            assert counts == {
                "locate": 0, "strided_datatype": 0, "StridedSpec": 0,
                "put_s": 8, "get_s": 8, "acc_s": 8, "require": 24,
            }
        ga.sync()
        ga.destroy()

    strided.strided_datatype_cache_clear()
    try:
        spmd(2, main)
    finally:
        strided.strided_datatype_cache_clear()


def test_a_warm_patch_class_still_resolves_its_target_every_op():
    """Plans hold numbers, not GMRs: after ``destroy`` an op of a known
    class fails in ``GmrTable.require`` exactly as an unknown one does."""

    def main(comm):
        rt = Armci.init(comm)
        ga = GlobalArray.create(rt, (8, 8), "f8")
        zero(ga)
        buf = np.ones((2, 2))
        ga.put((5, 5), (7, 7), buf)  # rank 3's block: warm
        ga.get((5, 5), (7, 7), out=buf)
        ga.sync()
        ga.destroy()
        for op in (
            lambda: ga.put((5, 5), (7, 7), buf),
            lambda: ga.get((5, 5), (7, 7), out=buf),
            lambda: ga.acc((5, 5), (7, 7), buf),
            lambda: ga.get((1, 1), (3, 3)),  # a class never seen
        ):
            with pytest.raises(ArgumentError, match="does not fall in any registered GMR"):
                op()
        rt.finalize()

    spmd(4, main)


def test_a_traced_runtime_sees_every_warm_piece():
    """GA calls ``runtime.put_s/get_s/acc_s`` once per owner piece whether
    or not the class is warm, so the trace misses nothing."""

    def main(comm):
        rt = Armci.init(comm)
        tr = rt.trace()
        ga = GlobalArray.create(rt, (8, 8), "f8")
        zero(ga)
        ga.sync()
        if rt.my_id == 0:
            buf = np.ones((4, 4))
            before = len(tr.events)
            for _ in range(3):  # the 4-owner class: cold once, then warm
                ga.put((2, 2), (6, 6), buf)
                ga.acc((2, 2), (6, 6), buf)
                ga.get((2, 2), (6, 6), out=buf)
            ops = [e.op for e in tr.events[before:] if e.rank == 0]
            assert ops == (["put_s"] * 4 + ["acc_s"] * 4 + ["get_s"] * 4) * 3
        ga.sync()
        ga.destroy()

    spmd(4, main)
