"""Tests for irregular (user-specified) distributions — NGA_Create_irreg."""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import Armci
from repro.armci_native import NativeArmci
from repro.ga import (
    GlobalArray,
    IrregularDistribution,
    Patch,
    create_irregular,
    fill,
    sum_all,
)
from repro.mpi.errors import ArgumentError

from conftest import spmd


def test_boundaries_define_blocks():
    d = IrregularDistribution((10, 8), 4, [[0, 7], [0, 2]])
    assert d.dims == [2, 2]
    assert d.block(0) == Patch((0, 0), (7, 2))
    assert d.block(1) == Patch((0, 2), (7, 8))
    assert d.block(2) == Patch((7, 0), (10, 2))
    assert d.block(3) == Patch((7, 2), (10, 8))


def test_owner_respects_boundaries():
    d = IrregularDistribution((10,), 3, [[0, 3, 4]])
    assert d.owner((0,)) == 0
    assert d.owner((2,)) == 0
    assert d.owner((3,)) == 1
    assert d.owner((4,)) == 2
    assert d.owner((9,)) == 2


def test_surplus_processes_get_empty_blocks():
    d = IrregularDistribution((10,), 5, [[0, 5]])
    assert d.block(4).empty
    assert d.block(1).size == 5


def test_locate_spanning_patch():
    d = IrregularDistribution((10,), 2, [[0, 6]])
    pieces = list(d.locate(Patch((4,), (9,))))
    assert [(p.rank, p.global_patch.lo, p.global_patch.hi) for p in pieces] == [
        (0, (4,), (6,)),
        (1, (6,), (9,)),
    ]


def test_validation_errors():
    with pytest.raises(ArgumentError):
        IrregularDistribution((10,), 4, [[1, 5]])  # must start at 0
    with pytest.raises(ArgumentError):
        IrregularDistribution((10,), 4, [[0, 5, 5]])  # must increase
    with pytest.raises(ArgumentError):
        IrregularDistribution((10,), 4, [[0, 10]])  # boundary outside
    with pytest.raises(ArgumentError):
        IrregularDistribution((10,), 1, [[0, 5]])  # grid needs 2 procs
    with pytest.raises(ArgumentError):
        IrregularDistribution((10, 10), 4, [[0]])  # one list per dim


@pytest.mark.parametrize("flavor", ["mpi", "native"])
def test_irregular_global_array_roundtrip(flavor):
    def main(comm):
        rt = Armci.init(comm) if flavor == "mpi" else NativeArmci.init(comm)
        # tile-aligned boundaries: rows split 5/3, cols split 2/6
        ga = create_irregular(rt, (8, 8), [[0, 5], [0, 2]], name="irreg")
        assert isinstance(ga.dist, IrregularDistribution)
        ref = np.arange(64.0).reshape(8, 8)
        if rt.my_id == 0:
            ga.put((0, 0), (8, 8), ref)
        ga.sync()
        got = ga.get((1, 1), (7, 7))
        np.testing.assert_array_equal(got, ref[1:7, 1:7])
        ga.sync()  # all reads must finish before fill rewrites the array
        # owner-computes works with uneven blocks too
        fill(ga, 1.0)
        assert sum_all(ga) == pytest.approx(64.0)
        ga.destroy()

    spmd(4, main)


def test_irregular_matches_regular_results():
    """Same data, different distributions — identical logical contents."""

    def run(irregular: bool):
        out = {}

        def main(comm):
            rt = Armci.init(comm)
            if irregular:
                ga = create_irregular(rt, (9, 4), [[0, 2, 7], [0]], name="i")
            else:
                ga = GlobalArray.create(rt, (9, 4), "f8", name="r")
            if rt.my_id == 1:
                ga.put((0, 0), (9, 4), np.arange(36.0).reshape(9, 4))
            ga.sync()
            out["full"] = ga.get((0, 0), (9, 4))
            ga.sync()
            ga.destroy()

        spmd(3, main)
        return out["full"]

    np.testing.assert_array_equal(run(True), run(False))


# ---------------------------------------------------------------------------
# locate(): the tabulated/bisect form equals the recursive-generator oracle
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.ga import BlockDistribution, OwnedPiece, block_bounds  # noqa: E402


def _locate_oracle(dist, patch, marks=None):
    """``BlockDistribution.locate`` as it was before the block table: a
    recursive walk of the grid coordinates whose blocks meet the patch,
    with every block recomputed from first principles."""
    if patch.empty:
        return

    def block(coords):
        if marks is not None:  # an irregular grid: explicit block starts
            lo = [m[c] for m, c in zip(marks, coords)]
            hi = [m[c + 1] if c + 1 < len(m) else ext
                  for m, c, ext in zip(marks, coords, dist.shape)]
        else:
            lo, hi = zip(*(block_bounds(ext, nb, c)
                           for ext, nb, c in zip(dist.shape, dist.dims, coords)))
        return Patch(tuple(lo), tuple(hi))

    def rec(d, coords):
        if d == len(dist.dims):
            b = block(coords)
            piece = patch.intersect(b)
            if not piece.empty:
                yield OwnedPiece(
                    rank=dist.rank_of_coords(coords),
                    global_patch=piece,
                    local_patch=piece.shifted_into(b.lo),
                    request_patch=piece.shifted_into(patch.lo),
                )
            return
        for c in range(dist.dims[d]):
            yield from rec(d + 1, coords + [c])

    yield from rec(0, [])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_locate_matches_the_recursive_oracle(data):
    """Identical pieces in identical order, for regular grids (uneven
    splits, idle ranks, extents smaller than the grid) and irregular ones."""
    shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    nproc = data.draw(st.integers(1, 8))
    marks = None
    if data.draw(st.booleans()):
        dist = BlockDistribution(shape, nproc)
    else:
        marks, grid = [], 1
        for ext in shape:
            cuts = data.draw(st.lists(st.integers(1, max(ext - 1, 1)), max_size=2, unique=True))
            m = [0] + sorted(c for c in cuts if c < ext)
            if grid * len(m) > nproc:
                m = [0]
            grid *= len(m)
            marks.append(m)
        dist = IrregularDistribution(shape, nproc, marks)
    lo = [data.draw(st.integers(0, s)) for s in shape]
    hi = [data.draw(st.integers(l, s)) for l, s in zip(lo, shape)]
    patch = Patch(tuple(lo), tuple(hi))
    assert list(dist.locate(patch)) == list(_locate_oracle(dist, patch, marks))
    for rank in range(nproc):
        coords = dist.grid_coords(rank)
        assert dist.block(rank).empty if coords is None else (
            dist.owner(dist.block(rank).lo) == rank or dist.block(rank).empty)


# ---------------------------------------------------------------------------
# owner plans over explicit boundaries (see test_ga.py for the regular grids)
# ---------------------------------------------------------------------------

from test_ga import BUFFER_LAYOUTS, offline_ga, patches, same_pieces  # noqa: E402

#: uneven 3x2 blocks: rows cut at 2 and 7, columns at 3
IRREG_SHAPE, IRREG_MARKS = (9, 8), [[0, 2, 7], [0, 3]]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_replayed_pieces_equal_the_ones_locate_derives_irregular(data):
    """A plan's key is the block *indices* and cut positions, not block
    sizes: uneven blocks (and the idle seventh rank) replay exactly."""
    dist = IrregularDistribution(IRREG_SHAPE, 7, IRREG_MARKS)
    ga = offline_ga(dist, IRREG_SHAPE)
    for _ in range(4):
        patch = data.draw(patches(IRREG_SHAPE))
        same_pieces(ga, patch, data.draw(st.sampled_from(sorted(BUFFER_LAYOUTS))))


def test_equal_shapes_in_unequal_blocks_are_distinct_classes():
    """Two 2x2 patches, each inside one block, are *not* one class when
    their blocks differ: the owner and its row pitch are part of the plan."""
    dist = IrregularDistribution(IRREG_SHAPE, 6, IRREG_MARKS)
    ga = offline_ga(dist, IRREG_SHAPE)
    for lo in [(0, 0), (3, 0), (4, 1), (3, 4), (7, 5)]:
        assert same_pieces(ga, Patch(lo, (lo[0] + 2, lo[1] + 2)), "contiguous") == 1
    assert len(ga._plans) == 4  # (3,0) and (4,1) share block 2's plan


@pytest.mark.parametrize("flavor", ["mpi", "native", "ds"])
def test_irregular_cold_and_warm_patch_ops_match_numpy(flavor):
    from repro.armci_ds import DataServerArmci

    init = {"mpi": Armci.init, "native": NativeArmci.init, "ds": DataServerArmci.init}[flavor]

    def main(comm):
        rt = init(comm)
        ga = create_irregular(rt, IRREG_SHAPE, IRREG_MARKS)
        fill(ga, 0.0)
        ref = np.zeros(IRREG_SHAPE)
        rng = np.random.default_rng(3)
        for step in range(20):
            lo = [int(rng.integers(0, n + 1)) for n in IRREG_SHAPE]
            hi = [int(rng.integers(l, n + 1)) for l, n in zip(lo, IRREG_SHAPE)]
            sl = tuple(slice(l, h) for l, h in zip(lo, hi))
            buf = rng.integers(-9, 10, ref[sl].shape).astype("f8")
            for _ in range(2):  # through a fresh plan, then through its replay
                if rt.my_id == step % rt.nproc:
                    ga.acc(lo, hi, buf, alpha=-1.0) if step % 2 else ga.put(lo, hi, buf)
                ref[sl] = ref[sl] - buf if step % 2 else buf
                ga.sync()
                np.testing.assert_array_equal(ga.get(lo, hi), ref[sl])
                ga.sync()
        np.testing.assert_array_equal(ga.get((0, 0), IRREG_SHAPE), ref)
        ga.sync()
        ga.destroy()

    spmd(6, main)
