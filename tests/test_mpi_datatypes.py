"""Unit and property tests for the MPI derived-datatype engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.hotpath import pack_reference, unpack_reference
from repro.mpi import datatypes as dt
from repro.mpi.errors import ArgumentError, DatatypeError


# ---------------------------------------------------------------------------
# predefined types
# ---------------------------------------------------------------------------


def test_predefined_sizes():
    assert dt.BYTE.size == 1
    assert dt.INT.size == 4
    assert dt.LONG.size == 8
    assert dt.FLOAT.size == 4
    assert dt.DOUBLE.size == 8


def test_predefined_are_committed():
    assert dt.DOUBLE.committed
    assert dt.DOUBLE.is_predefined
    sm = dt.DOUBLE.segment_map()
    assert sm.nsegments == 1
    assert sm.total_bytes == 8


def test_from_numpy_dtype_roundtrip():
    assert dt.from_numpy_dtype("f8") is dt.DOUBLE
    assert dt.from_numpy_dtype(np.int32) is dt.INT
    with pytest.raises(DatatypeError):
        dt.from_numpy_dtype("c16")


def test_predefined_replication_coalesces():
    sm = dt.DOUBLE.segment_map(count=10)
    assert sm.nsegments == 1
    assert sm.total_bytes == 80


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_contiguous():
    t = dt.contiguous(5, dt.INT).commit()
    assert t.size == 20
    assert t.extent == 20
    sm = t.segment_map()
    assert sm.nsegments == 1


def test_uncommitted_derived_type_raises():
    t = dt.contiguous(5, dt.INT)
    with pytest.raises(DatatypeError):
        t.segment_map()


def test_free_resets_commit():
    t = dt.contiguous(5, dt.INT).commit()
    t.free()
    with pytest.raises(DatatypeError):
        t.segment_map()
    t.commit()
    assert t.segment_map().total_bytes == 20


def test_vector_layout():
    # 3 blocks of 2 ints, stride 4 ints
    t = dt.vector(3, 2, 4, dt.INT).commit()
    sm = t.segment_map()
    assert sm.nsegments == 3
    assert sm.offsets.tolist() == [0, 16, 32]
    assert sm.lengths.tolist() == [8, 8, 8]
    assert t.size == 24
    assert t.extent == 2 * 16 + 8


def test_vector_stride_equals_blocklength_coalesces():
    t = dt.vector(4, 3, 3, dt.DOUBLE).commit()
    sm = t.segment_map()
    assert sm.nsegments == 1
    assert sm.total_bytes == 96


def test_hvector_byte_stride():
    t = dt.hvector(2, 1, 10, dt.INT).commit()
    sm = t.segment_map()
    assert sm.offsets.tolist() == [0, 10]


def test_indexed_layout():
    t = dt.indexed([2, 1], [0, 5], dt.INT).commit()
    sm = t.segment_map()
    assert sm.offsets.tolist() == [0, 20]
    assert sm.lengths.tolist() == [8, 4]
    assert t.size == 12


def test_indexed_block():
    t = dt.indexed_block(2, [0, 4, 8], dt.INT).commit()
    sm = t.segment_map()
    assert sm.nsegments == 3
    assert all(l == 8 for l in sm.lengths.tolist())


def test_indexed_mismatched_args_raise():
    with pytest.raises(ArgumentError):
        dt.indexed([1, 2], [0], dt.INT)


def test_indexed_zero_blocks():
    t = dt.indexed([], [], dt.INT).commit()
    assert t.size == 0
    assert t.segment_map().nsegments == 0


def test_subarray_2d():
    # 4x6 array of doubles, take the 2x3 patch at (1, 2)
    t = dt.subarray([4, 6], [2, 3], [1, 2], dt.DOUBLE).commit()
    sm = t.segment_map()
    assert t.size == 6 * 8
    assert sm.nsegments == 2  # two rows of 3 doubles
    assert sm.offsets.tolist() == [(1 * 6 + 2) * 8, (2 * 6 + 2) * 8]
    assert sm.lengths.tolist() == [24, 24]


def test_subarray_full_width_coalesces():
    # patch spans full fastest dimension AND rows are adjacent
    t = dt.subarray([4, 6], [2, 6], [1, 0], dt.DOUBLE).commit()
    assert t.segment_map().nsegments == 1


def test_subarray_3d_matches_numpy():
    sizes, subsizes, starts = [3, 4, 5], [2, 2, 3], [1, 1, 1]
    t = dt.subarray(sizes, subsizes, starts, dt.INT).commit()
    arr = np.arange(np.prod(sizes), dtype="i4").reshape(sizes)
    packed = t.pack(arr.reshape(-1).view(np.uint8)).view("i4")
    expected = arr[1:3, 1:3, 1:4].reshape(-1)
    np.testing.assert_array_equal(packed, expected)


def test_subarray_out_of_bounds_raises():
    with pytest.raises(ArgumentError):
        dt.subarray([4, 4], [2, 2], [3, 0], dt.INT)


def test_subarray_1d():
    t = dt.subarray([10], [4], [3], dt.DOUBLE).commit()
    sm = t.segment_map()
    assert sm.offsets.tolist() == [24]
    assert sm.lengths.tolist() == [32]


def test_nested_types():
    inner = dt.vector(2, 1, 2, dt.INT).commit()
    outer = dt.contiguous(3, inner).commit()
    assert outer.size == 3 * inner.size
    sm = outer.segment_map()
    assert sm.total_bytes == outer.size


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------


def test_pack_unpack_roundtrip_indexed():
    buf = np.arange(32, dtype="i4")
    t = dt.indexed([3, 2, 1], [0, 8, 20], dt.INT).commit()
    packed = t.pack(buf.view(np.uint8)).view("i4")
    np.testing.assert_array_equal(packed, [0, 1, 2, 8, 9, 20])
    dest = np.zeros(32, dtype="i4")
    t.unpack(dest.view(np.uint8), packed.view(np.uint8))
    assert dest[0:3].tolist() == [0, 1, 2]
    assert dest[8:10].tolist() == [8, 9]
    assert dest[20] == 20
    assert dest[3] == 0  # untouched gaps


def test_pack_out_of_bounds_raises():
    buf = np.zeros(4, dtype="i4")
    t = dt.indexed([1], [10], dt.INT).commit()
    with pytest.raises(ArgumentError):
        t.pack(buf.view(np.uint8))


def test_unpack_wrong_length_raises():
    buf = np.zeros(16, dtype=np.uint8)
    t = dt.contiguous(2, dt.INT).commit()
    with pytest.raises(ArgumentError):
        t.unpack(buf, np.zeros(3, dtype=np.uint8))


# ---------------------------------------------------------------------------
# SegmentMap behaviour
# ---------------------------------------------------------------------------


def test_segment_map_shift():
    sm = dt.SegmentMap(np.array([0, 16]), np.array([8, 8])).shifted(100)
    assert sm.offsets.tolist() == [100, 116]


def test_segment_map_overlap_detection():
    sm = dt.SegmentMap(np.array([0, 4]), np.array([8, 8]))
    assert sm.overlaps_self()
    sm2 = dt.SegmentMap(np.array([0, 8]), np.array([8, 8]))
    assert not sm2.overlaps_self()


def test_segment_map_rejects_bad_shape():
    with pytest.raises(ArgumentError):
        dt.SegmentMap(np.array([[0]]), np.array([[1]]))


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    data=st.data(),
)
def test_subarray_pack_always_matches_numpy_slicing(sizes, data):
    """For any n-D patch, datatype packing equals NumPy fancy slicing."""
    subsizes, starts = [], []
    for s in sizes:
        ss = data.draw(st.integers(1, s))
        subsizes.append(ss)
        starts.append(data.draw(st.integers(0, s - ss)))
    t = dt.subarray(sizes, subsizes, starts, dt.INT).commit()
    arr = np.arange(np.prod(sizes), dtype="i4").reshape(sizes)
    packed = t.pack(arr.reshape(-1).view(np.uint8)).view("i4")
    slices = tuple(slice(st_, st_ + ss) for st_, ss in zip(starts, subsizes))
    np.testing.assert_array_equal(packed, arr[slices].reshape(-1))


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 40)), min_size=0, max_size=8
    )
)
def test_indexed_size_and_roundtrip(blocks):
    """indexed type size == sum of blocks; pack→unpack is identity on
    covered elements when displacements do not overlap."""
    # lay blocks out without overlap: displacements strictly increasing
    # with enough room for each block
    disps, cursor = [], 0
    for bl, gap in blocks:
        cursor += gap
        disps.append(cursor)
        cursor += bl
    bls = [bl for bl, _ in blocks]
    t = dt.indexed(bls, disps, dt.INT).commit()
    assert t.size == sum(bls) * 4
    n = max(cursor, 1)
    buf = np.arange(n, dtype="i4")
    packed = t.pack(buf.view(np.uint8))
    out = np.full(n, -1, dtype="i4")
    t.unpack(out.view(np.uint8), packed)
    for bl, d in zip(bls, disps):
        np.testing.assert_array_equal(out[d : d + bl], buf[d : d + bl])


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(0, 5),
    blocklength=st.integers(0, 4),
    stride=st.integers(0, 8),
)
def test_vector_size_invariant(count, blocklength, stride):
    t = dt.vector(count, blocklength, max(stride, blocklength), dt.DOUBLE).commit()
    assert t.size == count * blocklength * 8
    assert t.segment_map().total_bytes == t.size


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 50)), max_size=20))
def test_coalesced_preserves_bytes(pairs):
    offs = np.array([p[0] for p in pairs], dtype=np.int64)
    lens = np.array([p[1] for p in pairs], dtype=np.int64)
    sm = dt.SegmentMap(offs, lens)
    co = sm.coalesced()
    assert co.total_bytes == sm.total_bytes
    assert co.nsegments <= max(sm.nsegments, 1)


# ---------------------------------------------------------------------------
# struct types
# ---------------------------------------------------------------------------


def test_struct_homogeneous():
    t = dt.struct_type([2, 1], [0, 16], [dt.INT, dt.INT]).commit()
    assert t.size == 12
    assert t.base == np.dtype("i4")
    sm = t.segment_map()
    assert sm.offsets.tolist() == [0, 16]
    assert sm.lengths.tolist() == [8, 4]


def test_struct_heterogeneous_pack():
    # an {int32, double} record at displacements 0 and 8
    t = dt.struct_type([1, 1], [0, 8], [dt.INT, dt.DOUBLE]).commit()
    assert t.size == 12
    assert t.extent == 16
    rec = np.zeros(16, dtype=np.uint8)
    rec[:4] = np.array([7], dtype="i4").view(np.uint8)
    rec[8:16] = np.array([2.5], dtype="f8").view(np.uint8)
    packed = t.pack(rec)
    assert packed[:4].view("i4")[0] == 7
    assert packed[4:12].view("f8")[0] == 2.5


def test_struct_heterogeneous_has_no_base():
    t = dt.struct_type([1, 1], [0, 8], [dt.INT, dt.DOUBLE]).commit()
    assert t.base.itemsize == 0  # no uniform predefined leaf


def test_struct_arg_validation():
    with pytest.raises(ArgumentError):
        dt.struct_type([1], [0, 8], [dt.INT])
    with pytest.raises(ArgumentError):
        dt.struct_type([-1], [0], [dt.INT])


def test_struct_empty():
    t = dt.struct_type([], [], []).commit()
    assert t.size == 0 and t.segment_map().nsegments == 0


def test_struct_replication_uses_extent():
    t = dt.struct_type([1], [0], [dt.INT])
    # widen the extent by placing the block at displacement 4
    t2 = dt.struct_type([1], [4], [dt.INT]).commit()
    sm = t2.segment_map(count=2)
    assert sm.offsets.tolist() == [4, 12]


def test_struct_nested_in_contiguous():
    inner = dt.struct_type([1, 1], [0, 8], [dt.INT, dt.INT]).commit()
    outer = dt.contiguous(3, inner).commit()
    assert outer.size == 3 * 8
    assert outer.segment_map().total_bytes == 24


# ---------------------------------------------------------------------------
# vectorized pack/unpack vs the retained naive reference
# ---------------------------------------------------------------------------


def _reference_equivalence(t: dt.Datatype, count: int, seed: int) -> None:
    """Assert vectorized pack/unpack are byte-identical to the reference."""
    t.commit()
    segmap = t.segment_map(count)
    lo, hi = segmap.bounds()
    assert lo >= 0
    rng = np.random.default_rng(seed)
    buf = rng.integers(0, 256, size=max(hi, 1), dtype=np.uint8)
    # pack: gather out of a scrambled buffer
    np.testing.assert_array_equal(
        t.pack(buf, count), pack_reference(t, buf, count)
    )
    # unpack: scatter random wire bytes into two identically-scrambled
    # buffers; the whole buffer must match, including untouched gaps and
    # traversal-order overwrites of overlapping segments
    data = rng.integers(0, 256, size=segmap.total_bytes, dtype=np.uint8)
    out_vec = buf.copy()
    out_ref = buf.copy()
    t.unpack(out_vec, data, count)
    unpack_reference(t, out_ref, data, count)
    np.testing.assert_array_equal(out_vec, out_ref)


@settings(max_examples=80, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 60)), min_size=0, max_size=10
    ),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
def test_hindexed_pack_unpack_matches_reference(blocks, count, seed):
    """Arbitrary byte displacements: overlapping and zero-length segments
    included (displacements are unconstrained, blocklengths may be 0)."""
    bls = [b for b, _ in blocks]
    disps = [d for _, d in blocks]
    t = dt.hindexed(bls, disps, dt.INT)
    _reference_equivalence(t, count, seed)


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(0, 6),
    blocklength=st.integers(0, 5),
    stride=st.integers(0, 12),
    reps=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
def test_vector_pack_unpack_matches_reference(count, blocklength, stride, reps, seed):
    """Vector types — including stride < blocklength, where successive
    blocks overlap and unpack order matters."""
    t = dt.vector(count, blocklength, stride, dt.SHORT)
    _reference_equivalence(t, reps, seed)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    data=st.data(),
    seed=st.integers(0, 2**31),
)
def test_subarray_pack_unpack_matches_reference(sizes, data, seed):
    subsizes, starts = [], []
    for s in sizes:
        ss = data.draw(st.integers(0, s))
        subsizes.append(ss)
        starts.append(data.draw(st.integers(0, s - ss)))
    t = dt.subarray(sizes, subsizes, starts, dt.DOUBLE)
    _reference_equivalence(t, data.draw(st.integers(1, 2)), seed)


def test_uniform_arithmetic_gather_scatter_fast_path():
    """The strided-view fast path: equally spaced uniform segments."""
    t = dt.hindexed([8] * 100, [i * 32 for i in range(100)], dt.BYTE).commit()
    sm = t.segment_map()
    assert sm.uniform_seg_len == 8
    buf = (np.arange(100 * 32, dtype=np.int64) % 256).astype(np.uint8)
    np.testing.assert_array_equal(t.pack(buf), pack_reference(t, buf))
    data = np.arange(800, dtype=np.int64).astype(np.uint8)
    a, b = buf.copy(), buf.copy()
    t.unpack(a, data)
    unpack_reference(t, b, data)
    np.testing.assert_array_equal(a, b)


def test_overlapping_arithmetic_unpack_preserves_traversal_order():
    """step < segment length: the strided store is illegal, scatter must
    fall back to traversal-order writes (later segments win)."""
    t = dt.hindexed([8] * 10, [i * 4 for i in range(10)], dt.BYTE).commit()
    sm = t.segment_map()
    assert sm.overlaps_self()
    buf_vec = np.zeros(64, dtype=np.uint8)
    buf_ref = np.zeros(64, dtype=np.uint8)
    data = np.arange(80, dtype=np.int64).astype(np.uint8)
    t.unpack(buf_vec, data)
    unpack_reference(t, buf_ref, data)
    np.testing.assert_array_equal(buf_vec, buf_ref)


def test_zero_copy_single_segment_pack():
    t = dt.contiguous(16, dt.BYTE).commit()
    buf = np.arange(16, dtype=np.uint8)
    view = t.pack(buf, copy=False)
    assert view.base is not None and np.shares_memory(view, buf)
    copied = t.pack(buf)  # default stays a fresh array
    assert not np.shares_memory(copied, buf)


# ---------------------------------------------------------------------------
# SegmentMap.arithmetic: the closed form of a uniform progression
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    start=st.integers(0, 40),
    step=st.integers(-3, 12),
    seg_len=st.integers(0, 8),
    n=st.integers(0, 6),
    shift=st.integers(0, 9),
)
def test_arithmetic_map_equals_the_coalesced_array_form(start, step, seg_len, n, shift):
    """Four integers answer everything the per-segment arrays do — same
    segments, same memos — for every progression, degenerate ones (empty,
    zero-length, back-to-back, descending, self-overlapping) included."""
    offsets = start + step * np.arange(n)
    if n and offsets.min() < 0:
        return
    closed = dt.SegmentMap.arithmetic(start, step, seg_len, n)
    arrays = dt.SegmentMap(offsets, np.full(n, seg_len)).coalesced()
    for a, b in ((closed, arrays), (closed.shifted(shift), arrays.shifted(shift))):
        assert (a.nsegments, a.total_bytes, a.uniform_seg_len) == (
            b.nsegments, b.total_bytes, b.uniform_seg_len)
        assert a.overlaps_self() == b.overlaps_self()
        assert a._arith_params() == b._arith_params()
        if a.nsegments:
            assert a.bounds() == b.bounds()
        assert list(a.intervals()) == list(b.intervals())
    buf = (np.arange(120) % 251).astype(np.uint8)
    assert closed.gather(buf).tobytes() == arrays.gather(buf).tobytes()


def test_closed_form_types_build_no_arrays(monkeypatch):
    """contiguous, vector and the 2-D subarray flatten and shift — and a
    one-segment type replicates — without ever materialising
    ``offsets``/``lengths``."""
    def boom(self, name):
        raise AssertionError(f"materialised {name}")

    monkeypatch.setattr(dt.SegmentMap, "__getattr__", boom)
    for t in (
        dt.contiguous(300, dt.DOUBLE),
        dt.vector(300, 4, 16, dt.DOUBLE),
        dt.subarray([300, 2048], [300, 512], [0, 64], dt.DOUBLE),
        dt.subarray([1, 300, 2048], [1, 300, 512], [0, 0, 0], dt.BYTE),
    ):
        sm = t.commit().segment_map().shifted(4096)
        assert sm.total_bytes == t.size
        assert sm.bounds()[0] >= 4096 and not sm.overlaps_self()
    assert dt.DOUBLE.segment_map(512).bounds() == (0, 4096)
    assert dt.contiguous(3, dt.INT).commit().segment_map(5).nsegments == 1


@pytest.mark.parametrize("dst_rows, src_rows", [
    ((4, 6, 10), (4, 6, 6)),     # both strided, same row length
    ((4, 6, 10), (1, 24, 24)),   # contiguous source re-cut to the rows
    ((1, 24, 24), (3, 8, 11)),   # contiguous destination re-cut
    ((4, 6, 10), (3, 8, 11)),    # different row lengths: pack/unpack
    ((1, 24, 24), (1, 24, 24)),  # contiguous both sides: one slice store
    ((4, 6, 4), (4, 6, 9)),      # self-overlapping destination: traversal order
])
def test_copy_from_equals_gather_then_scatter(dst_rows, src_rows):
    (n, L, step), (m, K, sstep) = dst_rows, src_rows
    dst_map = dt.SegmentMap(5 + step * np.arange(n), np.full(n, L))
    src_map = dt.SegmentMap(2 + sstep * np.arange(m), np.full(m, K))
    src = (np.arange(80) * 7 % 251).astype(np.uint8)
    got, expect = np.zeros(64, np.uint8), np.zeros(64, np.uint8)
    dst_map.copy_from(got, src_map, src)
    dst_map.scatter(expect, src_map.gather(src))
    assert got.tobytes() == expect.tobytes()
    # an aliasing source is read as if it had been copied first
    arena = src[:64].copy()
    expect = arena.copy()
    dst_map.scatter(expect, src_map.gather(arena.copy()))
    dst_map.copy_from(arena, src_map, arena)
    assert arena.tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# resized (MPI_Type_create_resized): the unit a count replicates
# ---------------------------------------------------------------------------


def test_resized_keeps_size_and_base_and_sets_the_extent():
    row = dt.contiguous(4, dt.DOUBLE).commit()
    t = dt.resized(row, 96).commit()
    assert (t.size, t.extent, t.base) == (32, 96, np.dtype("f8"))
    assert list(t.segment_map().intervals()) == [(0, 32)]
    # the extent is what replication steps by, not the old type's
    assert list(t.segment_map(3).intervals()) == [(0, 32), (96, 128), (192, 224)]
    assert row.extent == 32 and list(row.segment_map(3).intervals()) == [(0, 96)]


def test_resized_single_segment_replicates_in_closed_form(monkeypatch):
    """n rows of a one-segment unit are the arithmetic map: no array."""
    t = dt.resized(dt.contiguous(512, dt.DOUBLE).commit(), 16384).commit()

    def boom(self, name):
        raise AssertionError(f"materialised {name}")

    monkeypatch.setattr(dt.SegmentMap, "__getattr__", boom)
    for n in (1, 2, 511, 4096):
        sm = t.segment_map(n).shifted(64)
        assert sm._arith_params() == (64, 16384 if n > 1 else 4096, 4096, n)
        assert (sm.total_bytes, sm.bounds()) == (4096 * n, (64, 64 + 16384 * (n - 1) + 4096))
    # rows as long as the extent are one contiguous segment
    back_to_back = dt.resized(dt.contiguous(4, dt.DOUBLE).commit(), 32).commit()
    assert back_to_back.segment_map(300).nsegments == 1


def test_resized_multi_segment_replicates_the_arrays():
    unit = dt.vector(2, 1, 3, dt.INT).commit()  # [0,4) [12,16): extent 16
    t = dt.resized(unit, 40).commit()
    sm = t.segment_map(3)
    assert sm.offsets.tolist() == [0, 12, 40, 52, 80, 92]
    assert sm.lengths.tolist() == [4] * 6
    # adjacent replicas coalesce where they touch
    touching = dt.resized(dt.hindexed([1, 1], [0, 8], dt.INT).commit(), 12).commit()
    assert list(touching.segment_map(2).intervals()) == [(0, 4), (8, 16), (20, 24)]


def test_resized_pack_unpack_roundtrip():
    t = dt.resized(dt.vector(2, 2, 5, dt.SHORT).commit(), 24).commit()
    buf = (np.arange(96) % 251).astype(np.uint8)
    packed = t.pack(buf, 4)
    expect = np.concatenate([
        buf[24 * i + o : 24 * i + o + 4] for i in range(4) for o in (0, 10)
    ])
    assert packed.tobytes() == expect.tobytes()
    out = np.zeros_like(buf)
    t.unpack(out, packed, 4)
    mask = np.zeros(96, bool)
    mask[t.segment_map(4).flat_index()] = True
    assert (out[mask] == buf[mask]).all() and not out[~mask].any()
    with pytest.raises(ArgumentError, match=r"access \[0, 110\) outside buffer of 96 bytes"):
        t.pack(buf, 5)


def test_resized_free_then_recommit():
    unit = dt.contiguous(3, dt.INT).commit()
    t = dt.resized(unit, 20).commit()
    before = list(t.segment_map(4).intervals())
    t.free()
    unit.free()  # its parts may be freed too, as in MPI
    with pytest.raises(DatatypeError, match="used before commit"):
        t.segment_map(4)
    t.commit()
    assert list(t.segment_map(4).intervals()) == before
    assert unit.committed


def test_resized_negative_extent_is_an_argument_error():
    with pytest.raises(ArgumentError, match="resized: negative extent -8"):
        dt.resized(dt.DOUBLE, -8)


def test_accumulate_alignment_of_a_resized_double_unit():
    from repro.mpi.rma_rules import _check_acc_alignment

    row = dt.contiguous(2, dt.DOUBLE).commit()
    _check_acc_alignment(dt.resized(row, 24).commit().segment_map(3).shifted(8), row.base)
    with pytest.raises(
        ArgumentError, match=r"accumulate segment \[20,36\) not aligned to float64 elements"
    ):
        _check_acc_alignment(dt.resized(row, 20).commit().segment_map(3), row.base)
