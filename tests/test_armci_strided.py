"""Tests for strided operations: Algorithm 1, subarray translation, _s ops."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.armci import (
    Armci,
    ArmciConfig,
    StridedSpec,
    algorithm1_iter,
    segment_displacements,
    strided_datatype,
    strided_to_iov,
)
from repro.armci.strided import (
    STRIDED_DATATYPE_CACHE_MAX,
    local_patch_view,
    strided_datatype_cache_clear,
    strided_datatype_cache_len,
    strided_datatype_uncached,
)
from repro.mpi import datatypes as dt
from repro.mpi.errors import ArgumentError

from conftest import spmd


# ---------------------------------------------------------------------------
# Algorithm 1 and its vectorised twin
# ---------------------------------------------------------------------------


def test_algorithm1_2d():
    # 3 segments, stride 100
    disps = list(algorithm1_iter([100], [8, 3]))
    assert disps == [0, 100, 200]


def test_algorithm1_3d_order():
    # idx[0] fastest (paper's odometer): strides (10, 100), counts (2, 3)
    disps = list(algorithm1_iter([10, 100], [4, 2, 3]))
    assert disps == [0, 10, 100, 110, 200, 210]


def test_algorithm1_zero_count():
    assert list(algorithm1_iter([10], [4, 0])) == []


def test_algorithm1_no_stride_levels():
    assert list(algorithm1_iter([], [16])) == [0]


@settings(max_examples=80, deadline=None)
@given(
    sl=st.integers(0, 3),
    data=st.data(),
)
def test_vectorised_matches_algorithm1(sl, data):
    strides = [data.draw(st.integers(1, 50)) for _ in range(sl)]
    count = [data.draw(st.integers(1, 8))] + [
        data.draw(st.integers(0, 4)) for _ in range(sl)
    ]
    ref = list(algorithm1_iter(strides, count))
    vec = segment_displacements(strides, count).tolist()
    assert vec == ref


# ---------------------------------------------------------------------------
# StridedSpec validation
# ---------------------------------------------------------------------------


def test_spec_counts_and_totals():
    spec = StridedSpec.make([8, 4, 3], [16, 128], [32, 256])
    assert spec.stride_levels == 2
    assert spec.seg_bytes == 8
    assert spec.num_segments == 12
    assert spec.total_bytes == 96


def test_spec_wrong_stride_length_raises():
    with pytest.raises(ArgumentError):
        StridedSpec.make([8, 4], [16, 32], [16])


def test_spec_overlapping_contiguous_raises():
    with pytest.raises(ArgumentError):
        StridedSpec.make([32, 4], [16], [16])  # 32B rows, 16B apart


def test_strided_to_iov():
    spec = StridedSpec.make([8, 3], [32], [64])
    src, dst, n = strided_to_iov(spec)
    assert src.tolist() == [0, 32, 64]
    assert dst.tolist() == [0, 64, 128]
    assert n == 8


# ---------------------------------------------------------------------------
# strided -> datatype translation (§VI-C backwards translation)
# ---------------------------------------------------------------------------


def test_strided_datatype_is_subarray_for_nested_strides():
    t = strided_datatype([64, 640], [16, 4, 5])
    # 5 planes x 4 rows of 16 bytes: 20 segments
    sm = t.segment_map()
    assert sm.total_bytes == 16 * 4 * 5
    assert "subarray" in t.name


def test_strided_datatype_falls_back_to_hindexed():
    # stride 48 not divisible by 20 -> cannot nest evenly
    t = strided_datatype([20, 48], [8, 2, 2])
    assert "hindexed" in t.name
    assert t.segment_map().total_bytes == 8 * 4


@pytest.mark.parametrize(
    "strides, count",
    [
        ([], [64]),  # contiguous
        ([64], [16, 4]),  # 2-D, nests (subarray)
        ([64, 640], [16, 4, 5]),  # 3-level, nests
        ([128, 1024, 8192], [64, 3, 2, 2]),  # 4-level, nests
        ([24, 56], [8, 2, 2]),  # 56 % 24 != 0: hindexed fallback
        ([16, 16 * 4 + 8], [16, 4, 3]),  # rows adjacent (coalesce), planes do not nest
    ],
)
def test_typed_strided_layout_equals_the_byte_layout(strides, count):
    """``elem=`` types the blocks (accumulate's target type), never moves them."""
    as_bytes = strided_datatype_uncached(strides, count).segment_map()
    typed_t = strided_datatype_uncached(strides, count, dt.DOUBLE)
    typed = typed_t.segment_map()
    assert typed_t.base == np.dtype("f8") and typed_t.size == as_bytes.total_bytes
    assert typed.offsets.tolist() == as_bytes.offsets.tolist()
    assert typed.lengths.tolist() == as_bytes.lengths.tolist()


@pytest.mark.parametrize(
    "strides, count",
    [([], [12]), ([32], [12, 4]), ([20], [16, 4]), ([64, 100], [16, 2, 3])],
)
def test_typed_strided_layout_must_be_whole_elements(strides, count):
    with pytest.raises(ArgumentError, match="not aligned to MPI_DOUBLE elements"):
        strided_datatype_uncached(strides, count, dt.DOUBLE)
    strided_datatype_uncached(strides, count)  # fine as bytes


@pytest.mark.parametrize("strides", [[4096], [4096, 4096 * 300 + 8]])
def test_typed_strided_miss_flattens_in_constant_calls(monkeypatch, strides):
    """A memo miss must not cost one ``segment_map`` call per row (every
    owner-straddling GA piece has a fresh row count, i.e. is a miss)."""
    calls = []
    real = dt.Datatype.segment_map

    def counting(self, count=1):
        calls.append(self.name)
        return real(self, count)

    monkeypatch.setattr(dt.Datatype, "segment_map", counting)
    planes = [2] * (len(strides) - 1)
    t = strided_datatype_uncached(strides, [2048, 300] + planes, dt.DOUBLE)
    assert t.segment_map().nsegments == 300 * (planes or [1])[0]
    assert len(calls) <= 3, calls


def _per_segment_layout(strides, count):
    """The pre-closed-form build: one (offset, length) per Algorithm 1
    segment, adjacent ones merged — what every translation must equal."""
    merged = []
    for d in algorithm1_iter(strides, count):
        if merged and merged[-1][0] + merged[-1][1] == d:
            merged[-1][1] += count[0]
        else:
            merged.append([d, count[0]])
    return [tuple(m) for m in merged]


def test_row_count_sweep_misses_build_no_arrays(monkeypatch):
    """Every owner-straddling GA piece has a fresh row count, i.e. misses the
    translation memo: a miss must be closed-form (at most 3 array
    materialisations, here none until the layout is inspected) and still
    equal the per-segment build, as bytes and typed."""
    built = []
    real = dt.SegmentMap.__getattr__

    def counting(self, name):
        built.append(name)
        return real(self, name)

    monkeypatch.setattr(dt.SegmentMap, "__getattr__", counting)
    strided_datatype_cache_clear()
    for rows in range(1, 601):  # > STRIDED_DATATYPE_CACHE_MAX distinct keys
        for strides in ([16384], [4096]):  # a strided and a back-to-back side
            before = len(built)
            sm = strided_datatype(strides, [4096, rows]).segment_map().shifted(64)
            typed = strided_datatype(strides, [4096, rows], dt.DOUBLE).segment_map()
            assert (sm.nsegments, sm.total_bytes) == (typed.nsegments, typed.total_bytes)
            assert len(built) - before <= 3, built[before:]
            if rows % 97 == 0 or rows < 4:
                expect = _per_segment_layout(strides, [4096, rows])
                assert list(typed.intervals()) == [(o, o + n) for o, n in expect]
                assert list(sm.intervals()) == [(o + 64, o + 64 + n) for o, n in expect]
    assert strided_datatype_cache_len() <= STRIDED_DATATYPE_CACHE_MAX


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_local_patch_view_describes_the_array_or_declines(data):
    """Whatever numpy view it is handed — unit dimensions with arbitrary
    strides, empty arrays, slices, reversals, transposes — the result is
    either None or bytes + strides that address exactly the array."""
    ndim = data.draw(st.integers(1, 3))
    shape = data.draw(st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim))
    arr = np.arange(int(np.prod([2 * n + 1 for n in shape])), dtype="f8")
    arr = arr.reshape([2 * n + 1 for n in shape])
    index = tuple(
        data.draw(st.sampled_from([slice(0, n), slice(1, 2 * n, 2), slice(n, 0, -1), slice(1, n + 1)]))
        for n in shape
    )
    arr = arr[index]
    for _ in range(data.draw(st.integers(0, 2))):
        arr = data.draw(st.sampled_from([arr.T, arr[None], arr[..., None], np.atleast_2d(arr)]))
    side = local_patch_view(arr)
    if side is None:
        assert not arr.flags.c_contiguous
        return
    flat, strides = side
    assert flat.dtype == np.uint8 and flat.ndim == 1 and len(strides) == arr.ndim
    if arr.size:
        assert np.shares_memory(flat, arr)
        for idx in np.ndindex(*arr.shape):
            at = sum(i * s for i, s in zip(idx, strides))
            assert flat[at : at + 8].view("f8")[0] == arr[idx]


@settings(max_examples=80, deadline=None)
@given(sl=st.integers(0, 3), data=st.data())
def test_strided_datatype_matches_algorithm1_segments(sl, data):
    """Whatever representation is chosen, the byte layout must equal the
    reference Algorithm 1 enumeration."""
    seg = data.draw(st.integers(1, 6))
    strides, count = [], [seg]
    prev = seg
    for _ in range(sl):
        stride = data.draw(st.integers(prev, prev * 3))
        strides.append(stride)
        count.append(data.draw(st.integers(1, 3)))
        prev = stride * count[-1] if stride * count[-1] > 0 else prev
    t = strided_datatype(strides, count)
    sm = t.segment_map()
    expect = sorted(
        (d, seg) for d in algorithm1_iter(strides, count)
    )
    got = sorted(zip(sm.offsets.tolist(), sm.lengths.tolist()))
    # coalescing may merge adjacent segments; compare covered byte sets
    def cover(pairs):
        s = set()
        for off, ln in pairs:
            s.update(range(off, off + ln))
        return s

    assert cover(got) == cover(expect)
    assert sm.total_bytes == seg * max(
        1, int(np.prod(count[1:])) if len(count) > 1 else 1
    )


# ---------------------------------------------------------------------------
# put_s / get_s / acc_s end-to-end (both methods)
# ---------------------------------------------------------------------------


def _2d_roundtrip(config):
    """Put a 4x6-double patch into a remote 8x8 'array', read it back."""

    def main(comm):
        a = Armci.init(comm, config)
        ptrs = a.malloc(8 * 8 * 8)  # an 8x8 array of doubles per rank
        if a.my_id == 0:
            src = np.arange(4 * 6, dtype="f8")  # contiguous 4x6 patch
            # remote layout: rows of 8 doubles (64B); patch rows of 6 (48B)
            a.put_s(
                src,
                src_strides=[48],
                dst=ptrs[1] + (8 + 1) * 8,  # start at [1][1]
                dst_strides=[64],
                count=[48, 4],
            )
        a.barrier()
        if a.my_id == 1:
            view = a.access_begin(ptrs[1], 8 * 8 * 8, "f8")
            arr = view.reshape(8, 8)
            np.testing.assert_array_equal(
                arr[1:5, 1:7], np.arange(24.0).reshape(4, 6)
            )
            assert arr[0].sum() == 0 and arr[5:].sum() == 0
            a.access_end(ptrs[1])
            # strided get back into a padded local buffer
            out = np.zeros((6, 8))
            a.get_s(
                src=ptrs[1] + (8 + 1) * 8,
                src_strides=[64],
                dst=out,
                dst_strides=[8 * 8],
                count=[48, 4],
            )
            np.testing.assert_array_equal(out[:4, :6], np.arange(24.0).reshape(4, 6))
            assert out[:, 6:].sum() == 0
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_put_s_get_s_direct():
    _2d_roundtrip(ArmciConfig(strided_method="direct"))


def test_put_s_get_s_iov_auto():
    _2d_roundtrip(ArmciConfig(strided_method="iov", iov_method="auto"))


def test_put_s_get_s_iov_conservative():
    _2d_roundtrip(ArmciConfig(strided_method="iov", iov_method="conservative"))


def test_put_s_get_s_iov_batched():
    _2d_roundtrip(ArmciConfig(strided_method="iov", iov_method="batched", iov_batch_size=2))


def test_acc_s_with_scale():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16 * 8)
        # everyone accumulates 0.5 * ones into rows 0 and 2 of a 4x4 array
        src = np.ones(8)
        a.acc_s(
            src, src_strides=[32], dst=ptrs[0], dst_strides=[64],
            count=[32, 2], scale=0.5,
        )
        a.barrier()
        if a.my_id == 0:
            v = np.zeros(16)
            a.get(ptrs[0], v)
            expect = np.zeros((4, 4))
            expect[0] = expect[2] = 0.5 * a.nproc
            np.testing.assert_array_equal(v.reshape(4, 4), expect)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(3, main)


def test_3d_strided_put_matches_numpy():
    def main(comm):
        a = Armci.init(comm)
        # remote: 4x4x4 doubles
        ptrs = a.malloc(4 * 4 * 4 * 8)
        if a.my_id == 0:
            # put a 2x2x2 patch at origin (1,1,1)
            src = np.arange(8.0)
            a.put_s(
                src,
                src_strides=[16, 32],  # 2 doubles contiguous, 2x2 segments
                dst=ptrs[1] + ((1 * 16) + (1 * 4) + 1) * 8,
                dst_strides=[4 * 8, 16 * 8],
                count=[16, 2, 2],
            )
        a.barrier()
        if a.my_id == 1:
            v = np.zeros(64)
            a.get(ptrs[1], v)
            arr = v.reshape(4, 4, 4)
            np.testing.assert_array_equal(
                arr[1:3, 1:3, 1:3], np.arange(8.0).reshape(2, 2, 2)
            )
            assert arr.sum() == np.arange(8.0).sum()
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_strided_methods_agree():
    """direct and iov strided paths must move identical bytes."""

    def run(config, seed):
        results = {}

        def main(comm):
            a = Armci.init(comm, config)
            ptrs = a.malloc(1024)
            rng = np.random.default_rng(seed)
            if a.my_id == 0:
                src = rng.random(32)
                a.put_s(src, [64], ptrs[1] + 128, [128], [64, 4])
            a.barrier()
            if a.my_id == 1:
                v = np.zeros(128)
                a.get(ptrs[1], v)
                results["data"] = v.copy()
            a.barrier()
            a.free(ptrs[a.my_id])

        spmd(2, main)
        return results["data"]

    direct = run(ArmciConfig(strided_method="direct"), 42)
    via_iov = run(ArmciConfig(strided_method="iov", iov_method="direct"), 42)
    batched = run(ArmciConfig(strided_method="iov", iov_method="batched"), 42)
    np.testing.assert_array_equal(direct, via_iov)
    np.testing.assert_array_equal(direct, batched)


def test_strided_local_buffer_too_small_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(256)
        with pytest.raises(ArgumentError):
            a.put_s(np.zeros(4), [64], ptrs[0], [64], [32, 4])
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_zero_segment_strided_is_noop():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        a.put_s(np.zeros(8), [16], ptrs[0], [16], [8, 0])
        a.barrier()
        if a.my_id == 0:
            v = np.zeros(8)
            a.get(ptrs[0], v)
            assert v.sum() == 0
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


# ---------------------------------------------------------------------------
# compiled strided ops: one derivation per descriptor, over the same LRU
# ---------------------------------------------------------------------------

from repro.armci.strided import compiled_strided_op  # noqa: E402


def _intervals(t, count=1):
    return list(t.segment_map(count).intervals())


def test_compiled_op_is_the_sizes_and_both_datatypes():
    strided_datatype_cache_clear()
    try:
        total, span, origin_t, target_t, n = compiled_strided_op((32,), (64,), (16, 4))
        assert (total, span, n) == (64, 3 * 32 + 16, 4)
        assert strided_datatype_cache_len() == 2  # the op, and the row both sides share
        # each side is one row resized to its stride; the op moves n of them,
        # the layout the whole-count translation describes
        assert (origin_t.size, origin_t.extent, target_t.size, target_t.extent) == (16, 32, 16, 64)
        assert _intervals(origin_t, 4) == _intervals(strided_datatype((32,), (16, 4)))
        assert _intervals(target_t, 4) == _intervals(strided_datatype((64,), (16, 4)))
        entries = strided_datatype_cache_len()
        # one entry per width: every height answers from it, with the same objects
        for rows in (4, 1, 7, 300):
            assert compiled_strided_op((32,), (64,), (16, rows)) == (
                16 * rows, 32 * (rows - 1) + 16, origin_t, target_t, rows
            )
        assert strided_datatype_cache_len() == entries
        # an accumulate's target is typed; its origin stays bytes
        acc = compiled_strided_op((32,), (64,), (16, 4), np.dtype("f8"))
        assert acc[2] is not origin_t and _intervals(acc[2]) == _intervals(origin_t)
        assert acc[3].base == np.dtype("f8") and origin_t.base == np.dtype("u1")
        assert _intervals(acc[3], 4) == _intervals(strided_datatype((64,), (16, 4), dt.DOUBLE))
        # a contiguous local side has no origin type, at any height
        for rows in (5, 1):
            assert compiled_strided_op((16,), (64,), (16, rows))[2] is None
        # nor has a contiguous descriptor, whose count is its own unit
        whole = compiled_strided_op((), (), (48,))
        assert whole[:3] + whole[4:] == (48, 48, None, 1) and _intervals(whole[3]) == [(0, 48)]
        # the IOV method asks for no datatypes, and gets none built
        before = strided_datatype_cache_len()
        assert compiled_strided_op((48,), (80,), (16, 4), None, False) == (64, 160, None, None, 4)
        assert strided_datatype_cache_len() == before + 1
        # nothing to move: sizes only, whatever the method, and nothing memoised
        before = strided_datatype_cache_len()
        assert compiled_strided_op((32,), (64,), (0, 4)) == (0, 96, None, None, 4)
        assert compiled_strided_op((40,), (72,), (16, 0)) == (0, 16, None, None, 0)
        assert compiled_strided_op((32,), (64,), (16, 0))[:2] == (0, 16)
        assert strided_datatype_cache_len() == before
    finally:
        strided_datatype_cache_clear()


def test_compiled_op_hit_recommits_a_freed_datatype():
    strided_datatype_cache_clear()
    try:
        _, _, origin_t, target_t, _ = compiled_strided_op((32,), (64,), (16, 4))
        # rogue callers free the shared entries: the op's types and the row
        target_t.free()
        origin_t.free()
        strided_datatype((), (16,)).free()
        again = compiled_strided_op((32,), (64,), (16, 9))
        assert again[2:4] == (origin_t, target_t)
        assert target_t.committed and origin_t.committed
        assert _intervals(target_t, 9) == [(64 * i, 64 * i + 16) for i in range(9)]
        assert _intervals(origin_t, 9) == [(32 * i, 32 * i + 16) for i in range(9)]
    finally:
        strided_datatype_cache_clear()


_BAD_DESCRIPTORS = [
    # (local strides, remote strides, count), what StridedSpec says
    (([-16], [16], [8, 2]), "negative strides"),
    (([16], [16], [32, 2]), "exceeds innermost stride"),
    (([16, 64], [16], [8, 2]), "stride arrays must have length 1"),
    (([16], [16], [8, -2]), "negative count"),
]


@pytest.mark.parametrize("descriptor, message", _BAD_DESCRIPTORS)
def test_an_invalid_descriptor_raises_every_time(descriptor, message):
    """Validation moved to compile time must not turn into a cached success
    (the second use slipping through) nor into a cached exception object
    (one traceback growing with every raise)."""
    local_strides, remote_strides, count = descriptor

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(256)
        buf = np.zeros(32)
        raised = []
        for _ in range(3):
            for op in (
                lambda: a.put_s(buf, local_strides, ptrs[1], remote_strides, count),
                lambda: a.get_s(ptrs[1], remote_strides, buf, local_strides, count),
                lambda: a.acc_s(buf, local_strides, ptrs[1], remote_strides, count),
            ):
                with pytest.raises(ArgumentError, match=message) as ei:
                    op()
                raised.append(ei.value)
        assert len({id(e) for e in raised}) == len(raised)
        a.barrier()
        out = np.ones(32)
        a.get(ptrs[1], out)
        assert not out.any()  # and nothing was ever written
        a.barrier()
        a.free(ptrs[a.my_id])

    strided_datatype_cache_clear()
    try:
        spmd(2, main)
        assert strided_datatype_cache_len() == 0  # nothing memoised for it
    finally:
        strided_datatype_cache_clear()


def test_a_misaligned_accumulate_layout_raises_every_time():
    """The typed target layout is built at compile time: its refusal, too,
    is raised afresh on every use and leaves no compiled entry behind."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(256)
        for _ in range(3):
            with pytest.raises(ArgumentError, match="not aligned to MPI_DOUBLE elements"):
                a.acc_s(np.zeros(8), [16], ptrs[1], [20], [12, 2])
        # the same rows as bytes are fine, before and after
        a.put_s(np.zeros(8), [16], ptrs[1], [20], [12, 2])
        a.barrier()
        a.free(ptrs[a.my_id])

    strided_datatype_cache_clear()
    try:
        spmd(2, main)
    finally:
        strided_datatype_cache_clear()


# ---------------------------------------------------------------------------
# the outermost count is the MPI count: raw descriptors through the one path
# ---------------------------------------------------------------------------


def _replay(buf, strides, count, data=None):
    """Algorithm 1's segments of ``buf`` (bytes): read them, or write ``data``."""
    segs = [slice(d, d + count[0]) for d in algorithm1_iter(strides, count)]
    if data is None:
        return np.concatenate([buf[s] for s in segs]) if segs else buf[:0]
    pos = 0
    for s in segs:
        buf[s] = data[pos : pos + count[0]]
        pos += count[0]


@pytest.mark.parametrize(
    "local_strides, remote_strides, counts",
    [
        # 3-D, nesting: 2 rows of 16 B per plane, planes of every count
        ([40, 96], [64, 256], [[16, 2, n] for n in (1, 3, 2, 4)]),
        # inner strides that do not nest (56 % 24): the hindexed unit, resized
        ([24, 56], [32, 104], [[8, 2, n] for n in (3, 1, 5)]),
        # an outer stride that does not nest over back-to-back rows
        ([16, 40], [16, 72], [[16, 2, n] for n in (2, 4, 1)]),
    ],
)
def test_raw_descriptors_move_algorithm1_bytes_at_every_outer_count(
    local_strides, remote_strides, counts
):
    """put_s/get_s/acc_s of descriptors sharing one compiled op (same inner
    levels, outer counts varying) equal an Algorithm 1 replay on both
    sides; the remote bytes between the segments are never written."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(1024)
        a.barrier()
        if a.my_id == 0:
            rng = np.random.default_rng(3)
            ref = np.zeros(1024, np.uint8)
            for count in counts:
                src = rng.integers(0, 250, 512).astype(np.uint8)
                a.put_s(src, local_strides, ptrs[1] + 8, remote_strides, count)
                _replay(ref[8:], remote_strides, count, _replay(src, local_strides, count))
                vals = rng.integers(-9, 10, 64).astype("f8")
                a.acc_s(vals, local_strides, ptrs[1] + 8, remote_strides, count, dtype="f8")
                got = np.zeros(1024, np.uint8)
                a.get(ptrs[1], got)
                typed = _replay(ref[8:], remote_strides, count).view("f8")
                typed = typed + _replay(vals.view(np.uint8), local_strides, count).view("f8")
                _replay(ref[8:], remote_strides, count, typed.view(np.uint8))
                assert got.tobytes() == ref.tobytes(), count
                back = np.full(512, 7, np.uint8)
                expect = back.copy()
                a.get_s(ptrs[1] + 8, remote_strides, back, local_strides, count)
                _replay(expect, local_strides, count, _replay(ref[8:], remote_strides, count))
                assert back.tobytes() == expect.tobytes(), count
        a.barrier()
        a.free(ptrs[a.my_id])

    strided_datatype_cache_clear()
    try:
        spmd(2, main)
    finally:
        strided_datatype_cache_clear()


def test_a_misaligned_outer_stride_refuses_only_what_it_always_refused():
    """An accumulate whose outermost remote stride is not whole elements is
    refused past one row, with the text a whole-count layout gave, on every
    call — also once the width's compiled op is warm from a one-row
    accumulate, which stays legal — and as bytes it is fine."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(256)
        vals = np.ones(8)
        if a.my_id == 0:
            for _ in range(3):
                a.acc_s(vals, [16], ptrs[1], [36], [16, 1])  # one row: no outer step
                for rows in (2, 3):
                    with pytest.raises(ArgumentError, match="not aligned to MPI_DOUBLE elements"):
                        a.acc_s(vals, [16], ptrs[1], [36], [16, rows])
            got = np.zeros(256, np.uint8)
            a.get(ptrs[1], got)
            assert got[:16].view("f8").tolist() == [3.0, 3.0] and not got[16:].any()
            a.put_s(vals, [16], ptrs[1], [36], [16, 3])
            a.get(ptrs[1], got)
            assert [got[36 * r : 36 * r + 16].view("f8").tolist() for r in range(3)] == [
                [1.0, 1.0]
            ] * 3
        a.barrier()
        a.free(ptrs[a.my_id])

    strided_datatype_cache_clear()
    try:
        spmd(2, main)
    finally:
        strided_datatype_cache_clear()


def test_a_negative_outer_count_raises_every_time_on_a_warm_width():
    """A width whose compiled op is warm still validates each count it is
    not sure of: a negative outermost count raises StridedSpec's text on
    every call and memoises nothing."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(256)
        buf = np.zeros(32)
        a.put_s(buf, [16], ptrs[1], [32], [8, 4])
        a.acc_s(buf, [16], ptrs[1], [32], [8, 4])
        a.barrier()
        entries = strided_datatype_cache_len()
        raised = []
        for _ in range(3):
            for op in (
                lambda: a.put_s(buf, [16], ptrs[1], [32], [8, -2]),
                lambda: a.get_s(ptrs[1], [32], buf, [16], [8, -2]),
                lambda: a.acc_s(buf, [16], ptrs[1], [32], [8, -2]),
            ):
                with pytest.raises(ArgumentError, match=r"negative count: \(8, -2\)") as ei:
                    op()
                raised.append(ei.value)
        assert len({id(e) for e in raised}) == len(raised)
        a.barrier()
        assert strided_datatype_cache_len() == entries
        a.barrier()
        a.free(ptrs[a.my_id])

    strided_datatype_cache_clear()
    try:
        spmd(2, main)
    finally:
        strided_datatype_cache_clear()


def test_a_staged_strided_get_writes_back_only_its_rows():
    """§V-E.1: a get_s into a local buffer inside this rank's own window
    lands in a temporary and is written back through the origin unit
    ``n`` times — every row, and not the bytes between them."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(512)
        me, peer = a.my_id, 1 - a.my_id
        view = a.access_begin(ptrs[me], 512, "u1")
        view[:] = 100 + me
        a.access_end(ptrs[me])
        a.barrier()
        if me == 0:
            slab = a.table.require(ptrs[0]).local_slab()
            before = a.stats.staged_copies
            a.get_s(ptrs[1], [64], slab[8:], [48], [16, 5])
            assert a.stats.staged_copies > before
            got = np.zeros(512, np.uint8)
            a.get(ptrs[0], got)
            rows = np.zeros(512, bool)
            for r in range(5):
                rows[8 + 48 * r : 8 + 48 * r + 16] = True
            assert (got[rows] == 101).all() and (got[~rows] == 100).all()
        a.barrier()
        a.free(ptrs[me])

    spmd(2, main)
