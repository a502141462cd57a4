"""Hot-path micro-benchmarks for the vectorized datapath.

The paper's §VI performance argument is that datatype processing and
per-operation bookkeeping dominate noncontiguous transfer cost.  In this
reproduction those same paths are the Python-level hot spots, and this
module tracks them:

``pack_uniform_1024`` / ``unpack_uniform_1024``
    vectorised gather/scatter of 1024 uniform 64-byte segments vs the
    per-segment reference loop kept here (:func:`pack_reference` /
    :func:`unpack_reference`, also the property tests' oracle).
``strided_translation``
    memoised :func:`repro.armci.strided.strided_datatype` vs rebuilding
    and committing the subarray type per operation.
``strided_translation_typed_miss``
    a memo *miss* for accumulate's typed target layout (every
    owner-straddling GA piece has a fresh row count): built directly as a
    subarray of the element type vs re-deriving it from the byte layout
    with one ``segment_map`` call per row.
``acc_strided_512x512``
    the window's accumulate kernel (one in-place pass over a typed 2-D
    view) on a 512-row x 4 KiB ``f8`` tile vs a per-segment loop.
``get_strided_512x512``
    the window's put/get kernel (``SegmentMap.copy_from``: one strided copy
    straight into the origin buffer) on the same tile vs staging the
    payload and scattering it.
``strided_translation_rowcount_sweep``
    one pass of memo *misses* over 600 row counts (owner-straddling
    pieces): the closed-form four-integer layout vs the array-built
    flatten of the same subarray.
``conflict_check_contig``
    single-interval :class:`repro.mpi.window._IntervalSet` overlap query
    (bounding-box fast path) vs the pre-PR sorted-scan reference.
``conflict_footprint_disjoint``
    recording one strided op's footprint (16 rows, a closed-form map) and
    querying a disjoint one against it: answered from the maps' memoised
    bounds vs materialising ``offsets``/``lengths`` to reduce them.
``ga_patch_replay_16x16``
    :meth:`repro.ga.GlobalArray._owner_pieces` for an owner-straddling
    16x16 patch of a known class (the replayed plan) vs
    :func:`owner_pieces_uncompiled`: ``dist.locate`` plus per-piece
    argument construction on every op.
``gmr_lookup_hot``
    :class:`repro.armci.gmr.GmrTable` last-hit cache vs the bisect-only
    lookup.

Each workload exposes an *optimized* callable (the production code path)
and a *baseline* callable (the pre-PR algorithm, retained in-tree), so
speedups are measured by one suite on one machine in one process — the
committed ``benchmarks/BENCH_hotpath.json`` records them and the smoke
target (``python -m repro.bench --hotpath-smoke``) fails when a speedup
drops below its :data:`MIN_SPEEDUP` floor or collapses by more than 2x
against that baseline file.  The gate, baseline writer and loader are
the shared ones in :mod:`repro.bench.registry`.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..armci import iov, strided
from ..armci.gmr import GlobalPtr, GmrTable
from ..ga.array import GlobalArray
from ..ga.distribution import BlockDistribution, Patch
from ..mpi import datatypes as dt
from ..mpi import ops as mpi_ops
from ..mpi.errors import ArgumentError
from ..mpi.group import UNDEFINED
from ..mpi.window import (
    _accumulate_into,
    _check_acc_alignment,
    _IntervalSet,
    _segments_overlap,
)
from .harness import format_table

#: acceptance floors: the vectorized datapath must beat the retained
#: pre-PR reference by at least this much, independent of the machine
MIN_SPEEDUP = {
    "pack_uniform_1024": 5.0,
    "unpack_uniform_1024": 5.0,
    "strided_translation": 2.0,
    "strided_translation_typed_miss": 2.0,
    "acc_strided_512x512": 1.2,
    "get_strided_512x512": 1.5,
    "strided_translation_rowcount_sweep": 5.0,
    "conflict_check_contig": 1.0,
    "conflict_footprint_disjoint": 2.0,
    "ga_patch_replay_16x16": 2.0,
    "gmr_lookup_hot": 1.0,
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def pack_reference(datatype: dt.Datatype, buffer: np.ndarray, count: int = 1) -> np.ndarray:
    """Naive per-segment pack (pre-vectorization reference implementation).

    The semantic oracle: property tests assert the vectorised
    :meth:`~repro.mpi.datatypes.Datatype.pack` is byte-identical, and
    ``pack_uniform_1024`` uses it as its baseline.
    """
    segmap = datatype.segment_map(count)
    dt._check_bounds(segmap, len(buffer), datatype.name)
    out = np.empty(segmap.total_bytes, dtype=np.uint8)
    pos = 0
    for off, ln in zip(segmap.offsets.tolist(), segmap.lengths.tolist()):
        out[pos : pos + ln] = buffer[off : off + ln]
        pos += ln
    return out


def unpack_reference(
    datatype: dt.Datatype, buffer: np.ndarray, data: np.ndarray, count: int = 1
) -> None:
    """Naive per-segment unpack (pre-vectorization reference implementation)."""
    segmap = datatype.segment_map(count)
    dt._check_bounds(segmap, len(buffer), datatype.name)
    if len(data) != segmap.total_bytes:
        raise ArgumentError(
            f"{datatype.name}: unpack got {len(data)} bytes, needs {segmap.total_bytes}"
        )
    pos = 0
    for off, ln in zip(segmap.offsets.tolist(), segmap.lengths.tolist()):
        buffer[off : off + ln] = data[pos : pos + ln]
        pos += ln


def _wl_pack() -> tuple[Callable, Callable]:
    nseg, seg, stride = 1024, 64, 128
    t = dt.hindexed([seg] * nseg, [i * stride for i in range(nseg)], dt.BYTE).commit()
    buf = (np.arange(nseg * stride, dtype=np.int64) % 251).astype(np.uint8)
    return (lambda: t.pack(buf)), (lambda: pack_reference(t, buf))


def _wl_unpack() -> tuple[Callable, Callable]:
    nseg, seg, stride = 1024, 64, 128
    t = dt.hindexed([seg] * nseg, [i * stride for i in range(nseg)], dt.BYTE).commit()
    buf = np.zeros(nseg * stride, dtype=np.uint8)
    data = (np.arange(nseg * seg, dtype=np.int64) % 251).astype(np.uint8)
    return (
        lambda: t.unpack(buf, data),
        lambda: unpack_reference(t, buf, data),
    )


def _wl_strided() -> tuple[Callable, Callable]:
    # a 3-level GA-style patch: 8 planes x 64 rows of 256 contiguous bytes
    count = (256, 64, 8)
    strides = (512, 512 * 64)
    strided.strided_datatype_cache_clear()
    strided.strided_datatype(strides, count)  # warm the memo
    return (
        lambda: strided.strided_datatype(strides, count),
        lambda: strided.strided_datatype_uncached(strides, count),
    )


def _wl_strided_typed_miss() -> tuple[Callable, Callable]:
    # one owner's share of a 512x512 f8 GA patch: 300 rows of 4 KiB
    count, strides = (4096, 300), (16384,)

    def per_row() -> dt.SegmentMap:
        sm = strided.strided_datatype_uncached(strides, count).segment_map()
        return dt._blocks_map(
            (sm.lengths // 8).tolist(), sm.offsets.tolist(), [dt.DOUBLE] * sm.nsegments
        ).coalesced()

    return (
        lambda: strided.strided_datatype_uncached(strides, count, dt.DOUBLE),
        per_row,
    )


def _wl_acc_strided() -> tuple[Callable, Callable]:
    rows, row_bytes, pitch = 512, 4096, 16384  # a 512x512 f8 tile of a 2048-wide array
    base = np.dtype("f8")
    buf = np.zeros(rows * pitch, dtype=np.uint8)
    data = np.ones(rows * row_bytes // 8).view(np.uint8)
    segmap = strided.strided_datatype((pitch,), (row_bytes, rows), dt.DOUBLE).segment_map()
    def per_segment() -> None:
        pos = 0
        for lo, hi in segmap.intervals():
            mpi_ops.SUM.apply(buf[lo:hi].view(base), data[pos : pos + hi - lo].view(base))
            pos += hi - lo

    def checked_kernel() -> None:  # what Win.accumulate runs per target
        _check_acc_alignment(segmap, base)
        _accumulate_into(buf, segmap, data, base, mpi_ops.SUM)

    return checked_kernel, per_segment


def _wl_get_strided() -> tuple[Callable, Callable]:
    rows, row_bytes, pitch = 512, 4096, 16384
    buf = np.ones(rows * pitch, dtype=np.uint8)
    out = np.zeros(rows * row_bytes, dtype=np.uint8)
    tmap = strided.strided_datatype((pitch,), (row_bytes, rows)).segment_map()
    omap = dt.SegmentMap.arithmetic(0, out.nbytes, out.nbytes, 1)
    return (
        lambda: omap.copy_from(out, tmap, buf),
        lambda: omap.scatter(out, tmap.gather(buf)),
    )


def _wl_strided_rowcount_sweep() -> tuple[Callable, Callable]:
    # one op = one pass over more distinct row counts than the memo holds,
    # visited cyclically, so every translation is a miss.  The 3-D spelling
    # has two outer dimensions, so it flattens the same rows through the
    # array-building general path.
    row_bytes, pitch = 4096, 16384
    sweep = range(2, 1202, 2)
    assert len(sweep) > strided.STRIDED_DATATYPE_CACHE_MAX

    def closed_form() -> None:
        for rows in sweep:
            strided.strided_datatype((pitch,), (row_bytes, rows)).segment_map().shifted(64)

    def array_built() -> None:
        for rows in sweep:
            t = dt.subarray([2, rows // 2, pitch], [2, rows // 2, row_bytes], [0, 0, 0], dt.BYTE)
            t.commit().segment_map().shifted(64)

    return closed_form, array_built


def _wl_conflict() -> tuple[Callable, Callable]:
    iset = _IntervalSet()
    for i in range(512):
        iset.add(dt.SegmentMap.arithmetic(i * 256, 128, 128, 1))
    # a non-conflicting single-segment op past everything recorded
    query = dt.SegmentMap.arithmetic(1 << 30, 128, 128, 1)
    q_off, q_len = query.offsets, query.lengths
    cov_off, cov_len = iset._cov_off, iset._cov_len
    pending = [(p.offsets, p.lengths) for p in iset._pending]

    def baseline() -> bool:
        # the pre-PR overlap query: sorted-scan against coverage, then an
        # argsort per pending batch — no bounding-box rejection
        if _segments_overlap(q_off, q_len, cov_off, cov_len):
            return True
        for p_off, p_len in pending:
            if len(p_off) > 1:
                order = np.argsort(p_off, kind="stable")
                p_off, p_len = p_off[order], p_len[order]
            if _segments_overlap(q_off, q_len, p_off, p_len):
                return True
        return False

    return (lambda: iset.overlaps(query)), baseline


def _wl_conflict_footprint() -> tuple[Callable, Callable]:
    # one GA piece on the wire: 16 rows of 128 B, 16 KiB apart, at a fresh
    # displacement per op (Win._op_maps shifts the datatype's map)
    layout = strided.strided_datatype((16384,), (128, 16)).segment_map()
    far = 64 * 16384

    def from_bounds() -> bool:
        iset = _IntervalSet()
        iset.add(layout.shifted(0))
        return iset.overlaps(layout.shifted(far))

    def materialised() -> bool:
        # what recording and querying reduced before: both maps' arrays
        rec, query = layout.shifted(0), layout.shifted(far)
        lo, hi = int(rec.offsets.min()), int((rec.offsets + rec.lengths).max())
        q_lo = int(query.offsets.min())
        q_hi = int((query.offsets + query.lengths).max())
        return not (q_lo >= hi or q_hi <= lo)

    return from_bounds, materialised


def owner_pieces_uncompiled(ga: GlobalArray, patch: Patch, flat: np.ndarray, buf_strides):
    """``GlobalArray._owner_pieces`` derived from scratch: ``dist.locate``
    and one argument tuple built per piece.  The plan's oracle (the tests
    hold every replayed tuple to it) and its benchmark baseline."""
    item = ga.dtype.itemsize
    for piece in ga.dist.locate(patch):
        strides = ga._block_strides[piece.rank]
        offset = sum(s * x for s, x in zip(strides, piece.local_patch.lo))
        at = sum(s * x for s, x in zip(buf_strides, piece.request_patch.lo))
        shape = piece.global_patch.shape
        yield (
            flat[at:],
            tuple(reversed(buf_strides[:-1])),
            ga.ptrs[piece.rank] + offset,
            tuple(reversed(strides[:-1])),
            (shape[-1] * item, *reversed(shape[:-1])),
        )


def _wl_ga_patch_replay() -> tuple[Callable, Callable]:
    # the e2e small_* stream's straddling case: rows 1016..1031 of a
    # 2048x2048 f8 array split between two row-block owners
    shape, nproc = (2048, 2048), 2
    dist = BlockDistribution(shape, nproc)
    ptrs = [GlobalPtr(r, 0x1000) for r in range(nproc)]
    ga = GlobalArray(None, shape, "f8", ptrs, dist, "bench")
    patch = Patch((1016, 100), (1032, 116))
    flat, buf_strides = strided.local_patch_view(np.zeros((16, 16)))
    return (
        lambda: list(ga._owner_pieces(patch, flat, buf_strides)),
        lambda: list(owner_pieces_uncompiled(ga, patch, flat, buf_strides)),
    )


class _BenchGroup:
    """Single-member group shim so GmrTable can be benched without a runtime."""

    size = 1

    @staticmethod
    def absolute_id(_r: int) -> int:
        return 0

    @staticmethod
    def group_rank_of(absolute: int) -> int:
        return 0 if absolute == 0 else UNDEFINED


class _BenchGmr:
    """Duck-typed GMR: bases/sizes/contains are all GmrTable needs."""

    def __init__(self, base: int, size: int):
        self.bases = [base]
        self.sizes = [size]
        self.group = _BenchGroup()
        self.freed = False

    def contains(self, _rank: int, addr: int) -> bool:
        return self.bases[0] <= addr < self.bases[0] + self.sizes[0]


def _wl_gmr_lookup() -> tuple[Callable, Callable]:
    table = GmrTable()
    gmrs = [_BenchGmr(0x1000 + i * 0x10000, 0x8000) for i in range(64)]
    for g in gmrs:
        table.register(g)  # type: ignore[arg-type]
    addr = gmrs[48].bases[0] + 1234
    table.lookup(0, addr)  # prime the hot entry
    return (lambda: table.lookup(0, addr)), (lambda: table._lookup_bisect(0, addr))


#: name -> builder of fresh-state (optimized, baseline) callables
WORKLOADS: dict[str, Callable[[], tuple[Callable, Callable]]] = {
    "pack_uniform_1024": _wl_pack,
    "unpack_uniform_1024": _wl_unpack,
    "strided_translation": _wl_strided,
    "strided_translation_typed_miss": _wl_strided_typed_miss,
    "acc_strided_512x512": _wl_acc_strided,
    "get_strided_512x512": _wl_get_strided,
    "strided_translation_rowcount_sweep": _wl_strided_rowcount_sweep,
    "conflict_check_contig": _wl_conflict,
    "conflict_footprint_disjoint": _wl_conflict_footprint,
    "ga_patch_replay_16x16": _wl_ga_patch_replay,
    "gmr_lookup_hot": _wl_gmr_lookup,
}


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


def _time_per_op(fn: Callable, min_time: float, repeats: int) -> float:
    """Best-of-``repeats`` seconds per call, auto-calibrated batch size."""
    fn()  # warmup (also warms memo caches)
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time / 4 or number >= 1 << 20:
            break
        number *= 4
    best = elapsed / number
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def measure(fast: bool = False) -> dict[str, dict[str, float]]:
    """Run every workload; returns per-workload optimized/baseline/speedup."""
    min_time, repeats = (0.02, 2) if fast else (0.1, 3)
    results: dict[str, dict[str, float]] = {}
    for name, setup in WORKLOADS.items():
        optimized, baseline = setup()
        opt_s = _time_per_op(optimized, min_time, repeats)
        base_s = _time_per_op(baseline, min_time, repeats)
        results[name] = {
            "optimized_s": opt_s,
            "baseline_s": base_s,
            "speedup": base_s / opt_s if opt_s > 0 else float("inf"),
        }
    return results


def format_results(results: dict[str, dict[str, float]]) -> str:
    return format_table(
        "Hot-path datapath benchmarks (seconds per op)",
        ["workload", "optimized", "baseline", "speedup"],
        [
            [name, f"{r['optimized_s']:.3e}", f"{r['baseline_s']:.3e}",
             f"{r['speedup']:.1f}x"]
            for name, r in results.items()
        ],
    )
