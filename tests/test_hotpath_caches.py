"""Cache-invalidation regression tests for the vectorized datapath.

Every cache added for the hot path must also be *safe*: freeing a
datatype drops its per-count segment maps, freeing an allocation never
leaves a stale translation-table entry behind (even when a later
allocation reuses the virtual address range), and the datatype memos
stay bounded under churn.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.armci import Armci
from repro.armci.access_modes import AccessMode
from repro.armci.gmr import GmrTable
from repro.armci.iov import (
    IOV_DATATYPE_CACHE_MAX,
    _hindexed_cached,
    iov_datatype_cache_clear,
    iov_datatype_cache_len,
)
from repro.armci.strided import (
    STRIDED_DATATYPE_CACHE_MAX,
    strided_datatype,
    strided_datatype_cache_clear,
    strided_datatype_cache_len,
)
from repro.bench.hotpath import _BenchGmr
from repro.mpi import datatypes as dt
from repro.mpi.errors import (
    ArgumentError,
    RankKilledError,
    RMARangeError,
    TargetFailedError,
)
from repro.mpi.runtime import Runtime

from conftest import spmd


# ---------------------------------------------------------------------------
# Datatype per-count segment-map cache
# ---------------------------------------------------------------------------


def test_datatype_free_drops_count_map_cache():
    t = dt.vector(4, 2, 3, dt.INT).commit()
    for c in (1, 2, 3):
        t.segment_map(c)
    # count=1 is served by the dedicated _segmap slot; 2 and 3 land here
    assert len(t._count_maps) == 2
    t.free()
    assert len(t._count_maps) == 0
    with pytest.raises(dt.DatatypeError):
        t.segment_map(2)


def test_count_map_cache_hits_and_bound():
    t = dt.vector(8, 1, 2, dt.BYTE).commit()
    assert t.segment_map(3) is t.segment_map(3)  # cached object reused
    for c in range(1, dt.Datatype._COUNT_CACHE_MAX + 2):
        t.segment_map(c)
    assert len(t._count_maps) <= dt.Datatype._COUNT_CACHE_MAX
    # evicted entries are rebuilt correctly, not served stale
    rebuilt = t.segment_map(3)
    assert rebuilt.total_bytes == 3 * t.size


def test_recommit_after_free_rebuilds_segment_maps():
    t = dt.vector(4, 2, 3, dt.INT).commit()
    before = t.segment_map(2)
    t.free()
    t.commit()
    after = t.segment_map(2)
    np.testing.assert_array_equal(before.offsets, after.offsets)
    np.testing.assert_array_equal(before.lengths, after.lengths)


# ---------------------------------------------------------------------------
# SegmentMap.shifted(): translation-invariant memos travel with the copy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "offsets, lengths",
    [
        ([0, 64, 128, 192], [32, 32, 32, 32]),  # arithmetic, disjoint rows
        ([0, 8, 16], [24, 24, 24]),  # arithmetic, step < seg_len
        ([40, 0, 100], [8, 16, 4]),  # irregular, not address-ordered
        ([16], [48]),  # contiguous
        ([], []),
    ],
)
def test_shifted_map_answers_from_carried_memos(offsets, lengths):
    """``Win._op_maps`` shifts the datatype's cached map on every
    put/get/acc: the copy must not rescan its offsets for what a
    translation cannot change."""
    fresh = dt.SegmentMap(np.array(offsets, np.int64) + 1000, np.array(lengths, np.int64))
    expected = (
        fresh.total_bytes, fresh.uniform_seg_len, fresh._arith_params(),
        # (an empty map has no bytes to bound; the shifted copy says (d, d))
        fresh.overlaps_self(), fresh.bounds() if offsets else (1000, 1000),
    )
    cached = dt.SegmentMap(np.array(offsets, np.int64), np.array(lengths, np.int64))
    moved = cached.shifted(1000)
    assert moved.offsets.tolist() == fresh.offsets.tolist()
    moved.offsets = moved.lengths = None  # any rescan now raises
    assert (
        moved.total_bytes, moved.uniform_seg_len, moved._arith_params(),
        moved.overlaps_self(), moved.bounds(),
    ) == expected
    # ... and the cached map kept them too: the next shift computes nothing
    cached.offsets = cached.lengths = None
    assert cached.overlaps_self() == expected[3]
    assert cached._arith_params() == (
        expected[2] and (expected[2][0] - 1000,) + expected[2][1:]
    )


# ---------------------------------------------------------------------------
# GmrTable last-hit cache vs. free + re-malloc at a reused address
# ---------------------------------------------------------------------------


def test_gmr_hot_entry_dropped_on_unregister():
    table = GmrTable()
    old = _BenchGmr(0x1000, 0x100)
    table.register(old)
    assert table.lookup(0, 0x1040) is old  # primes the hot entry
    table.unregister(old)
    assert table.lookup(0, 0x1040) is None
    # a new allocation at the *same* base must resolve to the new GMR
    new = _BenchGmr(0x1000, 0x100)
    table.register(new)
    assert table.lookup(0, 0x1040) is new


def test_gmr_hot_entry_survives_unrelated_unregister():
    table = GmrTable()
    a = _BenchGmr(0x1000, 0x100)
    b = _BenchGmr(0x9000, 0x100)
    table.register(a)
    table.register(b)
    assert table.lookup(0, 0x1010) is a
    table.unregister(b)
    assert table.lookup(0, 0x1010) is a


def test_armci_free_then_remalloc_at_reused_va():
    """ARMCI_Free + re-ARMCI_Malloc landing on the same virtual range
    (forced by rewinding the simulated VA cursor) must translate to the
    fresh GMR, never the freed one."""

    def main(comm):
        a = Armci.init(comm)
        p1 = a.malloc(64)
        gmr1 = a.table.require(p1[0])
        # hammer the lookup so the hot entry points at gmr1 on every rank
        for _ in range(4):
            assert a.table.lookup(0, p1[0].addr + 8) is gmr1
        cursor = dict(a.table._next_va)
        a.barrier()
        a.free(p1[a.my_id])
        assert a.table.lookup(0, p1[0].addr + 8) is None
        # rewind the VA allocator so the next malloc reuses the range
        a.table._next_va.clear()
        a.table._next_va.update({r: c - 64 for r, c in cursor.items()})
        p2 = a.malloc(64)
        assert p2[0].addr == p1[0].addr
        gmr2 = a.table.require(p2[0])
        assert gmr2 is not gmr1
        assert a.table.lookup(0, p1[0].addr + 8) is gmr2
        a.barrier()
        a.free(p2[a.my_id])
        a.finalize()

    spmd(2, main)


# ---------------------------------------------------------------------------
# strided / IOV datatype LRUs: bounded, and safe against caller free()
# ---------------------------------------------------------------------------


def test_strided_datatype_lru_is_bounded():
    strided_datatype_cache_clear()
    try:
        for i in range(STRIDED_DATATYPE_CACHE_MAX + 40):
            strided_datatype((8 + i,), (4, 3))
        assert strided_datatype_cache_len() <= STRIDED_DATATYPE_CACHE_MAX
    finally:
        strided_datatype_cache_clear()


def test_strided_datatype_cache_hit_recommits_freed_entry():
    strided_datatype_cache_clear()
    try:
        t1 = strided_datatype((16,), (8, 4))
        t1.free()  # a rogue caller frees the shared entry
        t2 = strided_datatype((16,), (8, 4))
        assert t2 is t1 and t2.committed
        assert t2.segment_map().nsegments == 4
    finally:
        strided_datatype_cache_clear()


def test_strided_datatype_is_keyed_by_element_type():
    strided_datatype_cache_clear()
    try:
        as_bytes = strided_datatype((32,), (16, 4))
        as_doubles = strided_datatype((32,), (16, 4), dt.DOUBLE)
        assert as_doubles is not as_bytes
        assert as_doubles is strided_datatype((32,), (16, 4), dt.DOUBLE)
        assert as_doubles.base == np.dtype("f8")
        mb, md = as_bytes.segment_map(), as_doubles.segment_map()
        assert np.array_equal(md.offsets, mb.offsets)
        assert np.array_equal(md.lengths, mb.lengths)
        with pytest.raises(ArgumentError, match="not aligned to MPI_DOUBLE elements"):
            strided_datatype((20,), (12, 4), dt.DOUBLE)
    finally:
        strided_datatype_cache_clear()


def test_repeated_acc_s_hits_the_strided_memo(monkeypatch):
    """acc_s derives its typed target layout once per patch width, not on
    every call nor for every height: the unit layout (one row) is built
    once per side and the row count travels as the MPI count."""
    from repro.armci import strided

    built = []
    real = strided.strided_datatype_uncached

    def counting(strides, count, elem=dt.BYTE):
        built.append((tuple(strides), tuple(count), elem.name))
        return real(strides, count, elem)

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(512)
        a.barrier()
        if a.my_id == 0:
            src = np.ones((4, 4))
            for rows in (4, 3, 2, 1, 4):
                a.acc_s(src, [32], ptrs[1], [64], [32, rows], scale=2.0)
        a.barrier()
        out = np.zeros((4, 8))
        a.get(ptrs[1], out, 256)
        a.free(ptrs[a.my_id])
        return out

    strided_datatype_cache_clear()
    monkeypatch.setattr(strided, "strided_datatype_uncached", counting)
    try:
        out = spmd(2, main)[0]
    finally:
        strided_datatype_cache_clear()
    # row r was in every call with more than r rows
    assert np.array_equal(out[:, :4], np.repeat([[10.0], [8.0], [6.0], [4.0]], 4, axis=1))
    assert not out[:, 4:].any()
    # one origin row (bytes) and one target row (doubles), built once
    assert sorted(built) == [((), (32,), "MPI_BYTE"), ((), (32,), "MPI_DOUBLE")]


def test_a_height_sweep_of_a_warm_width_builds_no_datatype(monkeypatch):
    """The compiled strided op is one per patch width: once one straddling
    put, get and acc of a width has run, every other cut of a straddling
    patch of that width — every pair of piece heights — builds no datatype
    and adds no memo entry."""
    from repro.armci import strided
    from repro.ga import GlobalArray

    built = []
    real = strided.strided_datatype_uncached

    def counting(strides, count, elem=dt.BYTE):
        built.append((tuple(strides), tuple(count), elem.name))
        return real(strides, count, elem)

    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ga = GlobalArray.create(a, (128, 40), "f8", chunk=(1, 40))  # row blocks at 64
        a.barrier()
        sizes = {}
        if a.my_id == 0:
            data, out = np.ones((64, 16)), np.empty((64, 16))
            ga.put((32, 4), (96, 20), data)
            ga.get((32, 4), (96, 20), out=out)
            ga.acc((32, 4), (96, 20), data)
            sizes["warm"] = (len(built), strided_datatype_cache_len())
            for cut in range(1, 64):  # piece heights (cut, 64 - cut)
                lo, hi = (64 - cut, 4), (128 - cut, 20)
                ga.put(lo, hi, data)
                ga.get(lo, hi, out=out)
                ga.acc(lo, hi, data)
            sizes["swept"] = (len(built), strided_datatype_cache_len())
        a.barrier()
        ga.destroy()
        a.finalize()
        return sizes

    strided_datatype_cache_clear()
    monkeypatch.setattr(strided, "strided_datatype_uncached", counting)
    try:
        sizes = spmd(2, main, watchdog_s=5.0)[0]
    finally:
        strided_datatype_cache_clear()
    # the warm ops built one row per element type, nothing per height
    assert sorted(built) == [((), (128,), "MPI_BYTE"), ((), (128,), "MPI_DOUBLE")]
    assert sizes["swept"] == sizes["warm"]


def test_iov_datatype_lru_is_bounded_and_keyed_by_displacements():
    iov_datatype_cache_clear()
    try:
        d = np.arange(4, dtype=np.int64) * 32
        t1 = _hindexed_cached(8, d, dt.BYTE)
        assert _hindexed_cached(8, d.copy(), dt.BYTE) is t1  # value-keyed
        assert _hindexed_cached(8, d + 1, dt.BYTE) is not t1
        for i in range(IOV_DATATYPE_CACHE_MAX + 20):
            _hindexed_cached(8, d + i, dt.BYTE)
        assert iov_datatype_cache_len() <= IOV_DATATYPE_CACHE_MAX
    finally:
        iov_datatype_cache_clear()


# ---------------------------------------------------------------------------
# per-op allocations that every workload paid
# ---------------------------------------------------------------------------


def test_flush_rebuilds_only_the_interval_sets_that_recorded():
    """A fresh set shares the module's empty coverage; a flush replaces a
    set only if something was added to it since the last one."""
    from repro import mpi
    from repro.mpi.window import _NO_COVERAGE, _IntervalSet

    fresh = _IntervalSet()
    assert fresh._cov_off is _NO_COVERAGE and fresh._cov_len is _NO_COVERAGE
    assert not _NO_COVERAGE.flags.writeable
    footprint = dt.SegmentMap.arithmetic(8, 8, 8, 1)

    def main(comm):
        win, _ = mpi.Win.allocate(comm, 64, mpi3=True)
        win.lock_all()
        if comm.rank == 0:
            epoch = win._epochs[(comm.world_rank(0), 1)]
            puts, gets, accs = epoch.puts, epoch.gets, epoch.accs
            win.flush(1)
            assert epoch.puts is puts and epoch.gets is gets and epoch.accs is accs
            win.put(np.zeros(8, np.uint8), 1, 8)
            win.accumulate(np.ones(1), 1, 16)
            sum_cover = epoch.accs["MPI_SUM"]
            win.accumulate(np.ones(1), 1, 16)
            assert epoch.accs["MPI_SUM"] is sum_cover and sum_cover.count == 2
            win.flush(1)
            assert epoch.puts is not puts and epoch.puts.count == 0
            assert epoch.gets is gets
            assert epoch.accs == {}
            # the replaced set kept what it had recorded: nothing shared was written
            assert puts.overlaps(footprint) and not epoch.puts.overlaps(footprint)
        comm.barrier()
        win.unlock_all()
        win.free()

    spmd(2, main)
    assert len(_NO_COVERAGE) == 0


def test_mutex_epoch_datatype_is_built_once_per_rank(monkeypatch):
    """lock/unlock/trylock reuse one committed ``indexed_block`` per rank."""
    from repro.armci import mutexes

    built = []
    real = dt.indexed_block

    def counting(blocklength, displacements, oldtype):
        built.append(tuple(displacements))
        return real(blocklength, displacements, oldtype)

    monkeypatch.setattr(mutexes.dt, "indexed_block", counting)

    def main(comm):
        ms = mutexes.MutexSet.create(comm, 2)
        for mutex in (0, 1):
            for _ in range(3):
                ms.lock(mutex, 0)
                ms.unlock(mutex, 0)
            if ms.trylock(mutex, 1):
                ms.unlock(mutex, 1)
        comm.barrier()
        ms.destroy()

    spmd(3, main)
    # one MutexSet per rank thread, one build each — not one per call
    assert sorted(built) == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# owner plans / compiled strided ops: bounded, and right across an eviction
# ---------------------------------------------------------------------------


def test_plan_and_compiled_op_tables_stay_bounded_under_churn():
    """5 000 random patch shapes: far more patch classes and patch widths
    (a compiled strided op is one per width, whatever the height) than
    either table holds.  Both stay at or under their bound after every op,
    both evict, and the array still equals its replica."""
    from repro.ga import GlobalArray
    from repro.ga.array import OWNER_PLAN_MAX

    seen = {}

    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        # two row blocks, wide enough for more widths than the memo holds
        ga = GlobalArray.create(a, (64, 320), "f8", chunk=(1, 320))
        a.barrier()
        if a.my_id == 0:
            ref = np.zeros((64, 320))
            ga.put((0, 0), (64, 320), ref)
            rng = np.random.default_rng(19)
            plans_hi = plan_drops = 0
            for i in range(5000):
                r0, c0 = int(rng.integers(0, 64)), int(rng.integers(0, 320))
                r1, c1 = int(rng.integers(r0, 65)), int(rng.integers(c0, 321))
                data = rng.integers(-9, 10, (r1 - r0, c1 - c0)).astype("f8")
                before = len(ga._plans)
                ga.put((r0, c0), (r1, c1), data)
                ref[r0:r1, c0:c1] = data
                plan_drops += len(ga._plans) < before
                plans_hi = max(plans_hi, len(ga._plans))
                assert len(ga._plans) <= OWNER_PLAN_MAX
                assert strided_datatype_cache_len() <= STRIDED_DATATYPE_CACHE_MAX
                if i % 50 == 0:  # the same class again, now warm, read back
                    np.testing.assert_array_equal(ga.get((r0, c0), (r1, c1)), data)
            np.testing.assert_array_equal(ga.get((0, 0), (64, 320)), ref)
            seen.update(plans_hi=plans_hi, plan_drops=plan_drops)
        a.barrier()
        ga.destroy()
        a.finalize()

    strided_datatype_cache_clear()
    try:
        spmd(2, main, watchdog_s=5.0)
        assert strided_datatype_cache_len() == STRIDED_DATATYPE_CACHE_MAX  # it filled
    finally:
        strided_datatype_cache_clear()
    assert seen["plans_hi"] == OWNER_PLAN_MAX and seen["plan_drops"] >= 1


# ---------------------------------------------------------------------------
# window bookkeeping of a strided op never materialises its closed-form map
# ---------------------------------------------------------------------------


def test_disjoint_strided_stream_never_materialises_its_footprints(monkeypatch, request):
    """Recording a put/get/acc, checking it against everything recorded —
    in the origin's own epoch and in another origin's concurrent one — and
    the accumulate alignment check all answer from the closed form: a
    stream whose bounding boxes never meet builds no offsets/lengths array."""
    from repro import mpi

    if request.config.getoption("--faults"):
        pytest.skip("an installed fault injector packs every payload")

    def poisoned(self, name):
        raise AssertionError(f"closed-form SegmentMap materialised .{name}")

    rows = strided_datatype((64,), (16, 4))  # 4 rows of 16 B, 64 apart: box of 208 B
    typed = strided_datatype((64,), (16, 4), dt.DOUBLE)

    def main(comm):
        win, local = mpi.Win.allocate(comm, 8192, mpi3=True)
        comm.barrier()
        win.lock_all()
        comm.barrier()
        if comm.rank == 0:
            monkeypatch.setattr(dt.SegmentMap, "__getattr__", poisoned)
        comm.barrier()
        base = 4096 * comm.rank  # both origins target rank 1, 4 KiB apart
        for i in range(3):  # unflushed: the sets keep growing, never compact
            win.put(np.full(64, 1 + i, np.uint8), 1, base + 768 * i, target_datatype=rows)
            win.get(np.zeros(64, np.uint8), 1, base + 768 * i + 256, target_datatype=rows)
            win.accumulate(np.ones(8), 1, base + 768 * i + 512, target_datatype=typed)
        win.flush(1)
        comm.barrier()
        if comm.rank == 0:
            monkeypatch.undo()
        comm.barrier()
        win.unlock_all()
        comm.barrier()
        if comm.rank == 1:
            tile = local.reshape(-1, 64)
            assert (tile[0:4, :16] == 1).all() and (tile[64:68, :16] == 1).all()
            assert (local[512:528].view("f8") == 1.0).all()
        win.free()

    spmd(2, main)


def test_rank_threads_share_the_strided_memo_under_eviction():
    """The strided memo is module-level, so on the thread backend every rank
    thread recalls, stores and evicts in the same ``OrderedDict`` on every
    op.  Four ranks on two cores, a 10 µs switch interval and more patch
    widths than the memo holds: every transfer must still round-trip
    (an entry evicted between a hit's lookup and its LRU bump stays valid)
    and the bound must hold."""
    import sys

    def main(comm):
        a = Armci.init(comm, datapath="mpi3")
        ptrs = a.malloc(64 * 1024)
        a.barrier()
        peer = (a.my_id + 1) % a.nproc
        rng = np.random.default_rng([23, a.my_id])
        for i in range(400):
            rows, width = int(rng.integers(1, 40)), int(rng.integers(1, 513))
            src = rng.integers(0, 255, (rows, width)).astype(np.uint8)
            a.put_s(src, [width], ptrs[peer], [64 * 8], [width, rows])
            out = np.zeros_like(src)
            a.get_s(ptrs[peer], [64 * 8], out, [width], [width, rows])
            assert np.array_equal(out, src), (a.my_id, i)
            assert strided_datatype_cache_len() <= STRIDED_DATATYPE_CACHE_MAX + a.nproc
        a.barrier()
        a.free(ptrs[a.my_id])
        a.finalize()

    interval = sys.getswitchinterval()
    strided_datatype_cache_clear()
    sys.setswitchinterval(1e-5)
    try:
        spmd(4, main, watchdog_s=10.0)
    finally:
        sys.setswitchinterval(interval)
        strided_datatype_cache_clear()


# ---------------------------------------------------------------------------
# the blocking patch op: a call budget, and every check still on its path
# ---------------------------------------------------------------------------


def _repro_calls(op) -> "Counter[str]":
    """Python calls into ``repro.*`` made by the third (warm) ``op()``, per
    function (``module.name``)."""
    op()
    op()
    calls: "Counter[str]" = Counter()

    def profile(frame, event, _arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("repro."):
            calls[f"{module}.{frame.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return calls


def _call_budget_body(comm, datapath="mpi3"):
    from repro.ga import GlobalArray

    a = Armci.init(comm, datapath=datapath)
    ga = GlobalArray.create(a, (2048, 2048), "f8")  # row blocks 0..1023 | 1024..2047
    a.barrier()
    counts = {}
    if a.my_id == 0:
        out, data = np.empty((16, 16)), np.ones((16, 16))
        # the k-th straddling put cuts at row 8 + k: pieces of heights the
        # strided memo has not seen by the profiled third call, whose owner
        # plan is made warm first (GA's table, not the one budgeted here)
        cold = [((1016 - k, 10), (1032 - k, 26)) for k in range(3)]
        for lo, hi in cold:
            patch, _, flat, strides = ga._request(lo, hi, data)
            ga._owner_pieces(patch, flat, strides)
        cold_puts = iter(cold)
        ops = {
            "get": lambda: ga.get((1500, 10), (1516, 26), out=out),
            "put": lambda: ga.put((1500, 10), (1516, 26), data),
            "acc": lambda: ga.acc((1500, 10), (1516, 26), data),
            "straddling put": lambda: ga.put((1016, 10), (1032, 26), data),
            "cold-height straddling put": lambda: ga.put(*next(cold_puts), data),
        }
        counts = {name: _repro_calls(op) for name, op in ops.items()}
    a.barrier()
    ga.destroy()
    a.finalize()
    return counts


#: ``repro.*`` calls each warm op may make.  It made 105/107/118/201 before
#: the blocking path established each fact about an owner piece once,
#: 62/61/67/115 before an owner piece became one window transaction (the
#: op completing itself instead of a following ``Win.flush``), and
#: 56/56/61/105 before the compiled strided op's lookup was inlined.  A
#: straddling put whose piece heights are new hits the compiled op (one per
#: patch width; the row count is the MPI count) and pays only each piece's
#: closed-form count map, three calls (it made 253 while the memo was keyed
#: on the whole count and every new height rebuilt both datatypes).  It
#: made 55/55/60/103/109 before an accumulate combined the origin's rows
#: into the target's in place (no packed payload, no ``Op.apply``) and
#: ``copy_from`` shared the row pairing that builds both views
_CALL_BUDGET = {
    "get": 54, "put": 54, "acc": 57, "straddling put": 101, "cold-height straddling put": 107,
}


def test_blocking_patch_op_call_budget():
    """A warm 16x16 ``ga.get/put/acc`` (one remote owner) and an
    owner-straddling ``ga.put``, warm and at piece heights not seen before,
    on the mpi3 datapath stay within their call budget, and none calls
    ``Win.flush``: the count is deterministic and host-independent, so the
    path cannot quietly grow back.  A plain runtime (no ambient sanitizer
    or injector) is what is budgeted."""
    rt = Runtime(2, watchdog_s=5.0, apply_hooks=False)
    strided_datatype_cache_clear()
    calls = rt.spmd(_call_budget_body)[0]
    over = {
        name: (calls[name].total(), budget)
        for name, budget in _CALL_BUDGET.items()
        if calls[name].total() > budget
    }
    assert not over, f"over budget (calls, budget): {over}"
    flush = "repro.mpi.window.flush"  # Win.flush
    flushes = {name: c[flush] for name, c in calls.items() if c[flush]}
    assert not flushes, f"a blocking piece called Win.flush: {flushes}"


#: the same on the mpi2 datapath.  It made 86/86/93/165 while an owner
#: piece was ``Win.lock``, the op and ``Win.unlock`` (three window
#: sections) instead of one op with ``lock=``, 77/77/82/147 before the
#: lookup was inlined, 295 for the cold-height put while the strided
#: memo was keyed on the whole count, and 76/76/81/145/151 while each
#: piece built a fresh epoch record, made ``lock``'s checks through
#: ``_begin`` and waited once on a lock it was granted at once
_CALL_BUDGET_MPI2 = {
    "get": 60, "put": 60, "acc": 63, "straddling put": 113, "cold-height straddling put": 119,
}


def test_blocking_patch_op_call_budget_mpi2():
    """The mpi2 twin of :func:`test_blocking_patch_op_call_budget` on
    threads: each owner piece runs in an epoch of its own as one window
    transaction, so none calls ``Win.lock`` or ``Win.unlock``."""
    rt = Runtime(2, watchdog_s=5.0, apply_hooks=False)
    strided_datatype_cache_clear()
    calls = rt.spmd(_call_budget_body, "mpi2")[0]
    over = {
        name: (calls[name].total(), budget)
        for name, budget in _CALL_BUDGET_MPI2.items()
        if calls[name].total() > budget
    }
    assert not over, f"over budget (calls, budget): {over}"
    sync = ("repro.mpi.window.lock", "repro.mpi.window.unlock")  # Win.lock/unlock
    locks = {name: [c[f] for f in sync] for name, c in calls.items() if any(c[f] for f in sync)}
    assert not locks, f"a blocking piece called Win.lock/Win.unlock: {locks}"


#: the warm accumulate piece on procs, per datapath: the thread budget's
#: calls plus the footprint reservation (``ProcWin._atomic_section``) and,
#: on mpi2, the epoch flock.  It made 70 (mpi3) and 92 (mpi2) while the
#: reservation was built per op and re-derived its slot from the footprint
_CALL_BUDGET_PROC_ACC = {"mpi3": 63, "mpi2": 73}


@pytest.mark.parametrize("datapath", ["mpi3", "mpi2"])
def test_blocking_acc_call_budget_on_procs(datapath):
    """The proc twin of the accumulate rows above: the Python around the
    reservation's four ``flock`` calls cannot creep back (uncontended:
    rank 1 reserves nothing, so no wait and no busy probe)."""
    rt = Runtime(2, backend="proc", watchdog_s=5.0, apply_hooks=False)
    strided_datatype_cache_clear()
    calls = rt.spmd(_call_budget_body, datapath, join_timeout=120.0)[0]["acc"]
    assert calls.total() <= _CALL_BUDGET_PROC_ACC[datapath], sorted(calls.items())
    assert calls["repro.mpi.backend_proc.__enter__"] == 1  # it did reserve


@contextmanager
def _in_epoch(a, win, target):
    """An access epoch on ``target``: the standing one, completed by a flush
    (mpi3), or a lock of its own (mpi2)."""
    if a.mpi3:
        yield
        win.flush(target)
    else:
        win.lock(target, "exclusive")
        try:
            yield
        finally:
            win.unlock(target)


def _check_noncontiguous_origin(a):
    """``Win.put`` refuses a non-C-contiguous origin."""
    ptrs = a.malloc(64)
    win = a.table.require(ptrs[0]).win
    if a.my_id == 0:
        with _in_epoch(a, win, 1), pytest.raises(
            ArgumentError, match=r"RMA buffers must be C-contiguous"
        ):
            win.put(np.zeros((4, 4))[:, ::2], 1, 0)
    a.barrier()
    a.free(ptrs[a.my_id])


def _check_2d_origin_is_byte_exact(a):
    """``Win.put`` of a 2-D ``f8`` origin moves exactly its bytes."""
    ptrs = a.malloc(128)
    win = a.table.require(ptrs[0]).win
    if a.my_id == 0:
        with _in_epoch(a, win, 1):
            win.put(np.arange(8.0).reshape(2, 4), 1, 8)
        got = np.zeros(128, np.uint8)
        a.get(ptrs[1], got, 128)
        np.testing.assert_array_equal(got[8:72].view("f8"), np.arange(8.0))
        assert not got[:8].any() and not got[72:].any()
    a.barrier()
    a.free(ptrs[a.my_id])


def _check_strided_footprint_leaves_slab(a):
    """``put_s`` whose remote footprint runs past the target's slab."""
    ptrs = a.malloc(256)
    if a.my_id == 0:
        with pytest.raises(
            RMARangeError, match=r"access \[200,296\) outside window of 256B at target 1"
        ):
            a.put_s(np.zeros(64, np.uint8), [32], ptrs[1] + 200, [64], [32, 2])
    a.barrier()
    a.free(ptrs[a.my_id])


def _check_access_mode(a):
    """A put into a GMR whose §VIII-A access mode forbids puts."""
    ptrs = a.malloc(64)
    a.set_access_mode(ptrs[a.my_id], AccessMode.READ_ONLY)
    if a.my_id == 0:
        with pytest.raises(
            ArgumentError, match=r"put on GMR \d+ violates access mode read_only \(§VIII-A\)"
        ):
            a.put(np.zeros(4), ptrs[1])
    a.barrier()
    a.set_access_mode(ptrs[a.my_id], AccessMode.DEFAULT)
    a.free(ptrs[a.my_id])


def _check_put_from_access_view(a):
    """``ga.put`` from a ``ga.access()`` view: §V-E.1 stages it, once."""
    from repro.ga import GlobalArray

    ga = GlobalArray.create(a, (8, 4), "f8")  # rows 0..3 on rank 0, 4..7 on rank 1
    if a.my_id == 0:
        view = ga.access()
        view[...] = np.arange(16.0).reshape(4, 4)
        ga.release()
        before = a.stats.staged_copies
        ga.put((4, 0), (6, 4), view[:2])
        assert a.stats.staged_copies == before + 1
        np.testing.assert_array_equal(ga.get((4, 0), (6, 4)), np.arange(8.0).reshape(2, 4))
    a.barrier()
    ga.destroy()


def _check_freed_gmr(a):
    """An op on a pointer into a freed allocation."""
    ptrs = a.malloc(64)
    a.barrier()
    a.free(ptrs[a.my_id])
    if a.my_id == 0:
        with pytest.raises(ArgumentError, match=r"does not fall in any registered GMR"):
            a.put(np.zeros(1), ptrs[1])


#: the checks a blocking op makes on its way down, one row each
_PATH_CHECKS = [
    _check_noncontiguous_origin,
    _check_2d_origin_is_byte_exact,
    _check_strided_footprint_leaves_slab,
    _check_access_mode,
    _check_put_from_access_view,
    _check_freed_gmr,
]


def _path_checks_body(comm, datapath):
    a = Armci.init(comm, datapath=datapath)
    for check in _PATH_CHECKS:
        check(a)
        a.barrier()
    a.finalize()


#: what an op towards a rank marked dead raises, per datapath: mpi2's own
#: epoch refuses the lock; under mpi3 the op's completing flush reports it
_DEAD_TARGET = {
    "mpi2": r"lock: target rank 1 of win \d+ has failed",
    "mpi3": r"flush\(1\) on failed target of win \d+",
}


def _dead_target_body(comm, datapath):
    a = Armci.init(comm, datapath=datapath)
    ptrs = a.malloc(64)  # repro: lint-ignore[lint-leak] — no collective free past a death
    a.barrier()
    rt = comm.runtime
    if a.my_id == 1:
        with rt.cond:
            rt.mark_dead(comm.world_rank(1))
        raise RankKilledError("rank 1 dies")
    with rt.cond:
        rt.wait_for(lambda: rt.dead_ranks, what="death observed")
    with pytest.raises(TargetFailedError, match=_DEAD_TARGET[datapath]):
        a.put(np.zeros(1), ptrs[1])


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_every_check_fires_through_the_blocking_path(backend, datapath):
    """Each row of :data:`_PATH_CHECKS` — and, on threads, an op towards a
    dead rank — gives the error class and message it always gave, on both
    backends and both datapaths (plain runtimes: procs take no ambient
    sanitizer or injector)."""
    Runtime(2, backend=backend, watchdog_s=5.0, apply_hooks=False).spmd(
        _path_checks_body, datapath
    )
    if backend == "thread":
        Runtime(2, watchdog_s=5.0, apply_hooks=False).spmd(_dead_target_body, datapath)
