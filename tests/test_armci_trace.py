"""Tests for the ARMCI op record: its counters and its trace (ARMCI_PROFILE)."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.armci import Armci, ArmciConfig
from repro.ga import GlobalArray, zero
from repro.mpi.runtime import Runtime
from repro.simtime import INFINIBAND, MPITimingPolicy

from conftest import spmd


def test_trace_records_ops_and_targets():
    def main(comm):
        rt = Armci.init(comm)
        tr = rt.trace()
        ptrs = rt.malloc(64)
        other = (rt.my_id + 1) % rt.nproc
        rt.put(np.ones(4), ptrs[other])
        rt.get(ptrs[other], np.zeros(4))
        rt.acc(np.ones(2), ptrs[other])
        rt.barrier()
        mine = [e for e in tr.events if e.rank == rt.my_id]
        assert [e.op for e in mine] == ["put", "get", "acc"]
        assert all(e.target == other for e in mine)
        assert mine[0].nbytes == 32 and mine[2].nbytes == 16
        rt.free(ptrs[rt.my_id])

    spmd(2, main)


def test_trace_durations_use_modeled_time():
    rt = Runtime(2)
    rt.timing = MPITimingPolicy(INFINIBAND.mpi)

    def main(comm):
        a = Armci.init(comm)
        tr = a.trace()
        ptrs = a.malloc(1 << 20)
        a.barrier()
        if a.my_id == 0:
            a.put(np.zeros(1 << 17), ptrs[1])  # 1 MiB
            ev = [e for e in tr.events if e.op == "put"][0]
            # duration = lock + wire + unlock on the IB MPI path
            path = INFINIBAND.mpi
            expect = (
                path.sync_time("lock")
                + path.xfer_time("put", 1 << 20)
                + path.sync_time("unlock")
            )
            assert abs(ev.duration - expect) < 1e-12
        a.barrier()
        a.free(ptrs[a.my_id])

    rt.spmd(main)


def test_trace_summary_and_matrix():
    def main(comm):
        a = Armci.init(comm)
        tr = a.trace()
        ptrs = a.malloc(64)
        if a.my_id == 0:
            for _ in range(3):
                a.put(np.ones(4), ptrs[1])
            a.rmw("fetch_and_add_long", ptrs[1], 1)
        a.barrier()
        if a.my_id == 0:
            summary = tr.summary_by_op()
            assert summary["put"][0] == 3
            assert summary["put"][1] == 96
            assert summary["rmw"][:2] == (1, 8)  # one 8-byte element
            assert tr.traffic_matrix()[(0, 1)] == 96 + 8
            report = tr.render(max_events=5)
            assert "put" in report and "0 -> 1" in report
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_trace_clear():
    def main(comm):
        a = Armci.init(comm)
        tr = a.trace()
        ptrs = a.malloc(16)
        a.put(np.ones(2), ptrs[a.my_id])
        assert tr.events
        a.barrier()
        tr.clear()
        assert not tr.events
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_an_untraced_rank_keeps_counting_but_appends_nothing():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(16)
        assert a.record.events is None
        a.put(np.ones(2), ptrs[a.my_id])
        assert a.record.puts == 1 and a.record.events is None
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_traced_runtime_works_under_ga():
    """Tracing changes nothing GA sees: GA runs on the same object."""

    def main(comm):
        a = Armci.init(comm)
        tr = a.trace()
        ga = GlobalArray.create(a, (6, 6), "f8")
        zero(ga)
        if a.my_id == 0:
            ga.put((1, 1), (5, 5), np.ones((4, 4)))
        ga.sync()
        got = ga.get((0, 0), (6, 6))
        assert got.sum() == 16.0
        # each rank's record is its own: events are per-process views
        ops = {e.op for e in tr.events}
        assert "get_s" in ops
        if a.my_id == 0:
            assert "put_s" in ops
        ga.destroy()

    spmd(4, main)


# ---------------------------------------------------------------------------
# exact bytes: the trace reads what the op moved, as the counters do
# ---------------------------------------------------------------------------


def _moved(rec) -> int:
    return rec.bytes_put + rec.bytes_got + rec.bytes_acc


def test_a_ga_get_traces_each_owner_piece_at_its_bytes():
    """An 8x8 ``f8`` get over the 2x2 grid of 4 ranks is 4 strided gets,
    one 4x4 block (128 B) from each owner."""

    def main(comm):
        a = Armci.init(comm)
        ga = GlobalArray.create(a, (8, 8), "f8")
        zero(ga)
        ga.sync()
        if a.my_id == 0:
            tr = a.trace()
            before = _moved(tr)
            ga.get((0, 0), (8, 8))
            assert sorted((e.op, e.target, e.nbytes) for e in tr.events) == [
                ("get_s", t, 128) for t in range(4)
            ]
            assert sum(e.nbytes for e in tr.events) == _moved(tr) - before == 512
        ga.sync()
        ga.destroy()

    spmd(4, main)


@pytest.mark.parametrize("strided_method", ["direct", "iov"])
def test_raw_strided_and_iov_ops_trace_the_bytes_they_move(strided_method):
    """A put_s of 4 rows x 16 B from a 1 KiB buffer moves 64 B; a putv or
    getv moves ``nsegments * seg_bytes``, not its local buffer."""

    def main(comm):
        a = Armci.init(comm, ArmciConfig(strided_method=strided_method))
        ptrs = a.malloc(1024)
        a.barrier()
        if a.my_id == 0:
            tr = a.trace()
            local = np.zeros(1024, np.uint8)
            a.put_s(local, [256], ptrs[1], [64], [16, 4])
            a.putv(local, [0, 100, 200], [ptrs[1] + 512 + 64 * i for i in range(3)], 24)
            a.getv([ptrs[1] + 64 * i for i in range(5)], local, [32 * i for i in range(5)], 8)
            assert [(e.op, e.target, e.nbytes) for e in tr.events] == [
                ("put_s", 1, 64), ("putv", 1, 72), ("getv", 1, 40),
            ]
            assert sum(e.nbytes for e in tr.events) == _moved(tr) == 64 + 72 + 40
            assert (tr.bytes_put, tr.bytes_got) == (136, 40)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


# ---------------------------------------------------------------------------
# ownership: each rank writes only its own record, and the totals are exact
# ---------------------------------------------------------------------------

K = 5


def _mixed_ops(comm, datapath):
    """K rounds of every recorded kind of op on each rank, concurrently."""
    a = Armci.init(comm, ArmciConfig(nb_coalesce_threshold=64), datapath=datapath)
    ptrs = a.malloc(256)
    me, n = a.my_id, a.nproc
    right = ptrs[(me + 1) % n]
    a.barrier()
    for _ in range(K):
        a.put(np.ones(2), right)  # 16 B
        a.get(right, np.zeros(1))  # 8 B
        a.acc(np.ones(4), right + 64)  # 32 B
        a.wait(a.nb_put(np.ones(1), right + 128))  # 8 B
        a.wait(a.nb_get(right + 128, np.zeros(1)))  # 8 B
        a.wait(a.nb_acc(np.ones(1), right + 136))  # 8 B
        a.put(ptrs[me] + 200, right + 192, nbytes=8)  # from global memory: staged
        a.fence((me + 1) % n)
        a.rmw("fetch_and_add_long", right + 248, 1)
        # two adjacent nb puts: the second merges into the first on mpi3
        a.wait_all([a.nb_put(np.ones(1), right + 160 + 8 * i, 8) for i in range(2)])
    rec = a.record
    counts = (rec.puts, rec.gets, rec.accs, rec.bytes_put, rec.bytes_got,
              rec.bytes_acc, rec.staged_copies, rec.fences, rec.rmw_ops, rec.coalesced,
              rec.drains)
    a.barrier()
    stats = a.stats
    a.free(ptrs[me])
    return counts, stats


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
def test_every_rank_writes_its_own_record_and_the_totals_are_exact(datapath):
    """4 rank threads on fewer cores, switching as often as the interpreter
    allows: a counter two ranks shared would lose updates."""
    n = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = Runtime(n, watchdog_s=60.0).spmd(_mixed_ops, datapath)
    finally:
        sys.setswitchinterval(interval)
    mpi3 = datapath == "mpi3"
    coalesced = K if mpi3 else 0
    # the barrier after malloc is one fence_all, the one after the counts another
    # mpi3: each wait drains one queue (the merged pair's first handle, both)
    mine = (5 * K, 2 * K, 2 * K, 48 * K, 16 * K, 40 * K, K, K + 1, K, coalesced, 4 * K * mpi3)
    assert [counts for counts, _ in out] == [mine] * n
    stats = out[0][1]  # every rank shares the thread runtime's Armci
    assert (stats.puts, stats.gets, stats.accs) == (5 * K * n, 2 * K * n, 2 * K * n)
    assert (stats.bytes_put, stats.bytes_got, stats.bytes_acc) == (
        48 * K * n, 16 * K * n, 40 * K * n,
    )
    assert (stats.staged_copies, stats.rmw_ops, stats.coalesced) == (
        K * n, K * n, coalesced * n,
    )
    assert stats.fences == (K + 2) * n


def _rank_puts(comm):
    a = Armci.init(comm, datapath="mpi3")
    ptrs = a.malloc(64)
    me = a.my_id
    a.barrier()
    for _ in range(me + 1):
        a.put(np.ones(1), ptrs[(me + 1) % a.nproc])
    got = (a.record.puts, a.record.bytes_put, a.stats.puts)
    a.barrier()
    a.free(ptrs[me])
    return got


def test_a_proc_ranks_record_holds_its_own_ops(request):
    """On procs each process hosts one rank: rank r issued r + 1 puts, and
    its record and its process's totals both read r + 1."""
    if request.config.getoption("--sanitize"):
        pytest.skip("proc backend does not support the ambient sanitizer")
    out = Runtime(3, backend="proc").spmd(_rank_puts, join_timeout=120.0)
    assert out == [(r + 1, 8 * (r + 1), r + 1) for r in range(3)]
