"""Proc-backend tests: thread/proc parity, fault surfacing, fork safety.

The proc backend (:mod:`repro.mpi.backend_proc`) must be a drop-in for
the thread backend at the ARMCI/GA level: the same seeded program must
produce byte-identical global-array contents on both.  Failure handling
crosses a real process boundary here — a SIGKILLed child must surface
as :class:`~repro.mpi.runtime.RankFailedError` on the survivors and the
parent, mirroring what ``mark_dead`` does between threads.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.armci import Armci
from repro.ga import GlobalArray, zero
from repro.mpi import runtime as rt_mod
from repro.mpi.errors import CommError, InternalError
from repro.mpi.group import Group
from repro.mpi.rma_rules import _footprint_slot
from repro.mpi.runtime import RankFailedError, Runtime
from repro.mpi.window import LOCK_EXCLUSIVE, LOCK_SHARED, Win

NPROC = 4


@pytest.fixture(autouse=True)
def _no_ambient_layers(request):
    """Proc runs reject an ambient sanitizer (a thread-only layer); the
    ambient empty fault plan is valid on both backends."""
    if request.config.getoption("--sanitize"):
        pytest.skip("proc backend does not support the ambient sanitizer")


def proc_spmd(nproc, fn, *args):
    """Like conftest.spmd but on real processes (generous join timeout)."""
    return Runtime(nproc, backend="proc").spmd(fn, *args, join_timeout=120.0)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


def _ring_body(comm):
    rank = comm.rank
    vals = comm.allgather(rank * 10)
    comm.send(("ping", rank), (rank + 1) % comm.size, tag=3)
    payload, _st = comm.recv(source=(rank - 1) % comm.size, tag=3)
    local = np.full(4, rank, dtype=np.int64)
    win = Win.create(comm, local, disp_unit=8)
    right = (rank + 1) % comm.size
    win.lock(right, LOCK_EXCLUSIVE)
    win.put(np.full(4, 100 + rank, dtype=np.int64), right, target_count=4)
    win.unlock(right)
    comm.barrier()
    win.lock(rank, LOCK_EXCLUSIVE)
    mine = win.local_view(np.int64).copy()
    win.unlock(rank)
    win.free()
    return vals, payload, mine.tolist()


def test_proc_backend_basics():
    out = proc_spmd(NPROC, _ring_body)
    for rank, (vals, payload, mine) in enumerate(out):
        assert vals == [r * 10 for r in range(NPROC)]
        assert payload == ("ping", (rank - 1) % NPROC)
        assert mine == [100 + (rank - 1) % NPROC] * 4


def test_proc_backend_subgroup_windows_do_not_collide():
    """Disjoint subgroups create windows concurrently; identity must not
    collide even though per-runtime ``win_id`` counters diverge."""

    def body(comm):
        rank = comm.rank
        sub = comm.split(color=rank % 2, key=rank)
        half = np.full(2, 10 * rank, dtype=np.int64)
        # group 0 creates an extra window first, desynchronising any
        # naive creation-order-based identity
        if rank % 2 == 0:
            extra = Win.create(sub, np.zeros(2, dtype=np.int64), disp_unit=8)
        win = Win.create(sub, half, disp_unit=8)
        peer = (sub.rank + 1) % sub.size
        win.lock(peer, LOCK_EXCLUSIVE)
        win.put(np.full(2, 7 + rank, dtype=np.int64), peer, target_count=2)
        win.unlock(peer)
        sub.barrier()
        win.lock(sub.rank, LOCK_EXCLUSIVE)
        mine = win.local_view(np.int64).copy()
        win.unlock(sub.rank)
        win.free()
        if rank % 2 == 0:
            extra.free()
        return mine.tolist()

    out = proc_spmd(NPROC, body)
    for rank, mine in enumerate(out):
        peer_world = (rank + 2) % NPROC
        assert mine == [7 + peer_world] * 2


# ---------------------------------------------------------------------------
# thread/proc parity (property)
# ---------------------------------------------------------------------------


def _patch_ops(shape):
    """Scripted GA patch ops: (issuer, kind, lo, hi, seed, alpha)."""

    def build(issuer, kind, y0, x0, dy, dx, seed, alpha):
        lo = (y0, x0)
        hi = (min(shape[0], y0 + dy), min(shape[1], x0 + dx))
        return issuer, kind, lo, hi, seed, alpha

    return st.builds(
        build,
        st.integers(0, NPROC - 1),
        st.sampled_from(["put", "acc"]),
        st.integers(0, shape[0] - 1),
        st.integers(0, shape[1] - 1),
        st.integers(1, shape[0]),
        st.integers(1, shape[1]),
        st.integers(0, 2**16),
        st.integers(1, 3),
    )


def _parity_program(comm, datapath, ops, shape, rmw_rounds):
    """The seeded workload both backends must agree on, byte for byte."""
    armci = Armci.init(comm, datapath=datapath)
    ga = GlobalArray.create(armci, shape, "i8")
    zero(ga)
    for issuer, kind, lo, hi, seed, alpha in ops:
        if armci.my_id == issuer:
            rng = np.random.default_rng(seed)
            patch = tuple(h - l for l, h in zip(lo, hi))
            data = rng.integers(0, 1000, size=patch, dtype=np.int64)
            if kind == "put":
                ga.put(lo, hi, data)
            else:
                ga.acc(lo, hi, data, alpha=alpha)
        ga.sync()  # serialise scripted ops so both backends see one order
    # rmw storm on a shared counter: per-rank fetch order is timing
    # dependent, but the final value is not
    counters = armci.malloc(8)
    if armci.my_id == 0:
        view = armci.access_begin(counters[0], 8, dtype=np.int64)
        view[:] = 0
        armci.access_end(counters[0])
    armci.barrier()
    for i in range(rmw_rounds):
        armci.rmw("fetch_and_add", counters[0], armci.my_id + i + 1)
    armci.barrier()
    final = int(armci.rmw("fetch_and_add", counters[0], 0))
    full = ga.get((0, 0), shape)
    ga.sync()
    ga.destroy()
    armci.free(counters[armci.my_id])
    armci.finalize()
    return full.tobytes(), final


@settings(max_examples=4, deadline=None)
@given(
    datapath=st.sampled_from(["mpi2", "mpi3"]),
    ops=st.lists(_patch_ops((10, 10)), min_size=1, max_size=6),
    rmw_rounds=st.integers(1, 4),
)
def test_thread_proc_parity(datapath, ops, rmw_rounds):
    shape = (10, 10)
    thread_out = Runtime(NPROC, watchdog_s=2.0).spmd(
        _parity_program, datapath, ops, shape, rmw_rounds
    )
    proc_out = proc_spmd(NPROC, _parity_program, datapath, ops, shape, rmw_rounds)
    expected_rmw = sum(
        r + i + 1 for r in range(NPROC) for i in range(rmw_rounds)
    )
    # all ranks agree within each backend …
    assert len({b for b, _f in thread_out}) == 1
    assert len({b for b, _f in proc_out}) == 1
    # … and the backends agree with each other, byte for byte
    assert thread_out[0][0] == proc_out[0][0]
    assert thread_out[0][1] == proc_out[0][1] == expected_rmw


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
def test_thread_proc_parity_straddling_scaled_acc(datapath):
    """One ``ga.acc`` with ``alpha != 1`` whose patch straddles all four
    owners (four strided pieces, each scaled at the origin and combined in
    place at the target), twice over the same cells."""
    shape = (10, 10)
    ops = [(1, "acc", (2, 1), (9, 8), 11, 3), (2, "acc", (1, 2), (8, 9), 12, 2)]
    thread_out = Runtime(NPROC, watchdog_s=2.0).spmd(
        _parity_program, datapath, ops, shape, 1
    )
    proc_out = proc_spmd(NPROC, _parity_program, datapath, ops, shape, 1)
    expect = np.zeros(shape, dtype=np.int64)
    for _issuer, _kind, lo, hi, seed, alpha in ops:
        patch = tuple(h - l for l, h in zip(lo, hi))
        expect[lo[0] : hi[0], lo[1] : hi[1]] += alpha * np.random.default_rng(
            seed
        ).integers(0, 1000, size=patch, dtype=np.int64)
    assert {b for b, _f in thread_out} == {b for b, _f in proc_out} == {expect.tobytes()}


def _straddling_getput_program(comm, datapath):
    """A put and a get that each span all four owners, addressing strided
    slices of larger local arrays in place (one strided copy per owner)."""
    armci = Armci.init(comm, datapath=datapath)
    ga = GlobalArray.create(armci, (10, 10), "i8")
    zero(ga)
    src = np.arange(9 * 11, dtype=np.int64).reshape(9, 11)
    if armci.my_id == 1:
        ga.put((2, 1), (9, 8), src[1:8, 3:10])
    ga.sync()
    frame = np.full((8, 9), -1, dtype=np.int64)
    ga.get((1, 2), (8, 9), out=frame[1:, 1:8])
    ga.sync()
    full = ga.get((0, 0), (10, 10))
    ga.sync()
    ga.destroy()
    armci.finalize()
    return frame.tobytes(), full.tobytes()


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
def test_thread_proc_parity_straddling_get_put(datapath):
    thread_out = Runtime(NPROC, watchdog_s=2.0).spmd(_straddling_getput_program, datapath)
    proc_out = proc_spmd(NPROC, _straddling_getput_program, datapath)
    full = np.zeros((10, 10), dtype=np.int64)
    full[2:9, 1:8] = np.arange(9 * 11, dtype=np.int64).reshape(9, 11)[1:8, 3:10]
    frame = np.full((8, 9), -1, dtype=np.int64)
    frame[1:, 1:8] = full[1:8, 2:9]
    assert set(thread_out) == set(proc_out) == {(frame.tobytes(), full.tobytes())}


# ---------------------------------------------------------------------------
# failure surfacing
# ---------------------------------------------------------------------------


def test_proc_child_sigkill_raises_rankfailed():
    """A killed child surfaces as RankFailedError, like mark_dead."""

    def body(comm):
        comm.barrier()
        if comm.rank == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        for _ in range(500):
            comm.barrier()
        return comm.rank

    rt = Runtime(NPROC, backend="proc")
    with pytest.raises(RankFailedError, match="rank 2"):
        rt.spmd(body, join_timeout=60.0)


def test_proc_child_exception_propagates_original_type():
    def body(comm):
        comm.barrier()
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        for _ in range(500):
            comm.barrier()
        return comm.rank

    rt = Runtime(NPROC, backend="proc")
    with pytest.raises(ValueError, match="boom on rank 1"):
        rt.spmd(body, join_timeout=60.0)


# ---------------------------------------------------------------------------
# unsupported surfaces + config validation
# ---------------------------------------------------------------------------


def test_proc_rejects_thread_only_layers():
    rt = Runtime(2, backend="proc")
    rt.sanitizer = object()
    with pytest.raises(InternalError, match="thread-backend only"):
        rt.spmd(lambda comm: None)


def test_proc_comm_intercomm_raises_typed():
    def body(comm):
        with pytest.raises(CommError, match="thread-backend only"):
            comm.create_intercomm(0, comm, 0, tag=9)
        return True

    assert proc_spmd(2, body) == [True, True]


def _lock_discipline_body(comm, rows="lock"):
    """(error type, message) of each misuse of ``lock`` — or, with
    ``rows="lock_all"``, of ``lock_all``/``unlock_all``/``fence_sync`` — on
    either backend."""
    from repro.mpi.errors import MPIError

    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    seen = []

    def attempt(call, *args):
        try:
            call(*args)
        except MPIError as exc:
            seen.append((type(exc).__name__, str(exc)))

    if rows == "lock":
        win.lock(comm.rank)
        attempt(win.lock, (comm.rank + 1) % comm.size)  # nested: one lock per window
        win.unlock(comm.rank)
        win.lock_all()
        attempt(win.lock, comm.rank)  # inside a lock_all epoch
        win.unlock_all()
        attempt(win.lock, comm.rank, "exclusive-ish")  # bad mode
        attempt(win.lock, comm.size)  # bad target
        attempt(win.unlock, comm.rank)  # never locked
    else:
        win.lock_all()
        attempt(win.lock_all)  # nested lock_all
        attempt(win.lock, comm.rank)  # lock inside lock_all
        win.unlock_all()
        win.lock(comm.rank)
        attempt(win.lock_all)  # lock_all inside lock
        attempt(win.fence_sync)  # an active epoch inside a passive one
        win.unlock(comm.rank)
        attempt(win.unlock_all)  # never lock_all-ed
    comm.barrier()
    win.free()
    return seen


def test_proc_lock_raises_the_same_typed_errors_as_the_thread_window():
    """ProcWin keeps only the flock: the lock rules are Win's, stated once."""
    threads = Runtime(2).spmd(_lock_discipline_body)
    procs = proc_spmd(2, _lock_discipline_body)
    assert procs == threads
    assert [name for name, _ in procs[0]] == [
        "RMASyncError", "RMASyncError", "ArgumentError", "RMARangeError",
        "RMASyncError",
    ]


def test_proc_lock_all_raises_the_same_typed_errors_as_the_thread_window():
    """One nesting check against one epoch record, on both backends."""
    threads = Runtime(2).spmd(_lock_discipline_body, "lock_all")
    procs = proc_spmd(2, _lock_discipline_body, "lock_all")
    assert procs == threads
    assert [name for name, _ in procs[0]] == ["RMASyncError"] * 5


def _lock_all_behind_exclusive_body(comm):
    """Rank 1 holds its own target exclusively; rank 0's ``lock`` and
    ``lock_all`` wait behind it.  ``lock_all`` is granted target 0 first, so
    its timeout must give that back: rank 1 then locks target 0."""
    from repro.mpi.errors import MPIError

    win, _ = Win.allocate(comm, 64, mpi3=True)
    comm.barrier()
    seen = []

    def attempt(name, call, *args):
        try:
            call(*args)
        except MPIError as exc:
            seen.append((name, type(exc).__name__))

    if comm.rank == 1:
        win.lock(1, LOCK_EXCLUSIVE)
    comm.barrier()
    if comm.rank == 0:
        attempt("lock", win.lock, 1, LOCK_SHARED)
        attempt("lock_all", win.lock_all)
    comm.barrier()
    if comm.rank == 1:
        win.unlock(1)
        win.lock(0, LOCK_EXCLUSIVE)  # an OpTimeoutError here fails the run
        seen.append(("lock after the timeout", "granted"))
        win.unlock(0)
    comm.barrier()
    win.free()
    return seen


def test_lock_all_behind_an_exclusive_holder_times_out_like_lock():
    """``lock_all`` acquires every target as ``lock`` does, so it honours
    ``op_timeout_s`` on threads and waits on the holder's flock on procs."""
    kw = dict(op_timeout_s=0.2, op_retries=0)
    threads = Runtime(2, **kw).spmd(_lock_all_behind_exclusive_body)
    procs = Runtime(2, backend="proc", **kw).spmd(
        _lock_all_behind_exclusive_body, join_timeout=120.0
    )
    assert procs == threads == [
        [("lock", "OpTimeoutError"), ("lock_all", "OpTimeoutError")],
        [("lock after the timeout", "granted")],
    ]


def test_procwin_is_memory_and_locks():
    """Structural guard (ROADMAP aim 2, one concept / one implementation):
    ProcWin supplies where window memory lives and the lock primitive —
    every synchronisation call and atomic is Win's — and the window tracks
    which epoch an origin is in with one record."""
    from repro.mpi.backend_proc import ProcWin

    calls = (
        "lock", "unlock", "lock_all", "unlock_all",
        "accumulate", "fetch_and_op", "compare_and_swap",
    )
    # a name ProcWin re-exports for the e2e span tracer is Win's function
    assert [c for c in calls if vars(ProcWin).get(c, vars(Win)[c]) is not vars(Win)[c]] == []
    assert {"_acquire", "_release", "_atomic_section"} <= set(vars(ProcWin))

    def body(comm):
        win, _ = Win.allocate(comm, 8)
        retired = [a for a in ("_held", "_lock_all", "_fence_members") if hasattr(win, a)]
        win.free()
        return retired

    assert Runtime(1).spmd(body) == [[]]


def test_proccomm_is_its_transport():
    """Structural guard (ROADMAP aim 2, one concept / one implementation):
    communicator management and the ULFM surface are Comm's alone, and
    the round state lives once, in the communicator registry."""
    from repro.mpi.proc_child import _ProcChildBackend
    from repro.mpi.proc_comm import ProcComm

    ops = {"dup", "split", "create", "revoke", "agree", "shrink"}
    assert ops & set(vars(ProcComm)) == set()
    backend = _ProcChildBackend(0, 1, None, "", "guard")
    assert {"ft_rounds", "ft_results"} & set(vars(backend)) == set()


# ---------------------------------------------------------------------------
# the footprint overlap predicate of the atomic reservations
# ---------------------------------------------------------------------------


def _bytes_of(fp):
    return {b for lo, hi in fp.intervals() for b in range(lo, hi)}


_arith = st.tuples(
    st.integers(0, 96), st.integers(1, 24), st.integers(0, 24), st.integers(0, 6)
)


@st.composite
def _footprint_pairs(draw):
    """Two target footprints: arithmetic progressions (``n`` 0 or 1 too,
    zero-length rows, rows that overlap themselves), a second one that
    shares the first's step and touches or straddles a row end, or one
    that is no progression at all."""
    from repro.mpi.datatypes import SegmentMap

    start, step, seg_len, n = a = draw(_arith)
    kind = draw(st.sampled_from(["arith", "same step", "irregular"]))
    if kind == "arith":
        b = draw(_arith)
    elif kind == "same step":
        b_len = draw(st.integers(1, 24))
        edge = draw(st.sampled_from([start + seg_len, start - b_len]))
        b = (max(edge + draw(st.integers(-2, 2)), 0), step, b_len, draw(st.integers(1, 6)))
    if kind == "irregular":
        offs = draw(st.lists(st.integers(0, 160), min_size=1, max_size=5))
        lens = draw(st.lists(st.integers(1, 12), min_size=len(offs), max_size=len(offs)))
        return SegmentMap.arithmetic(*a), SegmentMap(np.array(offs), np.array(lens))
    return SegmentMap.arithmetic(*a), SegmentMap.arithmetic(*b)


@settings(max_examples=400, deadline=None)
@given(_footprint_pairs())
def test_footprint_overlap_predicate_matches_the_bytes(pair):
    """Never a false negative; exact for single segments and equal steps
    (every GA piece of one array); a zero-byte op reserves nothing."""
    from repro.mpi.rma_rules import _slots_overlap

    a, b = pair
    sa, sb = _footprint_slot(a), _footprint_slot(b)
    assert (sa is None) == (a.total_bytes == 0) and (sb is None) == (b.total_bytes == 0)
    if sa is None or sb is None:
        return
    meet = bool(_bytes_of(a) & _bytes_of(b))
    got = _slots_overlap(sa, sb)
    assert got == _slots_overlap(sb, sa)
    assert got or not meet, (sa, sb)
    pa, pb = a._arith_params(), b._arith_params()
    if pa and pb and (pa[3] == 1 or pb[3] == 1 or pa[1] == pb[1]):
        assert got == meet, (sa, sb)


def test_footprint_overlap_predicate_examples():
    from repro.mpi.rma_rules import _slots_overlap
    from repro.mpi.datatypes import SegmentMap

    def overlap(a, b):
        return _slots_overlap(
            _footprint_slot(SegmentMap.arithmetic(*a)),
            _footprint_slot(SegmentMap.arithmetic(*b)),
        )

    # interleaved columns of one matrix: touching ends do not meet
    assert not overlap((0, 10, 4, 3), (4, 10, 6, 3))
    assert overlap((0, 10, 4, 3), (3, 10, 6, 3))
    # a single segment in the gap between two rows, and across one
    assert not overlap((0, 10, 4, 3), (14, 6, 6, 1))
    assert overlap((0, 10, 4, 3), (13, 6, 6, 1))
    # unequal steps fall back to the bounding boxes: a conservative yes
    assert overlap((0, 10, 4, 3), (4, 12, 2, 2))
    assert _footprint_slot(SegmentMap.arithmetic(8, 8, 8, 0)) is None
    # a footprint that is no progression reserves its bounding box
    irregular = SegmentMap(np.array([8, 40, 16]), np.array([4, 4, 4]))
    assert _footprint_slot(irregular) == (8, 44, 36, 36, 1)
    # an all-zero slot (none reserved yet) meets nothing
    assert not _slots_overlap((0, 0, 0, 0, 0), (0, 8, 8, 8, 1))
    assert not _slots_overlap((0, 8, 8, 8, 1), (0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# the contended flock wait and the cached lock descriptors
# ---------------------------------------------------------------------------


def _count_flock_probes():
    """Count this rank process's exclusive nonblocking ``flock`` attempts:
    one per attempt of an atomic op's reservation (on the target's
    ``.atomic`` file; a busy probe is shared, an inbox write lock blocks)."""
    import fcntl

    probes = []
    real = fcntl.flock

    def flock(fd, op):
        if op == fcntl.LOCK_EX | fcntl.LOCK_NB:
            probes.append(op)
        return real(fd, op)

    fcntl.flock = flock  # this forked rank only
    return probes


#: the footprint rank 0 reserves in the contended rounds: columns 0-3 of
#: an 8 x 16 float64 matrix at byte 64 of target 0 (rows 128 B apart)
_HELD = (64, 128, 32, 8)
#: rank 1's target bytes, at the same row step: columns 2-5 (meet
#: ``_HELD``), columns 4-7 (touch its ends only), one element of column 0
#: of row 3 (inside it) and of column 8 (outside)
_OVERLAPPING, _DISJOINT = 64 + 16, 64 + 32
_INSIDE, _OUTSIDE = 64 + 3 * 128, 64 + 64


def _contended_sublock_body(comm, hold_s, rounds, op, target_offset):
    """Rank 0 holds a reservation of ``_HELD`` on target 0 for ``hold_s``
    per round; rank 1 starts ``op`` at byte ``target_offset`` of target 0
    as soon as it sees the round's flag in the window — an accumulate of
    8 x 4 float64 at the row step (``"acc"``), or a ``"fetch_and_op"`` or
    ``"compare_and_swap"`` of one element.  Returns rank 1's (seconds,
    reservation attempts, seconds its window counted as reservation
    waits) per op."""
    from repro.mpi import datatypes as dt

    win, _ = Win.allocate(comm, 64 + 8 * 128, mpi3=True)
    win.lock_all()
    comm.barrier()
    flags = win.exposed_buffer(0)[:16].view(np.int64)  # [holder's round, waiter's]
    out = []
    if comm.rank == 0:
        held = _footprint_slot(dt.SegmentMap.arithmetic(*_HELD))
        for r in range(1, rounds + 1):
            with win._atomic_section(0, held):
                flags[0] = r
                time.sleep(hold_s)
            while flags[1] != r:
                time.sleep(0.0002)
    else:
        probes = _count_flock_probes()
        cols, ones = dt.vector(8, 4, 16, dt.DOUBLE).commit(), np.ones(32)
        for r in range(1, rounds + 1):
            while flags[0] != r:
                os.sched_yield()
            t0, n0, waited = time.perf_counter(), len(probes), win.reservation_wait_s
            if op == "acc":
                win.accumulate(ones, 0, target_offset, target_datatype=cols, flush=True)
            elif op == "fetch_and_op":
                win.fetch_and_op(1, 0, target_offset, flush=True)
            else:
                win.compare_and_swap(0, 1, 0, target_offset)
            out.append(
                (time.perf_counter() - t0, len(probes) - n0, win.reservation_wait_s - waited)
            )
            flags[1] = r
    win.unlock_all()
    comm.barrier()
    win.free()
    return out


def _curve_probes(wait):
    """The most non-blocking probes a wait of ``wait`` seconds can make on
    the :data:`~repro.backoff.FLOCK_WAIT` curve.  Probe ``j`` comes no
    earlier than the sum ``S_j`` of the first ``j`` delays (a sleep never
    ends early), and every probe but the last found the lock held, so the
    second-to-last one came before the wait ended: ``S_{n-2} < wait``."""
    from repro.backoff import FLOCK_WAIT

    j, slept = 0, 0.0
    while slept < wait:
        slept += FLOCK_WAIT.delay(j)
        j += 1
    return j + 1


def test_contended_flock_wait_costs_what_the_holder_holds():
    """A 0.5 ms hold (a 2 MiB accumulate) of an overlapping footprint is
    waited out in about that, not in a 2 ms sleep quantum — and the short
    first re-probes stay few.

    The probe counts are held to the curve for the wait each round really
    saw: a holder descheduled in its sleep holds longer than asked, and
    its waiter rightly probes more."""
    from repro.backoff import FLOCK_WAIT

    rounds = proc_spmd(2, _contended_sublock_body, 0.0005, 50, "acc", _OVERLAPPING)[1]
    waits = sorted(w for w, _, _ in rounds)
    assert waits[len(waits) // 2] <= 1.2e-3, waits
    assert _curve_probes(1.2e-3) <= 8  # a wait of about the hold: few probes
    assert all(n <= _curve_probes(w) for w, n, _ in rounds), rounds
    # a long hold: after the curve reaches its cap the poll rate is the
    # old flat one, so the extra CPU is bounded by the curve's length
    assert _curve_probes(0.05) <= 0.05 / FLOCK_WAIT.cap + 8
    long_rounds = proc_spmd(2, _contended_sublock_body, 0.05, 3, "acc", _OVERLAPPING)[1]
    assert all(n <= _curve_probes(w) for w, n, _ in long_rounds), long_rounds
    assert min(w for w, _, _ in long_rounds) >= 0.04
    # the window counts the wait, not the op around it
    assert all(0.04 <= waited <= w for w, _, waited in long_rounds), long_rounds


def test_a_disjoint_accumulate_runs_during_a_held_reservation():
    """Footprints that only interleave (same rows, other columns; the ends
    touch) do not exclude each other: the accumulate is done in one
    attempt, long before the holder lets go of its 0.2 s hold."""
    rounds = proc_spmd(2, _contended_sublock_body, 0.2, 3, "acc", _DISJOINT)[1]
    assert all(w < 0.05 and n == 1 and waited == 0 for w, n, waited in rounds), rounds


@pytest.mark.parametrize("op", ["fetch_and_op", "compare_and_swap"])
def test_an_atomic_waits_only_inside_an_accumulates_footprint(op):
    inside = proc_spmd(2, _contended_sublock_body, 0.2, 2, op, _INSIDE)[1]
    assert min(w for w, _, _ in inside) >= 0.15, inside
    outside = proc_spmd(2, _contended_sublock_body, 0.2, 2, op, _OUTSIDE)[1]
    assert all(w < 0.05 and n == 1 for w, n, _ in outside), outside


#: ranks of the stress test: more than the 2-CPU reference host has cores
_STRESS_NPROC, _STRESS_ROWS = 3, 16
#: 8 columns per rank of its own, then a band of 16 every rank writes
_STRESS_COLS = 8 * _STRESS_NPROC + 16


def _footprint_stress_body(comm, rounds):
    """Every rank interleaves strided accumulates — into 8 columns of its
    own and into a band all of them write — with ``fetch_and_op`` on one
    counter, all into target 0 inside ``lock_all``.  Returns the target's
    matrix (rank 0), the counter values this rank fetched and its
    accumulates as ``(row, col, width, value)``."""
    from repro.mpi import datatypes as dt

    rows, cols, shared = _STRESS_ROWS, _STRESS_COLS, 8 * comm.size
    win, _ = Win.allocate(comm, 8 + rows * cols * 8, mpi3=True)
    rng = np.random.default_rng([11, comm.rank])
    win.lock_all()
    comm.barrier()
    fetched, accs = [], []
    for i in range(rounds):
        width = int(rng.integers(1, 9))
        if i % 2:
            col = shared + int(rng.integers(0, 17 - width))
        else:
            col = 8 * comm.rank + int(rng.integers(0, 9 - width))
        row = int(rng.integers(0, rows - 3))
        win.accumulate(
            np.full(4 * width, float(i + 1)), 0, 8 + (row * cols + col) * 8,
            target_datatype=dt.vector(4, width, cols, dt.DOUBLE).commit(),
        )
        accs.append((row, col, width, float(i + 1)))
        fetched.append(win.fetch_and_op(1, 0, 0))
    win.unlock_all()
    comm.barrier()
    matrix = win.exposed_buffer(0)[8:].view(np.float64).copy() if comm.rank == 0 else None
    comm.barrier()
    win.free()
    return matrix, fetched, accs


def test_overlapping_and_disjoint_atomics_sum_exactly_as_on_threads():
    rounds, n = 300, _STRESS_NPROC
    threads = Runtime(n, watchdog_s=5.0).spmd(_footprint_stress_body, rounds)
    procs = proc_spmd(n, _footprint_stress_body, rounds)
    expect = np.zeros((_STRESS_ROWS, _STRESS_COLS))
    for _m, _f, accs in threads:
        for row, col, width, value in accs:
            expect[row : row + 4, col : col + width] += value
    for out in (threads, procs):
        # every fetch saw a distinct count: no increment lost or doubled
        assert sorted(f for _m, fetched, _a in out for f in fetched) == list(range(n * rounds))
        assert [accs for _m, _f, accs in out] == [accs for _m, _f, accs in threads]
        np.testing.assert_array_equal(out[0][0].reshape(expect.shape), expect)


def _lost_holder_body(comm, sig):
    """Rank 0 takes target 0's exclusive epoch lock — on a descriptor both
    ranks already cached — and then stops or dies holding it."""
    from repro.mpi.errors import OpTimeoutError

    win, _ = Win.allocate(comm, 64)
    for _ in range(2):
        win.lock(0, LOCK_EXCLUSIVE)
        win.unlock(0)
    comm.barrier()
    flags = win.exposed_buffer(0)[:16].view(np.int64)  # [holder's pid, rank 1 ready]
    if comm.rank == 0:
        # wait until rank 1 is past the barrier before stopping, so the
        # stop cannot land while rank 1 still waits on a message from here
        while not flags[1]:
            time.sleep(0.001)
        win.lock(0, LOCK_EXCLUSIVE)
        flags[0] = os.getpid()
        if sig == signal.SIGKILL:
            time.sleep(0.03)  # die while rank 1 is already polling
        os.kill(os.getpid(), sig)
        win.unlock(0)  # SIGSTOP: resumed by rank 1's SIGCONT
        outcome = "resumed"
    else:
        flags[1] = 1
        while not flags[0]:
            time.sleep(0.001)
        if sig == signal.SIGSTOP:
            time.sleep(0.02)  # let the stop land
        t0 = time.monotonic()
        try:
            win.lock(0, LOCK_EXCLUSIVE)
            outcome = ("acquired", time.monotonic() - t0)
            win.unlock(0)
        except OpTimeoutError:
            outcome = ("timeout", time.monotonic() - t0)
        finally:
            if sig == signal.SIGSTOP:
                os.kill(int(flags[0]), signal.SIGCONT)
    if sig == signal.SIGSTOP:
        win.lock(0, LOCK_EXCLUSIVE)  # usable again once the holder let go
        win.unlock(0)
        comm.barrier()
        win.free()
    return outcome


def test_stalled_flock_holder_still_times_out_on_schedule():
    from repro.backoff import FLOCK_WAIT

    rt = Runtime(2, backend="proc", op_timeout_s=0.2)
    resumed, (what, waited) = rt.spmd(
        _lost_holder_body, signal.SIGSTOP, join_timeout=120.0
    )
    assert (resumed, what) == ("resumed", "timeout")
    # the deadline is checked once per probe: at most one capped sleep late
    # (+ scheduling slack on a loaded host)
    assert 0.2 <= waited <= 0.2 + FLOCK_WAIT.cap + 0.05, waited


def test_killed_flock_holders_cached_lock_is_inherited():
    """The kernel drops a dead rank's flock because every process locks
    its own open file description — also when that description is cached."""
    dead, (what, waited) = proc_spmd(2, _lost_holder_body, signal.SIGKILL)
    assert dead is None and what == "acquired"
    assert waited < 5.0, waited


def _count_lock_file_opens():
    """Record the basename of every window lock file this rank opens."""
    opened = []
    real = os.open

    def counting(path, *args, **kw):
        if str(path).endswith((".lock", ".atomic")) or ".busy" in str(path):
            opened.append(os.path.basename(path))
        return real(path, *args, **kw)

    os.open = counting  # this forked rank only
    return opened


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _descriptor_lifetime_body(comm):
    opened = _count_lock_file_opens()
    peer = (comm.rank + 1) % comm.size
    one = np.ones(1, dtype=np.int64)
    # every descriptor of the inbox pipes and their write locks is open
    # from rank start on; the two barriers leave both ranks with nothing
    # in flight when the count starts
    comm.barrier()
    comm.barrier()
    before = _open_fds()
    win, _ = Win.allocate(comm, 64, mpi3=True)
    allocated = _open_fds()
    win.lock_all()
    for _ in range(500):
        win.accumulate(one, peer)
    win.unlock_all()
    for _ in range(500):
        win.lock(peer, LOCK_EXCLUSIVE)
        win.unlock(peer)
    comm.barrier()
    total = int(win.exposed_buffer(comm.rank)[:8].view(np.int64)[0])
    cached = _open_fds() - allocated
    win.free()
    after_free = _open_fds() - before
    # the forced teardown closes them too — a held epoch lock included
    # (the allocated memory is not kept: an array over it would keep its
    # segment mapped, and so its descriptors open, until it is dropped)
    win2 = Win.allocate(comm, 64)[0]
    win2.lock(peer, LOCK_SHARED)  # repro: lint-ignore[lint-leak] invalidate() drops it
    win2.accumulate(one, peer)
    comm.barrier()
    win2.invalidate()
    after_invalidate = _open_fds() - before
    return sorted(n.split(".", 2)[2] for n in opened), total, cached, (
        after_free, after_invalidate
    )


def test_lock_files_are_opened_once_and_closed_with_their_window():
    results = proc_spmd(2, _descriptor_lifetime_body)
    for rank, (opened, total, cached, leaked) in enumerate(results):
        peer = 1 - rank
        # 1 000 acquisitions on the first window, four opens — lock_all
        # locks the own target too, and an accumulate reserves through the
        # target's .atomic and this origin's own busy file there — then
        # three more for the second window's
        assert opened == sorted(
            [f"t{peer}.atomic", f"t{peer}.busy{rank}", f"t{peer}.lock"] * 2
            + [f"t{rank}.lock"]
        )
        assert total == 500
        # the two .lock files lock_all held, the peer's .atomic and busy file
        assert cached == 4
        assert leaked == (0, 0)


def _many_windows_body(comm):
    from repro.mpi.proc_win import _LockFiles

    # windows x targets x {lock, atomic} alone exceeds the cache bound
    # (an accumulate adds its own busy file, and probes the peer's)
    nwin = _LockFiles.BOUND // (2 * comm.size) + 4
    before = _open_fds()
    wins = [Win.allocate(comm, 16)[0] for _ in range(nwin)]
    one = np.ones(1, dtype=np.int64)
    comm.barrier()
    baseline, peak, sweeps = _open_fds(), 0, 3
    for _ in range(sweeps):
        for win in wins:
            for target in range(comm.size):
                # a raw read-modify-write that only the epoch flock orders
                win.lock(target, LOCK_EXCLUSIVE)
                cell = win.exposed_buffer(target)[:8].view(np.int64)
                seen = int(cell[0])
                os.sched_yield()
                cell[0] = seen + 1
                win.unlock(target)
                # and one that only the footprint reservation orders (the
                # two ranks' accumulates overlap)
                win.lock(target, LOCK_SHARED)
                win.accumulate(one, target, 8)
                win.unlock(target)
                peak = max(peak, _open_fds())
    comm.barrier()
    mine = [
        win.exposed_buffer(comm.rank)[:16].view(np.int64).tolist() for win in wins
    ]
    comm.barrier()
    del cell  # a view kept past free would keep its segment mapped
    for win in wins:
        win.free()
    return (
        nwin * comm.size * 2, _LockFiles.BOUND, peak - baseline,
        _open_fds() - before, mine == [[sweeps * comm.size] * 2] * nwin,
    )


def test_lock_file_cache_is_bounded_and_every_lock_stays_correct():
    for paths, bound, peak, after_free, exact in proc_spmd(2, _many_windows_body):
        assert paths > bound
        assert peak <= bound + 1, (peak, bound)  # + the one being held
        assert after_free == 0
        assert exact, "lost update: a reopened lock file did not exclude"


def _mutex_cycle_ctl_messages_body(comm):
    from repro.armci.mutexes import MutexSet
    from repro.mpi.proc_child import _ProcChildBackend

    ms = MutexSet.create(comm, 1)
    comm.barrier()
    ctl = []
    real = _ProcChildBackend.send_to

    def send_to(self, dst_world, msg):
        if msg[0] == "ctl":
            ctl.append(msg)
        real(self, dst_world, msg)

    _ProcChildBackend.send_to = send_to  # this forked rank only
    for _ in range(5):
        ms.lock(0, 0)
        held_by = ms.holder(0, 0)
        ms.unlock(0, 0)
        assert held_by == comm.rank
    _ProcChildBackend.send_to = real
    comm.barrier()
    ms.destroy()
    return ctl


def test_mutex_cycle_sends_no_control_messages():
    """The holder record is a store into the mutex window, not a broadcast
    (it was 2 x (n - 1) ``ctl`` messages per lock/unlock cycle)."""
    assert proc_spmd(3, _mutex_cycle_ctl_messages_body) == [[], [], []]


def test_inbox_write_lock_survives_a_sigkilled_holder():
    """A rank killed mid-send must not wedge every later writer to that inbox."""
    import multiprocessing
    import tempfile

    from repro.mpi import mailbox

    ctx = multiprocessing.get_context("fork")
    r, w = os.pipe2(os.O_NONBLOCK)
    try:
        with tempfile.TemporaryDirectory() as tmp:

            def send_forever():
                # nobody reads: the frame stops part-way, its lock held
                mailbox.Outbox([w], tmp).write(0, b"x" * (1 << 22), 0.05)

            def send_after(done):
                mailbox.Outbox([w], tmp).write(0, mailbox.encode("after"), 0.05)
                done.set()

            victim = ctx.Process(target=send_forever)
            victim.start()
            deadline = time.monotonic() + 30
            while mailbox.wait_writable(w, 0.01):  # until the pipe is full
                assert time.monotonic() < deadline
            time.sleep(0.05)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            assert victim.exitcode == -signal.SIGKILL
            while True:  # drop the victim's partial frame
                try:
                    os.read(r, 1 << 16)
                except BlockingIOError:
                    break
            done = ctx.Event()
            survivor = ctx.Process(target=send_after, args=(done,), daemon=True)
            survivor.start()
            assert done.wait(timeout=30)
            survivor.join(timeout=30)
            assert not survivor.is_alive()
    finally:
        os.close(r)
        os.close(w)


def test_short_proc_job_tears_down_silently():
    """Nothing on stderr: rank 0 finishes first, so rank 1 writes its
    ``rank_done`` to the inbox of a rank that may have exited already."""
    import subprocess
    import sys

    script = (
        "import time\n"
        "from repro.mpi.runtime import Runtime\n"
        "def body(comm):\n"
        "    comm.barrier()\n"
        "    time.sleep(0.02 * comm.rank)\n"
        "    return comm.rank\n"
        "for _ in range(5):\n"
        "    assert Runtime(2, backend='proc').spmd(body, join_timeout=60.0) == [0, 1]\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# the inbox pipes
# ---------------------------------------------------------------------------

_BIG = 1 << 19  # int64 elements: 4 MiB, many times a pipe's capacity


def _big_exchange_body(comm):
    mine = np.arange(_BIG, dtype=np.int64) * (comm.rank + 1)
    gathered = comm.allgather(mine)
    peer = 1 - comm.rank
    req = comm.irecv(source=peer, tag=7)
    comm.send(mine, peer, tag=7)  # both ranks at once: both pipes full
    got = req.wait().payload
    return (
        [np.array_equal(g, np.arange(_BIG, dtype=np.int64) * (r + 1))
         for r, g in enumerate(gathered)],
        np.array_equal(got, np.arange(_BIG, dtype=np.int64) * (peer + 1)),
        got.flags.writeable,
    )


def test_large_frames_arrive_exact_both_ways():
    for gathered, exchanged, writeable in proc_spmd(2, _big_exchange_body):
        assert gathered == [True, True]
        assert exchanged and writeable


def _hold_pump_on_first_message(comm, until):
    """Make this rank's pump stop reading its inbox at the next message it
    dispatches, until ``until()`` is true (or 10 s passed).  Returns an
    event set once the pump is held, and a list that then gets whether
    ``until()`` ended the hold."""
    import threading

    backend = comm._backend
    real = backend.dispatch
    held, released = threading.Event(), []

    def dispatch(runtime, msg):
        if not held.is_set():
            held.set()
            deadline = time.monotonic() + 10.0
            while not until() and time.monotonic() < deadline:
                time.sleep(0.001)
            released.append(until())
        real(runtime, msg)

    backend.dispatch = dispatch  # this forked rank only
    return held, released


def _send_to_dying_reader_body(comm):
    from repro.mpi.errors import TargetFailedError

    comm.barrier()
    if comm.rank == 1:
        held, _ = _hold_pump_on_first_message(comm, lambda: False)
        comm.send("ready", 0, tag=3)
        held.wait(30.0)
        time.sleep(0.2)  # rank 0's send has filled the pipe by now
        os.kill(os.getpid(), signal.SIGKILL)
    comm.recv(source=1, tag=3)
    comm.send("hold", 1, tag=4)
    t0 = time.monotonic()
    try:
        comm.send(np.zeros(1 << 21, dtype=np.int64), 1, tag=1)  # 16 MiB
        outcome = "sent"
    except (TargetFailedError, RankFailedError) as exc:
        outcome = type(exc).__name__
    return outcome, time.monotonic() - t0


def test_send_to_a_full_inbox_whose_reader_dies_fails_fast():
    """The sender waits on a full pipe whose only reader is then SIGKILLed:
    it raises within the failure detector's budget, not at join_timeout."""
    rt = Runtime(2, backend="proc")
    (outcome, waited), dead = rt.spmd(_send_to_dying_reader_body, join_timeout=120.0)
    assert dead is None
    assert outcome in ("TargetFailedError", "RankFailedError")
    assert waited < 0.2 + rt.suspect_after + 1.0, waited


def _send_to_a_known_dead_peer_body(comm):
    from repro.mpi.errors import TargetFailedError

    comm.barrier()
    if comm.rank == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    while 2 not in comm.runtime.dead_ranks:  # the parent's word is in
        time.sleep(0.001)
    outcomes = []
    for send in (comm.send, comm.isend):
        try:
            send("late", 2, tag=1)
            outcomes.append("sent")
        except TargetFailedError:
            outcomes.append("TargetFailedError")
    return outcomes


def test_a_send_to_a_peer_known_dead_raises_target_failed():
    """``send`` and ``isend`` to a rank this process already holds dead
    fail typed at once, before anything is written to its inbox."""
    out = Runtime(3, backend="proc").spmd(_send_to_a_known_dead_peer_body, join_timeout=60.0)
    assert out == [["TargetFailedError"] * 2] * 2 + [None]


def _collective_send_on_full_pipe_body(comm):
    import threading

    win, _ = Win.allocate(comm, 64)
    # [rank 1 is entering the allgather, rank 1's pump delivered the ping,
    #  rank 0's pump holds at its next message]
    flags = win.exposed_buffer(0)[:24].view(np.int64)
    big = np.arange(_BIG, dtype=np.int64) + comm.rank
    comm.barrier()
    if comm.rank == 0:
        _, released = _hold_pump_on_first_message(comm, lambda: bool(flags[1]))
        flags[2] = 1
        while not flags[0]:
            time.sleep(0.001)
        time.sleep(0.2)  # rank 1's collective send is waiting on our full pipe
        comm.send("ping", 1, tag=5)
        comm.recv(source=1, tag=4)
        delivered_first = released == [True]
    else:
        while not flags[2]:
            time.sleep(0.001)
        req = comm.irecv(source=0, tag=5)
        seen = []

        def watch():
            while not req._done:
                time.sleep(0.001)
            seen.append(time.monotonic())
            flags[1] = 1

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        comm.send("hold", 0, tag=4)  # rank 0's pump stops reading here
        flags[0] = 1
    gathered = comm.allgather(big)
    if comm.rank == 1:
        returned = time.monotonic()
        watcher.join(30.0)
        delivered_first = bool(seen) and seen[0] < returned
        assert req.wait().payload == "ping"
    comm.barrier()
    win.free()
    exact = all(
        np.array_equal(g, np.arange(_BIG, dtype=np.int64) + r)
        for r, g in enumerate(gathered)
    )
    return delivered_first, exact


def test_collective_send_on_a_full_pipe_leaves_the_pump_dispatching():
    """Rank 1's allgather contribution waits on rank 0's full pipe with
    ``runtime.cond`` held by the collective; rank 1's pump still delivers
    a message meanwhile, because the waiting send lets go of it.  Rank 0
    stops reading until rank 1 has that message, so a pump that could
    not deliver it would leave rank 0 to give up waiting after 10 s."""
    assert proc_spmd(2, _collective_send_on_full_pipe_body) == [(True, True)] * 2


def _stopped_reader_body(comm):
    import threading

    from repro.mpi.errors import OpTimeoutError

    pids = comm.allgather(os.getpid())
    big = np.arange(_BIG, dtype=np.int64)
    if comm.rank == 1:
        first = comm.recv(source=0, tag=1)[0]
        last = comm.recv(source=0, tag=3)[0]
        k = comm.recv(source=0, tag=4)[0]
        small = [comm.recv(source=0, tag=2)[0] for _ in range(k)]
        return np.array_equal(first, big), np.array_equal(last, big + 1), small == list(range(k))
    os.kill(pids[1], signal.SIGSTOP)
    resume = threading.Timer(1.0, os.kill, (pids[1], signal.SIGCONT))
    t0 = time.monotonic()
    resume.start()
    comm.send(big, 1, tag=1)  # 4 MiB: stops part-way until the reader resumes
    started_frame_s = time.monotonic() - t0
    resume.join(30.0)
    os.kill(pids[1], signal.SIGSTOP)
    k, timed_out = 0, False
    try:
        while k < 200_000:  # small frames until the pipe is full
            comm.send(k, 1, tag=2)
            k += 1
    except OpTimeoutError:
        timed_out = True
    os.kill(pids[1], signal.SIGCONT)
    comm.send(big + 1, 1, tag=3)
    comm.send(k, 1, tag=4)
    return started_frame_s, k, timed_out


def test_a_send_to_a_stopped_reader_times_out_only_between_frames():
    """``op_timeout_s`` abandons a send only before its frame's first byte
    is in the pipe.  Rank 1 is SIGSTOPped: a 4 MiB send to it waits past
    ``op_timeout_s`` until rank 1 resumes, then small sends fill the pipe
    until one times out.  Every message, the one sent after the timeout
    included, then arrives intact and in order."""
    rt = Runtime(2, backend="proc", op_timeout_s=0.3)
    (started_frame_s, k, timed_out), exact = rt.spmd(_stopped_reader_body, join_timeout=120.0)
    assert started_frame_s >= 0.9, started_frame_s
    assert timed_out and 0 < k < 200_000
    assert exact == (True, True, True)


def _ft_result_to_a_full_pipe_body(comm):
    from repro.mpi import mailbox

    win, _ = Win.allocate(comm, 64)
    # [rank 1's pipe is full, rank 2 votes, rank 1 decided, rank 2 decided]
    flags = win.exposed_buffer(0)[:32].view(np.int64)
    comm.barrier()
    if comm.rank == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    while 3 not in comm.runtime.dead_ranks:  # the parent's word is in
        time.sleep(0.001)
    if comm.rank == 1:
        seen = []

        def until():  # hold the pump until 1.5 s after rank 2 voted
            if flags[1] and not seen:
                seen.append(time.monotonic())
            return bool(seen) and time.monotonic() - seen[0] > 1.5

        _hold_pump_on_first_message(comm, until)
    elif comm.rank == 2:

        class Full(Exception):
            pass

        def full(dst, since):
            raise Full

        # whole frames for a context rank 1 never builds (they get
        # stashed), the last ones too small to leave room for a result
        for size in (1000, 0):
            frame = mailbox.encode(("p2p", ("flood",), 2, 1, 0, b"x" * size))
            try:
                while True:
                    comm._backend.outbox.write(1, frame, 0.01, full)
            except Full:
                pass
        flags[0] = 1
    while not flags[0]:
        time.sleep(0.001)
    if comm.rank == 2:
        time.sleep(0.3)  # ranks 0 and 1 vote first: rank 2's vote decides
        flags[1] = 1
    t0 = time.monotonic()
    value = comm.agree(1)
    waited = time.monotonic() - t0
    if comm.rank == 0:  # the pump's broadcast outlasts rank 0's own agree
        deadline = time.monotonic() + 30.0
        while not (flags[2] and flags[3]) and time.monotonic() < deadline:
            time.sleep(0.001)
    else:
        flags[1 + comm.rank] = 1
    return value, waited, len(comm.runtime.death_hook_errors)


def test_ft_result_broadcast_waits_out_a_full_voter_pipe():
    """With rank 3 dead, rank 2's vote completes an ``agree`` on the
    coordinator's pump while voter 1's pipe is full and its pump held for
    1.5 s, longer than ``op_timeout_s``.  The result to rank 1 waits for
    room instead of giving up, which would leave an error in the
    coordinator's ``death_hook_errors`` and end the broadcast before
    rank 2."""
    rt = Runtime(4, backend="proc", op_timeout_s=1.0)
    out = rt.spmd(_ft_result_to_a_full_pipe_body, join_timeout=120.0)
    assert out[3] is None
    for value, waited, hook_errors in out[:3]:
        assert value == 1
        assert waited < 5.0, waited
        assert hook_errors == 0


def test_back_to_back_jobs_leak_no_descriptor_or_lock_directory(monkeypatch):
    """Both ends of every inbox pipe and of the result channel, and the
    write-lock files, are closed when ``spmd`` returns, and its lock
    directory is gone."""
    import gc
    import tempfile

    def body(comm):
        comm.barrier()
        return comm.rank

    Runtime(2, backend="proc").spmd(body, join_timeout=60.0)  # warm-up
    made, real_mkdtemp = [], tempfile.mkdtemp

    def mkdtemp(*args, **kw):
        made.append(real_mkdtemp(*args, **kw))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(20):
        assert Runtime(2, backend="proc").spmd(body, join_timeout=60.0) == [0, 1]
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(made) == 20 and all("repro-proc-" in d for d in made)
    assert not [d for d in made if os.path.exists(d)]


def _affinity_body(comm, getaffinity):
    return sorted(getaffinity(0))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_ranks_are_bound_to_a_cpu_each_when_they_fill_the_cpus(monkeypatch):
    real = os.sched_getaffinity
    usable = sorted(real(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(usable[:2]))
    out = proc_spmd(2, _affinity_body, real)
    assert out == [[usable[0]], [usable[1]]]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_ranks_are_left_unbound_unless_they_fill_the_cpus(monkeypatch):
    real = os.sched_getaffinity
    usable = sorted(real(0))
    # more ranks than CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {usable[0]})
    assert proc_spmd(2, _affinity_body, real) == [usable, usable]
    # CPUs to spare
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(usable[:2]))
    assert proc_spmd(1, _affinity_body, real) == [usable]


def _long_recv_body(comm, wait_s):
    """Rank 1 waits in ``recv`` for ``wait_s``, reading its own inbox the
    while, and counts its pump's loops meanwhile (one heartbeat tick
    each); rank 0 watches rank 1's heartbeat lease."""
    backend = comm._backend
    comm.barrier()  # both leases stamped
    if comm.rank == 1:
        loops, tick = [0], backend.heartbeat_tick

        def counted(runtime):
            loops[0] += 1
            tick(runtime)

        backend.heartbeat_tick = counted  # the pump looks it up each loop
        t0 = time.monotonic()
        comm.recv(source=0, tag=1)
        return time.monotonic() - t0, loops[0]
    stalest, suspected = 0.0, False
    end = time.monotonic() + wait_s
    while time.monotonic() < end:
        stalest = max(stalest, (time.monotonic_ns() - int(backend.hb_view[1, 1])) / 1e9)
        suspected = suspected or 1 in backend._suspect
        time.sleep(0.005)
    comm.send("late", 1, tag=1)
    return stalest, suspected


def test_a_rank_waiting_in_recv_past_suspect_after_is_never_suspected():
    """The rank's own thread reads its inbox while it waits; its pump keeps
    the heartbeat lease fresh through a wait five times ``suspect_after``."""
    rt = Runtime(2, backend="proc", heartbeat_s=0.02, suspect_after=0.2)
    (stalest, suspected), (waited, _) = rt.spmd(_long_recv_body, 1.0, join_timeout=60.0)
    assert waited > 0.9  # rank 0 started its watch first
    assert not suspected
    assert stalest < rt.suspect_after, stalest


def test_a_long_wait_wakes_the_pump_about_once_per_tick():
    """Through one long wait the pump sleeps until the rank lets its inbox
    go, waking once per heartbeat tick (20 ms here: ~50 loops a second),
    not once per grace (1 ms: ~1000)."""
    rt = Runtime(2, backend="proc", heartbeat_s=0.02, suspect_after=0.2)
    _, (waited, loops) = rt.spmd(_long_recv_body, 1.0, join_timeout=60.0)
    assert waited > 0.9
    assert loops < 4 * waited / 0.02, (loops, waited)


# ---------------------------------------------------------------------------
# what an ARMCI set-up costs in collective rounds, and the §V-D RMW mutex
# ---------------------------------------------------------------------------


def _counted_setup_body(comm, datapath):
    """One set-up cycle of the e2e benchmark's GA workloads (init, one
    array, a barrier), counting this rank's collective rounds by kind and
    the windows it creates."""
    from repro.mpi import proc_child, proc_comm

    kinds, windows = [], []
    run, win_create = proc_comm._ProcCollEngine.run, proc_child._ProcChildBackend.win_create

    def counted_run(self, rank, kind, contribution, compute):
        kinds.append(kind)
        return run(self, rank, kind, contribution, compute)

    def counted_win_create(self, *args, **kw):
        windows.append(args[0].context_id)
        return win_create(self, *args, **kw)

    # this rank's process only
    proc_comm._ProcCollEngine.run = counted_run
    proc_child._ProcChildBackend.win_create = counted_win_create
    armci = Armci.init(comm, datapath=datapath)
    ga = GlobalArray.create(armci, (8, 8), "f8")
    armci.barrier()
    counts = (list(kinds), len(windows), len(armci._gmr_mutexes))
    ga.destroy()
    armci.finalize()
    return counts


@pytest.mark.parametrize(
    "datapath, rounds, windows, mutexes",
    [
        ("mpi3", ["comm_dup", "armci_init", "allgather", "armci_malloc", "barrier"], 1, 0),
        (
            "mpi2",
            ["comm_dup", "armci_init", "allgather", "comm_dup", "allgather",
             "armci_malloc", "barrier"],
            2,
            1,
        ),
    ],
)
def test_a_setup_cycle_builds_the_rmw_mutex_only_on_mpi2(datapath, rounds, windows, mutexes):
    """An mpi3 ``Armci.malloc`` is one window (§VIII-B: RMW is a
    ``fetch_and_op``); mpi2 adds the §V-D mutex, a derived communicator
    and a second window, two collective rounds more."""
    for counts in proc_spmd(2, _counted_setup_body, datapath):
        assert counts == (rounds, windows, mutexes)


def _rmw_draws_body(comm, datapath, draws):
    from repro.armci import FETCH_AND_ADD_LONG

    armci = Armci.init(comm, datapath=datapath)
    ptrs = armci.malloc(8)
    armci.barrier()
    got = [armci.rmw(FETCH_AND_ADD_LONG, ptrs[0], 1) for _ in range(draws)]
    armci.barrier()
    armci.free(ptrs[armci.my_id])
    armci.finalize()
    return got


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
def test_rmw_hands_out_every_value_once_on_both_datapaths(datapath):
    got = proc_spmd(2, _rmw_draws_body, datapath, 50)
    assert sorted(got[0] + got[1]) == list(range(100))


def _rmw_past_a_kill_body(comm, victim, draws):
    """Every rank draws from rank 0's counter; ``victim`` then dies, the
    survivors learn of it at a barrier, acknowledge, and draw again over
    the §V-D mutex the victim no longer takes part in."""
    from repro.armci import FETCH_AND_ADD_LONG

    armci = Armci.init(comm)  # mpi2: the mutex-based RMW
    ptrs = armci.malloc(8)
    armci.barrier()
    before = [armci.rmw(FETCH_AND_ADD_LONG, ptrs[0], 1) for _ in range(draws)]
    armci.barrier()
    if comm.rank == victim:
        os.kill(os.getpid(), signal.SIGKILL)
    with pytest.raises(RankFailedError):
        comm.barrier()
    comm.failure_ack()
    after = [armci.rmw(FETCH_AND_ADD_LONG, ptrs[0], 1) for _ in range(draws)]
    return before, after


def test_mpi2_rmw_stays_exactly_once_past_a_rank_kill():
    draws, victim = 5, 2
    out = proc_spmd(NPROC, _rmw_past_a_kill_body, victim, draws)
    assert out[victim] is None
    survivors = [r for r in out if r is not None]
    before = sorted(v for b, _ in survivors for v in b)
    after = sorted(v for _, a in survivors for v in a)
    # the victim's draws are lost with it; nobody else's collide
    assert len(set(before)) == len(before) and set(before) <= set(range(NPROC * draws))
    first = NPROC * draws
    assert after == list(range(first, first + len(survivors) * draws))


# ---------------------------------------------------------------------------
# fork/spawn safety of runtime globals
# ---------------------------------------------------------------------------


def test_creation_hooks_not_duplicated_into_children():
    """RUNTIME_CREATION_HOOKS fire on the parent runtime only: child-side
    runtime replicas are built with apply_hooks=False, so an ambient
    layer is never silently installed in a process it cannot observe."""
    calls: list[int] = []

    def hook(runtime):
        calls.append(runtime.nproc)

    def body(comm):
        # forked children inherit a snapshot of `calls`; if the child's
        # runtime replica had applied hooks it would have grown here
        return len(calls)

    rt_mod.RUNTIME_CREATION_HOOKS.append(hook)
    try:
        rt = Runtime(2, backend="proc")
        assert calls == [2]  # parent runtime ran the hook exactly once
        out = rt.spmd(body, join_timeout=60.0)
        assert out == [1, 1]
        assert calls == [2]
    finally:
        rt_mod.RUNTIME_CREATION_HOOKS.remove(hook)


def test_thread_backend_unchanged_by_default():
    rt = Runtime(2)
    assert rt.backend.name == "thread"
    out = rt.spmd(lambda comm: comm.allgather(comm.rank))
    assert out == [[0, 1], [0, 1]]


# ---------------------------------------------------------------------------
# ULFM surface on the proc backend
# ---------------------------------------------------------------------------


def _ulfm_surface_body(comm):
    # consensus + shrink without any failure: the FT surface must be a
    # plain collective when nobody is dead
    assert comm.agree(1) == 1
    assert comm.agree(comm.rank != 1) == 0  # AND semantics: one dissent wins
    sub = comm.shrink()  # no deaths: same membership, fresh context
    assert sub.size == comm.size
    assert sub.allgather(sub.rank) == list(range(comm.size))
    return comm.rank


def test_proc_ulfm_surface_works():
    assert proc_spmd(NPROC, _ulfm_surface_body) == list(range(NPROC))


def test_proc_revoke_poisons_peer_collectives():
    from repro.mpi.errors import CommRevokedError

    def body(comm):
        comm.barrier()
        if comm.rank == 0:
            comm.revoke()
            exc_type = "CommRevokedError"
        else:
            try:
                # peers re-enter collectives until the revoke lands; the
                # op count bounds the test if propagation were broken
                for _ in range(10_000):
                    comm.allgather(comm.rank)
                exc_type = "none"
            except CommRevokedError:
                exc_type = "CommRevokedError"
        return exc_type

    assert proc_spmd(NPROC, body) == ["CommRevokedError"] * NPROC


# ---------------------------------------------------------------------------
# cross-process recovery: the SIGKILL matrix
# ---------------------------------------------------------------------------

_GA_SHAPE = (8, 8)


def _ga_base():
    return np.add.outer(
        np.arange(_GA_SHAPE[0], dtype=np.int64) * 10,
        np.arange(_GA_SHAPE[1], dtype=np.int64),
    )


def _seed_ga(armci):
    from repro.ga import GlobalArray

    ga = GlobalArray.create(armci, _GA_SHAPE, "i8")
    blk = ga.distribution()
    if blk.size:
        view = ga.access()
        view[...] = _ga_base()[tuple(slice(l, h) for l, h in zip(blk.lo, blk.hi))]
        ga.release()
    ga.sync()
    return ga


def _risky_phase(comm, armci, ga, kind, victim):
    """The phase the victim dies inside; survivors keep issuing ``kind``."""
    me = comm.rank
    if kind == "mutex":
        mutexes = armci.create_mutexes(1)
        armci.barrier()
        if me == victim:
            mutexes.lock(0, 0)  # die holding it: reclamation must not hang
            os.kill(os.getpid(), signal.SIGKILL)
        from repro.armci.mutexes import MutexHolderFailed

        for _ in range(200):
            try:
                mutexes.lock(0, 0)
            except MutexHolderFailed:
                pass
            mutexes.unlock(0, 0)
        armci.barrier()
        return
    if kind == "collective":
        if me == victim:
            os.kill(os.getpid(), signal.SIGKILL)
        # survivors block in the collective until the heartbeat detector
        # declares the victim dead and poisons the wait
        for _ in range(200):
            comm.allgather(me)
        return
    # put / get / acc traffic against every rank in turn
    data = np.ones((2, 2), dtype=np.int64)
    if me == victim:
        ga.acc([0, 0], [2, 2], data)
        os.kill(os.getpid(), signal.SIGKILL)
    for i in range(2000):
        lo = [(2 * (me + i)) % 6, 0]
        hi = [lo[0] + 2, 2]
        if kind == "put":
            ga.put(lo, hi, data)
        elif kind == "get":
            ga.get(lo, hi)
        else:
            ga.acc(lo, hi, data)
    armci.barrier()


def _kill_matrix_body(comm, kind, victim):
    from repro.armci import Armci
    from repro.armci.mutexes import MutexHolderFailed
    from repro.ga import GlobalArray
    from repro.mpi.errors import (
        CommRevokedError,
        OpTimeoutError,
        TargetFailedError,
    )
    from repro.recover import recover

    recoverable = (
        TargetFailedError,
        RankFailedError,
        CommRevokedError,
        OpTimeoutError,
        MutexHolderFailed,
    )
    armci = Armci.init(comm)
    ga = _seed_ga(armci)
    ckpt = None
    try:
        # the kill can land while a survivor is still inside the
        # checkpoint's closing barrier (before the victim sent its part of
        # it), so the checkpoint is fallible too
        ckpt = ga.checkpoint()
        _risky_phase(comm, armci, ga, kind, victim)
        flag = 1
    except recoverable:
        armci.world.revoke()
        flag = 0
    if not armci.world.agree(flag):
        armci, report = recover(armci)
        assert victim in report.failed
        have_ckpt = ckpt is not None and np.array_equal(ckpt.data, _ga_base())
        if armci.world.agree(1 if have_ckpt else 0):
            ga = GlobalArray.restore(armci, ckpt)
        else:
            # died before every survivor held a consistent snapshot:
            # rebuild from the (deterministic) seed values instead
            ga = _seed_ga(armci)
    full = ga.get([0, 0], list(_GA_SHAPE))
    ga.sync()
    # the risky phase's partial writes are discarded by the restore, so
    # the checkpointed contents must be back, redistributed on the
    # shrunken grid
    assert np.array_equal(full, _ga_base()), full
    return ("done", armci.nproc)


# each op kind is covered, and each rank is a victim somewhere — rank 0
# matters most (it coordinates FT consensus, so its death exercises the
# coordinator-handoff path)
@pytest.mark.parametrize(
    "kind,victim",
    [
        ("put", 1),
        ("get", 2),
        ("acc", 3),
        ("mutex", 0),
        ("mutex", 2),
        ("collective", 0),
        ("collective", 1),
        ("collective", 3),
    ],
)
def test_proc_sigkill_matrix_survivors_recover(kind, victim):
    out = proc_spmd(NPROC, _kill_matrix_body, kind, victim)
    assert out[victim] is None  # the dead rank's slot in a recovered run
    for rank, res in enumerate(out):
        if rank != victim:
            assert res == ("done", NPROC - 1), (rank, res)


def test_proc_recovered_run_returns_none_for_dead_ranks():
    """The spmd survivor-results contract, in isolation."""

    def body(comm):
        comm.barrier()
        if comm.rank == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            for _ in range(200):
                comm.barrier()
        except RankFailedError:
            comm.failure_ack()
        return comm.rank

    out = proc_spmd(NPROC, body)
    assert out == [0, 1, 2, None]


def _kill_self_body(comm):
    os.kill(os.getpid(), signal.SIGKILL)


def test_proc_run_where_every_rank_dies_raises_for_the_lowest():
    """A recovered run needs at least one survivor's result: with every
    rank dead there is none, and spmd names the lowest dead rank."""
    with pytest.raises(RankFailedError, match=r"rank 0 process died .*exit code -9"):
        Runtime(2, backend="proc").spmd(_kill_self_body, join_timeout=60.0)


def _sleep_body(comm, seconds):
    time.sleep(seconds)
    return comm.rank


def test_proc_fault_plan_that_kills_every_rank_raises():
    from repro.faults import FaultInjector, FaultPlan

    rt = Runtime(2, backend="proc")
    rt.faults = FaultInjector(
        FaultPlan(seed=0).kill(0, after_s=0.2).kill(1, after_s=0.2)
    )
    with pytest.raises(RankFailedError, match=r"rank 0 process died .*exit code -9"):
        rt.spmd(_sleep_body, 10.0, join_timeout=60.0)
    assert sorted(r for k, r, _t in rt.faults.events if k == "kill") == [0, 1]


# ---------------------------------------------------------------------------
# thread/proc recovery parity
# ---------------------------------------------------------------------------


def _recovery_parity_body(comm, mode):
    """Same recovery flow on both backends; victim differs only in how
    it dies (thread: mark_dead + RankKilledError, proc: real SIGKILL)."""
    from repro.armci import Armci
    from repro.ga import GlobalArray
    from repro.mpi.errors import CommRevokedError, TargetFailedError
    from repro.mpi.runtime import RankKilledError
    from repro.recover import recover

    victim = 1
    armci = Armci.init(comm)
    ga = _seed_ga(armci)
    ckpt = None
    try:
        ckpt = ga.checkpoint()
        if comm.rank == victim:
            if mode == "proc":
                os.kill(os.getpid(), signal.SIGKILL)
            rt = comm.runtime
            with rt.cond:
                rt.mark_dead(comm.world_rank(victim))
            raise RankKilledError(f"rank {victim} dies")
        for _ in range(200):
            comm.allgather(comm.rank)
        flag = 1
    except RankKilledError:
        raise
    except (TargetFailedError, RankFailedError, CommRevokedError):
        armci.world.revoke()
        flag = 0
    if not armci.world.agree(flag):
        armci, _report = recover(armci)
        have_ckpt = ckpt is not None and np.array_equal(ckpt.data, _ga_base())
        if armci.world.agree(1 if have_ckpt else 0):
            ga = GlobalArray.restore(armci, ckpt)
        else:
            ga = _seed_ga(armci)
    full = ga.get([0, 0], list(_GA_SHAPE))
    ga.sync()
    return armci.nproc, full.tobytes()


def test_thread_proc_recovery_parity():
    thread_out = Runtime(NPROC, watchdog_s=10.0).spmd(_recovery_parity_body, "thread")
    proc_out = proc_spmd(NPROC, _recovery_parity_body, "proc")
    t_live = [r for r in thread_out if r is not None]
    p_live = [r for r in proc_out if r is not None]
    assert proc_out[1] is None
    assert len(t_live) == len(p_live) == NPROC - 1
    # both backends converge to the same shrunken world and the same
    # restored bytes
    for nproc, blob in t_live + p_live:
        assert nproc == NPROC - 1
        assert blob == _ga_base().tobytes()


# ---------------------------------------------------------------------------
# fault plans on processes: after_s kills and stalls as real signals
# ---------------------------------------------------------------------------


def _slow_rounds_body(comm, rounds, pause_s):
    for _ in range(rounds):
        comm.barrier()
        time.sleep(pause_s)
    return comm.allgather(comm.rank)


def test_proc_fault_injector_kill_surfaces_rankfailed():
    from repro.faults import FaultInjector, FaultPlan

    rt = Runtime(NPROC, backend="proc")
    rt.faults = FaultInjector(FaultPlan(seed=0).kill(2, after_s=0.4))
    with pytest.raises(RankFailedError, match="rank 2"):
        rt.spmd(_slow_rounds_body, 200, 0.02, join_timeout=60.0)
    assert ("kill", 2) in [(k, r) for k, r, _t in rt.faults.events]


def test_proc_fault_injector_stall_is_suspected_not_dead():
    """A SIGSTOPped rank's lease goes stale, but its pid stays alive:
    the detector must keep it in 'suspected' forever rather than declare
    death, and the run completes after SIGCONT."""
    from repro.faults import FaultInjector, FaultPlan

    rt = Runtime(
        NPROC, backend="proc", heartbeat_s=0.02, suspect_after=0.2
    )
    rt.faults = FaultInjector(
        FaultPlan(seed=0).stall(1, after_s=0.2, for_s=1.0)
    )
    out = rt.spmd(_slow_rounds_body, 40, 0.02, join_timeout=60.0)
    assert out == [list(range(NPROC))] * NPROC
    kinds = [(k, r) for k, r, _t in rt.faults.events]
    assert ("stop", 1) in kinds and ("cont", 1) in kinds


def _late_rank0_body(comm, rounds, pause_s):
    if comm.rank == 0:
        # a late start: the pump is already heartbeating, so peers see
        # a slow rank, not a dead one
        time.sleep(0.8)
    return _slow_rounds_body(comm, rounds, pause_s)


def test_proc_fault_injector_startup_delay_not_mistaken_for_death():
    rt = Runtime(
        NPROC, backend="proc", heartbeat_s=0.02, suspect_after=0.2
    )
    out = rt.spmd(_late_rank0_body, 5, 0.01, join_timeout=60.0)
    assert out == [list(range(NPROC))] * NPROC


def test_proc_rejects_thread_style_fault_plans():
    from repro.faults import FaultInjector, FaultPlan

    rt = Runtime(2, backend="proc")
    rt.faults = FaultInjector(FaultPlan(seed=0).kill(1, 5))
    with pytest.raises(
        InternalError, match=r"proc backend cannot run .*kill rank 1 @point 5"
    ):
        rt.spmd(lambda comm: None)


@pytest.mark.parametrize(
    "plan, entry",
    [
        (lambda p: p.corrupt(3), "corrupt op 3"),
        (lambda p: p.drop(4, kind="put"), "drop op 4 [put]"),
        (lambda p: p.delay(jitter_frac=0.2), "delay jitter=0.2"),
        (lambda p: p.stall(0, 2, steps=3), "stall rank 0 @point 2 x3"),
        (lambda p: p.kill(2, after_s=0.1), "kill rank 2 @0.1s"),  # 2 ranks
    ],
)
def test_proc_rejects_entries_it_cannot_run_by_name(plan, entry):
    from repro.faults import FaultInjector, FaultPlan

    rt = Runtime(2, backend="proc")
    rt.faults = FaultInjector(plan(FaultPlan(seed=0)))
    with pytest.raises(InternalError, match="proc backend") as err:
        rt.spmd(lambda comm: None)
    assert entry in str(err.value)
    assert rt.faults.events == []


def test_proc_runs_an_empty_fault_plan():
    from repro.faults import FaultInjector, FaultPlan

    rt = Runtime(2, backend="proc")
    rt.faults = FaultInjector(FaultPlan(seed=0))
    assert rt.spmd(lambda comm: comm.rank) == [0, 1]
    assert rt.faults.events == []


def test_proc_abnormal_exit_leaves_no_shm_segments():
    """SIGKILLed children never run their unlink paths; the parent's
    teardown sweep must leave no segment of this process's runs behind
    (``repro-<pid>x<n>-…``, the names ``bench.registry._leftovers`` checks:
    a suite running beside this one owns the others)."""
    shm = pathlib.Path("/dev/shm")
    if not shm.is_dir():
        pytest.skip("no /dev/shm on this platform")

    def body(comm):
        from repro.armci import Armci

        armci = Armci.init(comm)
        ga = _seed_ga(armci)
        armci.barrier()
        if comm.rank == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            for _ in range(200):
                armci.barrier()
        except RankFailedError:
            comm.failure_ack()
        return ga.shape

    mine = f"repro-{os.getpid()}x*"
    before = set(shm.glob(mine))
    proc_spmd(NPROC, body)
    leftover = set(shm.glob(mine)) - before
    assert not leftover, sorted(p.name for p in leftover)
