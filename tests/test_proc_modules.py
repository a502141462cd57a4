"""The proc backend's modules on their own: the imports that keep them
apart, and the locks of :mod:`repro.mpi.proc_win` and
:mod:`repro.mpi.mailbox` in one process, with no rank processes (two
attachments of one shared-memory segment are two open file descriptions,
which byte-range locks keep apart like two processes)."""

from __future__ import annotations

import ast
import os
import pathlib
import signal
import time
import uuid
from multiprocessing import shared_memory

import pytest

from repro.mpi import mailbox, proc_comm, proc_win
from repro.mpi.bytelock import ByteLock
from repro.mpi.datatypes import SegmentMap
from repro.mpi.proc_child import _attach_untracked
from repro.mpi.proc_win import _SLOT, _Reservation
from repro.mpi.rma_rules import _footprint_slot


def _imported_modules(module) -> set[str]:
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
            names += [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return {part for name in names for part in name.split(".")}


@pytest.mark.parametrize(
    "module, banned",
    [
        (proc_win, {"backend_proc", "proc_child", "proc_comm"}),
        (proc_comm, {"proc_win", "backend_proc"}),
        (mailbox, {"proc_win", "proc_comm", "proc_child", "backend_proc"}),
    ],
)
def test_proc_modules_keep_their_layering(module, banned):
    assert _imported_modules(module) & banned == set()


@pytest.fixture
def segment():
    """A fresh shared-memory segment's name; attach it with :func:`_attach`."""
    seg = shared_memory.SharedMemory(
        name=f"repro-test-{os.getpid()}-{uuid.uuid4().hex[:8]}", create=True, size=64
    )
    attached: list = []
    yield seg.name, attached
    for other in attached:
        other.close()
    seg.close()
    seg.unlink()


def _attach(segment) -> shared_memory.SharedMemory:
    """One more attachment, so one more open file description."""
    name, attached = segment
    attached.append(_attach_untracked(name))
    return attached[-1]


def test_two_attachments_of_one_segment_exclude_each_others_locks(segment):
    a, b = (ByteLock(_attach(segment)._fd, 0) for _ in range(2))
    assert a.try_lock()
    assert not b.try_lock(exclusive=False)
    # a query sees the other description's lock, never its own
    assert b.held() and not a.held()
    assert ByteLock(b.fd, 2).try_lock()  # another byte stays free
    a.unlock()
    assert not b.held()
    assert b.try_lock()
    b.unlock()
    # shared holders share
    assert a.try_lock(exclusive=False) and b.try_lock(exclusive=False)
    third = _attach(segment)
    assert not ByteLock(third._fd, 0).try_lock()


def test_a_killed_holders_lock_is_free_at_once(segment):
    ready_r, ready_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        try:
            own = _attach_untracked(segment[0])
            ByteLock(own._fd, 0).try_lock()
            os.write(ready_w, b"x")
            time.sleep(60)
        finally:
            os._exit(0)
    os.close(ready_w)
    try:
        assert os.read(ready_r, 1) == b"x"
        mine = ByteLock(_attach(segment)._fd, 0)
        assert mine.held() and not mine.try_lock()
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(ready_r)
    assert not mine.held()
    assert mine.try_lock()


class _Origin:
    """What a :class:`_Reservation` reads of its window to attempt one:
    the origin's rank."""

    def __init__(self, rank: int):
        self._creator_rank = rank


#: rows of an 8 x 16 float64 matrix: columns 0-3, 1-4 and 4-7
_COLS_0_3 = _footprint_slot(SegmentMap.arithmetic(0, 128, 32, 8))
_COLS_1_4 = _footprint_slot(SegmentMap.arithmetic(8, 128, 32, 8))
_COLS_4_7 = _footprint_slot(SegmentMap.arithmetic(32, 128, 32, 8))


def test_a_reservation_refuses_an_overlapping_held_slot_and_grants_a_disjoint_one(segment):
    table = memoryview(bytearray(2 * _SLOT.size))
    held, waiter = (
        _Reservation(_Origin(r), 0, table, 0, _attach(segment)._fd, 2) for r in (0, 1)
    )
    held.slot = _COLS_0_3
    assert held.attempt()
    waiter.slot = _COLS_1_4
    assert not waiter.attempt()
    waiter.slot = _COLS_4_7
    assert waiter.attempt()
    waiter.busy.unlock()
    # every attempt let .atomic go
    assert not held.atomic.held() and not waiter.atomic.held()
    # the holder lets go: its slot stays written but reads as free
    held.busy.unlock()
    waiter.slot = _COLS_1_4
    assert waiter.attempt()
    waiter.busy.unlock()


def test_a_write_behind_another_processes_pipe_lock_gives_up(segment):
    """While another description holds pipe 0's write lock, a write waits
    without blocking: its ``give_up`` runs between tries, and may end it
    before any byte is written."""
    read_end, write_end = os.pipe2(os.O_NONBLOCK)
    holder, writer = (mailbox.Outbox([write_end], _attach(segment)._fd) for _ in range(2))
    frame, tries = mailbox.encode("after"), []

    def give_up(dst, since):
        tries.append(dst)
        if time.monotonic() - since >= 0.05:
            raise TimeoutError

    try:
        assert holder._locks[0].try_lock()  # a writer mid-frame
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            writer.write(0, frame, 0.01, give_up)
        assert time.monotonic() - t0 < 1.0
        assert len(tries) > 1 and set(tries) == {0}
        with pytest.raises(BlockingIOError):
            os.read(read_end, 1)  # no byte of the frame went in
        holder._locks[0].unlock()
        writer.write(0, frame, 0.01, give_up)
        assert mailbox.Inbox(read_end).read() == ["after"]
    finally:
        os.close(read_end)
        os.close(write_end)
