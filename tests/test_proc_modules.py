"""The proc backend's modules on their own: the imports that keep them
apart, and the window locks of :mod:`repro.mpi.proc_win` in one process,
with no fork and no shared memory (two lock-file caches over one
directory are two open file descriptions, which ``flock`` keeps apart
like two processes)."""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.mpi import proc_comm, proc_win
from repro.mpi.datatypes import SegmentMap
from repro.mpi.proc_win import _SLOT, ProcWin, _LockFiles, _Reservation, _try_flock
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
    ],
)
def test_proc_modules_keep_their_layering(module, banned):
    assert _imported_modules(module) & banned == set()


def test_two_lock_file_caches_exclude_each_others_flocks(tmp_path):
    key = ("tok", 0, "lock")
    a, b = _LockFiles(str(tmp_path)), _LockFiles(str(tmp_path))
    fa = a.take(key)
    assert _try_flock(fa, proc_win.fcntl.LOCK_EX | proc_win.fcntl.LOCK_NB)
    fb = b.take(key)
    assert _try_flock(fb, proc_win.fcntl.LOCK_SH | proc_win.fcntl.LOCK_NB) is None
    b.release(key, fb, held=False)
    a.release(key, fa)  # let go, and cached
    fb = b.take(key)  # b's cached descriptor, now grantable
    assert _try_flock(fb, proc_win.fcntl.LOCK_EX | proc_win.fcntl.LOCK_NB)
    b.release(key, fb)
    a.forget("tok")
    b.forget("tok")


class _Origin:
    """What a :class:`_Reservation` reads of its window: the origin's
    rank, the window's token, the origin's lock files and its busy probe."""

    _busy = ProcWin._busy

    def __init__(self, rank: int, lockdir: str):
        self._creator_rank, self._token = rank, "tok"
        self._lock_files = _LockFiles(lockdir)


#: rows of an 8 x 16 float64 matrix: columns 0-3, 1-4 and 4-7
_COLS_0_3 = _footprint_slot(SegmentMap.arithmetic(0, 128, 32, 8))
_COLS_1_4 = _footprint_slot(SegmentMap.arithmetic(8, 128, 32, 8))
_COLS_4_7 = _footprint_slot(SegmentMap.arithmetic(32, 128, 32, 8))


def test_a_reservation_refuses_an_overlapping_held_slot_and_grants_a_disjoint_one(tmp_path):
    table = memoryview(bytearray(2 * _SLOT.size))
    held, waiter = (
        _Reservation(_Origin(r, str(tmp_path)), 0, table, 0, 2) for r in (0, 1)
    )
    held.slot = _COLS_0_3
    held_fd = held.attempt()
    assert held_fd is not None
    waiter.slot = _COLS_1_4
    assert waiter.attempt() is None
    waiter.slot = _COLS_4_7
    fd = waiter.attempt()
    assert fd is not None
    waiter.win._lock_files.release(waiter.bkey, fd)
    # the holder lets go: its slot stays written but reads as free
    held.win._lock_files.release(held.bkey, held_fd)
    waiter.slot = _COLS_1_4
    fd = waiter.attempt()
    assert fd is not None
    waiter.win._lock_files.release(waiter.bkey, fd)
    for res in (held, waiter):
        res.win._lock_files.forget("tok")
