"""Proc-backend windows: memory in shared-memory segments, locks in flocks.

Each rank's exposure lives in a shared-memory segment all peers attach
(the MPI-3 ``MPI_Win_allocate_shared`` analogue from Hammond et al.,
PAPERS.md; ``proc_child`` creates them, empty for ``Win.allocate``, a
copy of the caller's array for ``Win.create``); the window's one lock
primitive is an ``fcntl.flock`` per target (shared/exclusive), so
``lock`` takes one and MPI-3 ``lock_all`` a shared one on every target,
and the atomic ops (``accumulate``/``fetch_and_op``/
``compare_and_swap``) *reserve their byte footprint* in a per-target
table so they are atomic across processes even inside shared epochs,
while ones on disjoint bytes run at the same time.  A contended lock or
reservation waits in ``Runtime.wait_for``, polled along
:data:`~repro.backoff.FLOCK_WAIT`.

Needs no launcher, inbox or communicator of the proc backend: two
:class:`_LockFiles` over one directory exclude each other within one
process too.
"""

from __future__ import annotations

import fcntl
import os
import struct
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from ..backoff import FLOCK_WAIT
from .comm import Comm
from .rma_rules import _slots_overlap
from .window import LOCK_EXCLUSIVE, Win

__all__ = ["ProcWin"]


class _LockFiles:
    """One rank process's open window-lock files: a descriptor per lock
    file instead of an ``open``/``close`` per acquisition.

    Built after the fork, so every descriptor is this process's *own*
    open file description (one inherited over ``fork`` would be shared
    with the parent and exclude nobody) and the kernel still drops a dead
    rank's flocks.  A descriptor is taken out of the cache while its
    flock is held and returned by :meth:`release`, so whatever is cached
    is unheld and closing the least recently used one to stay under
    :data:`BOUND` is always safe — hundreds of live windows x targets
    cannot walk into ``RLIMIT_NOFILE``.
    """

    #: cached (= idle) descriptors per process, over all its windows
    BOUND = 64

    def __init__(self, lockdir: str):
        self._dir = lockdir
        #: (window token, target, kind) -> unheld descriptor, LRU first
        self._idle: dict[tuple[str, int, str], int] = {}

    def take(self, key: tuple[str, int, str]) -> int:
        fd = self._idle.pop(key, None)
        if fd is None:
            path = os.path.join(self._dir, "%s.t%d.%s" % key)
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        return fd

    def release(self, key: tuple[str, int, str], fd: int, held: bool = True) -> None:
        """Cache a descriptor, unlocking it first if it ``held`` its flock
        (``held=False``: its nonblocking probe failed)."""
        if held:
            fcntl.flock(fd, fcntl.LOCK_UN)
        self._idle[key] = fd
        if len(self._idle) > self.BOUND:
            os.close(self._idle.pop(next(iter(self._idle))))

    def forget(self, token: str) -> None:
        """Close every cached descriptor of one window (it was freed)."""
        for key in [k for k in self._idle if k[0] == token]:
            os.close(self._idle.pop(key))


#: one slot of a target's footprint table, the last footprint its origin
#: reserved there: its bounding box ``[lo, hi)`` (a quick test that
#: mostly settles disjointness), then its ``(step, seg_len, n)`` rows
#: from ``lo`` (all zero: none reserved yet)
_SLOT = struct.Struct("5q")


def _table_offset(nbytes: int) -> int:
    """Where a target's footprint table starts in its segment: after the
    exposed bytes, 8-byte aligned."""
    return -(-nbytes // 8) * 8


def _segment_array(seg, nbytes: int) -> np.ndarray:
    """The first ``nbytes`` of a segment as a byte array that keeps it mapped.

    numpy holds on to a buffer's object but not to its export, so nothing
    of an array over ``seg.buf`` stops ``seg.close()`` — or the segment's
    ``__del__`` — from unmapping the memory under it, and touching the
    array afterwards would crash the process.  So the segment is closed
    only once this array, and with it every view of it, is gone: at once
    when the window drops its buffers, later when the caller kept one
    (a ``Win.allocate`` result kept past ``free``).
    """
    array = np.ndarray((nbytes,), dtype=np.uint8, buffer=seg.buf)
    weakref.finalize(array, seg.close)
    return array


def _try_flock(fd: int, op: int) -> "bool | None":
    """One nonblocking ``flock``: True if granted, None if held elsewhere."""
    try:
        fcntl.flock(fd, op)
    except OSError:
        return None
    return True


class _Reservation:
    """This origin's reservations on one target: the context manager
    :meth:`ProcWin._atomic_section` hands out, one per target, reused by
    every atomic op there (a rank process runs one op at a time, and none
    nests), with the slot of the op it guards."""

    __slots__ = (
        "win", "target_rank", "akey", "bkey", "buf", "mine", "peers", "slot", "fd", "waited_s"
    )

    def __init__(
        self, win: "ProcWin", target_rank: int, buf: memoryview, table: int, nranks: int
    ):
        me, size, token = win._creator_rank, _SLOT.size, win._token
        self.win, self.target_rank, self.buf = win, target_rank, buf
        #: the ``.atomic`` and own busy lock keys
        self.akey, self.bkey = (token, target_rank, "atomic"), (token, target_rank, "busy%d" % me)
        #: the own slot's offset and every other origin's ``(rank, slot offset)``
        self.mine = table + me * size
        self.peers = [(r, table + r * size) for r in range(nranks) if r != me]
        self.slot: "tuple | None" = None
        self.fd: "int | None" = None
        #: wall seconds spent waiting after a refused first attempt
        self.waited_s = 0.0

    def __enter__(self) -> None:
        if self.slot is not None:
            self.fd = self.attempt()
            if self.fd is None:
                rt, t0 = self.win.runtime, time.perf_counter()
                self.fd = rt.wait_for(
                    self.attempt,
                    timeout_s=rt.op_timeout_s,
                    what=f"win {self.win.win_id} atomic reservation (target {self.target_rank})",
                    poll=FLOCK_WAIT,
                )
                self.waited_s += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        fd, self.fd = self.fd, None
        if fd is not None:
            self.win._lock_files.release(self.bkey, fd)

    def attempt(self) -> "int | None":
        """One attempt at reserving :attr:`slot`: the held busy flock's
        descriptor, or None when ``.atomic`` or an overlapping reservation
        is held elsewhere."""
        files, slot = self.win._lock_files, self.slot
        afd = files.take(self.akey)
        try:
            fcntl.flock(afd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            files.release(self.akey, afd, held=False)
            return None
        try:
            lo, hi = slot[0], slot[1]
            for origin, theirs in self.peers:
                other = _SLOT.unpack_from(self.buf, theirs)
                if (
                    # a slot's bounding box first: settles most disjoint
                    # pairs without a call (the budgeted uncontended case)
                    other[0] < hi and lo < other[1]
                    and _slots_overlap(slot, other)
                    and self.win._busy(self.target_rank, origin)
                ):
                    return None
            _SLOT.pack_into(self.buf, self.mine, *slot)
            bfd = files.take(self.bkey)
            # granted at once: a peer probes it only under .atomic
            fcntl.flock(bfd, fcntl.LOCK_EX)
            return bfd
        finally:
            files.release(self.akey, afd)


class ProcWin(Win):
    """A window whose memory is shared-memory segments, locks are flocks.

    Every rule and all epoch bookkeeping are :class:`Win`'s, kept
    process-local; this class supplies only where the memory lives and
    what a lock is.  The *mutual exclusion* between processes comes from
    three families of ``fcntl.flock`` files under the run's lock
    directory, held through this process's :class:`_LockFiles`
    descriptors and always taken in the order ``.lock`` → ``.atomic`` →
    busy, so they cannot deadlock:

    * ``<token>.t<target>.lock`` — the passive-target epoch lock, taken
      by :meth:`_acquire` (``LOCK_SH``/``LOCK_EX`` mirroring
      shared/exclusive) for ``lock`` and, shared, on every target for
      ``lock_all``, like ``MPI_Win_lock_all``.
    * ``<token>.t<target>.atomic`` — guards the target's *footprint
      table* (one :data:`_SLOT` per origin, after the exposed bytes of
      its segment) for the few syscalls it takes to reserve a footprint.
    * ``<token>.t<target>.busy<origin>`` — held by ``origin`` while it
      runs the read-modify-write of an accumulate/fetch_and_op/
      compare_and_swap whose footprint its slot records.

    So atomics are atomic across processes even inside shared epochs
    (like real MPI, conflicting plain put/put under shared locks is the
    user's race, atomics are the runtime's job), and ones with disjoint
    footprints run at the same time: see :meth:`_atomic_section`.
    """

    # Win's own functions, not overrides: named here only because the e2e
    # benchmark's span tracer (benchmarks/e2e/spans.py) wraps them by
    # looking them up in this class's namespace
    lock, unlock = Win.lock, Win.unlock
    accumulate, fetch_and_op = Win.accumulate, Win.fetch_and_op

    def __init__(
        self,
        comm: Comm,
        buffers: list[np.ndarray],
        disp_units: list[int],
        strict: bool = True,
        mpi3: bool = False,
        *,
        segment: shared_memory.SharedMemory,
        tables: "list[tuple[memoryview, int]]",
        creator_rank: int,
        token: str,
        lock_files: _LockFiles,
    ):
        super().__init__(comm, buffers, disp_units, strict=strict, mpi3=mpi3)
        #: this rank's own segment, which it unlinks at free
        self._segment = segment
        self._creator_rank = creator_rank
        self._token = token
        self._lock_files = lock_files
        self._released = False
        #: per target, this origin's reservation there
        self._reservations = [
            _Reservation(self, t, buf, table, len(tables))
            for t, (buf, table) in enumerate(tables)
        ]

    # -- the lock primitive --------------------------------------------------
    def _acquire(self, origin: int, target_rank: int, mode: str) -> tuple:
        """Take ``target_rank``'s epoch flock; returns the ``(key,
        descriptor)`` pair that ``_LockFiles.release`` takes back.

        A free lock is one nonblocking ``flock``.  A held one is waited
        for in ``Runtime.wait_for``, polled along ``FLOCK_WAIT``, so a wait
        costs about what the holder holds: a *dead* holder's flock
        self-reclaims (the kernel drops it), and a *stalled* (SIGSTOPped)
        holder's ends the wait at ``op_timeout_s``, one deadline for the
        whole wait."""
        key = (self._token, target_rank, "lock")
        fd = self._lock_files.take(key)
        op = (fcntl.LOCK_EX if mode == LOCK_EXCLUSIVE else fcntl.LOCK_SH) | fcntl.LOCK_NB
        try:
            _try_flock(fd, op) or self.runtime.wait_for(
                lambda: _try_flock(fd, op),
                timeout_s=self.runtime.op_timeout_s,
                what=f"win {self.win_id} lock flock (target {target_rank})",
                poll=FLOCK_WAIT,
            )
        except BaseException:
            self._lock_files.release(key, fd)
            raise
        return key, fd

    def _release(self, epoch) -> None:
        self._lock_files.release(*epoch.lock)

    def _atomic_section(self, target_rank: int, slot: "tuple | None") -> "_Reservation":
        """``with`` block in which this origin holds a reservation of the
        ``slot`` rows of ``target_rank``'s memory (the op's footprint, as
        the op derived it: see ``rma_rules._footprint_slot``).

        Entering reserves — inside the origin's epoch, so the locks are
        taken in the order ``.lock`` → ``.atomic`` → busy — under the
        target's ``.atomic`` flock: if the slot of another origin
        overlaps (:func:`~repro.mpi.rma_rules._slots_overlap`) and that
        origin's busy flock is held — probed without blocking — it lets
        ``.atomic`` go and tries again, waiting as :meth:`_acquire` does;
        otherwise it writes its own slot, takes its own busy flock and lets
        ``.atomic`` go.  The read-modify-write then
        runs outside any shared lock, and leaving is a single
        ``flock(LOCK_UN)`` of the busy file: releasing through the kernel
        lock, not a store to shared memory, is what orders the RMW before
        a later reserver's read on every architecture.  A slot is never
        cleared: a finished — or dead, the kernel drops its flocks —
        origin's slot reads as free because its busy flock is.  A
        zero-byte footprint reserves nothing.

        Rejected, do not redo: a *publish-then-check* reservation (write
        the own slot, flock the own busy file, then read the peers'
        slots, with no ``.atomic``) took a reservation from 7.1 to 4.1 µs
        on the 2-CPU reference host, but two origins that publish at once
        must each see the other's slot, which needs a store→load fence
        between the write and the reads.  A kernel flock orders only as
        release/acquire, so on a weakly ordered CPU both could read the
        other's slot stale and run overlapping read-modify-writes.
        """
        res = self._reservations[target_rank]
        res.slot = slot
        return res

    @property
    def reservation_wait_s(self) -> float:
        """Wall seconds this origin's atomic ops on the window have waited
        for a reservation held elsewhere (``.atomic`` or an overlapping
        footprint): what disjoint footprints must not cost each other."""
        return sum(res.waited_s for res in self._reservations)

    def _busy(self, target_rank: int, origin: int) -> bool:
        """Whether ``origin`` holds its busy flock on ``target_rank``: a
        nonblocking shared probe, let go at once."""
        files = self._lock_files
        key = (self._token, target_rank, "busy%d" % origin)
        fd = files.take(key)
        if _try_flock(fd, fcntl.LOCK_SH | fcntl.LOCK_NB):
            files.release(key, fd)
            return False
        files.release(key, fd, held=False)
        return True

    # -- teardown ------------------------------------------------------------
    def free_with(self, on_free) -> Any:
        result = super().free_with(on_free)
        self._release_segments()
        return result

    def invalidate(self) -> None:
        super().invalidate()
        self._release_segments()

    def _release_segments(self) -> None:
        """Drop the shared-memory segments and unlink this rank's own.

        Peers' mappings stay valid after an unlink (POSIX), so a rank
        finishing early never pulls memory out from under survivors —
        only *new* attachments become impossible, and window creation is
        collective, so there are none.  Each segment is unmapped when the
        last array over it goes (:func:`_segment_array`): at once, unless
        the caller still holds one.
        """
        if self._released:
            return
        self._released = True
        self._lock_files.forget(self._token)
        self._buffers = [np.empty(0, dtype=np.uint8) for _ in self._buffers]
        self._reservations = []
        seg, self._segment = self._segment, None
        try:
            # the parent's teardown sweep can consume the (set-valued)
            # tracker entry before this unlink's own unregister arrives;
            # re-registering is idempotent and keeps the tracker from
            # warning
            resource_tracker.register(seg._name, "shared_memory")
            seg.unlink()
        except FileNotFoundError:
            pass
