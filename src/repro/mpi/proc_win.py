"""Proc-backend windows: memory and locks in shared-memory segments.

Each rank's exposure lives in a shared-memory segment all peers attach
(the MPI-3 ``MPI_Win_allocate_shared`` analogue from Hammond et al.,
PAPERS.md; ``proc_child`` creates them, empty for ``Win.allocate``, a
copy of the caller's array for ``Win.create``).  The window's locks are
bytes of those segments (:class:`~repro.mpi.bytelock.ByteLock`, taken
through this process's own attachment): an epoch lock per target
(shared/exclusive), so ``lock`` takes one and MPI-3 ``lock_all`` a
shared one on every target, and the atomic ops (``accumulate``/
``fetch_and_op``/``compare_and_swap``) *reserve their byte footprint*
in a per-target table so they are atomic across processes even inside
shared epochs, while ones on disjoint bytes run at the same time.  A
contended lock or reservation waits in ``Runtime.wait_for``, polled
along :data:`~repro.backoff.FLOCK_WAIT`.

Needs no launcher, inbox or communicator of the proc backend: two
attachments of one segment exclude each other within one process too.
"""

from __future__ import annotations

import struct
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from ..backoff import FLOCK_WAIT
from .bytelock import ByteLock
from .comm import Comm
from .rma_rules import _slots_overlap
from .window import LOCK_EXCLUSIVE, Win

__all__ = ["ProcWin"]


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


#: the lock bytes of a target's segment (a byte names a lock; the memory
#: under it stays the window's): the epoch lock, ``.atomic``, then origin
#: ``r``'s busy byte at ``_BUSY + 2 * r`` — two apart, so no two bytes one
#: description holds at once touch (the kernel would merge them)
_EPOCH, _ATOMIC, _BUSY = 0, 2, 4


class _Reservation:
    """This origin's reservations on one target: the context manager
    :meth:`ProcWin._atomic_section` hands out, one per target, reused by
    every atomic op there (a rank process runs one op at a time, and none
    nests), with the slot of the op it guards."""

    __slots__ = (
        "win", "target_rank", "atomic", "busy", "buf", "mine", "peers", "slot", "waited_s"
    )

    def __init__(
        self, win: "ProcWin", target_rank: int, buf: memoryview, table: int, fd: int,
        nranks: int,
    ):
        me, size = win._creator_rank, _SLOT.size
        self.win, self.target_rank, self.buf = win, target_rank, buf
        #: the target's ``.atomic`` byte and this origin's busy byte there,
        #: through this process's descriptor ``fd`` of the target's segment
        self.atomic, self.busy = ByteLock(fd, _ATOMIC), ByteLock(fd, _BUSY + 2 * me)
        #: the own slot's offset, and every other origin's slot offset and busy byte
        self.mine = table + me * size
        self.peers = [
            (table + r * size, ByteLock(fd, _BUSY + 2 * r)) for r in range(nranks) if r != me
        ]
        self.slot: "tuple | None" = None
        #: wall seconds spent waiting after a refused first attempt
        self.waited_s = 0.0

    def __enter__(self) -> None:
        if self.slot is not None and not self.attempt():
            rt, t0 = self.win.runtime, time.perf_counter()
            rt.wait_for(
                self.attempt,
                timeout_s=rt.op_timeout_s,
                what=f"win {self.win.win_id} atomic reservation (target {self.target_rank})",
                poll=FLOCK_WAIT,
            )
            self.waited_s += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        # entered, so a slot was reserved
        if self.slot is not None:
            self.busy.unlock()

    def attempt(self) -> bool:
        """One attempt at reserving :attr:`slot`: True with the busy byte
        held, False when ``.atomic`` or an overlapping reservation is held
        elsewhere."""
        if not self.atomic.try_lock():
            return False
        try:
            slot = self.slot
            lo, hi = slot[0], slot[1]
            for theirs, busy in self.peers:
                other = _SLOT.unpack_from(self.buf, theirs)
                if (
                    # a slot's bounding box first: settles most disjoint
                    # pairs without a call (the budgeted uncontended case)
                    other[0] < hi and lo < other[1]
                    and _slots_overlap(slot, other)
                    and busy.held()
                ):
                    return False
            _SLOT.pack_into(self.buf, self.mine, *slot)
            # granted at once: a peer only queries it, under .atomic
            self.busy.try_lock()
            return True
        finally:
            self.atomic.unlock()


class ProcWin(Win):
    """A window whose memory is shared-memory segments, locks are bytes
    of them.

    Every rule and all epoch bookkeeping are :class:`Win`'s, kept
    process-local; this class supplies only where the memory lives and
    what a lock is.  The *mutual exclusion* between processes comes from
    three kinds of lock byte on each target's segment (:data:`_EPOCH`,
    :data:`_ATOMIC`, :data:`_BUSY`), taken through this process's own
    attachment of it and always in the order epoch → ``.atomic`` → busy,
    so they cannot deadlock:

    * the passive-target epoch lock, taken by :meth:`_acquire` (shared
      or exclusive, as the epoch) for ``lock`` and, shared, on every
      target for ``lock_all``, like ``MPI_Win_lock_all``;
    * ``.atomic``, which guards the target's *footprint table* (one
      :data:`_SLOT` per origin, after the exposed bytes of its segment)
      for the few syscalls it takes to reserve a footprint;
    * one busy byte per origin, held by that origin while it runs the
      read-modify-write of an accumulate/fetch_and_op/compare_and_swap
      whose footprint its slot records.

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
        tables: "list[tuple[memoryview, int, int]]",
        creator_rank: int,
    ):
        super().__init__(comm, buffers, disp_units, strict=strict, mpi3=mpi3)
        #: this rank's own segment, which it unlinks at free
        self._segment = segment
        self._creator_rank = creator_rank
        self._released = False
        #: per target ``(segment buffer, footprint table offset, this
        #: process's descriptor of the segment)``: its epoch lock, and this
        #: origin's reservation there
        self._epoch_locks = [ByteLock(fd, _EPOCH) for _, _, fd in tables]
        self._reservations = [
            _Reservation(self, t, buf, table, fd, len(tables))
            for t, (buf, table, fd) in enumerate(tables)
        ]

    # -- the lock primitive --------------------------------------------------
    def _acquire(self, origin: int, target_rank: int, mode: str) -> ByteLock:
        """Take ``target_rank``'s epoch lock; returns it, for :meth:`_release`.

        A free lock is one nonblocking ``F_OFD_SETLK``.  A held one is
        waited for in ``Runtime.wait_for``, polled along ``FLOCK_WAIT``, so
        a wait costs about what the holder holds: a *dead* holder's lock
        self-reclaims (the kernel drops it), and a *stalled* (SIGSTOPped)
        holder's ends the wait at ``op_timeout_s``, one deadline for the
        whole wait."""
        lock, exclusive = self._epoch_locks[target_rank], mode == LOCK_EXCLUSIVE
        lock.try_lock(exclusive) or self.runtime.wait_for(
            lambda: lock.try_lock(exclusive),
            timeout_s=self.runtime.op_timeout_s,
            what=f"win {self.win_id} epoch lock (target {target_rank})",
            poll=FLOCK_WAIT,
        )
        return lock

    def _release(self, epoch) -> None:
        epoch.lock.unlock()

    def _atomic_section(self, target_rank: int, slot: "tuple | None") -> "_Reservation":
        """``with`` block in which this origin holds a reservation of the
        ``slot`` rows of ``target_rank``'s memory (the op's footprint, as
        the op derived it: see ``rma_rules._footprint_slot``).

        Entering reserves — inside the origin's epoch, so the locks are
        taken in the order epoch → ``.atomic`` → busy — under the
        target's ``.atomic`` byte: if the slot of another origin overlaps
        (:func:`~repro.mpi.rma_rules._slots_overlap`) and that origin's
        busy byte is held — one ``F_OFD_GETLK`` query, which takes
        nothing — it lets ``.atomic`` go and tries again, waiting as
        :meth:`_acquire` does; otherwise it writes its own slot, takes its
        own busy byte and lets ``.atomic`` go.  The read-modify-write then
        runs outside any shared lock, and leaving is a single unlock of
        the busy byte: releasing through the kernel lock, not a store to
        shared memory, is what orders the RMW before a later reserver's
        read on every architecture.  A slot is never cleared: a finished
        — or dead, the kernel drops its locks — origin's slot reads as
        free because its busy byte is.  A zero-byte footprint reserves
        nothing.

        Rejected, do not redo: a *publish-then-check* reservation (write
        the own slot, lock the own busy byte, then read the peers'
        slots, with no ``.atomic``) took a reservation from 7.1 to 4.1 µs
        on the 2-CPU reference host, but two origins that publish at once
        must each see the other's slot, which needs a store→load fence
        between the write and the reads.  A kernel lock orders only as
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
        collective, so there are none.  Each segment is unmapped, and its
        descriptor closed (with any lock this process held through it),
        when the last array over it goes (:func:`_segment_array`): at
        once, unless the caller still holds one.
        """
        if self._released:
            return
        self._released = True
        self._buffers = [np.empty(0, dtype=np.uint8) for _ in self._buffers]
        self._epoch_locks, self._reservations = [], []
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
