"""Nonblocking-operation coalescing queue for the MPI-3 flush datapath.

Under ``datapath="mpi3"`` every GMR keeps a ``lock_all`` epoch open for
its whole lifetime, so a nonblocking operation does not need an epoch of
its own: it can simply be *queued* at the origin and issued later, with
one ``flush(target)`` completing an arbitrary batch.  This is the
DART-MPI handle model (PAPERS.md): deferral buys both communication/
computation overlap and the chance to merge many small operations into
few larger ones before they touch the network.

Queue discipline (per ``(origin, gmr, target)``, FIFO):

* **snapshot at enqueue** — put/acc contributions are copied when the
  operation is queued, so the user may reuse the local buffer
  immediately (a stronger guarantee than ARMCI requires);
* **pairwise non-conflicting invariant** — queued entries for one
  target never overlap in a way MPI forbids within an epoch (put/put,
  put/get, put-or-get/acc): each queue keeps one epoch's
  :class:`~repro.mpi.rma_rules.Accesses` record, and an enqueue the
  window's own rule (``rma_rules.conflict_class``) rejects first
  drains the target, which also preserves ARMCI location consistency:
  per-location program order per target is maintained;
* **adjacency coalescing** — a put/acc exactly adjacent to the queue
  tail of the same kind (and element type, for acc) is merged into it,
  up to ``config.nb_coalesce_threshold`` bytes;
* **bounded depth** — the queue auto-drains beyond
  ``config.nb_max_pending`` entries per target;
* **drain = issue + one flush** — entries are issued into the standing
  ``lock_all`` epoch and completed by a single per-target flush;
  staged-get write-back runs after the flush delivers.

Failures (a dead target, a revoked communicator, a range error) are
recorded on every handle of the failing entry; ``NbHandle.wait`` raises
them, and completion points that have no handle to blame (fence,
barrier, free, a blocking op's pre-drain) re-raise the first one
directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mpi import datatypes as dt
from ..mpi import rma_rules as rules

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci, NbHandle
    from .gmr import Gmr


__all__ = ["NbQueue"]


class _NbEntry:
    """One queued (possibly merged) nonblocking operation.

    ``data`` is what :meth:`Armci._issue` will be handed: the snapshotted
    put bytes, the typed accumulate contribution, or the buffer a get
    lands in; ``writeback`` is the §V-E.1 copy-in a staged get owes after
    the flush.
    """

    __slots__ = ("kind", "gmr", "win_rank", "disp", "data", "writeback", "handles")

    def __init__(self, kind: str, gmr: "Gmr", win_rank: int, disp: int,
                 data: np.ndarray, writeback):
        self.kind = kind
        self.gmr = gmr
        self.win_rank = win_rank
        self.disp = disp
        self.data = data
        self.writeback = writeback
        self.handles: list["NbHandle"] = []

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


class NbQueue:
    """Per-origin deferred-operation queues of one MPI-3-datapath Armci."""

    def __init__(self, armci: "Armci"):
        self._armci = armci
        #: (origin, gmr_id, win_rank) -> FIFO of entries
        self._queues: dict[tuple[int, int, int], list[_NbEntry]] = {}
        #: the same key -> what the queue's entries access, as one epoch's
        #: record the MPI conflict rules read
        self._accesses: dict[tuple[int, int, int], rules.Accesses] = {}

    # -- enqueue -------------------------------------------------------------------
    def enqueue(
        self,
        kind: str,
        gmr: "Gmr",
        win_rank: int,
        disp: int,
        data: np.ndarray,
        writeback=None,
    ) -> "NbHandle":
        from .api import NbHandle

        armci = self._armci
        origin = armci.my_id
        target_abs = gmr.group.absolute_id(win_rank)
        nbytes = data.nbytes
        if nbytes == 0:
            return NbHandle(kind=kind, target=target_abs)
        key = (origin, gmr.gmr_id, win_rank)
        queue = self._queues.setdefault(key, [])
        # every queued ARMCI accumulate is an MPI_SUM
        opname = "MPI_SUM" if kind == "acc" else None
        fp = dt.SegmentMap.arithmetic(disp, nbytes, nbytes, 1)
        rec = self._accesses.get(key)
        if rec is not None and rules.conflict_class(rec, kind, opname, fp) is not None:
            # conflicting with a queued op: complete the queue first so
            # per-location program order (location consistency) holds
            self.drain(gmr, win_rank, raise_errors=True)  # drops rec
            queue = self._queues.setdefault(key, [])
            rec = None
        if rec is None:
            rec = self._accesses[key] = rules.Accesses(origin, win_rank, rules.LOCK_ALL)
        rules.record_access(rec, kind, opname, fp)
        handle = NbHandle(
            kind=kind,
            target=target_abs,
            waiter=lambda: self.drain(gmr, win_rank, raise_errors=False),
        )
        merged = self._try_merge(queue, kind, disp, data)
        if merged is not None:
            merged.handles.append(handle)
            armci._records[origin].coalesced += 1
        else:
            entry = _NbEntry(kind, gmr, win_rank, disp, data, writeback)
            entry.handles.append(handle)
            queue.append(entry)
        if len(queue) > armci.config.nb_max_pending:
            self.drain(gmr, win_rank, raise_errors=True)
        return handle

    def _try_merge(self, queue, kind, disp, data) -> "_NbEntry | None":
        """Merge into the queue tail when exactly adjacent; else None."""
        limit = self._armci.config.nb_coalesce_threshold
        if not queue or limit <= 0 or kind == "get":
            return None
        tail = queue[-1]
        if (
            tail.kind != kind
            or tail.data.dtype != data.dtype  # acc: same element type
            or tail.disp + tail.nbytes != disp
            or tail.nbytes + data.nbytes > limit
        ):
            return None
        tail.data = np.concatenate([tail.data, data])
        return tail

    # -- drain ---------------------------------------------------------------------
    def pending(self, gmr: "Gmr | None" = None, win_rank: "int | None" = None) -> int:
        """Queued entry count for the calling rank (optionally filtered)."""
        origin = self._armci.my_id
        total = 0
        for (o, gid, wr), queue in self._queues.items():
            if o != origin:
                continue
            if gmr is not None and gid != gmr.gmr_id:
                continue
            if win_rank is not None and wr != win_rank:
                continue
            total += len(queue)
        return total

    def drain(self, gmr: "Gmr", win_rank: int, raise_errors: bool = True) -> None:
        """Issue and flush-complete every queued op for one target."""
        if not self._queues:  # nothing queued by any rank
            return
        origin = self._armci.my_id
        key = (origin, gmr.gmr_id, win_rank)
        self._accesses.pop(key, None)
        queue = self._queues.pop(key, None)
        if not queue:
            return
        self._armci._records[origin].drains += 1
        win = gmr.win
        first_error: "BaseException | None" = None
        issued: list[_NbEntry] = []
        for entry in queue:
            try:
                self._armci._issue(win, entry.kind, entry.data, win_rank, entry.disp)
            except Exception as exc:
                for h in entry.handles:
                    h._fail(exc)
                if first_error is None:
                    first_error = exc
            else:
                issued.append(entry)
        if issued:
            try:
                win.flush(win_rank)
            except Exception as exc:
                for entry in issued:
                    for h in entry.handles:
                        h._fail(exc)
                issued = []
                if first_error is None:
                    first_error = exc
        for entry in issued:
            try:
                if entry.writeback is not None:
                    entry.writeback()
            except Exception as exc:
                for h in entry.handles:
                    h._fail(exc)
                if first_error is None:
                    first_error = exc
            else:
                for h in entry.handles:
                    h._complete()
        if first_error is not None and raise_errors:
            raise first_error

    def drain_target(self, target_abs: int, raise_errors: bool = True) -> None:
        """Complete all queued ops of the caller addressed to one process."""
        origin = self._armci.my_id
        for (o, _gid, wr), queue in list(self._queues.items()):
            if o != origin or not queue:
                continue
            gmr = queue[0].gmr
            if gmr.group.absolute_id(wr) == target_abs:
                self.drain(gmr, wr, raise_errors=raise_errors)

    def drain_gmr(self, gmr: "Gmr", raise_errors: bool = True) -> None:
        origin = self._armci.my_id
        for (o, gid, wr) in list(self._queues):
            if o == origin and gid == gmr.gmr_id:
                self.drain(gmr, wr, raise_errors=raise_errors)

    def drain_all(self, raise_errors: bool = True) -> None:
        origin = self._armci.my_id
        first_error: "BaseException | None" = None
        for (o, _gid, wr), queue in list(self._queues.items()):
            if o != origin or not queue:
                continue
            try:
                self.drain(queue[0].gmr, wr, raise_errors=raise_errors)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None and raise_errors:
            raise first_error

    # -- teardown ------------------------------------------------------------------
    def discard(self, exc: "BaseException | None" = None) -> None:
        """Drop every queue of the calling rank without issuing anything.

        Used on the recovery path: after a revoke the standing epochs
        are gone, so queued ops cannot be completed — their handles fail
        with ``exc`` (when given) so a later ``wait`` still reports the
        loss instead of silently succeeding.
        """
        origin = self._armci.my_id
        for key in [k for k in self._queues if k[0] == origin]:
            self._accesses.pop(key, None)
            queue = self._queues.pop(key)
            for entry in queue:
                for h in entry.handles:
                    if exc is not None:
                        h._fail(exc)
                    else:
                        h._complete()

    def audit_finalize(self) -> None:
        """Drained-queue-at-finalize invariant (sanitizer-reported).

        By the time finalize has freed every GMR, all queues must be
        empty — anything left means a completion point was skipped.
        """
        rt = self._armci.world.runtime
        if rt.sanitizer is None:
            return
        origin = self._armci.my_id
        for (o, _gid, wr), queue in list(self._queues.items()):
            if o != origin or not queue:
                continue
            with rt.cond:
                rt.sanitizer.on_nb_pending(queue[0].gmr.win, origin, wr, len(queue))
