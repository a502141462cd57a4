"""The dynamic RMA rule checker's reporting policy (see :mod:`repro.sanitizer`).

Every §III/§V rule is *evaluated* once, where the state it is about
lives: in :class:`~repro.mpi.window.Win` (epochs, locks, byte coverage,
ranges) and in the ARMCI layer (access modes, direct-local-access
epochs, the nonblocking queue).  A failed rule is handed to the
:class:`RmaSanitizer` installed as ``runtime.sanitizer`` through
:meth:`RmaSanitizer.report`, which decides what happens to it.

Having a sanitizer installed also makes the window track two kinds of
footprint it otherwise ignores, in its own epoch records:

* accesses on ``strict=False`` windows, when ``check_nonstrict=True``
  (off by default, because relaxed windows are entitled to conflicting
  access — the coherent-shortcut model relies on it);
* the MPI-3 atomics (``fetch_and_op`` / ``compare_and_swap``), as one
  mutually atomic accumulate class (``rmw``), so mixed atomics on one
  counter are clean but an atomic racing a put/get in the same epoch is
  not.

What is evaluated *here* are the rules that need the sanitizer's own
state or are nobody else's business: a local buffer aliasing the
window's exposed memory (LOCAL_ALIAS), the refinement of a nested lock
into LOCK_WHILE_DLA, and the flush-completion ledger of the MPI-3
datapath's nonblocking queue.

In ``mode="raise"`` (default) a violation raises the structured
exception immediately — and because every structured exception is also
the plain MPI error the evaluating layer would have raised, programs
and tests written against the plain classes behave identically.  In
``mode="record"`` violations accumulate in :attr:`violations` and the
evaluating layer's own error (if the rule has one) still fires.
"""

from __future__ import annotations

import threading

import numpy as np

from ..mpi.window import LOCK_EXCLUSIVE, LOCK_SHARED
from .violations import (
    ConflictViolationError,
    ModeViolationError,
    RangeViolationError,
    RmaViolation,
    SyncViolationError,
    ViolationKind,
)

__all__ = ["RmaSanitizer"]

#: the structured error of each kind that is not a SyncViolationError
_ERRORS = {
    ViolationKind.CONFLICT: ConflictViolationError,
    ViolationKind.ACC_INTERLEAVE: ConflictViolationError,
    ViolationKind.LOCAL_ALIAS: ConflictViolationError,
    ViolationKind.RANGE: RangeViolationError,
    ViolationKind.ACCESS_MODE: ModeViolationError,
}


class RmaSanitizer:
    """Reporting policy for the MPI-2 RMA rules of §III / §V.

    Parameters
    ----------
    mode:
        ``"raise"`` — raise the structured violation error at the point
        of detection; ``"record"`` — append to :attr:`violations` and
        let the evaluating layer decide (its own plain error still
        applies where one exists).
    check_nonstrict:
        Also apply the conflict-class rules (conflicts, accumulate
        interleaving, buffer aliasing, bare local access) to
        ``strict=False`` windows.  Off by default: relaxed windows model
        cache-coherent shortcuts that deliberately permit these.
    """

    def __init__(self, mode: str = "raise", check_nonstrict: bool = False):
        if mode not in ("raise", "record"):
            raise ValueError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.check_nonstrict = check_nonstrict
        self.violations: list[RmaViolation] = []
        self._mu = threading.Lock()
        #: origin -> ids of the windows whose self-lock a DLA epoch holds
        self._dla_wins: dict[int, set[int]] = {}
        #: (win_id, origin, target) -> queued-but-unflushed nb op count
        #: (the flush-completion ledger of the MPI-3 datapath's nb queue)
        self._nb_pending: dict[tuple, int] = {}

    # -- reporting ------------------------------------------------------------
    def report(self, kind, rank, op, target, win_id, detail, ranges=()) -> None:
        """Record one failed rule; raise its structured error in raise mode.

        ``kind`` is a :class:`ViolationKind` or its string value (the
        ``repro.mpi`` layer does not import this package).
        """
        kind = ViolationKind(kind)
        if (
            kind is ViolationKind.LOCK_NESTING
            and op == "lock"
            and win_id in self._dla_wins.get(rank, ())
        ):
            # the lock already held is a DLA epoch's self-lock
            kind = ViolationKind.LOCK_WHILE_DLA
            detail = (
                "lock attempt while a direct-local-access epoch is open on "
                "the same window (the §V-C double-lock hazard)"
            )
        v = RmaViolation(kind, rank, op, target, win_id, detail, tuple(ranges))
        with self._mu:
            self.violations.append(v)
        if self.mode == "raise":
            raise _ERRORS.get(kind, SyncViolationError)(v)

    # -- window hook (called with runtime.cond held) ----------------------------
    def on_op(self, win, origin, kind, origin_buf, mode, target) -> None:
        """LOCAL_ALIAS: a put/get/acc whose local buffer is window memory."""
        if mode not in (LOCK_SHARED, LOCK_EXCLUSIVE):
            return  # a fence epoch covers the whole window
        if not isinstance(origin_buf, np.ndarray):
            return
        my_wr = win.comm.group.rank_of_world(origin)
        if my_wr < 0 or my_wr == target:
            return  # a self-targeting epoch covers the local slab
        slab = win.exposed_buffer(my_wr)
        if slab.nbytes and np.shares_memory(origin_buf, slab):
            self.report(
                ViolationKind.LOCAL_ALIAS, origin, kind, target, win.win_id,
                "local buffer aliases this window's exposed memory on the "
                "origin; accessing it needs a second lock on the same "
                "window (stage through a private buffer instead)",
            )

    # -- ARMCI direct local access (§V-E) ---------------------------------------
    def on_dla_lock(self, origin: int, win) -> None:
        """A DLA epoch now holds ``win``'s exclusive self-lock."""
        with self._mu:
            self._dla_wins.setdefault(origin, set()).add(win.win_id)

    def on_dla_unlock(self, origin: int, win) -> None:
        with self._mu:
            self._dla_wins.get(origin, set()).discard(win.win_id)

    # -- MPI-3 datapath nb queue (flush-completion tracking) ---------------------
    def on_nb_enqueue(self, win, origin: int, target: int, kind: str) -> None:
        key = (win.win_id, origin, target)
        self._nb_pending[key] = self._nb_pending.get(key, 0) + 1

    def on_nb_drain(self, win, origin: int, target: int) -> None:
        """The queue was flushed — or discarded by recovery: gone, not leaked."""
        self._nb_pending.pop((win.win_id, origin, target), None)

    def on_nb_pending(self, win, origin: int, target: int, count: int) -> None:
        """Drained-queue-at-finalize invariant: report what never flushed."""
        self._nb_pending.pop((win.win_id, origin, target), None)
        self.report(
            ViolationKind.NB_PENDING, origin, "finalize", target, win.win_id,
            f"{count} queued nonblocking op(s) never reached a completion "
            "point (wait/wait_all/fence/barrier) before finalize",
        )

    def nb_pending_count(self, win, origin: int, target: int) -> int:
        """Test hook: queued-op count the ledger currently attributes."""
        return self._nb_pending.get((win.win_id, origin, target), 0)
