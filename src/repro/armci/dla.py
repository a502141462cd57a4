"""Direct local access (DLA): ARMCI_Access_begin / ARMCI_Access_end (§V-E).

Direct load/store to memory exposed in an MPI window conflicts with all
other accesses to that window region, so it is only safe inside an
exclusive self-lock epoch.  GA has always had ``GA_Access``/
``GA_Release``; ARMCI historically had nothing, and the paper extends
the ARMCI API with ``ARMCI_Access_begin``/``ARMCI_Access_end`` — the
extension that also prepares GA/ARMCI for weakly consistent and
noncoherent platforms (§VIII-A).

Semantics enforced here:

* ``access_begin`` takes the exclusive self-lock on the GMR's window
  and returns a NumPy view of the caller's slab from the given pointer;
* nested ``access_begin`` on the *same* GMR is erroneous (it would be a
  double lock);
* while a DLA epoch is open, every communication call by this process
  through the same GMR is erroneous (one lock per window per process) —
  the underlying window raises;
* ``access_end`` releases the lock; using the view afterwards is a
  semantic error the simulation cannot trap, but tests document it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mpi.errors import RMASyncError
from ..mpi.window import LOCK_EXCLUSIVE

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci
    from .gmr import GlobalPtr, Gmr

__all__ = ["DlaState", "access_begin", "access_end"]


class DlaState:
    """Bookkeeping of open DLA epochs and the §V-E discipline on them."""

    def __init__(self) -> None:
        self._open: set[tuple[int, int]] = set()  # (rank, gmr id)

    def begin(self, rank: int, gmr: "Gmr") -> None:
        if (rank, gmr.gmr_id) in self._open:
            _violate(
                rank, gmr, "access_begin",
                f"nested ARMCI access_begin on GMR {gmr.gmr_id}: direct-access "
                "epochs do not nest (one lock per window per process)",
                f"nested access_begin on GMR {gmr.gmr_id}: direct-access "
                "epochs do not nest",
            )
        self._open.add((rank, gmr.gmr_id))

    def end(self, rank: int, gmr: "Gmr") -> None:
        if (rank, gmr.gmr_id) not in self._open:
            _violate(
                rank, gmr, "access_end",
                f"ARMCI access_end on GMR {gmr.gmr_id} without access_begin",
                f"access_end on GMR {gmr.gmr_id} without access_begin",
            )
        self._open.discard((rank, gmr.gmr_id))


def _violate(rank: int, gmr: "Gmr", op: str, plain: str, detail: str) -> None:
    san = gmr.win.runtime.sanitizer
    if san is not None:
        san.report("dla", rank, op, -1, gmr.win.win_id, detail)
    raise RMASyncError(plain)


def access_begin(
    armci: "Armci", ptr: "GlobalPtr", nbytes: int, dtype: "np.dtype | str" = np.uint8
) -> np.ndarray:
    """Begin direct local access; returns a writable view of local data.

    ``ptr`` must point into the calling process's own slice of a GMR.
    """
    from ..mpi.errors import ArgumentError

    me = armci.my_id
    if ptr.rank != me:
        raise ArgumentError(
            f"access_begin: pointer targets process {ptr.rank}, not the "
            f"calling process {me} (DLA is local by definition)"
        )
    gmr = armci.table.require(ptr)
    win_rank, disp = gmr.displacement(ptr)
    dtype = np.dtype(dtype)
    if nbytes % dtype.itemsize:
        raise ArgumentError(
            f"access_begin: {nbytes} bytes is not a whole number of {dtype}"
        )
    armci._dla.begin(me, gmr)
    try:
        if armci._flush_mode:
            # the standing lock_all epoch already permits local access
            # under the unified model; completing queued + outstanding
            # ops to self orders earlier RMA before the direct accesses
            armci._nbq.drain(gmr, win_rank)
            gmr.win.flush(win_rank)
        else:
            gmr.win.lock(win_rank, LOCK_EXCLUSIVE)
            san = gmr.win.runtime.sanitizer
            if san is not None:
                # told only after the lock succeeds, so the DLA's own lock
                # is never mistaken for a lock-while-DLA violation
                san.on_dla_lock(me, gmr.win)
    except BaseException:
        armci._dla.end(me, gmr)
        raise
    slab = gmr.win.local_view()  # checked: self-lock or standing lock_all
    return slab[disp : disp + nbytes].view(dtype)


def access_end(armci: "Armci", ptr: "GlobalPtr") -> None:
    """End the direct-access epoch opened by :func:`access_begin`."""
    me = armci.my_id
    gmr = armci.table.require(ptr)
    armci._dla.end(me, gmr)
    if armci._flush_mode:
        # publish the direct stores: under the standing lock_all a flush
        # is the completion point (there is no lock to release)
        gmr.win.flush(gmr.group.rank)
    else:
        san = gmr.win.runtime.sanitizer
        if san is not None:
            san.on_dla_unlock(me, gmr.win)
        gmr.win.unlock(gmr.group.rank)
