"""ARMCI atomic read-modify-write via mutexes (§V-D).

MPI-2 has no atomic RMW, and issuing a get and a put of the same
location within one epoch is erroneous (the read and write conflict).
The only portable route — the one the paper takes — is mutual exclusion:
on the mpi2 datapath each GMR owns a mutex (``Armci.malloc`` builds it
there only), and an RMW is

    lock(GMR mutex) ; [epoch 1: get] ; compute ; [epoch 2: put] ; unlock

two full epochs plus two mutex messages, which is why the paper calls
this "a high-latency implementation" and why MPI-3's ``fetch_and_op``
matters: :func:`rmw_flush` is the single-op protocol the mpi3 datapath
(``Armci.init(datapath="mpi3")``) uses instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mpi import datatypes as dt
from ..mpi.errors import ArgumentError
from .mutexes import MutexHolderFailed

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci
    from .gmr import GlobalPtr, Gmr


__all__ = [
    "FETCH_AND_ADD",
    "FETCH_AND_ADD_LONG",
    "SWAP",
    "SWAP_LONG",
    "rmw_dtype",
    "rmw_mutex_based",
    "rmw_flush",
]

#: ARMCI RMW operation names
FETCH_AND_ADD = "fetch_and_add"
FETCH_AND_ADD_LONG = "fetch_and_add_long"
SWAP = "swap"
SWAP_LONG = "swap_long"

_RMW_DTYPES = {
    FETCH_AND_ADD: np.dtype("i4"),
    FETCH_AND_ADD_LONG: np.dtype("i8"),
    SWAP: np.dtype("i4"),
    SWAP_LONG: np.dtype("i8"),
}

#: each RMW element type's predefined MPI type (``fetch_and_op``'s)
_MPI_TYPES = {d: dt.from_numpy_dtype(d) for d in _RMW_DTYPES.values()}


def rmw_dtype(op: str) -> np.dtype:
    try:
        return _RMW_DTYPES[op]
    except KeyError:
        raise ArgumentError(
            f"unknown RMW op {op!r}; choose from {sorted(_RMW_DTYPES)}"
        ) from None


def rmw_mutex_based(
    armci: "Armci", op: str, dtype: np.dtype, ptr: "GlobalPtr", value: int
) -> int:
    """The §V-D two-epoch RMW under the GMR's mutex; returns the old value
    (``dtype``: ``rmw_dtype(op)``).

    Atomic only with respect to other ARMCI RMW operations — exactly the
    guarantee ARMCI documents (§V-D: "atomicity with respect to other
    operations is not guaranteed").
    """
    gmr = armci.table.require(ptr)
    win_rank, disp = gmr.displacement(ptr)
    if disp % dtype.itemsize:
        raise ArgumentError(
            f"RMW target {ptr} not aligned to {dtype} ({disp=} bytes)"
        )
    mutex = armci._gmr_mutexes[gmr.gmr_id]
    # the GMR's single mutex is hosted on group rank 0 of its group
    host = 0
    try:
        mutex.lock(0, host)
    except MutexHolderFailed:
        # The previous holder died mid-RMW and recovery handed us the
        # repaired mutex.  The torn update (if any) is confined to the
        # dead rank's own operation, but this caller cannot know that a
        # priori — release the mutex and surface the typed diagnosis.
        mutex.unlock(0, host)
        raise
    try:
        old = np.zeros(1, dtype=dtype)
        # epoch 1: read
        armci._in_epoch(gmr, win_rank, "rmw", armci._issue, gmr.win, "get", old, win_rank, disp)
        if op in (FETCH_AND_ADD, FETCH_AND_ADD_LONG):
            new = old + dtype.type(value)
        else:
            new = np.array([value], dtype=dtype)
        # epoch 2: write
        armci._in_epoch(gmr, win_rank, "rmw", armci._issue, gmr.win, "put", new, win_rank, disp)
    finally:
        mutex.unlock(0, host)
    return int(old[0])


def rmw_flush(armci: "Armci", op: str, dtype: np.dtype, ptr: "GlobalPtr", value: int) -> int:
    """MPI-3 datapath RMW: fetch_and_op in the standing lock_all epoch
    (``dtype``: ``rmw_dtype(op)``).

    No mutex and no epoch of its own — the GMR's lock_all epoch (opened
    at allocation) hosts the atomic, which completes itself as a
    per-target flush would (``flush=True``).  This is the single-op
    protocol the paper's §V-D mutex design exists to approximate under
    MPI-2.
    """
    gmr = armci.table.require(ptr)
    win_rank, disp = gmr.displacement(ptr)
    mpi_t = _MPI_TYPES[dtype]
    # per-location program order vs queued nb ops on this target
    armci._nbq.drain(gmr, win_rank)
    mpi_op = "MPI_SUM" if op in (FETCH_AND_ADD, FETCH_AND_ADD_LONG) else "MPI_REPLACE"
    return int(gmr.win.fetch_and_op(value, win_rank, disp, mpi_t, op=mpi_op, flush=True))
