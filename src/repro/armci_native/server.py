"""Data-server / CHT machinery of the simulated native ARMCI.

Native ARMCI implementations (§IV-A, §IX) achieve asynchronous progress
with a communication helper thread (CHT) per node; the two-sided-MPI
fallback ARMCI shipped for years ran a *data server* process per node
that serviced read/write requests against node-shared memory.

In this substrate, native remote memory access is structurally
asynchronous (the origin thread runs the applier under the runtime's
giant lock), so this module holds only the host-side lock table that
serialises native exclusive operations; the CHT's costs are charged by
the performance model.  The data-server design is
:class:`repro.armci_ds.DataServerArmci`: the same engine, its applier
run on a real server thread per rank.
"""

from __future__ import annotations

from ..mpi.errors import RMASyncError
from ..mpi.runtime import Runtime, current_proc


class HostLockTable:
    """Per-host lock words used by native ARMCI_Lock/ARMCI_Rmw service.

    Semantics mirror the native runtime: a host's lock word is acquired
    by at most one process; waiters block (locally) until the holder
    releases.  Implemented on the runtime condition variable so blocked
    waiters participate in deadlock detection.
    """

    def __init__(self, runtime: Runtime, nlocks: int, nhosts: int):
        self.runtime = runtime
        self._holder: dict[tuple[int, int], int] = {}
        self.nlocks = nlocks
        self.nhosts = nhosts

    def acquire(self, lock_id: int, host: int) -> None:
        if not 0 <= lock_id < self.nlocks or not 0 <= host < self.nhosts:
            raise RMASyncError(f"bad native lock ({lock_id}, {host})")
        me = current_proc().rank
        key = (lock_id, host)
        with self.runtime.cond:
            if self._holder.get(key) == me:
                raise RMASyncError(f"native lock {key} is not reentrant")
            self.runtime.wait_for(lambda: key not in self._holder)
            self._holder[key] = me
            self.runtime.notify_progress()

    def release(self, lock_id: int, host: int) -> None:
        me = current_proc().rank
        key = (lock_id, host)
        with self.runtime.cond:
            if self._holder.get(key) != me:
                raise RMASyncError(
                    f"native unlock of ({lock_id}, {host}) by non-holder {me}"
                )
            del self._holder[key]
            self.runtime.notify_progress()
