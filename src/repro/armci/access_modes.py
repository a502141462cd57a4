"""GA/ARMCI access-mode hints (§VIII-A).

By default ARMCI-MPI must assume any two operations may conflict, so
every operation runs in its own *exclusive* epoch (§V-C).  Access modes
are application-level promises about how an allocation will be used in
the current program phase; they are not required for correctness but
unlock shared locks (concurrency) where the promise rules conflicts out:

=================  =============================================================
mode               promise / effect
=================  =============================================================
``DEFAULT``        anything goes → exclusive epochs for every operation
``READ_ONLY``      only get operations until the mode changes → shared epochs
``ACC_ONLY``       only same-op accumulates → shared epochs (MPI permits
                   overlapping same-op accumulates)
``CONFLICT_FREE``  the application guarantees operations never overlap →
                   shared epochs for all operations
=================  =============================================================

Mode changes are collective over the GMR's group and imply a barrier, so
no operation under the old mode can race one under the new mode.
Violations of a promise are *checked* in this implementation (the strict
window still sees a conflicting access and raises), which is stronger
than a real system where the result would be silent corruption.
"""

from __future__ import annotations

import enum

from ..mpi.window import LOCK_EXCLUSIVE, LOCK_SHARED

__all__ = ["AccessMode"]


class AccessMode(enum.Enum):
    """Per-GMR access-mode hint (§VIII-A)."""

    DEFAULT = "default"
    READ_ONLY = "read_only"
    ACC_ONLY = "acc_only"
    CONFLICT_FREE = "conflict_free"

    def allows(self, opkind: str) -> bool:
        """Is ``opkind`` (put/get/acc/rmw/dla) permitted under this mode?"""
        if self in (AccessMode.DEFAULT, AccessMode.CONFLICT_FREE):
            return True
        if self is AccessMode.READ_ONLY:
            return opkind == "get"
        if self is AccessMode.ACC_ONLY:
            return opkind == "acc"
        raise AssertionError(f"unhandled mode {self}")  # pragma: no cover

    def lock_mode(self, opkind: str) -> str:
        """MPI lock type an operation should take under this mode."""
        if self is AccessMode.DEFAULT:
            return LOCK_EXCLUSIVE
        if opkind in ("rmw", "dla"):
            # read-modify-write and direct access always need exclusivity
            return LOCK_EXCLUSIVE
        return LOCK_SHARED
