"""The proc backend's one cross-process lock: a byte of a shared segment.

A :class:`ByteLock` is one byte of a file, locked through one descriptor
with Linux *open-file-description* locks (``F_OFD_SETLK``/
``F_OFD_GETLK``).  The file is a shared-memory segment the process has
mapped anyway: a rank's window segment for the window locks, the run's
lease segment for the inbox pipes' write locks.  An OFD lock belongs to
the open file description, so

* two descriptors a process opened itself exclude each other, also
  within one process.  Classic ``F_SETLK`` locks belong to the process:
  two descriptors of one process share them, and closing any descriptor
  of the file drops them all;
* a descriptor inherited over ``fork`` shares its description, and so its
  locks, with the parent: a rank process locks only through descriptors
  it opened after the fork;
* the kernel drops a description's locks when its last descriptor
  closes, so a dead holder's locks are free at once.

A byte names a lock; the lock does not guard that byte's memory.  Threads
that share a descriptor share its locks: exclusion between them is the
caller's.
"""

from __future__ import annotations

import fcntl
import struct

__all__ = ["ByteLock"]

#: ``struct flock``: type, whence, start, length, pid (0, as OFD locks need)
_FLOCK = struct.Struct("hhqqi")


class ByteLock:
    """Byte ``offset`` of the file open on descriptor ``fd``, as a lock."""

    __slots__ = ("fd", "_ex", "_sh", "_un")

    def __init__(self, fd: int, offset: int):
        self.fd = fd
        self._ex, self._sh, self._un = (
            _FLOCK.pack(kind, 0, offset, 1, 0)
            for kind in (fcntl.F_WRLCK, fcntl.F_RDLCK, fcntl.F_UNLCK)
        )

    def try_lock(self, exclusive: bool = True) -> bool:
        """One nonblocking attempt: False if another description holds the
        byte in a conflicting mode."""
        try:
            fcntl.fcntl(self.fd, fcntl.F_OFD_SETLK, self._ex if exclusive else self._sh)
        except (BlockingIOError, PermissionError):  # EAGAIN or EACCES: held
            return False
        return True

    def unlock(self) -> None:
        fcntl.fcntl(self.fd, fcntl.F_OFD_SETLK, self._un)

    def held(self) -> bool:
        """Whether another description holds the byte, in either mode: one
        query, which takes nothing."""
        got = fcntl.fcntl(self.fd, fcntl.F_OFD_GETLK, self._ex)
        return _FLOCK.unpack(got)[0] != fcntl.F_UNLCK
