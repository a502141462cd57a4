"""Rank inboxes over pipes created before the fork.

Each proc-backend rank owns a pipe that only its pump thread reads; the
parent's result channel is one more.  A message is one *frame*: its
length (``HEADER``), then its pickle.  A sender writes the whole frame
from its own thread to the ``O_NONBLOCK`` write end under the pipe's
write lock (a ``threading.Lock`` plus an ``flock``, which the kernel
drops if its holder dies); a frame larger than the pipe goes in parts,
and while the pipe is full the sender waits for room.  It may give up
only before the frame's first byte is in the pipe: a reader that got
part of a frame would take the next frame's bytes as the rest of it.
Writing to a pipe nobody can read any more raises ``BrokenPipeError``
(the only way a started frame ends unfinished).  The reader parses small
frames out of one staging buffer and reads a large one into a buffer of
its size.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import select
import struct
import threading
import time
from typing import Any, Callable

__all__ = ["Inbox", "Outbox", "encode", "wait_writable"]

#: the length of the pickle that follows
HEADER = struct.Struct("<Q")

#: the reader's staging buffer: frames up to this size are parsed from it,
#: a larger body is read into a buffer of its own
CHUNK = 1 << 16


def encode(msg: Any) -> bytes:
    """``msg`` as one frame."""
    data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    return HEADER.pack(len(data)) + data


def wait_writable(fd: int, timeout_s: float) -> bool:
    """Wait up to ``timeout_s`` for room in pipe ``fd`` (or for its reader
    to be gone, which the next write reports); False on timeout."""
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return bool(poller.poll(timeout_s * 1e3))


class Outbox:
    """One process's write side of a list of pipes.

    Opens the write lock of pipe ``i``, ``<lockdir>/pipe<i>.wlock``, once.
    Build it after the fork: a process must flock its *own* open file
    description (one inherited over ``fork`` is shared, excluding nobody).
    """

    def __init__(self, fds: list[int], lockdir: str):
        self.fds = fds
        self._flocks = [
            os.open(os.path.join(lockdir, f"pipe{i}.wlock"), os.O_RDWR | os.O_CREAT, 0o666)
            for i in range(len(fds))
        ]
        self._tlocks = [threading.Lock() for _ in fds]

    def write(
        self,
        dst: int,
        frame: bytes,
        tick: float,
        give_up: "Callable[[int, float], None] | None" = None,
    ) -> None:
        """Write one :func:`encode`-d frame to pipe ``dst``.

        While the pipe is full, waits for room ``tick`` seconds at a time.
        Until the frame's first byte is in the pipe, ``give_up(dst, since)``
        runs after each wait that found none (``since``: when the first
        wait began) and may raise to abandon the frame.  After that, only
        the reader's exit (``BrokenPipeError``) ends it unfinished.
        """
        fd, flock = self.fds[dst], self._flocks[dst]
        with self._tlocks[dst]:
            fcntl.flock(flock, fcntl.LOCK_EX)
            try:
                view, since = memoryview(frame), None
                while view:
                    try:
                        view = view[os.write(fd, view):]
                    except BlockingIOError:
                        since = since or time.monotonic()
                        if (
                            not wait_writable(fd, tick)
                            and give_up is not None
                            and len(view) == len(frame)
                        ):
                            give_up(dst, since)
            finally:
                fcntl.flock(flock, fcntl.LOCK_UN)

    def close(self) -> None:
        """Close the write-lock files (the pipe ends belong to the caller)."""
        for fd in self._flocks:
            os.close(fd)
        self._flocks = []


class Inbox:
    """The read side of one pipe; blocks only in :meth:`wait`."""

    def __init__(self, fd: int):
        self.fd = fd
        #: every writer has closed its end
        self.eof = False
        self._poller = select.poll()
        self._poller.register(fd, select.POLLIN)
        self._buf = bytearray(CHUNK)
        self._view = memoryview(self._buf)
        self._have = 0
        #: a large frame's body, filled from ``_got`` on
        self._body: "bytearray | None" = None
        self._got = 0

    def wait(self, timeout_s: float) -> bool:
        """Wait up to ``timeout_s`` for bytes (or end of file)."""
        return bool(self._poller.poll(timeout_s * 1e3))

    def read(self) -> list:
        """Every message whose frame is complete in the pipe now."""
        out: list = []
        while True:
            if self._body is not None:
                want = len(self._body) - self._got
                n = self._readinto(memoryview(self._body)[self._got:])
                if n is None:
                    return out
                self._got += n
                if n < want:
                    return out
                out.append(pickle.loads(self._body))
                self._body = None
                continue
            want = CHUNK - self._have
            n = self._readinto(self._view[self._have:])
            if n is None:
                return out
            self._have += n
            self._parse(out)
            if n < want:  # a short read: the pipe is empty
                return out

    def _readinto(self, view: memoryview) -> "int | None":
        try:
            n = os.readv(self.fd, [view])
        except BlockingIOError:
            return None
        self.eof = n == 0
        return n or None

    def _parse(self, out: list) -> None:
        buf, pos, have = self._buf, 0, self._have
        while have - pos >= HEADER.size:
            (size,) = HEADER.unpack_from(buf, pos)
            start = pos + HEADER.size
            if have - start >= size:
                out.append(pickle.loads(self._view[start:start + size]))
                pos = start + size
            elif HEADER.size + size > CHUNK:
                self._body = bytearray(size)
                self._body[:have - start] = self._view[start:have]
                self._got, pos = have - start, have
            else:
                break
        buf[:have - pos] = buf[pos:have]
        self._have = have - pos
