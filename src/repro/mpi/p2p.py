"""Two-sided message matching engine (send/recv/isend/irecv).

ARMCI-MPI needs two-sided MPI in two places: the queueing-mutex algorithm
(§V-D) blocks dequeued lock requesters in an ``MPI_Recv`` from a wildcard
source and hands the mutex off with a zero-byte send, and GA applications
freely mix GA one-sided calls with their own MPI messaging (§I impact 2).

Matching semantics follow MPI: messages between one (source, dest) pair
are non-overtaking; receives match on ``(source | ANY_SOURCE,
tag | ANY_TAG)`` in message-arrival order.  Sends are eager (buffered):
the payload is copied at send time, so a blocking send never waits for
the receiver.  That is a legal MPI implementation choice and matches how
small/control messages behave on real systems.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import TagError, TargetFailedError, TruncationError
from .runtime import Runtime, current_proc

ANY_SOURCE = -1
ANY_TAG = -1


class Status:
    """Result metadata of a completed receive (MPI_Status)."""

    __slots__ = ("source", "tag", "count")

    def __init__(self, source: int, tag: int, count: int):
        self.source = source
        self.tag = tag
        self.count = count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Status(source={self.source}, tag={self.tag}, count={self.count})"


class _Envelope:
    """A message in flight: payload already copied (eager protocol)."""

    __slots__ = ("src", "tag", "payload", "seq")

    def __init__(self, src: int, tag: int, payload: Any, seq: int):
        self.src = src
        self.tag = tag
        self.payload = payload
        self.seq = seq


class Request:
    """Handle for a nonblocking operation (MPI_Request)."""

    __slots__ = ("_engine", "_done", "_status", "_complete_cb", "_error")

    def __init__(self, engine: "P2PEngine"):
        self._engine = engine
        self._done = False
        self._status: Status | None = None
        self._complete_cb = None
        self._error: BaseException | None = None

    def _finish(self, status: Status | None) -> None:
        self._done = True
        self._status = status
        if self._complete_cb is not None:
            self._complete_cb()

    def _fail(self, exc: BaseException) -> None:
        """Complete the request with an error (dead-source quarantine)."""
        self._done = True
        self._error = exc
        if self._complete_cb is not None:
            self._complete_cb()

    def test(self) -> tuple[bool, Status | None]:
        """Nonblocking completion check."""
        with self._engine.runtime.cond:
            self._engine._drain()
            if self._done and self._error is not None:
                raise self._error
            return self._done, self._status

    def wait(self) -> Status | None:
        """Block until the operation completes."""
        rt = self._engine.runtime
        with rt.cond:
            rt.wait_for(lambda: self._engine._drain() or self._done)
            if self._error is not None:
                raise self._error
            return self._status


class _PendingRecv:
    __slots__ = ("source", "tag", "buf", "request", "posted_seq")

    def __init__(self, source: int, tag: int, buf: "np.ndarray | None", request: Request, posted_seq: int):
        self.source = source
        self.tag = tag
        self.buf = buf
        self.request = request
        self.posted_seq = posted_seq


class P2PEngine:
    """Per-runtime matching engine; all methods require the giant lock."""

    def __init__(self, runtime: Runtime, context_id: int):
        self.runtime = runtime
        self.context_id = context_id
        # per destination world-rank
        self._unexpected: dict[int, list[_Envelope]] = {}
        self._posted: dict[int, list[_PendingRecv]] = {}
        self._seq = 0
        runtime.add_death_hook(self._on_rank_death)

    # -- fault handling -------------------------------------------------------
    def _on_rank_death(self, world_rank: int) -> None:
        """Fail posted receives that only the dead rank could satisfy.

        ``ANY_SOURCE`` receives are left posted: another rank — or a
        recovery hook acting for the dead one, as the mutex layer's
        handoff forwarding does — may still complete them.
        """
        for posted in self._posted.values():
            for pr in [p for p in posted if p.source == world_rank]:
                posted.remove(pr)
                pr.request._fail(
                    TargetFailedError(
                        f"receive matched only by failed rank {world_rank}"
                    )
                )

    def fail_all(self, exc: BaseException) -> None:
        """Fail every posted receive with ``exc`` and drop buffered sends.

        Used by :meth:`~repro.mpi.comm.Comm.revoke`: a revoked
        communicator delivers nothing, so pending receives complete with
        the revocation error and unmatched eager sends are discarded.
        Must be called with the giant lock held.
        """
        for posted in self._posted.values():
            for pr in list(posted):
                posted.remove(pr)
                pr.request._fail(exc)
        self._unexpected.clear()

    # -- internal -----------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _match_posted(self, dst: int, env: _Envelope) -> bool:
        """Try to deliver ``env`` to an already-posted receive at ``dst``."""
        posted = self._posted.get(dst, [])
        for i, pr in enumerate(posted):
            if (pr.source in (ANY_SOURCE, env.src)) and (pr.tag in (ANY_TAG, env.tag)):
                posted.pop(i)
                self._deliver(pr, env)
                return True
        return False

    @staticmethod
    def _deliver(pr: _PendingRecv, env: _Envelope) -> None:
        payload = env.payload
        if pr.buf is None:
            # object-mode receive: stash the payload on the status
            count = payload.nbytes if isinstance(payload, np.ndarray) else 0
            pr.request._finish(_ObjStatus(env.src, env.tag, count, payload))
            return
        data = payload
        if not isinstance(data, np.ndarray):
            raise TruncationError("typed receive matched an object-mode send")
        flat = pr.buf
        if data.nbytes > flat.nbytes:
            raise TruncationError(
                f"message of {data.nbytes} bytes into buffer of {flat.nbytes}"
            )
        flat_view = flat.reshape(-1).view(np.uint8)
        flat_view[: data.nbytes] = data.reshape(-1).view(np.uint8)
        pr.request._finish(Status(env.src, env.tag, data.nbytes))

    def _drain(self) -> bool:
        """Hook used by Request predicates; matching is eager so no-op."""
        return False

    # -- public (giant lock held by callers in comm.py) -----------------------
    def post_send(self, src_world: int, dst_world: int, tag: int, payload: Any) -> None:
        """Match one eager message against ``dst_world``'s posted receives,
        or buffer it; a rank in another process (proc backend) gets it in
        its inbox, through the backend, before this returns."""
        if tag < 0:
            raise TagError(f"send tag must be >= 0, got {tag}")
        rt = self.runtime
        if dst_world in rt.dead_ranks:
            # quarantine: typed failure instead of buffering into a void
            raise TargetFailedError(f"send to failed rank {dst_world}")
        if not rt.hosts(dst_world):
            rt.backend.send_to(
                dst_world, ("p2p", self.context_id, src_world, dst_world, tag, payload)
            )
            return
        if isinstance(payload, np.ndarray):
            payload = np.ascontiguousarray(payload).copy()
        env = _Envelope(src_world, tag, payload, self._next_seq())
        if not self._match_posted(dst_world, env):
            self._unexpected.setdefault(dst_world, []).append(env)
        rt.notify_progress()

    def post_recv(
        self,
        dst_world: int,
        source: int,
        tag: int,
        buf: "np.ndarray | None",
    ) -> Request:
        req = Request(self)
        pr = _PendingRecv(source, tag, buf, req, self._next_seq())
        queue = self._unexpected.get(dst_world, [])
        for i, env in enumerate(queue):
            if (source in (ANY_SOURCE, env.src)) and (tag in (ANY_TAG, env.tag)):
                queue.pop(i)
                self._deliver(pr, env)
                self.runtime.notify_progress()
                return req
        if source != ANY_SOURCE and source in self.runtime.dead_ranks:
            # nothing buffered and the only legal sender is dead: the
            # receive can never complete — fail it now, typed.
            req._fail(TargetFailedError(f"receive from failed rank {source}"))
            return req
        self._posted.setdefault(dst_world, []).append(pr)
        return req

    def probe(self, dst_world: int, source: int, tag: int) -> "Status | None":
        """Nonblocking probe: status of the first matching unexpected message."""
        for env in self._unexpected.get(dst_world, []):
            if (source in (ANY_SOURCE, env.src)) and (tag in (ANY_TAG, env.tag)):
                count = env.payload.nbytes if isinstance(env.payload, np.ndarray) else 0
                return Status(env.src, env.tag, count)
        return None


class _ObjStatus(Status):
    """Status carrying an object-mode payload (internal)."""

    __slots__ = ("payload",)

    def __init__(self, source: int, tag: int, count: int, payload: Any):
        super().__init__(source, tag, count)
        self.payload = payload
