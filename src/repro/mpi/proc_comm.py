"""Proc-backend communicators: the p2p engines and collectives of one rank
process.

* **Messaging** (:class:`ProcComm`): ``send`` is :class:`Comm`'s; its
  :class:`~repro.mpi.p2p.P2PEngine` writes a message for a rank in
  another process, pickled, as one frame to the destination's inbox pipe
  (``runtime.backend.send_to``); the destination's pump injects it into
  the engine replica registered under the message's context id (the
  structural tuple both backends use).
* **Collectives** (:class:`_ProcCollEngine`): gather-to-root /
  broadcast over a reserved p2p engine; every process then runs the
  ``compute`` step on the full contribution dict, so collectives that
  construct unpicklable objects (communicators, windows, ARMCI
  registries) build a consistent per-process replica — contributions
  are inserted in rank order to keep replicas deterministic.
"""

from __future__ import annotations

from typing import Any, Callable

from .comm import Comm
from .errors import CommError, InternalError
from .group import Group
from .p2p import ANY_SOURCE, P2PEngine
from .runtime import Runtime, current_proc

__all__ = ["ProcComm"]

#: every operation the thread backend supports but this one rejects
#: carries this hint in its error message
_THREAD_ONLY = "is thread-backend only (see docs/backends.md); use backend='thread'"


class ProcComm(Comm):
    """Per-process communicator replica: :class:`Comm` whose p2p and
    collectives run over the inbox pipes.

    Everything else — ``send``/``isend``, ``dup``/``split``/``create``,
    ``revoke``/``agree``/``shrink`` — is :class:`Comm`'s, run on this
    process's replica.
    """

    # Comm's own function, not an override: named here only because the e2e
    # benchmark's span tracer (benchmarks/e2e/spans.py) wraps it by looking
    # it up in this class's namespace
    send = Comm.send

    def __init__(self, runtime: "Runtime", group: Group, ctx_key: tuple):
        super().__init__(runtime, group, ctx_key)
        self._backend = runtime.backend
        with runtime.cond:
            self._backend.register_engine(ctx_key, self._p2p)
        self._coll = _ProcCollEngine(self)

    # -- unsupported surfaces --------------------------------------------------
    def create_intercomm(self, *args: Any, **kw: Any):
        raise CommError(f"Comm.create_intercomm {_THREAD_ONLY}")


class _ProcCollEngine:
    """Gather-to-root / broadcast collectives over a reserved p2p engine.

    Compatible with :class:`~repro.mpi.collectives.CollectiveEngine.run`:
    called with the giant (process-local) lock held; returns
    ``compute(contribs)`` where ``contribs`` maps comm rank ->
    contribution.  *Every* process runs ``compute`` — object-building
    collectives (``armci_malloc``, ``win_free``) construct
    per-process replicas, which is exactly what a distributed runtime
    needs.  Contributions are inserted in rank order so dict-iteration
    dependent computes stay deterministic across processes.
    """

    def __init__(self, comm: ProcComm):
        self.comm = comm
        key = (comm.context_id, "__coll__")
        self._p2p = P2PEngine(comm.runtime, key)
        with comm.runtime.cond:
            comm._backend.register_engine(key, self._p2p)
        #: collective ordinal; doubles as the message tag so mismatched
        #: call sequences hang (-> join_timeout) instead of cross-matching
        self._seq = 0

    def run(
        self,
        rank: int,
        kind: str,
        contribution: Any,
        compute: Callable[[dict[int, Any]], Any],
    ) -> Any:
        rt = self.comm.runtime
        rt.check_self_alive()
        self.comm._check_revoked()
        seq = self._seq
        self._seq += 1
        size = self.comm.size
        if size == 1:
            return compute({0: contribution})
        me_world = current_proc().rank
        root_world = self.comm.group.world_rank(0)
        if rank == 0:
            arrived: dict[int, tuple[str, Any]] = {}
            for _ in range(size - 1):
                req = self._p2p.post_recv(me_world, ANY_SOURCE, seq, None)
                rt.wait_for(
                    lambda: req._done, what=f"collective {kind} (gather)"
                )
                if req._error is not None:
                    raise req._error
                peer_rank, peer_kind, peer_contrib = req._status.payload
                arrived[peer_rank] = (peer_kind, peer_contrib)
            contribs: dict[int, Any] = {0: contribution}
            for r in range(1, size):
                peer_kind, peer_contrib = arrived[r]
                if peer_kind != kind:
                    exc = InternalError(
                        f"collective mismatch: rank 0 in {kind!r}, "
                        f"rank {r} in {peer_kind!r}"
                    )
                    for r2 in range(1, size):
                        self._p2p.post_send(me_world, self.comm.group.world_rank(r2), seq, exc)
                    raise exc
                contribs[r] = peer_contrib
            blob = [(r, contribs[r]) for r in range(size)]
            for r in range(1, size):
                self._p2p.post_send(me_world, self.comm.group.world_rank(r), seq, (kind, blob))
        else:
            # post the receive first: the send lets go of runtime.cond, and
            # a revoke landing meanwhile fails posted receives (but drops
            # a result that arrived unmatched)
            req = self._p2p.post_recv(me_world, root_world, seq, None)
            self._p2p.post_send(me_world, root_world, seq, (rank, kind, contribution))
            rt.wait_for(lambda: req._done, what=f"collective {kind} (result)")
            if req._error is not None:
                raise req._error
            payload = req._status.payload
            if isinstance(payload, BaseException):
                raise payload
            root_kind, blob = payload
            if root_kind != kind:
                raise InternalError(
                    f"collective mismatch: rank {rank} in {kind!r}, "
                    f"rank 0 in {root_kind!r}"
                )
            contribs = {}
            for r, c in blob:
                contribs[r] = c
        return compute(contribs)

    def fail_all(self, exc: BaseException) -> None:
        self._p2p.fail_all(exc)
