"""Communicators: intra- and inter-communicators over the simulated runtime.

One :class:`Comm` object is shared by all of its member rank-threads;
``comm.rank`` resolves through the calling thread's :class:`Proc`.  The
communicator carries

* a context id (isolating p2p matching between communicators, as in MPI),
* a :class:`~repro.mpi.group.Group` of world ranks,
* a :class:`~repro.mpi.p2p.P2PEngine` and a collective engine.

Intercommunicators (:class:`Intercomm`) exist to support the paper's
noncollective group-creation algorithm (§V-A, citing Dinan et al.
EuroMPI'11): subgroups build intracommunicators recursively, connect
leaders with ``create_intercomm`` over a bridge communicator, and
``merge`` the result — all without participation of non-members.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from . import collectives as coll
from .errors import ArgumentError, CommError, CommRevokedError, RankError
from .group import UNDEFINED, Group
from .p2p import ANY_SOURCE, ANY_TAG, P2PEngine, Request, Status, _ObjStatus
from .runtime import Runtime, current_proc


class Comm:
    """An intracommunicator (shared object; rank resolved per thread)."""

    def __init__(self, runtime: Runtime, group: Group, context_id: int):
        self.runtime = runtime
        self.group = group
        self.context_id = context_id
        self._p2p = P2PEngine(runtime, context_id)
        self._coll = coll.CollectiveEngine(self)
        #: set by :meth:`revoke`; poisons every op except ``agree``/``shrink``
        self._revoked = False
        #: per-(kind, world rank) sequence numbers matching successive
        #: fault-tolerant rendezvous (``agree``/``shrink``) across members
        self._ft_counters: dict = {}

    # -- construction -----------------------------------------------------------
    @classmethod
    def _world(cls, runtime: Runtime) -> "Comm":
        """World communicator for ``runtime`` (backend decides the flavour)."""
        return runtime.backend.make_world(runtime)

    # -- identity ---------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.group.size

    @property
    def rank(self) -> int:
        """Rank of the calling thread in this communicator."""
        r = self.group.rank_of_world(current_proc().rank)
        if r == UNDEFINED:
            raise CommError(
                f"world rank {current_proc().rank} is not a member of {self}"
            )
        return r

    def world_rank(self, rank: int) -> int:
        return self.group.world_rank(rank)

    @property
    def revoked(self) -> bool:
        """True once any member called :meth:`revoke`."""
        return self._revoked

    def _check_revoked(self) -> None:
        if self._revoked:
            raise CommRevokedError(
                f"communicator ctx={self.context_id} was revoked"
            )

    # -- point to point -----------------------------------------------------------
    def _charge_p2p(self, nbytes: int, kind: str) -> None:
        if self.runtime.timing is not None:
            cost = self.runtime.timing.p2p_cost(nbytes)
            current_proc().clock.advance(cost, kind=kind, nbytes=nbytes)

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Blocking (eager) send of a NumPy buffer or Python object."""
        self.runtime.check_self_alive()
        self._check_revoked()
        self.runtime.fuzz_point("p2p:send")
        dst_world = self.group.world_rank(dest)
        nbytes = payload.nbytes if isinstance(payload, np.ndarray) else 0
        with self.runtime.cond:
            self._p2p.post_send(current_proc().rank, dst_world, tag, payload)
        self._charge_p2p(nbytes, "p2p:send")

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send (eager: completes immediately)."""
        self.runtime.check_self_alive()
        self._check_revoked()
        self.runtime.fuzz_point("p2p:isend")
        dst_world = self.group.world_rank(dest)
        with self.runtime.cond:
            self._p2p.post_send(current_proc().rank, dst_world, tag, payload)
            req = Request(self._p2p)
            req._finish(None)
        self._charge_p2p(
            payload.nbytes if isinstance(payload, np.ndarray) else 0, "p2p:isend"
        )
        return req

    def irecv(
        self, buf: "np.ndarray | None" = None, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        """Nonblocking receive; ``buf=None`` selects object mode."""
        self.runtime.check_self_alive()
        self._check_revoked()
        self.runtime.fuzz_point("p2p:recv")
        src_world = (
            source if source == ANY_SOURCE else self.group.world_rank(source)
        )
        with self.runtime.cond:
            return self._p2p.post_recv(current_proc().rank, src_world, tag, buf)

    def recv(
        self, buf: "np.ndarray | None" = None, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Any:
        """Blocking receive.

        With a buffer: fills it and returns a :class:`Status` whose
        ``source`` is a rank *in this communicator*.  Without: returns
        ``(payload, Status)``.
        """
        req = self.irecv(buf, source, tag)
        status = req.wait()
        assert status is not None
        self._charge_p2p(status.count, "p2p:recv")
        status.source = self.group.rank_of_world(status.source)
        if buf is None:
            assert isinstance(status, _ObjStatus)
            return status.payload, status
        return status

    def sendrecv(
        self,
        sendpayload: Any,
        dest: int,
        recvbuf: "np.ndarray | None" = None,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive (deadlock-free by construction here)."""
        req = self.irecv(recvbuf, source, recvtag)
        self.send(sendpayload, dest, sendtag)
        status = req.wait()
        assert status is not None
        status.source = self.group.rank_of_world(status.source)
        if recvbuf is None:
            assert isinstance(status, _ObjStatus)
            return status.payload, status
        return status

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "Status | None":
        self.runtime.check_self_alive()
        self._check_revoked()
        src_world = (
            source if source == ANY_SOURCE else self.group.world_rank(source)
        )
        with self.runtime.cond:
            st = self._p2p.probe(current_proc().rank, src_world, tag)
        if st is not None:
            st.source = self.group.rank_of_world(st.source)
        return st

    # -- collectives ---------------------------------------------------------------
    def barrier(self) -> None:
        self.runtime.fuzz_point("coll:barrier")
        with self.runtime.cond:
            coll.barrier(self, self.rank)

    def bcast(self, buf: np.ndarray, root: int = 0) -> None:
        self.runtime.fuzz_point("coll:bcast")
        with self.runtime.cond:
            coll.bcast(self, self.rank, buf, root)

    def bcast_obj(self, obj: Any = None, root: int = 0) -> Any:
        self.runtime.fuzz_point("coll:bcast_obj")
        with self.runtime.cond:
            return coll.bcast_obj(self, self.rank, obj, root)

    def gather(self, sendobj: Any, root: int = 0) -> "list[Any] | None":
        self.runtime.fuzz_point("coll:gather")
        with self.runtime.cond:
            return coll.gather(self, self.rank, sendobj, root)

    def allgather(self, sendobj: Any) -> list[Any]:
        self.runtime.fuzz_point("coll:allgather")
        with self.runtime.cond:
            return coll.allgather(self, self.rank, sendobj)

    def scatter(self, sendobjs: "list[Any] | None" = None, root: int = 0) -> Any:
        self.runtime.fuzz_point("coll:scatter")
        with self.runtime.cond:
            return coll.scatter(self, self.rank, sendobjs, root)

    def alltoall(self, sendobjs: list[Any]) -> list[Any]:
        self.runtime.fuzz_point("coll:alltoall")
        with self.runtime.cond:
            return coll.alltoall(self, self.rank, sendobjs)

    def reduce(self, send: np.ndarray, op="MPI_SUM", root: int = 0) -> "np.ndarray | None":
        self.runtime.fuzz_point("coll:reduce")
        with self.runtime.cond:
            return coll.reduce(self, self.rank, send, op, root)

    def allreduce(self, send: np.ndarray, op="MPI_SUM") -> np.ndarray:
        self.runtime.fuzz_point("coll:allreduce")
        with self.runtime.cond:
            return coll.allreduce(self, self.rank, send, op)

    def scan(self, send: np.ndarray, op="MPI_SUM") -> np.ndarray:
        self.runtime.fuzz_point("coll:scan")
        with self.runtime.cond:
            return coll.scan(self, self.rank, send, op)

    def exscan(self, send: np.ndarray, op="MPI_SUM") -> "np.ndarray | None":
        self.runtime.fuzz_point("coll:exscan")
        with self.runtime.cond:
            return coll.exscan(self, self.rank, send, op)

    # -- communicator management -----------------------------------------------------
    def dup(self) -> "Comm":
        """Collective duplicate with a fresh context id."""
        with self.runtime.cond:
            rank = self.rank

            def make(_contrib):
                return Comm(self.runtime, self.group, self.runtime.alloc_context_id())

            return self._coll.run(rank, "comm_dup", None, make)

    def split(self, color: int, key: int = 0) -> "Comm | None":
        """Collective split; ``color < 0`` (MPI_UNDEFINED) opts out."""
        with self.runtime.cond:
            rank = self.rank

            def make(contrib: dict[int, tuple[int, int, int]]):
                by_color: dict[int, list[tuple[int, int, int]]] = {}
                for r in range(self.size):
                    c, k, w = contrib[r]
                    if c >= 0:
                        by_color.setdefault(c, []).append((k, r, w))
                comms: dict[int, Comm] = {}
                for c, members in by_color.items():
                    members.sort()
                    grp = Group(w for _k, _r, w in members)
                    comms[c] = Comm(self.runtime, grp, self.runtime.alloc_context_id())
                return comms

            comms = self._coll.run(
                rank, "comm_split", (color, key, self.group.world_rank(rank)), make
            )
            return comms.get(color) if color >= 0 else None

    def create(self, group: Group) -> "Comm | None":
        """Collective over the parent; returns a comm for members of ``group``."""
        for w in group:
            if not self.group.contains_world(w):
                raise ArgumentError(f"create: world rank {w} not in parent {self}")
        with self.runtime.cond:
            rank = self.rank

            def make(_contrib):
                return Comm(self.runtime, group, self.runtime.alloc_context_id())

            newcomm = self._coll.run(rank, "comm_create", None, make)
            return newcomm if group.contains_world(self.group.world_rank(rank)) else None

    # -- fault tolerance (ULFM analogues) --------------------------------------
    #
    # The four primitives below mirror the ULFM MPI fault-tolerance
    # proposal: ``failure_ack``/``failure_get_acked`` acknowledge known
    # failures (clearing a standing dead-stall verdict so survivors can
    # block again), ``revoke`` poisons every other operation on this
    # communicator with :class:`CommRevokedError`, and ``agree``/``shrink``
    # are the only operations guaranteed to complete with dead (or
    # revoked) members — which is exactly what recovery code needs to
    # rendezvous and rebuild.  They deliberately do *not* go through
    # :class:`~repro.mpi.collectives.CollectiveEngine` (whose contexts are
    # poisoned by dead members); instead they use a survivor-only
    # rendezvous in ``runtime.shared`` whose completion predicate is
    # re-evaluated as ranks die, modeled on :meth:`Intercomm.merge`.

    def failure_ack(self) -> None:
        """Acknowledge all currently-known member failures (ULFM
        ``MPIX_Comm_failure_ack``)."""
        self.runtime.check_self_alive()
        self.runtime.failure_ack()

    def failure_get_acked(self) -> Group:
        """Group of failed members this rank has acknowledged (ULFM
        ``MPIX_Comm_failure_get_acked``)."""
        self.runtime.check_self_alive()
        acked = self.runtime.acked_failures()
        return Group(w for w in sorted(acked) if self.group.contains_world(w))

    def revoke(self) -> None:
        """Revoke the communicator (ULFM ``MPIX_Comm_revoke``).

        Non-collective: any member may call it.  Every in-flight
        operation on this communicator fails with
        :class:`CommRevokedError` on every member, as does every future
        operation except :meth:`agree` and :meth:`shrink`.  Idempotent.
        """
        rt = self.runtime
        rt.check_self_alive()
        rt.fuzz_point("ft:revoke")
        with rt.cond:
            self._apply_revoke()

    def _apply_revoke(self) -> None:
        """Mark this communicator revoked and poison in-flight operations.

        Must be called with ``runtime.cond`` held.  Idempotent.  Shared
        by the thread-backend :meth:`revoke` (where every member sees the
        same object) and the proc backend's pump thread (which applies a
        peer's revoke to the local replica).
        """
        if self._revoked:
            return
        self._revoked = True
        exc = CommRevokedError(f"communicator ctx={self.context_id} was revoked")
        self._coll.fail_all(exc)
        self._p2p.fail_all(exc)
        self.runtime.notify_progress()

    def _ft_seq(self, kind: str) -> int:
        """Next rendezvous sequence number for the calling member.

        Each member's *n*-th ``agree`` (or ``shrink``) matches every other
        member's *n*-th — the same per-rank counter device the collective
        engine uses for context matching.  Must hold ``runtime.cond``.
        """
        me = current_proc().rank
        idx = self._ft_counters.get((kind, me), 0)
        self._ft_counters[(kind, me)] = idx + 1
        return idx

    def agree(self, flag: int = 1) -> int:
        """Fault-tolerant agreement (ULFM ``MPIX_Comm_agree``).

        Returns the bitwise AND of the ``flag`` contributions of all
        *live* members.  Completes even when members are dead or die
        mid-operation: the completion predicate is re-evaluated each time
        a member dies, so a contribution that will never arrive stops
        being waited for.  Acknowledges known failures on entry.
        """
        rt = self.runtime
        rt.check_self_alive()
        rt.fuzz_point("ft:agree")
        rt.failure_ack()
        with rt.cond:
            me = current_proc().rank
            key = ("ft_agree", self.context_id, self._ft_seq("agree"))
            state = rt.shared.get(key)
            if state is None:
                state = {"contrib": {}, "value": None, "done": False, "departed": 0}
                rt.shared[key] = state
            state["contrib"][me] = int(flag)
            rt.notify_progress()
            members = list(self.group.members)

            def complete() -> bool:
                if state["done"]:
                    return True
                live = [w for w in members if w not in rt.dead_ranks]
                if live and all(w in state["contrib"] for w in live):
                    value = -1  # AND identity (all ones)
                    for w in live:
                        value &= state["contrib"][w]
                    state["value"] = value
                    state["done"] = True
                    rt.notify_progress()
                    return True
                return False

            rt.wait_for(complete, what="agree")
            value: int = state["value"]
            state["departed"] += 1
            live_now = [w for w in members if w not in rt.dead_ranks]
            if state["departed"] >= len(live_now):
                rt.shared.pop(key, None)
            return value

    def shrink(self) -> "Comm":
        """Re-form a communicator of the survivors (ULFM
        ``MPIX_Comm_shrink``).

        Collective over the *live* members only.  Returns a new
        communicator containing every surviving member, densely re-ranked
        in world-rank order (rank ``i`` of the new communicator is the
        ``i``-th smallest surviving world rank).  Acknowledges known
        failures on entry; works on a revoked communicator.
        """
        rt = self.runtime
        rt.check_self_alive()
        rt.fuzz_point("ft:shrink")
        rt.failure_ack()
        with rt.cond:
            me = current_proc().rank
            key = ("ft_shrink", self.context_id, self._ft_seq("shrink"))
            state = rt.shared.get(key)
            if state is None:
                state = {"arrived": set(), "comm": None, "departed": 0}
                rt.shared[key] = state
            state["arrived"].add(me)
            rt.notify_progress()
            members = list(self.group.members)

            def complete() -> bool:
                if state["comm"] is not None:
                    return True
                live = [w for w in members if w not in rt.dead_ranks]
                if live and set(live) <= state["arrived"]:
                    state["comm"] = Comm(
                        rt, Group(sorted(live)), rt.alloc_context_id()
                    )
                    rt.notify_progress()
                    return True
                return False

            rt.wait_for(complete, what="shrink")
            newcomm: Comm = state["comm"]
            state["departed"] += 1
            if state["departed"] >= newcomm.size:
                rt.shared.pop(key, None)
            return newcomm

    # -- intercommunicators --------------------------------------------------------
    def create_intercomm(
        self, local_leader: int, bridge: "Comm", remote_leader_bridge_rank: int, tag: int
    ) -> "Intercomm":
        """Build an intercommunicator (MPI_Intercomm_create).

        Collective over this (local) communicator; the two local leaders
        exchange group information and a shared context id through the
        ``bridge`` communicator using ``tag``.
        """
        if not 0 <= local_leader < self.size:
            raise RankError(f"local_leader {local_leader} out of range")
        rank = self.rank
        if rank == local_leader:
            my_world = self.group.world_rank(rank)
            # deterministically pick the context-id allocator: the leader
            # with the smaller world rank allocates and sends it
            remote_world = bridge.group.world_rank(remote_leader_bridge_rank)
            if my_world < remote_world:
                with self.runtime.cond:
                    cid = self.runtime.alloc_context_id()
                bridge.send((cid, self.group.members), remote_leader_bridge_rank, tag)
                payload, _ = bridge.recv(source=remote_leader_bridge_rank, tag=tag)
                (_, remote_members) = payload
            else:
                payload, _ = bridge.recv(source=remote_leader_bridge_rank, tag=tag)
                (cid, remote_members) = payload
                bridge.send((cid, self.group.members), remote_leader_bridge_rank, tag)
            info = (cid, remote_members)
        else:
            info = None
        info = self.bcast_obj(info, root=local_leader)
        cid, remote_members = info
        return Intercomm(
            self.runtime, self.group, Group(remote_members), cid, local_comm=self
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Comm size={self.size} ctx={self.context_id}>"


class Intercomm:
    """An intercommunicator: p2p targets ranks in the *remote* group."""

    def __init__(
        self,
        runtime: Runtime,
        local_group: Group,
        remote_group: Group,
        context_id: int,
        local_comm: Comm,
    ):
        self.runtime = runtime
        self.local_group = local_group
        self.remote_group = remote_group
        self.context_id = context_id
        self.local_comm = local_comm
        key = ("intercomm_p2p", context_id)
        with runtime.cond:
            engine = runtime.shared.get(key)
            if engine is None:
                engine = P2PEngine(runtime, context_id)
                runtime.shared[key] = engine
        self._p2p = engine

    @property
    def rank(self) -> int:
        return self.local_group.rank_of_world(current_proc().rank)

    @property
    def size(self) -> int:
        return self.local_group.size

    @property
    def remote_size(self) -> int:
        return self.remote_group.size

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        dst_world = self.remote_group.world_rank(dest)
        with self.runtime.cond:
            self._p2p.post_send(current_proc().rank, dst_world, tag, payload)

    def recv(
        self, buf: "np.ndarray | None" = None, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Any:
        src_world = (
            source if source == ANY_SOURCE else self.remote_group.world_rank(source)
        )
        with self.runtime.cond:
            req = self._p2p.post_recv(current_proc().rank, src_world, tag, buf)
        status = req.wait()
        assert status is not None
        status.source = self.remote_group.rank_of_world(status.source)
        if buf is None:
            assert isinstance(status, _ObjStatus)
            return status.payload, status
        return status

    def merge(self, high: bool = False) -> Comm:
        """Merge into an intracommunicator (MPI_Intercomm_merge).

        Collective over the union.  The ``high=False`` side's group is
        ordered first; a tie (both sides same flag) is broken by smaller
        leading world rank, as real MPI implementations do.
        """
        rt = self.runtime
        key = ("intercomm_merge", self.context_id)
        total = self.local_group.size + self.remote_group.size
        with rt.cond:
            state = rt.shared.get(key)
            if state is None:
                state = {"flags": {}, "arrived": 0, "departed": 0, "result": None}
                rt.shared[key] = state
            me = current_proc().rank
            state["flags"][me] = bool(high)
            state["arrived"] += 1
            if state["arrived"] == total:
                local_first = self._merge_order(state["flags"])
                members = (
                    list(local_first[0].members) + list(local_first[1].members)
                )
                state["result"] = Comm(rt, Group(members), rt.alloc_context_id())
                rt.notify_progress()
            else:
                rt.wait_for(lambda: state["result"] is not None)
            result: Comm = state["result"]
            state["departed"] += 1
            if state["departed"] == total:
                del rt.shared[key]
            return result

    def _merge_order(self, flags: dict[int, bool]) -> tuple[Group, Group]:
        lo_flag = all(flags[w] for w in self.local_group) if self.local_group.size else False
        hi_flag = all(flags[w] for w in self.remote_group) if self.remote_group.size else False
        local_high = lo_flag
        remote_high = hi_flag
        if local_high != remote_high:
            return (
                (self.remote_group, self.local_group)
                if local_high
                else (self.local_group, self.remote_group)
            )
        # tie: smaller leading world rank first
        if min(self.local_group.members) < min(self.remote_group.members):
            return self.local_group, self.remote_group
        return self.remote_group, self.local_group

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Intercomm local={self.local_group.size} "
            f"remote={self.remote_group.size} ctx={self.context_id}>"
        )
