"""Communicators: intra- and inter-communicators over the simulated runtime.

One :class:`Comm` object is shared by all of its member rank-threads
(on the proc backend each rank process holds its own replica);
``comm.rank`` resolves through the calling thread's :class:`Proc`.  The
communicator carries

* a context id isolating p2p matching between communicators, as in MPI:
  a structural tuple — ``("w",)`` for the world, the parent's plus
  ``(kind, seq[, color])`` for a derived communicator — so every
  process names a communicator alike,
* a :class:`~repro.mpi.group.Group` of world ranks,
* a :class:`~repro.mpi.p2p.P2PEngine` and a collective engine.

Intercommunicators (:class:`Intercomm`) exist to support the paper's
noncollective group-creation algorithm (§V-A, citing Dinan et al.
EuroMPI'11): subgroups build intracommunicators recursively, connect
leaders with ``create_intercomm`` over a bridge communicator, and
``merge`` the result — all without participation of non-members.
"""

from __future__ import annotations

import weakref
from typing import Any, Sequence

import numpy as np

from . import collectives as coll
from .errors import (
    ArgumentError,
    CommError,
    CommRevokedError,
    OpTimeoutError,
    RankError,
    RankKilledError,
    TargetFailedError,
)
from .group import UNDEFINED, Group
from .p2p import ANY_SOURCE, ANY_TAG, P2PEngine, Request, Status, _ObjStatus
from .runtime import RankFailedError, Runtime, current_proc

#: per-round wait bound for ``agree``/``shrink`` while the coordinator is
#: in another process and the runtime has no ``op_timeout_s``: a
#: live-but-wedged coordinator must not hang a fault-tolerance primitive
#: until ``join_timeout``
_FT_ROUND_TIMEOUT_S = 5.0


class Comm:
    """An intracommunicator (shared object; rank resolved per thread)."""

    def __init__(self, runtime: Runtime, group: Group, context_id: tuple):
        self.runtime = runtime
        self.group = group
        self.context_id = context_id
        self._p2p = P2PEngine(runtime, context_id)
        self._coll = coll.CollectiveEngine(self)
        #: per-(kind, world rank) sequence numbers matching successive
        #: derivations and fault-tolerant rounds across members
        self._ft_counters: dict = {}
        with runtime.giant_lock:
            registry = runtime.registry
            registry.comms[context_id] = self
            #: set by :meth:`revoke`; poisons every op except
            #: ``agree``/``shrink``.  A peer may have revoked the context
            #: before this replica was built.
            self._revoked = context_id in registry.revoked

    # -- construction -----------------------------------------------------------
    @classmethod
    def _world(cls, runtime: Runtime) -> "Comm":
        """World communicator for ``runtime`` (backend decides the
        flavour); a new world starts a new communicator registry."""
        runtime.registry = _Registry(runtime)
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
    #
    # A derived communicator's context id is its parent's plus
    # ``(kind, seq[, color])``: members derive in the same order, so the
    # id is the same in every process without a counter shared between
    # them.  The collective carries only plain data (the new groups);
    # each member then asks :meth:`_derive` for the communicator, which
    # on threads is the one object all members share and on procs this
    # process's replica.

    def _derive(self, group: Group, key: tuple) -> "Comm":
        """This process's communicator for context ``key``, built by the
        first member here to ask.  Must hold ``runtime.cond``."""
        comm = self.runtime.registry.comms.get(key)
        if comm is None:
            comm = type(self)(self.runtime, group, key)
        return comm

    def dup(self) -> "Comm":
        """Collective duplicate with a fresh context id."""
        with self.runtime.cond:
            rank = self.rank
            key = self.context_id + ("dup", self._ft_seq("dup"))
            self._coll.run(rank, "comm_dup", None, lambda _c: None)
            return self._derive(self.group, key)

    def split(self, color: int, key: int = 0) -> "Comm | None":
        """Collective split; ``color < 0`` (MPI_UNDEFINED) opts out."""
        with self.runtime.cond:
            rank = self.rank
            seq = self._ft_seq("split")

            def by_color(contrib: dict[int, tuple[int, int, int]]) -> dict[int, Group]:
                members: dict[int, list[tuple[int, int, int]]] = {}
                for r in range(self.size):
                    c, k, w = contrib[r]
                    if c >= 0:
                        members.setdefault(c, []).append((k, r, w))
                return {
                    c: Group(w for _k, _r, w in sorted(ms)) for c, ms in members.items()
                }

            groups = self._coll.run(
                rank, "comm_split", (color, key, self.group.world_rank(rank)), by_color
            )
            if color < 0:
                return None
            return self._derive(groups[color], self.context_id + ("split", seq, color))

    def create(self, group: Group) -> "Comm | None":
        """Collective over the parent; returns a comm for members of ``group``."""
        for w in group:
            if not self.group.contains_world(w):
                raise ArgumentError(f"create: world rank {w} not in parent {self}")
        with self.runtime.cond:
            rank = self.rank
            key = self.context_id + ("create", self._ft_seq("create"))
            self._coll.run(rank, "comm_create", None, lambda _c: None)
            if not group.contains_world(self.group.world_rank(rank)):
                return None
            return self._derive(group, key)

    # -- fault tolerance (ULFM analogues) --------------------------------------
    #
    # The four primitives below mirror the ULFM MPI fault-tolerance
    # proposal: ``failure_ack``/``failure_get_acked`` acknowledge known
    # failures (clearing a standing dead-stall verdict so survivors can
    # block again), ``revoke`` poisons every other operation on this
    # communicator with :class:`CommRevokedError`, and ``agree``/``shrink``
    # are the only operations guaranteed to complete with dead (or
    # revoked) members — which is exactly what recovery code needs to
    # rendezvous and rebuild.  They deliberately do *not* go through the
    # collective engine (whose contexts are poisoned by dead members):
    # ``agree``/``shrink`` are a coordinator round (:meth:`_ft_round`)
    # whose state lives in ``runtime.registry``, decided by the lowest
    # live member and re-driven as members die.  Where a member runs in
    # another process (the proc backend), the votes, results and revokes
    # travel as ``("ft", ...)`` messages over its inbox.

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
        Applied here first, then sent to each live member in another
        process, whose pump applies it to its replica (or records it, so
        a replica built later is born revoked).
        """
        rt = self.runtime
        rt.check_self_alive()
        rt.fuzz_point("ft:revoke")
        with rt.cond:
            if self._revoked:
                return
            self._apply_revoke()
            peers = [
                w for w in self.group.members
                if not rt.hosts(w) and w not in rt.dead_ranks
            ]
        for w in peers:
            try:
                rt.backend.send_ctl(w, ("ft", "revoke", self.context_id))
            except TargetFailedError:
                pass  # a dead peer has nothing to revoke

    def _apply_revoke(self) -> None:
        """Mark this communicator revoked and poison in-flight operations.

        Must be called with ``runtime.cond`` held.  Idempotent.  Shared
        by :meth:`revoke` and the proc backend's pump thread (which
        applies a peer's revoke to the local replica).
        """
        if self._revoked:
            return
        self._revoked = True
        exc = CommRevokedError(f"communicator ctx={self.context_id} was revoked")
        self._coll.fail_all(exc)
        self._p2p.fail_all(exc)
        self.runtime.notify_progress()

    def _ft_seq(self, kind: str) -> int:
        """Next sequence number of ``kind`` for the calling member.

        Each member's *n*-th ``dup`` (or ``agree``, …) matches every other
        member's *n*-th — the same per-rank counter device the collective
        engine uses for context matching.  Must hold ``runtime.cond``.
        """
        me = current_proc().rank
        idx = self._ft_counters.get((kind, me), 0)
        self._ft_counters[(kind, me)] = idx + 1
        return idx

    def _ft_round(self, kind: str, contribution: Any) -> tuple[int, Any]:
        """One fault-tolerant decision round; returns ``(seq, value)``.

        Every member votes to the coordinator, the lowest live member: a
        vote to a coordinator in this process is applied directly, one to
        a remote coordinator is sent to it.  The coordinator decides once
        every live vote is in (:meth:`_Registry.vote`).  The member side
        here tolerates every failure the round can see:

        * a member dies → the death hook re-evaluates the round, and a
          peer-death poisoning is acknowledged and the wait resumed;
        * the *coordinator* dies → the vote goes again to the next
          lowest live member (which decides fresh or answers from the
          value it was already sent);
        * a remote coordinator is alive but wedged → per-round timeout
          (``op_timeout_s``, else 5 s) and re-vote, bounded by
          ``op_retries``.  A coordinator in this process needs no
          timeout: its decision runs in whichever thread brings the last
          vote or death.
        """
        rt = self.runtime
        rt.check_self_alive()
        rt.fuzz_point("ft:" + kind)
        rt.failure_ack()
        reg = rt.registry
        me = current_proc().rank
        with rt.cond:
            seq = self._ft_seq(kind)
        key = (self.context_id, kind, seq)
        timeout = (
            rt.op_timeout_s if rt.op_timeout_s is not None else _FT_ROUND_TIMEOUT_S
        )

        def coordinator() -> int:
            live = [w for w in self.group.members if w not in rt.dead_ranks]
            return min(live) if live else me

        attempts = 0
        voted_to: "int | None" = None
        while True:
            with rt.cond:
                try:
                    while key not in reg.results:
                        coord = coordinator()
                        if coord != voted_to:
                            voted_to = coord
                            if rt.hosts(coord):
                                reg.vote(key, me, contribution)
                            else:
                                # a wedged coordinator's full pipe counts
                                # against the round's timeout
                                rt.backend.send_ctl(
                                    coord, ("ft", "vote", key, me, contribution),
                                    timeout,
                                )
                        rt.wait_for(
                            lambda: key in reg.results or coordinator() != voted_to,
                            timeout_s=None if rt.hosts(coord) else timeout,
                            what=f"{kind} (ft round)",
                        )
                    return seq, reg.results[key]
                except RankKilledError:
                    raise
                except (RankFailedError, TargetFailedError):
                    pass  # acknowledge below; coordinator re-evaluated
                except OpTimeoutError:
                    attempts += 1
                    if attempts > rt.op_retries:
                        raise
                    voted_to = None  # re-send the vote
            rt.failure_ack()
            with rt.cond:
                if rt.failed is not None and not isinstance(rt.failed, RankFailedError):
                    # a local hard failure, not a peer death: surface it
                    raise RankFailedError(f"rank failed elsewhere: {rt.failed!r}")

    def agree(self, flag: int = 1) -> int:
        """Fault-tolerant agreement (ULFM ``MPIX_Comm_agree``).

        Returns the bitwise AND of the ``flag`` contributions of all
        *live* members.  Completes even when members are dead or die
        mid-operation, and on a revoked communicator.  Acknowledges
        known failures on entry.
        """
        return int(self._ft_round("agree", int(flag))[1])

    def shrink(self) -> "Comm":
        """Re-form a communicator of the survivors (ULFM
        ``MPIX_Comm_shrink``).

        Collective over the *live* members only.  The round decides the
        surviving membership; the new communicator (context
        ``parent + ("shrink", seq)``) is densely re-ranked in world-rank
        order (rank ``i`` is the ``i``-th smallest surviving world rank).
        As in ULFM, a member dying *concurrently* with the decision may
        survive into it — the next operation on the new communicator then
        fails over and the application shrinks again.  Acknowledges known
        failures on entry; works on a revoked communicator.
        """
        seq, live = self._ft_round("shrink", None)
        with self.runtime.cond:
            return self._derive(Group(live), self.context_id + ("shrink", seq))

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


class _Registry:
    """This process's communicators by context id, and the ``agree``/
    ``shrink`` rounds decided here.

    One per world (:meth:`Comm._world` installs it as
    ``runtime.registry``); guarded by ``runtime.cond``.  On threads every
    member uses the one registry, so a derivation yields the one object
    all members share and every round is decided in-process.  On procs
    each rank process has its own: the replicas of that process, and the
    rounds whose coordinator runs there (or whose result arrived there).
    """

    def __init__(self, runtime: Runtime):
        self.runtime = runtime
        #: context id -> communicator (weak: a freed communicator leaves)
        self.comms: "weakref.WeakValueDictionary[tuple, Comm]" = (
            weakref.WeakValueDictionary()
        )
        #: context ids a peer revoked; a replica built later is born revoked
        self.revoked: set[tuple] = set()
        #: (ctx, kind, seq) -> coordinator-side state
        #: {"votes": {world rank: contribution}, "value": result-or-None}
        self.rounds: dict[tuple, dict] = {}
        #: (ctx, kind, seq) -> decided value, for the voters hosted here
        self.results: dict[tuple, Any] = {}
        runtime.add_death_hook(self._on_death)

    def _on_death(self, _world_rank: int) -> None:
        # the death may make this process coordinator of an open round,
        # or remove the last missing vote
        for key in list(self.rounds):
            self._try_complete(key)

    def revoke(self, ctx: tuple) -> None:
        """Apply a peer's revoke of ``ctx`` (proc pump)."""
        self.revoked.add(ctx)
        comm = self.comms.get(ctx)
        if comm is not None:
            comm._apply_revoke()

    def vote(self, key: tuple, voter: int, contribution: Any) -> None:
        """Record ``voter``'s vote in round ``key``; decide if it was the last."""
        state = self.rounds.setdefault(key, {"votes": {}, "value": None})
        if state["value"] is not None:
            # a re-vote after the round closed (the voter never heard a
            # coordinator that died mid-broadcast): answer directly with
            # the SAME value so outcomes cannot diverge
            self._send_result(voter, key, state["value"])
            return
        state["votes"][voter] = contribution
        self.runtime.notify_progress()
        self._try_complete(key)

    def decided(self, key: tuple, value: Any) -> None:
        """A remote coordinator's result for round ``key`` arrived (proc pump)."""
        self.results[key] = value
        # mirror into the coordinator-side state: if the deciding
        # coordinator died after a partial broadcast, re-votes get routed
        # here and must be answered with the decided value
        self.rounds.setdefault(key, {"votes": {}, "value": None})["value"] = value
        self.runtime.notify_progress()

    def _try_complete(self, key: tuple) -> None:
        state = self.rounds.get(key)
        if state is None or state["value"] is not None:
            return
        ctx, kind, _seq = key
        comm = self.comms.get(ctx)
        if comm is None:
            return
        rt = self.runtime
        live = sorted(w for w in comm.group.members if w not in rt.dead_ranks)
        if not live or not rt.hosts(live[0]):
            return  # not (or no longer) the coordinator
        if any(w not in state["votes"] for w in live):
            return
        if kind == "agree":
            value = -1  # AND identity (all ones)
            for w in live:
                value &= int(state["votes"][w])
        else:  # shrink: the surviving membership, world-rank ordered
            value = tuple(live)
        state["value"] = value
        # ascending broadcast order is a correctness invariant: if this
        # coordinator dies partway, the new coordinator (next-lowest
        # live rank) is in the already-notified prefix and answers
        # re-votes from ``state["value"]``
        for w in live:
            self._send_result(w, key, value)

    def _send_result(self, voter: int, key: tuple, value: Any) -> None:
        rt = self.runtime
        if rt.hosts(voter):
            self.results[key] = value
            rt.notify_progress()
            return
        try:
            rt.backend.send_ctl(voter, ("ft", "result", key, value))
        except TargetFailedError:
            pass  # a dead voter needs no result


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
                state["result"] = Comm(
                    rt, Group(members), ("merge", rt.alloc_context_id())
                )
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
