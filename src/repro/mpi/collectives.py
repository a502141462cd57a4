"""Collective communication over the simulated runtime.

Collectives are implemented with a rendezvous-context scheme: the *i*-th
collective call on a communicator creates (or joins) a shared context;
ranks deposit contributions, the last arrival computes the result, and
every rank picks up its share.  Because all of this happens under the
runtime's giant lock, the implementation is linearisable and the MPI
ordering rule (all ranks call the same collectives in the same order on a
communicator) is *checked*: mismatched collective kinds raise instead of
hanging.

Modeled cost uses binomial/recursive-doubling shapes — ``ceil(log2 p)``
rounds of latency plus the per-round byte costs — charged through the
runtime's timing policy when one is installed.  Barrier-class collectives
also synchronise the participants' simulated clocks to the common exit
time, which is what makes NWChem-proxy load-imbalance measurements
meaningful.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from . import ops as mpi_ops
from .errors import ArgumentError, InternalError, RankError, TargetFailedError


class _CollectiveContext:
    """Rendezvous state of one collective call instance."""

    __slots__ = (
        "kind",
        "size",
        "contributions",
        "arrived",
        "departed",
        "result",
        "ready",
        "error",
    )

    def __init__(self, kind: str, size: int):
        self.kind = kind
        self.size = size
        self.contributions: dict[int, Any] = {}
        self.arrived = 0
        self.departed = 0
        self.result: Any = None
        self.ready = False
        self.error: BaseException | None = None


class CollectiveEngine:
    """Per-communicator collective rendezvous (giant lock held by callers)."""

    def __init__(self, comm):
        self.comm = comm
        self._contexts: dict[int, _CollectiveContext] = {}
        self._counters: list[int] = [0] * comm.size
        comm.runtime.add_death_hook(self._on_rank_death)

    # -- fault handling ---------------------------------------------------------
    def _dead_members(self) -> list[int]:
        """Comm ranks of this communicator's failed members."""
        rt = self.comm.runtime
        group = self.comm.group
        return [
            group.rank_of_world(w)
            for w in rt.dead_ranks
            if group.contains_world(w)
        ]

    def _poison(self, ctx: _CollectiveContext, dead: list[int]) -> bool:
        """Fail ``ctx`` if a dead member has not deposited; returns True if so."""
        missing = [r for r in dead if r not in ctx.contributions]
        if not missing or ctx.ready:
            return False
        ctx.error = TargetFailedError(
            f"collective {ctx.kind} on {self.comm} cannot complete: "
            f"failed member rank(s) {missing} never arrived"
        )
        ctx.ready = True
        return True

    def _on_rank_death(self, world_rank: int) -> None:
        """Death hook: fail every in-flight collective missing the dead rank."""
        if not self.comm.group.contains_world(world_rank):
            return
        dead_rank = self.comm.group.rank_of_world(world_rank)
        for ctx in self._contexts.values():
            self._poison(ctx, [dead_rank])

    def fail_all(self, exc: BaseException) -> None:
        """Fail every in-flight collective with ``exc`` (comm revocation).

        Must be called with the giant lock held.  Contexts that already
        completed (``ready`` with no error) are left alone so departing
        ranks still pick up their result.
        """
        for ctx in self._contexts.values():
            if not ctx.ready:
                ctx.error = exc
                ctx.ready = True

    def _enter(self, rank: int, kind: str) -> tuple[int, _CollectiveContext]:
        idx = self._counters[rank]
        self._counters[rank] += 1
        ctx = self._contexts.get(idx)
        if ctx is None:
            ctx = _CollectiveContext(kind, self.comm.size)
            self._contexts[idx] = ctx
        elif ctx.kind != kind:
            raise InternalError(
                f"collective mismatch on {self.comm}: rank {rank} called {kind}, "
                f"others called {ctx.kind}"
            )
        return idx, ctx

    def run(
        self,
        rank: int,
        kind: str,
        contribution: Any,
        compute: Callable[[dict[int, Any]], Any],
    ) -> Any:
        """Generic rendezvous: deposit, wait for all, compute once, fetch.

        ``compute`` receives the rank→contribution map and returns the
        shared result object; per-rank extraction is the caller's job.
        """
        rt = self.comm.runtime
        rt.check_self_alive()
        self.comm._check_revoked()
        idx, ctx = self._enter(rank, kind)
        ctx.contributions[rank] = contribution
        ctx.arrived += 1
        if ctx.arrived == ctx.size:
            try:
                ctx.result = compute(ctx.contributions)
            except BaseException as exc:  # propagate to every participant
                ctx.error = exc
            ctx.ready = True
            rt.notify_progress()
        else:
            # quarantine: a failed member can never deposit, so fail the
            # whole collective with a typed error instead of hanging
            if rt.dead_ranks and self._poison(ctx, self._dead_members()):
                rt.notify_progress()
            rt.wait_for(lambda: ctx.ready)
        result, error = ctx.result, ctx.error
        ctx.departed += 1
        if ctx.departed == ctx.size:
            del self._contexts[idx]
        if error is not None:
            raise error
        self._charge(kind, contribution)
        return result

    # -- modeled time -----------------------------------------------------------
    def _charge(self, kind: str, contribution: Any) -> None:
        rt = self.comm.runtime
        if rt.timing is None:
            return
        nbytes = 0
        if isinstance(contribution, np.ndarray):
            nbytes = contribution.nbytes
        elif isinstance(contribution, tuple):
            nbytes = sum(
                c.nbytes for c in contribution if isinstance(c, np.ndarray)
            )
        cost = rt.timing.collective_cost(kind, nbytes, self.comm.size)
        from .runtime import current_proc

        proc = current_proc()
        proc.clock.advance(cost, kind=f"coll:{kind}", nbytes=nbytes)
        if kind in ("barrier", "allreduce", "allgather", "alltoall"):
            # synchronising collectives: every rank leaves at the common time
            latest = max(p.clock.now for p in rt.procs)
            proc.clock.sync_to(latest)


# ---------------------------------------------------------------------------
# Collective algorithms (invoked by Comm methods; giant lock held)
# ---------------------------------------------------------------------------


def barrier(comm, rank: int) -> None:
    comm._coll.run(rank, "barrier", None, lambda contrib: None)


def bcast(comm, rank: int, buf: np.ndarray, root: int) -> None:
    """In-place broadcast of a NumPy buffer from ``root``."""
    _check_root(comm, root)
    payload = np.ascontiguousarray(buf).copy() if rank == root else None
    data = comm._coll.run(
        rank, "bcast", payload, lambda contrib: contrib[root]
    )
    if rank != root:
        if buf.nbytes != data.nbytes:
            raise ArgumentError(
                f"bcast: rank {rank} buffer {buf.nbytes}B != root payload {data.nbytes}B"
            )
        buf.reshape(-1).view(np.uint8)[:] = data.reshape(-1).view(np.uint8)


def bcast_obj(comm, rank: int, obj: Any, root: int) -> Any:
    """Broadcast an arbitrary Python object (reference semantics)."""
    _check_root(comm, root)
    return comm._coll.run(
        rank, "bcast_obj", obj if rank == root else None, lambda c: c[root]
    )


def gather(comm, rank: int, sendobj: Any, root: int) -> "list[Any] | None":
    _check_root(comm, root)
    result = comm._coll.run(
        rank,
        "gather",
        sendobj,
        lambda c: [c[r] for r in range(comm.size)],
    )
    return result if rank == root else None


def allgather(comm, rank: int, sendobj: Any) -> list[Any]:
    return comm._coll.run(
        rank, "allgather", sendobj, lambda c: [c[r] for r in range(comm.size)]
    )


def scatter(comm, rank: int, sendobjs: "list[Any] | None", root: int) -> Any:
    _check_root(comm, root)
    if rank == root:
        if sendobjs is None or len(sendobjs) != comm.size:
            raise ArgumentError("scatter: root must supply one object per rank")
    result = comm._coll.run(
        rank, "scatter", sendobjs if rank == root else None, lambda c: c[root]
    )
    return result[rank]

def alltoall(comm, rank: int, sendobjs: list[Any]) -> list[Any]:
    """Each rank supplies one object per destination; returns one per source."""
    if len(sendobjs) != comm.size:
        raise ArgumentError("alltoall: need one object per rank")
    matrix = comm._coll.run(
        rank, "alltoall", list(sendobjs), lambda c: c
    )
    return [matrix[src][rank] for src in range(comm.size)]


def reduce(comm, rank: int, send: np.ndarray, op, root: int) -> "np.ndarray | None":
    _check_root(comm, root)
    op = mpi_ops.lookup(op)
    result = comm._coll.run(
        rank,
        "reduce",
        np.ascontiguousarray(send).copy(),
        lambda c: _tree_reduce(c, op, comm.size),
    )
    return result.copy() if rank == root else None


def allreduce(comm, rank: int, send: np.ndarray, op) -> np.ndarray:
    op = mpi_ops.lookup(op)
    result = comm._coll.run(
        rank,
        "allreduce",
        np.ascontiguousarray(send).copy(),
        lambda c: _tree_reduce(c, op, comm.size),
    )
    return result.copy()


def scan(comm, rank: int, send: np.ndarray, op) -> np.ndarray:
    """Inclusive prefix reduction."""
    op = mpi_ops.lookup(op)
    prefixes = comm._coll.run(
        rank,
        "scan",
        np.ascontiguousarray(send).copy(),
        lambda c: _prefix(c, op, comm.size, inclusive=True),
    )
    return prefixes[rank].copy()


def exscan(comm, rank: int, send: np.ndarray, op) -> "np.ndarray | None":
    """Exclusive prefix reduction; rank 0 receives None (undefined in MPI)."""
    op = mpi_ops.lookup(op)
    prefixes = comm._coll.run(
        rank,
        "exscan",
        np.ascontiguousarray(send).copy(),
        lambda c: _prefix(c, op, comm.size, inclusive=False),
    )
    res = prefixes[rank]
    return None if res is None else res.copy()


def _tree_reduce(contrib: dict[int, np.ndarray], op: mpi_ops.Op, size: int) -> np.ndarray:
    """Rank-ordered pairwise reduction (deterministic, MPI-canonical order)."""
    shapes = {contrib[r].shape for r in range(size)}
    if len(shapes) != 1:
        raise ArgumentError(f"reduce: mismatched buffer shapes across ranks: {shapes}")
    acc = contrib[0].copy()
    for r in range(1, size):
        acc = op.combine(acc, contrib[r])
    return acc


def _prefix(
    contrib: dict[int, np.ndarray], op: mpi_ops.Op, size: int, inclusive: bool
) -> "list[np.ndarray | None]":
    out: list[np.ndarray | None] = []
    acc: np.ndarray | None = None
    for r in range(size):
        if inclusive:
            acc = contrib[r].copy() if acc is None else op.combine(acc, contrib[r])
            out.append(acc.copy())
        else:
            out.append(None if acc is None else acc.copy())
            acc = contrib[r].copy() if acc is None else op.combine(acc, contrib[r])
    return out


def _check_root(comm, root: int) -> None:
    if not 0 <= root < comm.size:
        raise RankError(f"root {root} not in [0, {comm.size})")
