"""ARMCI over two-sided messaging: the data-server design (§IX).

Before this paper, the portable fallback in the ARMCI distribution ran a
*data server* on each node: a dedicated thread/process that owns the
node's shared memory and services read/write/accumulate requests sent as
two-sided messages.  §IX lists its costs — "consumption of a core,
bottlenecking on the data server, and two-sided messaging overheads such
as tag matching" — and contrasts it with the RMA-based design this
paper contributes.

This backend rebuilds that architecture for comparison on top of the
native engine (:class:`~repro.armci_native.NativeArmci`): every rank
owns a real server thread (not an SPMD rank) holding a request queue.
Each one-sided call becomes one request to the target's server carrying
the staged payload; the server runs the inherited applier (resolution,
range check, segment moves) and replies with the get data, the RMW's old
value or the exception.  The cost model charges two message latencies
plus a shared-memory staging copy per operation, and the server
serialises all requests against one slab — the §IX bottleneck,
observable.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import replace

import numpy as np

from ..armci_native.api import NativeArmci, _Op
from ..mpi.comm import Comm
from ..mpi.errors import ArgumentError
from ..mpi.runtime import current_proc
from ..simtime.netmodel import PathModel

#: host memcpy rate through the node's shared segment (every transfer is
#: staged — the server owns the memory)
STAGING_RATE = 4.0e9
#: the two-sided per-message cost (tag matching, request marshalling)
#: §IX names
MATCH_OVERHEAD = 1.5e-6


class _DataServer(threading.Thread):
    """The per-rank server thread owning this rank's slabs."""

    def __init__(self, rank: int, ds: "DataServerArmci"):
        super().__init__(name=f"armci-ds-server-{rank}", daemon=True)
        self.ds = ds
        self.requests: "queue.Queue[tuple[_Op, queue.Queue] | None]" = queue.Queue()
        self.served = 0

    def run(self) -> None:
        while (req := self.requests.get()) is not None:
            op, reply = req
            try:
                result = self.ds._apply(op)
            except BaseException as exc:  # deliver errors to the client
                result = exc
            self.served += 1
            reply.put(result)


class DataServerArmci(NativeArmci):
    """ARMCI on the data-server/two-sided design — the §IX predecessor."""

    def __init__(self, world: Comm, path: "PathModel | None"):
        super().__init__(world, path)
        self.servers = [_DataServer(r, self) for r in range(world.size)]
        for s in self.servers:
            s.start()

    def shutdown(self) -> None:
        """Collective: stop the server threads."""
        self.world.barrier()
        if self.world.rank == 0:
            for s in self.servers:
                s.requests.put(None)
        self.world.barrier()

    # -- cost model ---------------------------------------------------------------
    def _charge(self, kind: str, nbytes: int, nsegments: int = 1) -> None:
        """Request + response message latencies, staging copy, service time."""
        if self.path is None:
            return
        p = self.path
        t = 2 * p.latency + MATCH_OVERHEAD  # request + response + matching
        t += nbytes / p.wire_bw(nbytes)
        t += nbytes / STAGING_RATE  # host copy through the shared segment
        t += p.seg_overhead * max(nsegments, 1)  # per-request service cost
        if kind == "acc":
            t += nbytes / p.acc_rate
        current_proc().clock.advance(t, kind=f"ds:{kind}", nbytes=nbytes)

    # -- where the applier runs: one request to the target's server -------------------
    def _issue(self, op: _Op) -> "int | None":
        """Stage ``op``'s segments contiguously, have the target's server
        apply it, and scatter a get's reply into the caller's buffer."""
        n, k = op.n, len(op.addrs)
        staged = op
        if op.kind != "rmw":
            payload = np.empty(n * k, dtype=np.uint8)
            if op.kind != "get":
                for i, off in enumerate(op.offsets):
                    payload[i * n : (i + 1) * n] = op.local[off : off + n]
            staged = replace(op, local=payload, offsets=[i * n for i in range(k)])
        reply: queue.Queue = queue.Queue(maxsize=1)
        self.servers[op.rank].requests.put((staged, reply))
        # the reply queue blocks WITHOUT the runtime lock; server threads
        # are always live, so this cannot deadlock the SPMD watchdog
        result = reply.get()
        if isinstance(result, BaseException):
            raise result
        if op.kind == "get":
            for i, off in enumerate(op.offsets):
                op.local[off : off + n] = payload[i * n : (i + 1) * n]
        return result

    # -- synchronisation ----------------------------------------------------------------
    def fence(self, proc: int) -> None:
        if not 0 <= proc < self.nproc:
            raise ArgumentError(f"fence target {proc} out of range")
        # requests are serviced in order and replies awaited: nothing in flight

    def fence_all(self) -> None:
        pass

    def barrier(self) -> None:
        self.world.barrier()

    @property
    def requests_served(self) -> list[int]:
        """Per-server service counts (the §IX bottleneck, observable)."""
        return [s.served for s in self.servers]
