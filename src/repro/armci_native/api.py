"""Simulated "native" ARMCI — the baseline the paper compares against.

An implementation of the ARMCI surface used by GA that is *not* built
on MPI RMA: remote accesses go straight to the target's memory under
the runtime's giant lock (the shared-memory simulation of RDMA),
serialised only where the native runtime would serialise (host lock
words for mutex/RMW service).  Its performance is charged through the
platform's **native** :class:`~repro.simtime.netmodel.PathModel` — no
epoch lock/unlock costs, vendor-tuned strided engines — which is what
makes the Fig. 3/4/6 native-vs-MPI comparisons meaningful.

Every call goes through one engine: it is decoded into an :class:`_Op`
(equal-size segments between a local byte view and remote addresses on
one process), issued (:meth:`NativeArmci._issue`) and charged once.  The
issue step runs the one applier, :meth:`NativeArmci._apply`, which
resolves every remote segment to its slab and range-checks all of them
before any byte moves.  The §IX data-server stack
(:class:`repro.armci_ds.DataServerArmci`) is this class with the applier
run on the target's server thread instead of the caller's.

It doubles as a differential-testing oracle: tests run identical
workloads through :class:`repro.armci.Armci` and :class:`NativeArmci`
and require bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..armci.api import _as_flat_bytes, _iov_remote
from ..armci.gmr import NULL_ADDR, GlobalPtr
from ..armci.rmw import rmw_dtype
from ..armci.strided import StridedSpec, segment_displacements
from ..mpi.comm import Comm
from ..mpi.errors import ArgumentError
from ..mpi.runtime import current_proc
from ..simtime.netmodel import PathModel
from .server import HostLockTable

_VA_BASE = 0x1000


class NativeRegion:
    """One native allocation: slabs + base-address vector."""

    _next_id = 0

    def __init__(self, comm: Comm, slabs: list[np.ndarray], bases: list[int]):
        self.comm = comm
        self.slabs = slabs
        self.bases = bases
        self.region_id = NativeRegion._next_id
        NativeRegion._next_id += 1

    def contains(self, rank: int, addr: int) -> bool:
        base = self.bases[rank]
        return base != NULL_ADDR and base <= addr < base + self.slabs[rank].nbytes


@dataclass(frozen=True)
class _Op:
    """One decoded ARMCI call: ``n``-byte segments between ``local`` (at
    ``offsets``) and ``addrs`` on process ``rank``.  ``local`` is the
    put/acc source or the get destination; an RMW has one segment, the
    cell, and no local side."""

    kind: str  # "put" | "get" | "acc" | "rmw"
    rank: int
    addrs: list
    local: "np.ndarray | None"
    offsets: list
    n: int
    scale: float = 1.0
    dtype: "np.dtype | None" = None  # acc element type / RMW cell type
    rmw_op: str = ""
    value: int = 0


def _op(kind, rank, addrs, local, offsets, n, scale=1.0, dtype=None) -> _Op:
    """Validate the local side of a put/get/acc and build its :class:`_Op`
    (``n`` None: one segment, the whole local buffer)."""
    local = _as_flat_bytes(local)
    if n is None:
        n = local.nbytes
    offsets = [int(o) for o in offsets]
    addrs = [int(a) for a in addrs]
    if len(offsets) != len(addrs):
        raise ArgumentError(
            f"{len(offsets)} local vs {len(addrs)} remote segments"
        )
    if n < 0:
        raise ArgumentError(f"negative segment size {n}")
    for off in offsets:
        if off < 0 or off + n > local.nbytes:
            raise ArgumentError(
                f"a {n}-byte local segment at offset {off} leaves the "
                f"{local.nbytes}-byte local buffer"
            )
    if kind == "acc":
        dtype = np.dtype(dtype)
        if n % dtype.itemsize:
            raise ArgumentError(f"acc of {n} bytes is not a whole number of {dtype}")
    return _Op(kind, int(rank), addrs, local, offsets, n, scale, dtype)


class NativeArmci:
    """Native-ARMCI lookalike with the same call surface GA needs.

    ``path`` is the platform's native cost model; ``None`` disables
    modeled-time charging (functional tests).
    """

    def __init__(self, world: Comm, path: "PathModel | None"):
        self.world = world
        self.path = path
        self.regions: list[NativeRegion] = []
        self._va: dict[int, int] = {}
        self.locks = HostLockTable(world.runtime, nlocks=128, nhosts=world.size)

    @classmethod
    def init(cls, comm: Comm, path: "PathModel | None" = None) -> "NativeArmci":
        world = comm.dup()
        with world.runtime.cond:
            return world._coll.run(
                world.rank, "native_armci_init", None, lambda _c: cls(world, path)
            )

    @property
    def my_id(self) -> int:
        return self.world.rank

    @property
    def nproc(self) -> int:
        return self.world.size

    # -- time charging ------------------------------------------------------------
    def _charge(self, kind: str, nbytes: int, nsegments: int = 1) -> None:
        if self.path is not None:
            cost = self.path.xfer_time(kind, nbytes, nsegments)
            current_proc().clock.advance(cost, kind=f"native:{kind}", nbytes=nbytes)

    # -- memory -----------------------------------------------------------------------
    def malloc(self, nbytes: int) -> list[GlobalPtr]:
        """Collective allocation over the world group."""
        if nbytes < 0:
            raise ArgumentError(f"negative allocation {nbytes}")
        slab = np.zeros(nbytes, dtype=np.uint8)
        contrib = (self.world.rank, slab)

        def build(contribs: dict) -> NativeRegion:
            slabs = [None] * self.world.size
            bases = [NULL_ADDR] * self.world.size
            for _, (rank, s) in contribs.items():
                slabs[rank] = s
                if s.nbytes:
                    cursor = self._va.get(rank, _VA_BASE)
                    bases[rank] = (cursor + 63) & ~63
                    self._va[rank] = bases[rank] + s.nbytes
            region = NativeRegion(self.world, slabs, bases)
            self.regions.append(region)
            return region

        with self.world.runtime.cond:
            region = self.world._coll.run(
                self.world.rank, "native_malloc", contrib, build
            )
        return [GlobalPtr(r, region.bases[r]) for r in range(self.world.size)]

    def free(self, ptr: "GlobalPtr | None") -> None:
        """Collective free (native ARMCI has no NULL-slice protocol need:
        the region is identified via any member's pointer by reduction)."""
        vote = np.array(
            [self.world.rank if ptr is not None and not ptr.is_null else -1],
            dtype=np.int64,
        )
        leader = int(self.world.allreduce(vote, op="MPI_MAX")[0])
        if leader < 0:
            raise ArgumentError("native free: all members passed NULL")
        pair = (ptr.rank, ptr.addr) if self.world.rank == leader else None
        rank, addr = self.world.bcast_obj(pair, root=leader)
        region = self._find(rank, addr)

        def drop(_c) -> None:
            self.regions.remove(region)

        with self.world.runtime.cond:
            self.world._coll.run(self.world.rank, "native_free", None, drop)

    def _find(self, rank: int, addr: int) -> NativeRegion:
        if 0 <= rank < self.nproc:
            for region in self.regions:
                if region.contains(rank, addr):
                    return region
        raise ArgumentError(
            f"address {addr:#x} on process {rank} is not a native allocation"
        )

    def _resolve(self, rank: int, addrs: list, n: int) -> list:
        """``(slab, displacement)`` of every ``n``-byte segment at ``addrs``
        on ``rank``; ArgumentError unless each one fits in its slab."""
        out = []
        region = None
        for addr in addrs:
            if region is None or not region.contains(rank, addr):
                region = self._find(rank, addr)
            slab, disp = region.slabs[rank], addr - region.bases[rank]
            if disp + n > slab.nbytes:
                raise ArgumentError(
                    f"{n} bytes at {addr:#x} on process {rank} overrun the "
                    f"{slab.nbytes}-byte slice of native region {region.region_id}"
                )
            out.append((slab, disp))
        return out

    # -- the engine: issue a decoded op, apply it, charge it ---------------------------
    def _run(self, op: _Op) -> "int | None":
        if not op.addrs:
            return None
        result = self._issue(op)
        self._charge(op.kind, op.n * len(op.addrs), len(op.addrs))
        return result

    def _issue(self, op: _Op) -> "int | None":
        """Where the applier runs: native RDMA applies from the caller."""
        return self._apply(op)

    def _apply(self, op: _Op) -> "int | None":
        """Resolve and range-check every segment, then move the bytes (or
        update the RMW cell) under the runtime lock; returns the RMW's old
        value."""
        n, buf = op.n, op.local
        with self.world.runtime.cond:
            targets = self._resolve(op.rank, op.addrs, n)
            old = None
            if op.kind == "rmw":
                ((slab, disp),) = targets
                cell = slab[disp : disp + n].view(op.dtype)
                old = int(cell[0])
                if op.rmw_op.startswith("fetch_and_add"):
                    cell[0] = old + op.value
                else:
                    cell[0] = op.value
            for (slab, disp), off in zip(targets, op.offsets):
                if op.kind == "put":
                    slab[disp : disp + n] = buf[off : off + n]
                elif op.kind == "get":
                    buf[off : off + n] = slab[disp : disp + n]
                else:
                    tgt = slab[disp : disp + n].view(op.dtype)
                    tgt += op.dtype.type(op.scale) * buf[off : off + n].view(op.dtype)
            self.world.runtime.notify_progress()
        return old

    # -- contiguous ops ------------------------------------------------------------------
    def put(self, src: np.ndarray, dst: GlobalPtr, nbytes: "int | None" = None) -> None:
        self._run(_op("put", dst.rank, [dst.addr], src, [0], nbytes))

    def get(self, src: GlobalPtr, dst: np.ndarray, nbytes: "int | None" = None) -> None:
        self._run(_op("get", src.rank, [src.addr], dst, [0], nbytes))

    def acc(
        self,
        src: np.ndarray,
        dst: GlobalPtr,
        scale: float = 1.0,
        nbytes: "int | None" = None,
        dtype: "np.dtype | str | None" = None,
    ) -> None:
        arr = np.asarray(src)
        self._run(_op("acc", dst.rank, [dst.addr], arr, [0], nbytes, scale,
                      arr.dtype if dtype is None else dtype))

    # -- strided ops (vendor-tuned engine: one charged operation) -------------------------
    def put_s(self, src, src_strides, dst: GlobalPtr, dst_strides, count) -> None:
        self._strided("put", src, src_strides, dst, dst_strides, count)

    def get_s(self, src: GlobalPtr, src_strides, dst, dst_strides, count) -> None:
        self._strided("get", dst, dst_strides, src, src_strides, count)

    def acc_s(
        self, src, src_strides, dst: GlobalPtr, dst_strides, count,
        scale: float = 1.0, dtype="f8",
    ) -> None:
        self._strided("acc", src, src_strides, dst, dst_strides, count,
                      scale=scale, dtype=dtype)

    def _strided(
        self, kind, local, local_strides, remote: GlobalPtr, remote_strides, count,
        scale: float = 1.0, dtype=None,
    ) -> None:
        spec = StridedSpec.make(list(count), list(local_strides), list(remote_strides))
        ldisp, rdisp = [], []
        if spec.total_bytes:
            ldisp = segment_displacements(list(local_strides), list(count)).tolist()
            rdisp = segment_displacements(list(remote_strides), list(count)).tolist()
        addrs = [remote.addr + d for d in rdisp]
        self._run(_op(kind, remote.rank, addrs, local, ldisp, spec.seg_bytes,
                      scale, dtype))

    # -- IOV ---------------------------------------------------------------------------
    def putv(self, local, loc_offsets: Sequence[int], dst, seg_bytes: int) -> None:
        self._iov("put", local, loc_offsets, dst, seg_bytes)

    def getv(self, src, local, loc_offsets: Sequence[int], seg_bytes: int) -> None:
        self._iov("get", local, loc_offsets, src, seg_bytes)

    def accv(
        self, local, loc_offsets: Sequence[int], dst, seg_bytes: int,
        scale: float = 1.0, dtype="f8",
    ) -> None:
        self._iov("acc", local, loc_offsets, dst, seg_bytes, scale=scale, dtype=dtype)

    def _iov(self, kind, local, loc_offsets, remote, seg_bytes,
             scale: float = 1.0, dtype=None) -> None:
        rank, addrs = _iov_remote(remote)
        self._run(_op(kind, rank, addrs, local, loc_offsets, seg_bytes,
                      scale, dtype))

    # -- direct local access -----------------------------------------------------------
    def access_begin(
        self, ptr: GlobalPtr, nbytes: int, dtype: "np.dtype | str" = np.uint8
    ) -> np.ndarray:
        """A range-checked view of ``nbytes`` of the caller's own slab.
        No epoch: native memory is coherent."""
        if ptr.rank != self.my_id:
            raise ArgumentError(
                f"access_begin: pointer targets process {ptr.rank}, not the "
                f"calling process {self.my_id}"
            )
        dtype = np.dtype(dtype)
        if nbytes % dtype.itemsize:
            raise ArgumentError(
                f"access_begin: {nbytes} bytes is not a whole number of {dtype}"
            )
        ((slab, disp),) = self._resolve(ptr.rank, [ptr.addr], nbytes)
        return slab[disp : disp + nbytes].view(dtype)

    def access_end(self, ptr: GlobalPtr) -> None:
        """Nothing to publish: stores through the view are already visible."""

    # -- synchronisation -----------------------------------------------------------------
    def rmw(self, op: str, ptr: GlobalPtr, value: int) -> int:
        """Native RMW: serviced atomically by the target's CHT."""
        dtype = rmw_dtype(op)
        return self._run(_Op("rmw", ptr.rank, [ptr.addr], None, [], dtype.itemsize,
                             dtype=dtype, rmw_op=op, value=value))

    def lock(self, lock_id: int, host: int) -> None:
        self.locks.acquire(lock_id, host)
        self._charge("rmw", 1)

    def unlock(self, lock_id: int, host: int) -> None:
        self.locks.release(lock_id, host)
        self._charge("rmw", 1)

    def fence(self, proc: int) -> None:
        if not 0 <= proc < self.nproc:
            raise ArgumentError(f"fence target {proc} out of range")
        # native ARMCI may leave puts in flight; our simulation completes
        # them eagerly, so fence only charges its (small) protocol cost
        if self.path is not None:
            current_proc().clock.advance(self.path.latency, kind="native:fence")

    def fence_all(self) -> None:
        if self.path is not None:
            current_proc().clock.advance(self.path.latency, kind="native:fence")

    def barrier(self) -> None:
        self.fence_all()
        self.world.barrier()
