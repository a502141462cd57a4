"""ARMCI-MPI public API (§V): the ARMCI runtime implemented on MPI RMA.

This is the paper's contribution, assembled:

* allocation / free with the GMR translation table and §V-B leader
  election;
* contiguous put / get / accumulate, each in its own exclusive epoch
  (§V-C) unless an access-mode hint (§VIII-A) relaxes it;
* strided and IOV noncontiguous operations with the conservative /
  batched / direct / auto methods (§VI);
* mutexes (Latham queueing algorithm, §V-D), mutex-based RMW, and the
  native ``fetch_and_op`` RMW of the mpi3 datapath;
* direct local access (access_begin / access_end, §V-E);
* global-buffer staging (§V-E.1);
* location-consistent completion semantics with a no-op fence (§V-F).

Usage (SPMD function run under :func:`repro.mpi.spmd_run`)::

    from repro import mpi
    from repro.armci import Armci

    def main(comm):
        armci = Armci.init(comm)
        ptrs = armci.malloc(1024)
        armci.put(np.arange(4.0), ptrs[1])     # one-sided to process 1
        armci.barrier()
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from typing import Sequence

import numpy as np

from ..mpi import datatypes as dt
from ..mpi.comm import Comm
from ..mpi.errors import ArgumentError
from ..mpi.runtime import _tls, current_proc
from ..mpi.window import Win
from . import dla, iov, nbqueue, rmw, strided
from .access_modes import AccessMode
from .config import DEFAULT_CONFIG, ArmciConfig
from .gmr import GlobalPtr, Gmr, GmrTable
from .groups import ArmciGroup
from .mutexes import MutexSet
from .record import OpRecord, TraceEvent

#: public one-sided call -> the kind it counts as
_KIND_OF = {"rmw": "rmw"} | {
    op: kind
    for kind in ("put", "get", "acc")
    for op in (kind, kind + "_s", kind + "v", "nb_" + kind)
}


class NbHandle:
    """Handle for a nonblocking ARMCI operation.

    Two completion regimes share this class:

    * **eager (mpi2 datapath)** — the transfer happened at issue; only a
      staged-get write-back (``finish``) may remain.  ``test`` performs
      it (exactly once, however often it is polled) and reports True.
    * **deferred (mpi3 datapath)** — the operation sits in the
      :class:`~repro.armci.nbqueue.NbQueue` until a completion point;
      ``test`` reports the queue's real state without forcing it, and
      ``wait`` drains the target via ``waiter``.

    A failure recorded at drain time (``_fail``) is re-raised by every
    subsequent ``wait`` on this handle; ``kind``/``target`` identify the
    operation in aggregate errors (see :meth:`Armci.wait_all`).
    """

    __slots__ = ("kind", "target", "_finish", "_waiter", "_done", "_error")

    def __init__(self, finish=None, kind: str = "", target: int = -1, waiter=None):
        self._finish = finish
        self._waiter = waiter
        self._done = finish is None and waiter is None
        self._error: "BaseException | None" = None
        self.kind = kind
        self.target = target

    def _complete(self) -> None:
        """Run the completion callback exactly once and mark done."""
        if self._done:
            return
        self._done = True
        fin, self._finish = self._finish, None
        if fin is not None:
            fin()

    def _fail(self, exc: BaseException) -> None:
        self._done = True
        self._finish = None
        self._error = exc

    def test(self) -> bool:
        if self._done:
            return True
        if self._waiter is not None:
            return False  # still queued; only a drain completes it
        self._complete()
        return True

    def wait(self) -> None:
        if not self._done and self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            try:
                waiter()
            except Exception:
                # the drain surfaces its own first error; this handle's
                # failure (if it is the failing one) lands in _error
                if self._error is None:
                    raise
        if not self._done:
            self._complete()
        if self._error is not None:
            raise self._error


#: datapath modes selectable at :meth:`Armci.init`
DATAPATHS = ("mpi2", "mpi3")


class Armci:
    """One ARMCI-MPI runtime instance (shared object across rank threads)."""

    def __init__(
        self,
        world: Comm,
        config: ArmciConfig,
        strict: bool,
        datapath: str = "mpi2",
    ):
        if datapath not in DATAPATHS:
            raise ArgumentError(
                f"datapath must be one of {DATAPATHS}, got {datapath!r}"
            )
        self.world = world
        self.config = config
        self.strict = strict
        #: "mpi2" = one epoch per op (§V-C); "mpi3" = standing lock_all
        #: per GMR with per-target flush completion and the nb queue
        self.datapath = datapath
        #: internal name of ``mpi3``: ops complete by flush, not unlock
        self._flush_mode = datapath == "mpi3"
        #: world rank -> absolute ARMCI id, tabulated once (read on every op)
        self._id_of_world = {w: i for i, w in enumerate(world.group.members)}
        self.table = GmrTable()
        self.world_group = ArmciGroup(world, world)
        #: one op record per member, by ARMCI id; each written by its rank only
        self._records = [OpRecord(w) for w in world.group.members]
        #: whether any rank has switched its trace on (ops then read the
        #: clock at entry)
        self._tracing = False
        self._dla = dla.DlaState()
        self._gmr_mutexes: dict[int, MutexSet] = {}
        self._nbq = nbqueue.NbQueue(self)
        self._finalized = False

    @property
    def mpi3(self) -> bool:
        """Whether the windows expose the MPI-3 surface (lock_all/flush/fetch_op)."""
        return self._flush_mode

    # -- lifecycle -----------------------------------------------------------------
    @classmethod
    def init(
        cls,
        comm: Comm,
        config: ArmciConfig = DEFAULT_CONFIG,
        strict: bool = True,
        datapath: str = "mpi2",
    ) -> "Armci":
        """Collective initialisation; returns one shared runtime object.

        ``strict`` follows the simulated window's checking mode: ARMCI-MPI
        is designed to be correct under the strictest MPI-2 semantics, so
        leave it on except when modeling coherent-system shortcuts.

        ``datapath`` selects the completion discipline: ``"mpi2"`` is the
        paper's one-exclusive-epoch-per-op design (§V-C); ``"mpi3"``
        opens one ``lock_all`` per GMR at allocation and completes every
        operation with a per-target ``flush``, uses native
        ``fetch_and_op`` for RMW, and defers ``nb_*`` operations through
        the coalescing queue (§VIII-B / the "Quo Vadis" idiom).
        """
        if config.coherent_shortcut and strict:
            raise ArgumentError(
                "coherent_shortcut requires strict=False windows "
                "(it deliberately permits concurrent access, §V-E.1)"
            )
        world = comm.dup()
        with world.runtime.cond:
            return world._coll.run(
                world.rank,
                "armci_init",
                None,
                lambda _c: cls(world, config, strict, datapath),
            )

    def finalize(self) -> None:
        """Collective shutdown; frees all remaining allocations."""
        self.barrier()
        for gmr in list(self.table.gmrs):
            my = gmr.group.rank
            ptr = gmr.base_ptrs()[my]
            self.free(None if ptr.is_null else ptr, group=gmr.group)
        if self._flush_mode:
            # drained-queue-at-finalize invariant: every queue must be
            # empty now; leftovers are reported through the sanitizer
            self._nbq.audit_finalize()
        self._finalized = True

    @property
    def my_id(self) -> int:
        """Absolute ARMCI id of the calling process."""
        me = self._id_of_world.get(current_proc().rank)
        return self.world.rank if me is None else me  # (a non-member: its error)

    @property
    def nproc(self) -> int:
        return self.world.size

    # -- the op record -----------------------------------------------------------------
    @property
    def stats(self) -> OpRecord:
        """Counter totals over the ranks this process hosts (every rank on
        threads, its own on procs)."""
        return OpRecord.total(self._records)

    @property
    def record(self) -> OpRecord:
        """The calling rank's op record."""
        proc = getattr(_tls, "proc", None) or current_proc()
        return self._records[self._id_of_world[proc.rank]]

    def trace(self) -> OpRecord:
        """ARMCI_PROFILE: from now on the calling rank's record also keeps a
        :class:`~repro.armci.record.TraceEvent` per public one-sided call.
        Returns that record (``events``, ``summary_by_op``,
        ``traffic_matrix``, ``render``, ``clear``)."""
        rec = self.record
        if rec.events is None:
            rec.events = []
        self._tracing = True
        return rec

    def _record(self, op: str, target: int, nbytes: int, t0: float) -> None:
        """Record one public one-sided call of the calling rank, at its
        end: ``nbytes`` moved to or from ARMCI process ``target``, entered
        at modeled time ``t0`` (read only while tracing)."""
        proc = getattr(_tls, "proc", None) or current_proc()  # (self.record, inline)
        rec = self._records[self._id_of_world[proc.rank]]
        kind = _KIND_OF[op]
        if kind == "put":
            rec.puts += 1
            rec.bytes_put += nbytes
        elif kind == "get":
            rec.gets += 1
            rec.bytes_got += nbytes
        elif kind == "acc":
            rec.accs += 1
            rec.bytes_acc += nbytes
        else:
            rec.rmw_ops += 1
        if rec.events is not None:
            duration = proc.clock.now - t0
            rec.events.append(TraceEvent(rec.rank, op, target, nbytes, t0, duration))

    # -- memory management (§V-B) ---------------------------------------------------
    def malloc(
        self, nbytes: int, group: "ArmciGroup | None" = None
    ) -> list[GlobalPtr]:
        """Collective allocation; returns base pointers for every member.

        Zero-size requests yield NULL pointers, as §V-B describes.
        """
        if nbytes < 0:
            raise ArgumentError(f"negative allocation {nbytes}")
        group = group or self.world_group
        win, _ = Win.allocate(group.comm, nbytes, strict=self.strict, mpi3=self.mpi3)
        # the §V-D RMW mutex: only the mpi2 datapath's Armci.rmw locks it
        # (mpi3 runs fetch_and_op in the standing epoch, §VIII-B)
        mutex = None if self._flush_mode else MutexSet.create(group.comm, 1)
        my_abs = group.absolute_id(group.rank)
        contribution = (group.rank, my_abs, nbytes)

        def build(contrib: dict) -> Gmr:
            sizes = [0] * group.size
            bases = [0] * group.size
            for _, (grank, absid, n) in contrib.items():
                sizes[grank] = n
                bases[grank] = self.table.allocate_va(
                    absid, n, self.config.alignment
                )
            gmr = Gmr(win, group, bases, sizes)
            self.table.register(gmr)
            if mutex is not None:
                self._gmr_mutexes[gmr.gmr_id] = mutex
            return gmr

        with self.world.runtime.cond:
            gmr = group.comm._coll.run(group.rank, "armci_malloc", contribution, build)
        if self._flush_mode:
            # the standing epoch of the MPI-3 datapath: opened once per
            # member here, closed only at free (shared mode, so every
            # member's epoch coexists)
            gmr.win.lock_all()
        return gmr.base_ptrs()

    def free(self, ptr: "GlobalPtr | None", group: "ArmciGroup | None" = None) -> None:
        """Collective free with §V-B leader election.

        Members whose slice was zero-size pass ``None`` (NULL); a leader
        holding a non-NULL pointer is elected by a max-reduction on
        ranks, broadcasts its ``(leader id, address)`` pair, and every
        member resolves the same GMR from the translation table.
        """
        group = group or self.world_group
        has_ptr = ptr is not None and not ptr.is_null
        vote = np.array([group.rank if has_ptr else -1], dtype=np.int64)
        leader = int(group.comm.allreduce(vote, op="MPI_MAX")[0])
        if leader < 0:
            raise ArgumentError(
                "ARMCI_Free: every member passed NULL; nothing identifies "
                "the allocation"
            )
        pair = (ptr.rank, ptr.addr) if group.rank == leader else None
        leader_abs, addr = group.comm.bcast_obj(pair, root=leader)
        gmr = self.table.lookup(leader_abs, addr)
        if gmr is None:
            raise ArgumentError(
                f"ARMCI_Free: address {addr:#x} on process {leader_abs} is "
                "not an active allocation"
            )
        if has_ptr and self.table.lookup_ptr(ptr) is not gmr:
            raise ArgumentError(
                f"ARMCI_Free: {ptr} does not belong to the allocation being "
                f"freed (GMR {gmr.gmr_id})"
            )
        # Abort consistency: the window free and the translation-table
        # unregister commit in ONE collective compute step (Win.free_with).
        # If a member dies before the rendezvous completes, the collective
        # fails typed on every survivor and *neither* happens — the GMR
        # stays registered, the window stays usable, and a later retry or
        # finalize sees consistent state.
        def drop():
            self.table.unregister(gmr)
            gmr.freed = True
            return self._gmr_mutexes.pop(gmr.gmr_id, None)

        if self._flush_mode:
            # complete anything still queued, then close the standing
            # epoch: Win.free refuses while access epochs are open, and
            # the free_with rendezvous guarantees every member has
            # reached this point (hence unlocked) before the window dies
            self._nbq.drain_gmr(gmr)
            gmr.win.unlock_all()
            try:
                mutex = gmr.win.free_with(drop)
            except BaseException:
                # abort consistency: the window survived (e.g. a typed
                # collective failure) — restore the standing epoch so
                # the GMR stays usable for retry / recovery
                try:
                    gmr.win.lock_all()
                except Exception:
                    pass  # window already invalidated; original error wins
                raise
        else:
            mutex = gmr.win.free_with(drop)
        if mutex is not None:
            mutex.destroy()

    # -- the one transfer path (§V-A, §V-E.1, §V-C, §VI) ------------------------------
    def _check_mode(self, gmr: Gmr, kind: str) -> None:
        """§VIII-A access-mode gate."""
        if gmr.access_mode.allows(kind):
            return
        san = self.world.runtime.sanitizer
        if san is not None:
            san.report(
                "access-mode", self.my_id, kind, -1, gmr.win.win_id,
                f"{kind} on GMR {gmr.gmr_id} violates declared access mode "
                f"{gmr.access_mode.value}",
            )
        raise ArgumentError(
            f"{kind} on GMR {gmr.gmr_id} violates access mode "
            f"{gmr.access_mode.value} (§VIII-A)"
        )

    def _target(self, ptr: GlobalPtr, kind: "str | None") -> tuple[Gmr, int, int]:
        """§V-A: ``<proc, addr>`` -> ``(gmr, window rank, displacement)``.

        ``kind`` is the operation the pointer is the *remote* side of and
        is held to the GMR's access mode; a local side passes None.
        """
        gmr = self.table.require(ptr)
        if kind is not None and gmr.access_mode is not AccessMode.DEFAULT:
            self._check_mode(gmr, kind)  # (DEFAULT promises nothing: any op goes)
        win_rank, disp = gmr.displacement(ptr)
        return gmr, win_rank, disp

    def _local_bytes(self, buf: "np.ndarray | GlobalPtr", nbytes: int) -> np.ndarray:
        """Flat byte view of the ``nbytes`` a contiguous op's local side names."""
        if isinstance(buf, GlobalPtr):
            gmr, win_rank, disp = self._target(buf, None)
            if win_rank != gmr.group.rank:
                raise ArgumentError(
                    f"{buf} is not local to the calling process (use put/get instead)"
                )
            view = gmr.win.exposed_buffer(win_rank)[disp:]
            if view.nbytes < nbytes:
                raise ArgumentError(f"{buf}+{nbytes}B runs past the local allocation")
        else:
            view = _as_flat_bytes(buf)
            if view.nbytes < nbytes:
                raise ArgumentError(
                    f"local buffer of {view.nbytes}B is smaller than the "
                    f"{nbytes}B transfer"
                )
        return view[:nbytes]

    def _stage(
        self, kind: str, local: np.ndarray, origin_t: "dt.Datatype | None" = None, count: int = 1
    ):
        """§V-E.1: ``(data, writeback)`` to communicate through in place of ``local``.

        A local buffer that is itself global memory cannot be touched
        inside the target's epoch: locking its window too is a double lock
        (same window) or a deadlock-prone lock order (another one), and an
        unlocked access conflicts with remote ones.  So it is staged —
        put/acc copy it out under :meth:`_stage_epoch` first, and a get
        lands in a temporary that ``writeback`` copies in afterwards,
        touching only the bytes of ``count`` instances of layout
        ``origin_t`` (None = all of ``local``).  A buffer that needs no
        staging — any other, or every one under ``config.coherent_shortcut``
        — comes back as itself.
        """
        if self.config.coherent_shortcut:
            return local, None
        me = self.my_id
        gmr = self.table.find_local_buffer(me, local)
        if gmr is None:
            return local, None
        rec = self._records[me]
        my_rank = gmr.group.rank
        if kind != "get":
            with self._stage_epoch(gmr, my_rank):
                temp = local.copy()
            rec.staged_copies += 1
            return temp, None
        temp = np.zeros_like(local)

        def writeback() -> None:
            with self._stage_epoch(gmr, my_rank):
                if origin_t is None:
                    local[...] = temp
                else:
                    omap = origin_t.segment_map(count)
                    omap.copy_from(local, omap, temp)
            rec.staged_copies += 1

        return temp, writeback

    @contextmanager
    def _stage_epoch(self, gmr: Gmr, my_rank: int):
        """Self-access discipline for a §V-E.1 staging copy.

        mpi2: the exclusive self-lock the paper prescribes.  mpi3: the
        standing lock_all epoch already grants unified-model local
        access; completing queued/outstanding ops to self with a flush
        before touching the slab is all the ordering needed.
        """
        if self._flush_mode:
            self._nbq.drain(gmr, my_rank)
            gmr.win.flush(my_rank)
            yield
        else:
            gmr.win.lock(my_rank, "exclusive")
            try:
                yield
            finally:
                gmr.win.unlock(my_rank)

    @staticmethod
    def _contribution(data, origin_t, scale, acc_dtype, snapshot=False, count=1) -> np.ndarray:
        """An accumulate's contiguous, typed, scaled contribution (§V-F:
        the origin scales, MPI sums) from ``count`` instances of
        ``origin_t``; never writes ``data``.

        A contiguous origin packs to a view of ``data`` (the window copies
        it if it aliases the target), so ``scale == 1`` costs no pass and
        scaling costs one; a noncontiguous origin is scaled in its packed
        copy.  ``snapshot`` forces a private copy even when no scaling made
        one (a queued op must not see later writes to the user's buffer).
        """
        packed = data if origin_t is None else origin_t.pack(data, count, copy=False)
        packed = packed.view(acc_dtype)
        if scale == 1.0 and not snapshot:
            return packed
        private = not np.may_share_memory(packed, data)  # pack already copied
        if scale != 1.0:
            return np.multiply(packed, acc_dtype.type(scale), out=packed if private else None)
        return packed if private else packed.copy()

    def _in_epoch(self, gmr: Gmr, win_rank: int, kind: str, issue, *args) -> None:
        """Step 4, the completion discipline of one blocking operation:
        ``issue(*args)`` — its :meth:`_issue` calls — complete on return
        (``issue`` takes ``flush=True`` to complete them itself).

        mpi2: the §V-C pattern — a lock/unlock epoch of its own, shared
        where the GMR's access mode (§VIII-A) permits ``kind`` to be.  One
        :meth:`_issue` call (``issue`` is it) takes its epoch along,
        ``lock=mode``: lock, op and unlock are one window transaction
        (see ``Win._move``); several calls share a ``lock``/``unlock``.
        mpi3: drain queued nb ops to the target (per-location program
        order; at once while none are queued), then ``issue(*args,
        flush=True)`` into the GMR's standing ``lock_all`` epoch: the op
        completes itself as a per-target ``flush`` would (one window
        transaction, see ``Win._move``).
        """
        if self._flush_mode:
            self._nbq.drain(gmr, win_rank)
            issue(*args, flush=True)
            return
        mode = gmr.access_mode.lock_mode(kind)
        if issue is self._issue:
            issue(*args, lock=mode)
            return
        win = gmr.win
        win.lock(win_rank, mode)
        try:
            issue(*args)
        finally:
            win.unlock(win_rank)

    @staticmethod
    def _issue(
        win: Win, kind, data, win_rank, disp, origin_t=None, target_t=None, count=1,
        flush=False, lock=None,
    ) -> None:
        """The one place ARMCI-MPI calls MPI RMA on a GMR window (epoch NOT
        managed, unless ``lock`` names the mode of one of its own;
        ``flush``: the op completes before returning); the datatypes
        default to contiguous bytes / elements, and ``count`` instances of
        each side's move (a strided op's outermost count).  The arguments
        are positional, in the window's (target datatype, target count,
        origin datatype, origin count) order: this is every op's call."""
        if kind == "put":
            win.put(data, win_rank, disp, target_t, count, origin_t, count, flush=flush, lock=lock)
        elif kind == "get":
            win.get(data, win_rank, disp, target_t, count, origin_t, count, flush=flush, lock=lock)
        else:
            win.accumulate(
                data, win_rank, disp, "MPI_SUM", target_t, count, origin_t, count,
                flush=flush, lock=lock,
            )

    def _transfer(
        self,
        kind: str,
        gmr: Gmr,
        win_rank: int,
        disp: int,
        local: np.ndarray,
        origin_t: "dt.Datatype | None" = None,
        target_t: "dt.Datatype | None" = None,
        scale: float = 1.0,
        acc_dtype: "np.dtype | None" = None,
        count: int = 1,
    ) -> None:
        """One blocking ARMCI data movement against a resolved target:
        stage (§V-E.1) -> contribution -> epoch (§V-C) -> MPI RMA -> write-back.

        §VI's methods differ only in the datatype pair (None = contiguous),
        moved ``count`` times, and in how many :meth:`_issue` calls share
        an epoch.
        """
        data, writeback = self._stage(kind, local, origin_t, count)
        if kind == "acc" and (scale != 1.0 or target_t is None):
            # (unscaled into a typed target layout, the window packs the
            # origin through origin_t itself: no second pass over it here)
            data = self._contribution(data, origin_t, scale, acc_dtype, count=count)
            origin_t = None
        self._in_epoch(
            gmr, win_rank, kind,
            self._issue, gmr.win, kind, data, win_rank, disp, origin_t, target_t, count,
        )
        if writeback is not None:
            writeback()

    # -- contiguous one-sided operations (§V-C, §V-F) ---------------------------------
    def put(
        self, src: "np.ndarray | GlobalPtr", dst: GlobalPtr, nbytes: "int | None" = None
    ) -> None:
        """Contiguous one-sided put; complete (locally and remotely) on return."""
        t0 = self._tracing and current_proc().clock.now
        if nbytes is None:
            nbytes = _infer_nbytes(src)
        gmr, win_rank, disp = self._target(dst, "put")
        self._transfer("put", gmr, win_rank, disp, self._local_bytes(src, nbytes))
        self._record("put", dst.rank, nbytes, t0)

    def get(
        self, src: GlobalPtr, dst: "np.ndarray | GlobalPtr", nbytes: "int | None" = None
    ) -> None:
        """Contiguous one-sided get; data is in ``dst`` on return."""
        t0 = self._tracing and current_proc().clock.now
        if nbytes is None:
            nbytes = _infer_nbytes(dst)
        gmr, win_rank, disp = self._target(src, "get")
        self._transfer("get", gmr, win_rank, disp, self._local_bytes(dst, nbytes))
        self._record("get", src.rank, nbytes, t0)

    def acc(
        self,
        src: "np.ndarray | GlobalPtr",
        dst: GlobalPtr,
        scale: float = 1.0,
        nbytes: "int | None" = None,
        dtype: "np.dtype | str | None" = None,
    ) -> None:
        """Accumulate ``dst += scale * src`` element-wise (ARMCI ACC_DBL & co).

        The origin scales its contribution and ARMCI-MPI issues an
        ``MPI_SUM`` accumulate, the mapping §V-F relies on.  Atomic
        element-wise with respect to other accumulates of the same type.
        """
        t0 = self._tracing and current_proc().clock.now
        dtype, nbytes = _acc_args(src, nbytes, dtype)
        gmr, win_rank, disp = self._target(dst, "acc")
        self._transfer(
            "acc", gmr, win_rank, disp, self._local_bytes(src, nbytes),
            scale=scale, acc_dtype=dtype,
        )
        self._record("acc", dst.rank, nbytes, t0)

    # -- nonblocking variants ------------------------------------------------------
    def nb_put(self, src, dst: GlobalPtr, nbytes: "int | None" = None) -> NbHandle:
        """Nonblocking put.

        mpi2: completes eagerly (§V-C leaves nothing to defer).
        mpi3: the contribution is snapshotted and queued; the target is
        untouched until a completion point drains the queue.
        """
        t0 = self._tracing and current_proc().clock.now
        if nbytes is None:
            nbytes = _infer_nbytes(src)
        gmr, win_rank, disp = self._target(dst, "put")
        local = self._local_bytes(src, nbytes)
        if self._flush_mode:
            data, _ = self._stage("put", local)
            if data is local:  # not staged: snapshot it here
                data = local.copy()
            handle = self._nbq.enqueue("put", gmr, win_rank, disp, data)
        else:
            self._transfer("put", gmr, win_rank, disp, local)
            handle = NbHandle(kind="put", target=dst.rank)
        self._record("nb_put", dst.rank, nbytes, t0)
        return handle

    def nb_get(self, src: GlobalPtr, dst, nbytes: "int | None" = None) -> NbHandle:
        """Nonblocking get: the destination buffer is valid after wait().

        mpi2: the transfer is performed here (it completes eagerly in
        this substrate), but when the destination is global memory the
        §V-E.1 write-back is deferred to wait()/test(), so peeking early
        shows stale data — same contract as real ARMCI.
        mpi3: the whole operation is queued; the destination fills when
        the queue drains.
        """
        t0 = self._tracing and current_proc().clock.now
        if nbytes is None:
            nbytes = _infer_nbytes(dst)
        gmr, win_rank, disp = self._target(src, "get")
        data, writeback = self._stage("get", self._local_bytes(dst, nbytes))
        if self._flush_mode:
            handle = self._nbq.enqueue("get", gmr, win_rank, disp, data, writeback)
        else:
            self._in_epoch(gmr, win_rank, "get", self._issue, gmr.win, "get", data, win_rank, disp)
            handle = NbHandle(finish=writeback, kind="get", target=src.rank)
        self._record("nb_get", src.rank, nbytes, t0)
        return handle

    def nb_acc(
        self, src, dst: GlobalPtr, scale: float = 1.0,
        nbytes: "int | None" = None, dtype=None,
    ) -> NbHandle:
        """Nonblocking accumulate; deferred and coalescible under mpi3."""
        t0 = self._tracing and current_proc().clock.now
        dtype, nbytes = _acc_args(src, nbytes, dtype)
        gmr, win_rank, disp = self._target(dst, "acc")
        local = self._local_bytes(src, nbytes)
        if self._flush_mode:
            data, _ = self._stage("acc", local)
            contrib = self._contribution(data, None, scale, dtype, snapshot=True)
            handle = self._nbq.enqueue("acc", gmr, win_rank, disp, contrib)
        else:
            self._transfer("acc", gmr, win_rank, disp, local, scale=scale, acc_dtype=dtype)
            handle = NbHandle(kind="acc", target=dst.rank)
        self._record("nb_acc", dst.rank, nbytes, t0)
        return handle

    @staticmethod
    def wait(handle: NbHandle) -> None:
        handle.wait()

    @staticmethod
    def wait_all(handles: Sequence[NbHandle]) -> None:
        """Complete every handle; no failure is silently dropped.

        All handles are waited even when an early one fails; the *first*
        failure is then re-raised, annotated with its op kind/target and
        the count of additional failed handles.
        """
        failures: list[tuple[NbHandle, BaseException]] = []
        for h in handles:
            try:
                h.wait()
            except Exception as exc:
                failures.append((h, exc))
        if failures:
            h0, exc0 = failures[0]
            more = (
                f" (+{len(failures) - 1} more failed handles)"
                if len(failures) > 1
                else ""
            )
            note = f"wait_all: nb_{h0.kind or 'op'} to target {h0.target} failed{more}"
            if hasattr(exc0, "add_note"):
                exc0.add_note(note)
            raise exc0

    # -- completion / consistency (§V-F) ----------------------------------------------
    def fence(self, proc: int) -> None:
        """Remote completion for one target.

        mpi2: a no-op — every operation is issued in its own epoch and
        has completed remotely when it returned (§V-F), so Fence has
        nothing to wait for; the paper's exact argument.
        mpi3: drains this origin's queued nb ops addressed to ``proc``
        (blocking ops still complete at their own per-op flush).
        """
        if not 0 <= proc < self.nproc:
            raise ArgumentError(f"fence target {proc} not in [0, {self.nproc})")
        if self._flush_mode:
            self._nbq.drain_target(proc)
        self.record.fences += 1

    def fence_all(self) -> None:
        """Remote completion for all targets (mpi2: a no-op, §V-F)."""
        if self._flush_mode:
            self._nbq.drain_all()
        self.record.fences += 1

    def barrier(self) -> None:
        """ARMCI_Barrier: fence to all targets + process barrier."""
        self.fence_all()
        self.world.barrier()

    # -- strided operations (§VI-C) ------------------------------------------------
    def put_s(
        self,
        src: np.ndarray,
        src_strides: Sequence[int],
        dst: GlobalPtr,
        dst_strides: Sequence[int],
        count: Sequence[int],
    ) -> None:
        """ARMCI_PutS: strided put (Table I notation; byte strides/counts)."""
        self._strided_op("put_s", src, src_strides, dst, dst_strides, count)

    def get_s(
        self,
        src: GlobalPtr,
        src_strides: Sequence[int],
        dst: np.ndarray,
        dst_strides: Sequence[int],
        count: Sequence[int],
    ) -> None:
        """ARMCI_GetS: strided get."""
        # note: for get, the REMOTE side is src; local strides are dst's
        self._strided_op("get_s", dst, dst_strides, src, src_strides, count)

    def acc_s(
        self,
        src: np.ndarray,
        src_strides: Sequence[int],
        dst: GlobalPtr,
        dst_strides: Sequence[int],
        count: Sequence[int],
        scale: float = 1.0,
        dtype: "np.dtype | str" = "f8",
    ) -> None:
        """ARMCI_AccS: strided accumulate (dst += scale * src per element)."""
        self._strided_op(
            "acc_s", src, src_strides, dst, dst_strides, count,
            scale=scale, acc_dtype=np.dtype(dtype),
        )

    def _strided_op(
        self,
        op: str,
        local: np.ndarray,
        local_strides: Sequence[int],
        remote: GlobalPtr,
        remote_strides: Sequence[int],
        count: Sequence[int],
        scale: float = 1.0,
        acc_dtype: "np.dtype | None" = None,
    ) -> None:
        t0 = self._tracing and current_proc().clock.now
        kind = _KIND_OF[op]
        # step 0: the compiled descriptor — validation, sizes and (for the
        # direct method) both sides' outer-unit datatypes, derived once per
        # patch width; the outermost count n is the MPI count
        direct = self.config.strided_method != "iov"
        local_strides, remote_strides, count = (
            tuple(local_strides), tuple(remote_strides), tuple(count)
        )
        total, span, origin_t, target_t, n = strided.compiled_strided_op(
            local_strides, remote_strides, count, acc_dtype, direct
        )
        if total == 0:
            return
        local_view = _as_flat_bytes(local)
        if local_view.nbytes < span:
            raise ArgumentError(
                f"local buffer of {local_view.nbytes}B cannot hold the "
                f"{span}B strided footprint"
            )
        local_view = local_view[:span]
        if not direct:
            self._iov_op(
                kind, local_view, strided.segment_displacements(local_strides, count),
                remote.rank, remote.addr + strided.segment_displacements(remote_strides, count),
                count[0], scale=scale, acc_dtype=acc_dtype,
            )
        else:  # one op, n outer units of one datatype per side (§VI-C)
            gmr, win_rank, disp = self._target(remote, kind)
            self._transfer(
                kind, gmr, win_rank, disp, local_view, origin_t, target_t, scale, acc_dtype, n
            )
        self._record(op, remote.rank, total, t0)

    # -- IOV operations (§VI-A) ------------------------------------------------------
    def putv(
        self,
        local: np.ndarray,
        loc_offsets: Sequence[int],
        dst: "Sequence[GlobalPtr] | tuple[int, np.ndarray]",
        seg_bytes: int,
        method: "str | None" = None,
    ) -> None:
        """ARMCI_PutV: scatter equal-size segments to one remote process."""
        t0 = self._tracing and current_proc().clock.now
        rank, addrs = _iov_remote(dst)
        nbytes = self._iov_op(
            "put", _as_flat_bytes(local), np.asarray(loc_offsets, dtype=np.int64),
            rank, addrs, seg_bytes, method=method,
        )
        self._record("putv", rank, nbytes, t0)

    def getv(
        self,
        src: "Sequence[GlobalPtr] | tuple[int, np.ndarray]",
        local: np.ndarray,
        loc_offsets: Sequence[int],
        seg_bytes: int,
        method: "str | None" = None,
    ) -> None:
        """ARMCI_GetV: gather equal-size segments from one remote process."""
        t0 = self._tracing and current_proc().clock.now
        rank, addrs = _iov_remote(src)
        nbytes = self._iov_op(
            "get", _as_flat_bytes(local), np.asarray(loc_offsets, dtype=np.int64),
            rank, addrs, seg_bytes, method=method,
        )
        self._record("getv", rank, nbytes, t0)

    def accv(
        self,
        local: np.ndarray,
        loc_offsets: Sequence[int],
        dst: "Sequence[GlobalPtr] | tuple[int, np.ndarray]",
        seg_bytes: int,
        scale: float = 1.0,
        dtype: "np.dtype | str" = "f8",
        method: "str | None" = None,
    ) -> None:
        """ARMCI_AccV: accumulate equal-size segments into one remote process."""
        t0 = self._tracing and current_proc().clock.now
        rank, addrs = _iov_remote(dst)
        nbytes = self._iov_op(
            "acc", _as_flat_bytes(local), np.asarray(loc_offsets, dtype=np.int64),
            rank, addrs, seg_bytes,
            scale=scale, acc_dtype=np.dtype(dtype), method=method,
        )
        self._record("accv", rank, nbytes, t0)

    def _iov_op(
        self,
        kind: str,
        local_view: np.ndarray,
        loc_offsets: np.ndarray,
        rank: int,
        rem_addrs: np.ndarray,
        seg_bytes: int,
        scale: float = 1.0,
        acc_dtype: "np.dtype | None" = None,
        method: "str | None" = None,
    ) -> int:
        """One IOV op, recorded by its caller: returns the bytes it moved,
        tallied here under the IOV method that moved them."""
        req = iov.IovRequest(  # validates the descriptor
            kind=kind, local=local_view,
            loc_offsets=np.asarray(loc_offsets, dtype=np.int64),
            rank=rank, rem_addrs=np.asarray(rem_addrs, dtype=np.int64),
            seg_bytes=seg_bytes, acc_dtype=acc_dtype,
        )
        # the local layout: what a staged get writes back through and an
        # accumulate packs through (a put is copied out whole, it needs none)
        origin_t = (
            None if kind == "put"
            else iov._hindexed_cached(seg_bytes, req.loc_offsets, dt.BYTE)
        )
        nsegments = req.nsegments
        data, writeback = self._stage(kind, local_view, origin_t)
        if kind == "acc":
            # packed: segment i of the contribution sits at i * seg_bytes
            data = self._contribution(data, origin_t, scale, acc_dtype).view(np.uint8)
            packed_at = seg_bytes * np.arange(nsegments, dtype=np.int64)
            req = replace(req, local=data, loc_offsets=packed_at)
        elif data is not local_view:
            req = replace(req, local=data)
        method = iov.execute(self, req, method=method)
        if writeback is not None:
            writeback()
        if method is not None:
            tallies = self.record.iov_ops
            tally = tallies.get(method)
            if tally is None:
                tally = tallies[method] = [0, 0, 0]
            tally[0] += 1
            tally[1] += nsegments
            tally[2] += nsegments * seg_bytes
        return nsegments * seg_bytes

    # -- synchronisation objects (§V-D) -------------------------------------------
    def create_mutexes(self, count: int) -> MutexSet:
        """Collective: create ``count`` mutexes hosted on every process."""
        return MutexSet.create(self.world, count)

    def rmw(self, op: str, ptr: GlobalPtr, value: int) -> int:
        """ARMCI_Rmw: atomic fetch-and-add / swap; returns the old value.

        mpi3 datapath: a single native ``fetch_and_op`` inside the
        standing lock_all epoch, completed by one flush — no mutex, no
        epochs (§VIII-B).  mpi2 uses the §V-D mutex protocol.
        """
        t0 = self._tracing and current_proc().clock.now
        dtype = rmw.rmw_dtype(op)
        old = (rmw.rmw_flush if self._flush_mode else rmw.rmw_mutex_based)(
            self, op, dtype, ptr, value
        )
        self._record("rmw", ptr.rank, dtype.itemsize, t0)
        return old

    # -- direct local access (§V-E) ----------------------------------------------
    def access_begin(
        self, ptr: GlobalPtr, nbytes: int, dtype: "np.dtype | str" = np.uint8
    ) -> np.ndarray:
        """ARMCI_Access_begin: exclusive direct access to local global data."""
        return dla.access_begin(self, ptr, nbytes, dtype)

    def access_end(self, ptr: GlobalPtr) -> None:
        """ARMCI_Access_end: release direct access."""
        dla.access_end(self, ptr)

    # -- access-mode hints (§VIII-A) ------------------------------------------------
    def set_access_mode(self, ptr: GlobalPtr, mode: AccessMode) -> None:
        """Collective (over the GMR's group) access-mode change.

        Implies a barrier so no pre-change operation can race a
        post-change one.
        """
        gmr = self.table.require(ptr)

        def apply(_c) -> None:
            gmr.access_mode = mode

        with self.world.runtime.cond:
            gmr.group.comm._coll.run(gmr.group.rank, "armci_mode", None, apply)
        gmr.group.comm.barrier()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Armci nproc={self.nproc} gmrs={len(self.table)}>"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _infer_nbytes(buf) -> int:
    if isinstance(buf, GlobalPtr):
        raise ArgumentError("nbytes is required when the local side is a GlobalPtr")
    return int(np.asarray(buf).nbytes)


def _acc_args(src, nbytes: "int | None", dtype) -> tuple[np.dtype, int]:
    """A contiguous accumulate's element type and byte count, validated."""
    if dtype is None:
        if isinstance(src, GlobalPtr):
            raise ArgumentError("acc from a global pointer requires dtype=")
        dtype = np.asarray(src).dtype
    dtype = np.dtype(dtype)
    if nbytes is None:
        nbytes = _infer_nbytes(src)
    if nbytes % dtype.itemsize:
        raise ArgumentError(
            f"acc of {nbytes} bytes is not a whole number of {dtype}"
        )
    return dtype, nbytes


#: a local buffer as flat bytes (GA's strided local side already is)
_as_flat_bytes = partial(dt.flat_bytes, not_contiguous="ARMCI local buffers must be C-contiguous")


def _iov_remote(dst) -> tuple[int, np.ndarray]:
    """Normalise the remote side of an IOV call to (rank, address array)."""
    if isinstance(dst, tuple) and len(dst) == 2 and not isinstance(dst[0], GlobalPtr):
        rank, addrs = dst
        return int(rank), np.asarray(addrs, dtype=np.int64)
    ptrs = list(dst)
    if not ptrs:
        return 0, np.zeros(0, dtype=np.int64)
    rank = ptrs[0].rank
    for p in ptrs:
        if p.rank != rank:
            raise ArgumentError(
                "IOV operations target a single process; got pointers to "
                f"both {rank} and {p.rank}"
            )
    return rank, np.array([p.addr for p in ptrs], dtype=np.int64)

