"""MPI RMA windows with passive-target synchronization (MPI-2 + gated MPI-3).

:class:`Win` keeps each window's locks and open epochs, moves the data
and applies the access rules (§III, §V) that :mod:`repro.mpi.rma_rules`
lists, most of them as that module's pure functions.

**Get results are delivered at completion.**  Within an epoch all ops
are logically concurrent; a get's data lands in the user buffer only
when the get completes — at ``unlock``, ``flush`` or request ``wait`` —
so code that peeks earlier observes stale bytes, deliberately, to flush
out completion-semantics bugs.  A put/get/accumulate/fetch_and_op
issued with ``flush=True`` completes before it returns, as if
``flush(target)`` followed it, so its get lands in the buffer at once.
A put/get/accumulate issued with ``lock=LOCK_SHARED|LOCK_EXCLUSIVE``
runs in an epoch of its own, as ``lock(target, mode)``, the op and
``unlock(target)`` would (the MPI-2 pattern of §V-C); it completes
before it returns too.  Both are one window transaction on a plain
runtime (see ``Win._move``).

MPI-3 extensions (``flush``, ``lock_all`` epochless mode, request-based
``rput``/``rget``, ``fetch_and_op``, ``compare_and_swap``) are implemented
but **gated** behind ``mpi3=True``: §VIII-B of the paper motivates exactly
these features, and the ablation benchmark quantifies their benefit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from . import datatypes as dt
from . import ops as mpi_ops
from . import rma_rules as rules
from .comm import Comm
from .errors import (
    ArgumentError,
    CommRevokedError,
    OpTimeoutError,
    RMAConflictError,
    RMARangeError,
    RMASyncError,
    TargetFailedError,
    WinError,
)
from .rma_rules import FENCE, LOCK_ALL, RMW, Accesses, Finding
from .runtime import _tls, current_proc

__all__ = [
    "Win",
    "LOCK_SHARED",
    "LOCK_EXCLUSIVE",
]

LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"

_VOID = np.dtype("V")
_NOT_CONTIGUOUS = "RMA buffers must be C-contiguous; pass np.ascontiguousarray(...)"

_NOTHING_TO_FLUSH = "%s outside any passive-target epoch: nothing to complete"


class _Epoch(Accesses):
    """An open access epoch of one origin on one target: the accesses the
    rules read, and what completing it delivers."""

    __slots__ = ("pending_gets", "pending_reqs", "op_count", "lock")

    def __init__(self, origin: int, target: int, mode: str):
        super().__init__(origin, target, mode)
        #: what ``Win._acquire`` returned, for ``Win._release``
        self.lock: Any = None
        #: (user_byte_view, origin_segmap, source): the target's segment map,
        #: read at completion — or the staged payload a fault injector saw
        self.pending_gets: list[tuple] = []
        #: request-based ops issued in this epoch (MPI-3 rput/rget);
        #: closing the epoch with any of them incomplete is erroneous
        self.pending_reqs: list["_DoneRequest"] = []
        self.op_count = 0


class _WorldRanks(dict):
    """Window rank -> world rank, tabulated once (an op and its flush each
    look their target up); a rank outside the window is not in the table,
    and looking it up raises the group's :class:`RankError`."""

    __slots__ = ("_group",)

    def __init__(self, group) -> None:
        super().__init__(enumerate(group.members))
        self._group = group

    def __missing__(self, rank: int) -> int:
        return self._group.world_rank(rank)  # raises


class _LockState:
    """Lock state of one target rank of one window."""

    __slots__ = ("mode", "holders", "queue")

    def __init__(self):
        self.mode: str | None = None
        self.holders: set[int] = set()
        self.queue: list[tuple[int, str]] = []


class Win:
    """An RMA window: one memory region per rank of a communicator.

    Every §III/§V rule is applied here, once — the access rules are the
    functions of :mod:`~repro.mpi.rma_rules` — and a failed rule's finding
    leaves through :meth:`_violate`.  When the runtime has a sanitizer
    installed (see :mod:`repro.sanitizer`) that exit hands it the finding,
    so it can record it and raise the structured
    :class:`~repro.sanitizer.RmaViolationError` subclass of the plain MPI
    error this module raises otherwise.
    """

    def __init__(
        self,
        comm: Comm,
        buffers: list[np.ndarray],
        disp_units: list[int],
        strict: bool = True,
        mpi3: bool = False,
    ):
        self.comm = comm
        self.runtime = comm.runtime
        #: per-window-rank byte views of the exposed memory
        self._buffers = buffers
        self._disp_units = disp_units
        self._world_of = _WorldRanks(comm.group)
        #: the world ranks that may open an epoch on this window
        self._members = frozenset(comm.group.members)
        self.strict = strict
        self.mpi3 = mpi3
        self._locks = [_LockState() for _ in range(comm.size)]
        #: per target rank, the epochs open on it: origin_world -> epoch
        self._epochs_at: list[dict[int, _Epoch]] = [{} for _ in range(comm.size)]
        #: origin_world -> the epoch it is in: the target of its ``lock``
        #: (the one-lock-per-window rule), ``LOCK_ALL`` or ``FENCE``
        self._open: dict[int, "int | str"] = {}
        #: (origin_world, target_rank) -> the record every fused op in an
        #: epoch of its own reuses (see ``_move``)
        self._own_epochs: dict[tuple[int, int], _Epoch] = {}
        self._freed = False
        # per-runtime ids (not process-global) so a replayed run labels
        # its windows identically — violation text feeds the fuzz digest
        rt = self.runtime
        with rt.cond:
            self.win_id = getattr(rt, "_next_win_id", 0)
            rt._next_win_id = self.win_id + 1
        rt.add_death_hook(self._on_rank_death)

    # -- rule checking ---------------------------------------------------------
    def _violate(
        self, found: Finding, op: str, target: int, error: type = RMASyncError
    ) -> None:
        """The one exit of a failed rule, whose finding (see
        :mod:`~repro.mpi.rma_rules`) names the ``repro.sanitizer.ViolationKind``.

        An installed sanitizer gets the finding first (``mode="raise"``
        raises the structured error there); otherwise, or in
        ``mode="record"``, the plain text fires as an ``error``.  A
        finding without one is a rule the window does not enforce by
        itself, which therefore only a sanitizer can turn into an error.
        """
        san = self.runtime.sanitizer
        if san is not None:
            san.report(
                found.kind, current_proc().rank, op, target, self.win_id,
                found.detail, found.ranges,
            )
        if found.plain is not None:
            raise error(found.plain)

    def _checked(self) -> bool:
        """Whether the conflict-class rules apply to this window.

        Always on a strict one; a relaxed window is entitled to
        conflicting access (the coherent-shortcut model relies on it)
        unless an installed sanitizer asks with ``check_nonstrict``.
        """
        if self.strict:
            return True
        san = self.runtime.sanitizer
        return san is not None and san.check_nonstrict

    # -- fault handling --------------------------------------------------------
    def _on_rank_death(self, world_rank: int) -> None:
        """Repair lock/epoch state orphaned by a failed rank.

        Runs under the runtime lock via the death-hook registry.  A
        crashed origin releases nothing by itself; this models the
        target-side RMA agent (which survives the origin process)
        revoking the dead origin's epochs and queued lock requests so
        waiters can be granted instead of deadlocking.
        """
        for target_rank in range(len(self._epochs_at)):
            self._drop_epoch(world_rank, target_rank)
        self._open.pop(world_rank, None)
        for ls in self._locks:
            ls.queue[:] = [(o, m) for (o, m) in ls.queue if o != world_rank]

    def _fault_filter(self, kind: str, data: np.ndarray) -> "np.ndarray | None":
        """Consult the fault injector about one RMA payload.

        Returns the (possibly corrupted) data to apply, or ``None`` if
        the plan drops this operation on the wire.
        """
        fi = self.runtime.faults
        if fi is None:
            return data
        return fi.filter_rma(self, current_proc().rank, kind, data)

    # -- construction ----------------------------------------------------------
    @classmethod
    def create(
        cls,
        comm: Comm,
        local: "np.ndarray | None",
        disp_unit: int = 1,
        strict: bool = True,
        mpi3: bool = False,
    ) -> "Win":
        """Collective window creation (MPI_Win_create).

        ``local`` is this rank's exposed array (any dtype; it is viewed as
        bytes) or ``None``/size-0 for no local exposure.  Where the
        window memory lives is the runtime backend's decision: the
        thread backend exposes ``local`` itself; the proc backend copies
        it into a ``multiprocessing.shared_memory`` segment (closer to
        ``MPI_Win_allocate``) — use :meth:`local_view` /
        :meth:`exposed_buffer` for access that works on both.
        """
        return comm.runtime.backend.win_create(comm, local, disp_unit, strict, mpi3)

    @classmethod
    def allocate(
        cls, comm: Comm, nbytes: int, strict: bool = True, mpi3: bool = False
    ) -> tuple["Win", np.ndarray]:
        """Collective allocate-and-create (MPI_Win_allocate)."""
        if nbytes < 0:
            raise ArgumentError(f"Win.allocate: negative size {nbytes}")
        local = np.zeros(nbytes, dtype=np.uint8)
        win = cls.create(comm, local, strict=strict, mpi3=mpi3)
        return win, local

    def free(self) -> None:
        """Collective window free; erroneous with epochs still open."""
        self.free_with(None)

    def free_with(self, on_free) -> Any:
        """Collective free fused with a commit callback (abort consistency).

        ``on_free()`` (no arguments) runs inside the same rendezvous
        compute step that marks the window freed, so a caller's registry
        updates and the free itself happen atomically with respect to
        rank failure: if any member dies before the rendezvous completes,
        the collective fails with a typed error and *neither* side effect
        happens on survivors.  The ARMCI layer uses this to keep its GMR
        translation table consistent through an aborted free.  Returns
        ``on_free``'s result (shared by every rank).
        """
        with self.runtime.cond:
            rank = self.comm.rank

            def finish(_c):
                if self._open or any(self._epochs_at):
                    raise RMASyncError("Win.free with access epochs still open")
                result = on_free() if on_free is not None else None
                self._freed = True
                return result

            return self.comm._coll.run(rank, "win_free", None, finish)

    def invalidate(self) -> None:
        """Non-collective forced teardown (recovery path).

        Unlike :meth:`free`, which is a collective over *all* members and
        therefore poisoned once a member is dead, ``invalidate`` simply
        marks the window freed and drops its synchronisation state.  Any
        member may call it; it is idempotent.  Recovery code uses it to
        retire windows that can no longer complete a collective free
        after a rank failure — the survivors rebuild replacements on the
        shrunken communicator instead.  Must not be called with the
        giant lock held.
        """
        with self.runtime.cond:
            if self._freed:
                return
            self._freed = True
            for target_rank, at in enumerate(self._epochs_at):
                for origin in list(at):
                    self._drop_epoch(origin, target_rank)  # every holder has its epoch
            self._open.clear()
            for ls in self._locks:
                ls.queue.clear()
            self.runtime.notify_progress()

    # -- introspection -----------------------------------------------------------
    def size_of(self, target_rank: int) -> int:
        """Exposed bytes at ``target_rank``."""
        self._check_target(target_rank)
        return self._buffers[target_rank].nbytes

    @property
    def group(self):
        return self.comm.group

    # -- passive-target synchronisation ---------------------------------------------
    def _check_nesting(self, origin: int, op: str, target_rank: int) -> None:
        """:func:`~repro.mpi.rma_rules.check_nesting` of ``lock``,
        ``lock_all`` and ``fence_sync`` against the origin's epoch record
        (``runtime.cond`` held)."""
        found = rules.check_nesting(origin, self._open.get(origin), op)
        if found is not None:
            self._violate(found, op, target_rank)

    def _acquire(self, origin: int, target_rank: int, mode: str) -> Any:
        """Take ``target_rank``'s lock for ``origin`` (``runtime.cond`` held;
        waiting lets go of it).  With :meth:`_release` the only lock code a
        backend supplies — here the FIFO grant of the target's
        :class:`_LockState`.  Returns what :meth:`_release` gets back.

        A free lock (no queue, a compatible mode) is granted at once, without
        queueing; only when a wait would raise before it first tests its
        predicate (the caller or another rank failed, a deadlock or dead
        stall was declared) does a wait on a granted lock raise it.
        Anything else waits its turn.
        """
        rt = self.runtime
        ls = self._locks[target_rank]
        if not ls.queue and (ls.mode is None or ls.mode == mode == LOCK_SHARED):
            if (
                rt.failed is not None or rt._deadlocked or rt._dead_stall
                or _tls.proc.dead
            ):
                rt.wait_for(_granted)
            ls.mode = mode
            ls.holders.add(origin)
            return None
        target_world = self._world_of[target_rank]
        queued_alive = target_world not in rt.dead_ranks

        def grantable() -> bool:
            if not ls.queue or ls.queue[0][0] != origin:
                return False
            if ls.mode is None:
                return True
            return ls.mode == LOCK_SHARED and mode == LOCK_SHARED

        # bounded-retry acquisition: on a per-op timeout, withdraw the
        # queued request, back off (seeded), and re-enqueue — so a rank
        # starved by a stuck peer fails with a typed OpTimeoutError
        # after op_retries attempts instead of hanging forever.
        attempt = 0
        while True:
            ls.queue.append((origin, mode))
            try:
                rt.wait_for(
                    grantable,
                    timeout_s=rt.op_timeout_s,
                    what=f"win {self.win_id} lock(target={target_rank})",
                )
            except OpTimeoutError:
                ls.queue.remove((origin, mode))
                rt.notify_progress()
                if attempt >= rt.op_retries:
                    raise
                rt.backoff(attempt)
                attempt += 1
                continue
            break
        if queued_alive and target_world in rt.dead_ranks:
            # the target died while we were queued: typed failure, not
            # a grant on a corpse
            ls.queue.remove((origin, mode))
            rt.notify_progress()
            raise TargetFailedError(
                f"lock: target rank {target_rank} of win {self.win_id} "
                "failed while the request was queued"
            )
        ls.queue.pop(0)
        ls.mode = mode
        ls.holders.add(origin)
        return None

    def _release(self, epoch: _Epoch) -> None:
        """Give back the lock :meth:`_acquire` took for ``epoch``
        (``runtime.cond`` held)."""
        ls = self._locks[epoch.target]
        ls.holders.discard(epoch.origin)
        if not ls.holders:
            ls.mode = None

    def _open_epoch(self, origin: int, target_rank: int, mode: str) -> None:
        """Acquire ``target_rank``'s lock for ``origin`` and record the
        epoch in one step for the death hook (``runtime.cond`` held)."""
        epoch = _Epoch(origin, target_rank, mode)
        epoch.lock = self._acquire(origin, target_rank, mode)
        self._epochs_at[target_rank][origin] = epoch

    def _drop_epoch(self, origin: int, target_rank: int) -> None:
        """Forget an epoch, giving back its lock if it holds one."""
        epoch = self._epochs_at[target_rank].pop(origin, None)
        if epoch is not None and epoch.mode != FENCE:
            self._release(epoch)

    def _close_epoch(self, origin: int, target_rank: int) -> None:
        """Complete one lock epoch and give its lock back (``runtime.cond``
        held); ``unlock`` and ``unlock_all`` close every epoch this way."""
        epoch = self._epochs_at[target_rank][origin]
        if epoch.pending_reqs:
            self._audit_requests(epoch)
        self._deliver_gets(epoch)  # before the lock goes: MPI reads here
        self._drop_epoch(origin, target_rank)

    def lock(self, target_rank: int, mode: str = LOCK_EXCLUSIVE) -> None:
        """Begin a passive-target access epoch (MPI_Win_lock)."""
        _check_lock_mode(mode)
        self._check_target(target_rank)
        rt = self.runtime
        with rt.cond:
            self._begin(current_proc().rank, target_rank, mode)
            rt.notify_progress()
        self._charge_sync("lock")

    def _begin(self, origin: int, target_rank: int, mode: str) -> None:
        """The section of :meth:`lock` (``runtime.cond`` held): its rules,
        then the lock, recorded as ``origin``'s epoch and its one lock."""
        rt = self.runtime
        if self.comm.group.rank_of_world(origin) < 0:
            raise WinError(
                f"world rank {origin} is not in this window's group and "
                "cannot open an access epoch on it"
            )
        self._check_alive()
        rt.check_self_alive()
        self._check_nesting(origin, "lock", target_rank)
        if self._world_of[target_rank] in rt.dead_ranks:
            raise TargetFailedError(
                f"lock: target rank {target_rank} of win {self.win_id} has failed"
            )
        self._open_epoch(origin, target_rank, mode)
        self._open[origin] = target_rank

    def unlock(self, target_rank: int) -> None:
        """End the access epoch; completes all ops locally and remotely."""
        self._check_target(target_rank)
        rt = self.runtime
        origin = current_proc().rank
        with rt.cond:
            self._check_alive()
            rt.check_self_alive()
            if self._open.get(origin) != target_rank:
                self._violate(Finding(
                    "lock-unmatched",
                    f"unlock({target_rank}) without a matching lock by origin {origin}",
                    "unlock without a matching lock by this origin",
                ), "unlock", target_rank)
            self._close_epoch(origin, target_rank)
            del self._open[origin]
            rt.notify_progress()
        self._charge_sync("unlock")

    # -- active-target synchronisation (MPI_Win_fence) --------------------------------
    def fence_sync(self, end: bool = False) -> None:
        """Active-target fence (MPI_Win_fence): collective epoch delimiter.

        Each fence completes all operations of the previous fence epoch
        (delivering gets) and — unless ``end=True``, the analogue of
        ``MPI_MODE_NOSUCCEED`` — opens the next one, during which every
        member may issue RMA operations without locks.  This is the
        synchronising mode §III describes and rejects for GA, because
        every data-transfer phase then requires participation of all
        processes.  Provided so the active-vs-passive trade-off can be
        exercised and measured; ARMCI-MPI itself never calls it.

        Named ``fence_sync`` to avoid colliding with ARMCI's (unrelated)
        completion fence.
        """
        rt = self.runtime
        origin = current_proc().rank
        with rt.cond:
            self._check_alive()
            self._check_nesting(origin, "fence_sync", -1)

        def close(_contrib) -> None:
            # complete the previous fence epoch: deliver gets, drop accesses
            for at in self._epochs_at:
                for o, epoch in list(at.items()):
                    if epoch.mode == FENCE:
                        self._deliver_gets(epoch)
                        del at[o]
            for w in self._world_of.values():
                if end:
                    self._open.pop(w, None)
                else:
                    self._open[w] = FENCE

        with rt.cond:
            self.comm._coll.run(self.comm.rank, "win_fence", None, close)
        self._charge_sync("fence")

    # -- MPI-3 extensions (gated) ---------------------------------------------------
    def _require_mpi3(self, what: str) -> None:
        if not self.mpi3:
            raise WinError(
                f"{what} requires MPI-3 RMA (create the window with mpi3=True); "
                "MPI-2 mode reproduces the constraints the paper works around"
            )

    def lock_all(self) -> None:
        """Open a shared epoch on every target at once (MPI-3): a shared
        lock on each target in turn, acquired as :meth:`lock` acquires."""
        self._require_mpi3("lock_all")
        rt = self.runtime
        origin = current_proc().rank
        with rt.cond:
            self._check_nesting(origin, "lock_all", -1)
            try:
                for t in range(self.comm.size):
                    self._open_epoch(origin, t, LOCK_SHARED)
            except BaseException:
                # a target that never granted: give back those that did
                for t in range(self.comm.size):
                    self._drop_epoch(origin, t)
                rt.notify_progress()
                raise
            self._open[origin] = LOCK_ALL
            rt.notify_progress()
        self._charge_sync("lock_all")

    def unlock_all(self) -> None:
        """Close the :meth:`lock_all` epoch: :meth:`unlock` on every target."""
        self._require_mpi3("unlock_all")
        rt = self.runtime
        origin = current_proc().rank
        with rt.cond:
            if self._open.get(origin) != LOCK_ALL:
                self._violate(Finding(
                    "lock-unmatched", "unlock_all without lock_all",
                    "unlock_all without a lock_all epoch open",
                ), "unlock_all", -1)
            for t in range(self.comm.size):
                self._close_epoch(origin, t)
            del self._open[origin]
            rt.notify_progress()
        self._charge_sync("unlock_all")

    def _flush(self, origin: int, target_rank: int) -> None:
        """Complete ``origin``'s ops at ``target_rank`` and keep the epoch
        (``runtime.cond`` held); ``flush`` and ``flush_all`` both end here."""
        if self._world_of[target_rank] in self.runtime.dead_ranks:
            self._target_failed(target_rank, True)
        epoch = self._epochs_at[target_rank].get(origin)
        if epoch is None:
            self._violate(Finding(
                "flush", f"flush({target_rank}) outside an epoch",
                _NOTHING_TO_FLUSH % "flush",
            ), "flush", target_rank)
        self._complete(epoch)

    def _complete(self, epoch: _Epoch) -> None:
        """Complete ``epoch``'s ops at its target and keep the epoch
        (``runtime.cond`` held): what a flush does once it found it."""
        if epoch.pending_gets:
            self._deliver_gets(epoch)
        if epoch.recorded:
            rules.forget_accesses(epoch)

    def flush(self, target_rank: int) -> None:
        """Complete outstanding ops at the target without closing the epoch."""
        self._require_mpi3("flush")
        proc = getattr(_tls, "proc", None) or current_proc()  # (see _require_epoch)
        rt = self.runtime
        with rt.giant_lock:
            # death first: a killed caller's epochs were already revoked
            # by the death hook
            if proc.dead:
                rt.check_self_alive()
            self._flush(proc.rank, target_rank)
            rt.notify_progress()
        self._charge_sync("flush")

    def flush_all(self) -> None:
        """:meth:`flush` towards every target the origin has an epoch on."""
        self._require_mpi3("flush_all")
        origin = current_proc().rank
        with self.runtime.cond:
            self.runtime.check_self_alive()
            mine = [t for t, at in enumerate(self._epochs_at) if origin in at]
            if not mine:
                # a no-op for the window; only a sanitizer objects
                self._violate(
                    Finding("flush", None, _NOTHING_TO_FLUSH % "flush_all"), "flush_all", -1
                )
            for t in mine:
                self._flush(origin, t)
            self.runtime.notify_progress()
        self._charge_sync("flush")

    def _fuses(self, flush: bool, lock: "str | None" = None) -> bool:
        """Whether an op that completes itself runs as one section with its
        synchronisation — the one place this is decided.  ``flush=True``:
        the op and a following :meth:`flush`.  ``lock=mode``: the op in an
        epoch of its own, ``lock(target, mode)``, the op and
        ``unlock(target)``.

        No other origin runs inside one section, so none can observe the
        op's footprint: a fused op is checked against every rule, but its
        footprint is not recorded.  With a schedule or fault injector
        installed (:attr:`Runtime.fuzzing`) the op and its flush, or its
        lock, the op and its unlock, stay separate sections with fuzz
        points between them, so the fuzzer can still run another origin
        there.
        """
        if lock is not None:
            if flush:
                raise ArgumentError(
                    "flush=True with lock=: an op in an epoch of its own "
                    "completes at its unlock"
                )
            _check_lock_mode(lock)
        elif not flush:
            return False
        elif not self.mpi3:
            self._require_mpi3("flush")
        return not self.runtime.fuzzing

    def _atomic_section(self, target_rank: int, slot: "tuple | None") -> Any:
        """Context entered with ``runtime.cond`` held around the
        read-modify-write of ``accumulate``, ``fetch_and_op`` and
        ``compare_and_swap``, once every rule check has passed; ``slot``
        is the op's target bytes as rows, ``(lo, hi, step, seg_len, n)``
        (see :func:`~repro.mpi.rma_rules._footprint_slot`), None for a
        zero-byte op.

        The one hook a backend supplies to make them atomic in shared
        epochs; here ``runtime.cond`` already serialises every rank, so
        the section is its (reentrant) lock, taken once more, and the
        slot is not needed (the proc backend reserves it).
        """
        return self.runtime.giant_lock

    def fetch_and_op(
        self,
        value: "int | float",
        target_rank: int,
        target_offset: int,
        datatype: dt.Datatype = dt.LONG,
        op="MPI_SUM",
        *,
        flush: bool = False,
    ) -> "int | float":
        """Atomic read-modify-write on one element (MPI-3 MPI_Fetch_and_op);
        ``flush=True`` completes it at the target before returning."""
        self._require_mpi3("fetch_and_op")
        fused = self._fuses(flush)
        rt = self.runtime
        try:
            op = mpi_ops.lookup(op)
            with rt.giant_lock:
                epoch, slot, buf = self._atomic_view(
                    target_rank, target_offset, datatype, fused
                )
                with self._atomic_section(target_rank, slot):
                    old = buf[0].item()
                    if op is not mpi_ops.NO_OP:
                        op.apply(buf, np.array([value], dtype=datatype.base))
                if fused:
                    self._complete(epoch)
                rt.notify_progress()
            self._charge_op("rmw", datatype.size, 1)
        finally:
            if flush and not fused:
                self.flush(target_rank)
        if fused:
            self._charge_sync("flush")
        return old

    def compare_and_swap(
        self,
        compare: "int | float",
        value: "int | float",
        target_rank: int,
        target_offset: int,
        datatype: dt.Datatype = dt.LONG,
    ) -> "int | float":
        """Atomic CAS on one element (MPI-3 MPI_Compare_and_swap)."""
        self._require_mpi3("compare_and_swap")
        with self.runtime.cond:
            _, slot, buf = self._atomic_view(target_rank, target_offset, datatype)
            with self._atomic_section(target_rank, slot):
                old = buf[0].item()
                if old == compare:
                    buf[0] = value
            self.runtime.notify_progress()
        self._charge_op("rmw", datatype.size, 1)
        return old

    # -- one-sided data movement ------------------------------------------------------
    def put(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_offset: int = 0,
        target_datatype: "dt.Datatype | None" = None,
        target_count: int = 1,
        origin_datatype: "dt.Datatype | None" = None,
        origin_count: int = 1,
        *,
        flush: bool = False,
        lock: "str | None" = None,
    ) -> None:
        """One-sided put (MPI_Put); completes at unlock or flush, or before
        it returns with ``flush=True`` or in an epoch of its own with
        ``lock=LOCK_SHARED|LOCK_EXCLUSIVE`` (see :meth:`_fuses`)."""
        self._move(
            "put", None, origin, target_rank, target_offset, target_datatype,
            target_count, origin_datatype, origin_count, flush, lock,
        )

    def get(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_offset: int = 0,
        target_datatype: "dt.Datatype | None" = None,
        target_count: int = 1,
        origin_datatype: "dt.Datatype | None" = None,
        origin_count: int = 1,
        *,
        flush: bool = False,
        lock: "str | None" = None,
    ) -> None:
        """One-sided get (MPI_Get); data lands in ``origin`` when the get
        completes: at unlock/flush/request wait, or before it returns with
        ``flush=True`` or ``lock=mode`` (see :meth:`_fuses`)."""
        self._move(
            "get", None, origin, target_rank, target_offset, target_datatype,
            target_count, origin_datatype, origin_count, flush, lock,
        )

    def accumulate(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_offset: int = 0,
        op="MPI_SUM",
        target_datatype: "dt.Datatype | None" = None,
        target_count: int = 1,
        origin_datatype: "dt.Datatype | None" = None,
        origin_count: int = 1,
        *,
        flush: bool = False,
        lock: "str | None" = None,
    ) -> None:
        """One-sided accumulate (MPI_Accumulate) with a predefined op;
        ``flush=True`` completes it before returning, ``lock=mode`` runs it
        in an epoch of its own (see :meth:`_fuses`).

        Element type is taken from the datatype's predefined leaf type
        (or the origin array's dtype when no datatype is given).  An
        accumulate that is rejected — its element type, or target segments
        that are not whole elements — records and counts nothing.

        When no fault injector filters the payload, an op backed by a
        ufunc whose two maps pair up row for row
        (:meth:`~repro.mpi.datatypes.SegmentMap.row_views`) runs that
        ufunc once, ``out=`` the target's rows, reading the origin's rows
        where they are: numpy resolves an origin that overlaps the target
        as if it had been copied first.  Anything else packs the origin
        and combines the packed payload (:func:`_accumulate_into`).
        """
        self._move(
            "acc", op, origin, target_rank, target_offset, target_datatype,
            target_count, origin_datatype, origin_count, flush, lock,
        )

    def _move(
        self,
        kind: str,
        op: Any,
        origin: np.ndarray,
        target_rank: int,
        target_offset: int,
        target_datatype: "dt.Datatype | None",
        target_count: int,
        origin_datatype: "dt.Datatype | None",
        origin_count: int,
        flush: bool,
        lock: "str | None",
    ) -> None:
        """The one body of :meth:`put`, :meth:`get` and :meth:`accumulate`
        (``kind`` ``"put"``/``"get"``/``"acc"``, ``op`` the accumulate's):
        the op, its rules and its completion — later, by an unlock or
        flush; as if ``flush(target)`` followed (``flush=True``); or in an
        epoch of its own (``lock=mode``), as ``lock``, op, ``unlock``.

        :meth:`_fuses` decides whether the completion shares the op's
        section.  Fused with its lock, the section makes :meth:`_begin`'s
        checks once, inline (one that fails is raised by :meth:`_begin`,
        with its text), and reuses one record per (origin, target),
        ``_own_epochs``: nothing in it is left pending, so only its mode
        and counters are reset.
        """
        fused = self._fuses(flush, lock)
        rt = self.runtime
        if lock is not None and not fused:
            self.lock(target_rank, lock)
        elif lock is not None:  # lock's section, held until the finally ends it
            self._check_target(target_rank)
            proc = getattr(_tls, "proc", None) or current_proc()
            me = proc.rank
            rt.giant_lock.acquire()
            try:
                if (
                    proc.dead or self._freed or self.comm.revoked or me in self._open
                    or me not in self._members
                    or self._world_of[target_rank] in rt.dead_ranks
                ):
                    self._begin(me, target_rank, lock)  # a rule fails: raised here
                else:
                    key = (me, target_rank)
                    epoch = self._own_epochs.get(key)
                    if epoch is None:
                        epoch = self._own_epochs[key] = _Epoch(me, target_rank, lock)
                    epoch.mode = lock
                    epoch.op_count = 0
                    epoch.lock = self._acquire(me, target_rank, lock)
                    self._epochs_at[target_rank][me] = epoch
                    self._open[me] = target_rank
            except BaseException:
                rt.giant_lock.release()
                raise
            self._charge_sync("lock")
        try:
            if kind == "acc":
                op = mpi_ops.lookup(op)
            view, omap, segmap, nbytes = self._op_maps(
                kind, origin, origin_datatype, origin_count,
                target_rank, target_offset, target_datatype, target_count,
            )
            if kind == "acc":
                base = (
                    target_datatype.base
                    if target_datatype is not None
                    else np.asarray(origin).dtype
                )
                if base == _VOID or base.itemsize == 0:
                    raise ArgumentError("accumulate: cannot infer element type")
            with rt.giant_lock:
                epoch = self._require_epoch(target_rank, kind, fused and flush)
                if kind == "acc":
                    slot = rules._check_acc_alignment(segmap, base)
                san = rt.sanitizer
                # the conflict-class rules (``_checked``, inline: one call less)
                if self.strict or (san is not None and san.check_nonstrict):
                    found = rules.self_overlap(kind, segmap, self.strict)
                    if found is not None:
                        self._violate(found, kind, target_rank, RMAConflictError)
                    if san is not None:
                        san.on_op(self, epoch.origin, kind, origin, epoch.mode, target_rank)
                    # against every epoch open on the target; a fused op's
                    # footprint is not recorded (see _fuses)
                    opname = op.name if kind == "acc" else None
                    found = rules.find_conflict(
                        epoch, self._epochs_at[target_rank], kind, opname, segmap,
                        self.strict,
                    )
                    if found is not None:
                        self._violate(found, kind, target_rank, RMAConflictError)
                    if not fused:
                        rules.record_access(epoch, kind, opname, segmap)
                buf = self._buffers[target_rank]
                direct = fused or rt.faults is None  # (fused: no injector)
                if kind == "get":
                    # the target is read when the get completes, which is
                    # where MPI places it; an injector filters a payload
                    # staged now
                    if fused:
                        omap.copy_from(view, segmap, buf)
                    else:
                        source: "dt.SegmentMap | np.ndarray | None" = segmap
                        if not direct:
                            source = self._fault_filter("get", segmap.gather(buf, copy=True))
                        if source is not None:
                            epoch.pending_gets.append((view, omap, source))
                elif kind == "put" and direct:
                    segmap.copy_from(buf, omap, view)
                elif kind == "acc" and direct and op.ufunc is not None and (
                    rows := segmap.row_views(buf, omap, view, base)
                ) is not None:
                    with self._atomic_section(target_rank, slot):  # (target, origin)
                        op.ufunc(rows[0], rows[1], out=rows[0])
                else:  # packed: for an injector to filter, or an acc rows cannot serve
                    payload = self._fault_filter(
                        kind, self._gather_origin(view, omap, target_rank)
                    )
                    if payload is not None and kind == "put":
                        segmap.scatter(buf, payload)
                    elif payload is not None:
                        with self._atomic_section(target_rank, slot):
                            _accumulate_into(buf, segmap, payload, base, op)
                op_index = epoch.op_count
                epoch.op_count += 1
                if fused and flush:
                    self._complete(epoch)
                if not (fused and lock):  # (else the finally ends the section)
                    rt.notify_progress()
            self._charge_op(kind, nbytes, segmap.nsegments, op_index)
        finally:
            if lock is None:
                if flush and not fused:
                    self.flush(target_rank)
            elif not fused:
                self.unlock(target_rank)
            else:  # the epoch of its own ends, nothing in it pending
                try:
                    # gone if the origin was killed (the death hook dropped it)
                    epoch = self._epochs_at[target_rank].pop(me, None)
                    if epoch is not None:
                        self._release(epoch)
                    self._open.pop(me, None)
                    rt.notify_progress()
                finally:
                    rt.giant_lock.release()
                self._charge_sync("unlock")
        if fused and flush:
            self._charge_sync("flush")

    def rput(self, origin: np.ndarray, target_rank: int, *args: Any, **kw: Any):
        """Request-based put (MPI-3); completion of the request = local done."""
        self._require_mpi3("rput")
        self.put(origin, target_rank, *args, **kw)
        req = _DoneRequest()
        self._register_request(target_rank, req)
        return req

    def rget(self, origin: np.ndarray, target_rank: int, *args: Any, **kw: Any):
        """Request-based get (MPI-3): data is delivered at request wait."""
        self._require_mpi3("rget")
        self.get(origin, target_rank, *args, **kw)
        req = _GetRequest(self, current_proc().rank, target_rank)
        self._register_request(target_rank, req)
        return req

    def _register_request(self, target_rank: int, req: _DoneRequest) -> None:
        """Attach a request to its epoch for completion auditing.

        Only done when a sanitizer is installed: the window itself never
        reads ``pending_reqs``, so plain runs keep zero bookkeeping.
        """
        if self.runtime.sanitizer is None:
            return
        origin = current_proc().rank
        with self.runtime.cond:
            epoch = self._epochs_at[target_rank].get(origin)
            if epoch is not None:
                epoch.pending_reqs.append(req)

    # -- direct local access ------------------------------------------------------------
    def local_view(self, dtype: "np.dtype | str" = np.uint8) -> np.ndarray:
        """Direct load/store view of the calling rank's exposed memory.

        Under strict MPI-2 semantics this is only safe inside an
        *exclusive* self-lock epoch (§III, §V-E); violating that raises.
        ARMCI's ``access_begin``/``access_end`` extension (§V-E) wraps
        exactly this discipline.
        """
        me = self.comm.rank
        origin = current_proc().rank
        if self._checked():
            with self.runtime.cond:
                epoch = self._epochs_at[me].get(origin)
                ok = epoch is not None and epoch.mode == LOCK_EXCLUSIVE
                if not ok and self._open.get(origin) == LOCK_ALL:
                    ok = True  # MPI-3 unified-model relaxation
                if not ok:
                    self._violate(Finding(
                        "local-load-store",
                        "direct local access requires an exclusive self-lock "
                        "(use ARMCI access_begin/access_end)" if self.strict else None,
                        "direct load/store of exposed memory without an "
                        "exclusive self-lock",
                    ), "local_view", me)
        return self._buffers[me].view(np.dtype(dtype))

    def exposed_buffer(self, target_rank: int) -> np.ndarray:
        """The raw byte buffer exposed by ``target_rank`` (for GMR bookkeeping).

        This does *not* grant access rights; it exists so upper layers can
        compute address ranges (e.g. to detect that a user's local buffer
        lies inside a window, §V-E.1).
        """
        self._check_target(target_rank)
        return self._buffers[target_rank]

    # -- internals ----------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self._freed:
            raise WinError("operation on a freed window")
        if self.comm.revoked:
            raise CommRevokedError(
                f"RMA operation on win {self.win_id}: its communicator "
                "was revoked"
            )

    def _check_target(self, target_rank: int) -> None:
        if not 0 <= target_rank < len(self._world_of):
            raise RMARangeError(
                f"target rank {target_rank} not in [0, {len(self._world_of)})"
            )

    def _out_of_range(self, what: str, op: str, lo: int, hi: int, target_rank: int):
        nbytes = self._buffers[target_rank].nbytes
        self._violate(Finding(
            "range",
            f"{what} outside window of {nbytes}B at target {target_rank}",
            f"datatype footprint exceeds the {nbytes}-byte window region at "
            "the target",
            ((lo, hi),),
        ), op, target_rank, RMARangeError)

    def _target_failed(self, target_rank: int, flush: bool) -> None:
        """Raise the loss of a failed target.  The completion call is where
        it surfaces, so an op that completes itself reports it as its flush
        does."""
        raise TargetFailedError(
            f"flush({target_rank}) on failed target of win {self.win_id}"
            if flush
            else f"RMA operation on failed target rank {target_rank} of win {self.win_id}"
        )

    def _require_epoch(self, target_rank: int, op: str, flush: bool = False) -> _Epoch:
        """The calling origin's epoch on ``target_rank`` (``runtime.cond``
        held): where a data op learns who is calling, once, and that both
        ends are alive (``flush``: the op completes itself)."""
        rt = self.runtime
        # current_proc() only to raise its error outside an SPMD region
        proc = getattr(_tls, "proc", None) or current_proc()
        if proc.dead:
            rt.check_self_alive()
        if self._world_of[target_rank] in rt.dead_ranks:
            self._target_failed(target_rank, flush)
        origin = proc.rank
        at = self._epochs_at[target_rank]
        epoch = at.get(origin)
        if epoch is None and self._open.get(origin) == FENCE:  # opened on first use
            epoch = at[origin] = _Epoch(origin, target_rank, FENCE)
        if epoch is None:
            self._violate(Finding(
                "epoch", f"RMA operation on target {target_rank} outside an access epoch",
                "RMA operation outside any access epoch",
            ), op, target_rank)
        return epoch

    def _op_maps(
        self,
        kind: str,
        origin: np.ndarray,
        origin_datatype: "dt.Datatype | None",
        origin_count: int,
        target_rank: int,
        target_offset: int,
        target_datatype: "dt.Datatype | None",
        target_count: int,
    ) -> "tuple[np.ndarray, dt.SegmentMap, dt.SegmentMap, int]":
        """What a put/get/acc derives from its arguments, each fact once and
        before any window state is touched: the origin as bytes, the layout
        the op touches there, the target footprint (checked against the
        target's memory) and the byte count, ``(view, omap, segmap, nbytes)``."""
        view = dt.flat_bytes(origin, _NOT_CONTIGUOUS)
        if origin_datatype is None:
            nbytes = view.nbytes
            omap = dt.SegmentMap.arithmetic(0, nbytes, nbytes, 1)
        else:
            omap = origin_datatype.segment_map(origin_count)
            nbytes = omap.total_bytes
            dt._check_bounds(omap, view.nbytes, f"{kind}: origin {origin_datatype.name}")
        self._check_target(target_rank)
        disp = target_offset * self._disp_units[target_rank]
        if target_datatype is None:
            segmap = dt.SegmentMap.arithmetic(disp, nbytes, nbytes, 1)
        else:
            segmap = target_datatype.segment_map(target_count).shifted(disp)
            if segmap.total_bytes != nbytes:
                raise ArgumentError(
                    f"origin data {nbytes}B != target datatype "
                    f"{segmap.total_bytes}B"
                )
        if segmap.nsegments:
            lo, hi = segmap.bounds()
            if lo < 0 or hi > self._buffers[target_rank].nbytes:
                self._out_of_range(
                    f"access [{lo},{hi})", kind, int(lo), int(hi), target_rank
                )
        return view, omap, segmap, nbytes

    def _gather_origin(
        self, view: np.ndarray, omap: dt.SegmentMap, target_rank: int
    ) -> np.ndarray:
        """Serialise the origin contribution; zero-copy when possible.

        A contiguous origin is returned as a view — the data is consumed
        before the call returns, so no copy is needed *unless* the origin
        aliases the target's exposed memory, where the scatter/accumulate
        loop could otherwise read bytes it already wrote.
        """
        data = omap.gather(view, copy=False)
        if data.base is not None and np.may_share_memory(data, self._buffers[target_rank]):
            data = data.copy()
        return data

    def _atomic_view(
        self, target_rank: int, target_offset: int, datatype: dt.Datatype,
        flush: bool = False,
    ) -> "tuple[_Epoch, tuple, np.ndarray]":
        """The epoch of an MPI-3 atomic, the slot of its footprint (see
        :meth:`_atomic_section`) and the element it operates on, after the
        rule checks (``flush``: the atomic completes itself).

        The window treats atomics as self-contained and never
        conflict-checks them; only when a sanitizer is installed is their
        footprint checked and recorded, as one mutually atomic accumulate
        class — mixed atomics on one counter are clean, an atomic racing
        a put/get in the same epoch is not.
        """
        epoch = self._require_epoch(target_rank, RMW, flush)
        disp = target_offset * self._disp_units[target_rank]
        end = disp + datatype.size
        buf = self._buffers[target_rank]
        if disp < 0 or end > buf.nbytes:
            self._out_of_range(
                f"atomic access [{disp},{end})", RMW, disp, end, target_rank
            )
        fp = dt.SegmentMap.arithmetic(disp, datatype.size, datatype.size, 1)
        if self.runtime.sanitizer is not None and self._checked():
            found = rules.find_conflict(
                epoch, self._epochs_at[target_rank], "acc", RMW, fp, self.strict
            )
            if found is not None:
                self._violate(found, RMW, target_rank, RMAConflictError)
            if not flush:
                rules.record_access(epoch, "acc", RMW, fp)
        return epoch, rules._footprint_slot(fp), buf[disp:end].view(datatype.base)

    def _audit_requests(self, epoch: _Epoch) -> None:
        """A closing epoch must leave no request-based op unwaited.

        ``pending_reqs`` is only ever filled for a sanitizer (see
        :meth:`_register_request`); the window has no such rule itself.
        """
        pending = sum(1 for r in epoch.pending_reqs if not r.completed)
        if pending:
            self._violate(Finding(
                "request", None,
                f"{pending} request-based op(s) (rput/rget) never completed "
                "with wait/test before the epoch closed",
            ), "unlock", epoch.target)

    def _deliver_gets(self, epoch: _Epoch) -> None:
        buf = self._buffers[epoch.target]
        for user_view, origin_segmap, source in epoch.pending_gets:
            if isinstance(source, dt.SegmentMap):
                origin_segmap.copy_from(user_view, source, buf)
            else:
                origin_segmap.scatter(user_view, source)
        epoch.pending_gets.clear()

    # -- modeled time --------------------------------------------------------------------
    def _charge_sync(self, kind: str) -> None:
        rt = self.runtime
        if rt.timing is not None:
            cost = rt.timing.rma_sync_cost(kind)
            current_proc().clock.advance(cost, kind=f"rma:{kind}")
        if rt.fuzzing:
            rt.fuzz_point(f"rma:{kind}")

    def _charge_op(self, kind: str, nbytes: int, nsegments: int, op_index: int = 0) -> None:
        rt = self.runtime
        if rt.timing is not None:
            cost = rt.timing.rma_op_cost(kind, nbytes, nsegments, op_index)
            current_proc().clock.advance(cost, kind=f"rma:{kind}", nbytes=nbytes)
        if rt.fuzzing:
            rt.fuzz_point(f"rma:{kind}")


class _DoneRequest:
    """Trivially complete request for eager request-based ops.

    ``completed`` records whether the user ever synchronised on the
    request; the sanitizer reads it to flag requests still pending when
    their epoch closes (§VIII-B completion discipline,
    ``ViolationKind.REQUEST``).
    """

    __slots__ = ("completed",)

    def __init__(self) -> None:
        self.completed = False

    def test(self) -> tuple[bool, None]:
        self.completed = True
        return True, None

    def wait(self) -> None:
        self.completed = True
        return None


class _GetRequest(_DoneRequest):
    """The request of an ``rget``: its get lands at ``wait``/``test``."""

    __slots__ = ("win", "origin", "target")

    def __init__(self, win: Win, origin: int, target: int) -> None:
        super().__init__()
        self.win, self.origin, self.target = win, origin, target

    def test(self) -> tuple[bool, None]:
        self.wait()
        return True, None

    def wait(self) -> None:
        win = self.win
        with win.runtime.cond:
            epoch = win._epochs_at[self.target].get(self.origin)
            if epoch is not None:
                win._deliver_gets(epoch)
        return super().wait()


def _check_lock_mode(mode: str) -> None:
    if mode not in (LOCK_SHARED, LOCK_EXCLUSIVE):
        raise ArgumentError(f"unknown lock mode {mode!r}")


def _granted() -> bool:
    """The wait predicate of a free lock (see ``Win._acquire``)."""
    return True


def _accumulate_into(
    buf: np.ndarray, segmap: dt.SegmentMap, data: np.ndarray, base: np.dtype, op: mpi_ops.Op
) -> None:
    """Combine ``data`` into ``segmap``'s (aligned) bytes of ``buf``, element-wise.

    One in-place read-modify-write pass over a typed 2-D view of the rows
    whenever the map is arithmetic with ``step >= seg_len`` (every
    subarray/vector type and GA tile; a contiguous target is the one-row
    case).
    """
    if not segmap.total_bytes:
        return
    itemsize = base.itemsize
    arith = segmap._arith_params()
    if arith is not None and arith[1] >= arith[2]:
        tview = dt._rows(buf, *arith, base)
        op.apply(tview, data.view(base).reshape(tview.shape))
    elif not segmap.overlaps_self():
        # irregular layout: gather-modify-scatter through an *element*
        # index, safe because no target element appears twice in it
        elems = dt.SegmentMap(segmap.offsets // itemsize, segmap.lengths // itemsize)
        typed = buf[: segmap.bounds()[1]].view(base)
        vals = elems.gather(typed)
        op.apply(vals, data.view(base))
        elems.scatter(typed, vals)
    else:
        # overlapping same-op accumulates must apply in traversal order
        pos = 0
        for off, ln in zip(segmap.offsets.tolist(), segmap.lengths.tolist()):
            op.apply(buf[off : off + ln].view(base), data[pos : pos + ln].view(base))
            pos += ln


def _local_exposure_view(local: "np.ndarray | None") -> np.ndarray:
    """Validate and flatten a rank's exposed array for ``Win.create``.

    Shared by the backends so both enforce the same argument contract.
    """
    if local is None:
        return np.empty(0, dtype=np.uint8)
    if not isinstance(local, np.ndarray):
        raise ArgumentError("Win.create: local buffer must be a numpy array")
    return local.reshape(-1).view(np.uint8)
