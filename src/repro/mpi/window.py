"""MPI RMA windows with passive-target synchronization (MPI-2 + gated MPI-3).

This module is the substrate whose *semantics* shaped the whole ARMCI-MPI
design (§III, §V):

* **Passive target epochs.**  All one-sided ops must happen between
  ``lock(target)`` and ``unlock(target)``; ops outside an epoch raise
  :class:`RMASyncError`.
* **Shared vs exclusive locks** with FIFO-fair queuing; a process may
  hold at most **one** lock per window at a time (the MPI-2 restriction
  that forbids ARMCI-MPI from locking a local and a remote window region
  of the same window simultaneously and forces buffer staging, §V-E.1).
* **Conflicting accesses are erroneous.**  Overlapping put/get/acc within
  one epoch, or between concurrently open epochs of different origins
  (possible only under shared locks), raise :class:`RMAConflictError` —
  except accumulate-vs-accumulate with the same op, which MPI permits.
  Real MPI may silently corrupt data in these cases; we detect eagerly so
  tests can prove ARMCI-MPI never triggers them.
* **Get results are delivered at unlock.**  Within an epoch all ops are
  logically concurrent; a get's data lands in the user buffer only when
  the epoch closes, so code that peeks earlier observes stale bytes —
  deliberately, to flush out completion-semantics bugs.
* **Local load/store** of exposed memory requires an exclusive self-lock
  when strict checking is on (the public/private window-copy rule of
  §III that motivated the ARMCI DLA extension).

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
from .runtime import _tls, current_proc

__all__ = [
    "Win",
    "LOCK_SHARED",
    "LOCK_EXCLUSIVE",
    "INTERVAL_COMPACT_AT",
]

LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"

#: an origin's epoch record (``Win._open``) holds the target of its
#: ``lock``, or one of these for the window-wide epochs
_LOCK_ALL = "lock_all"
_FENCE = "fence"
_EPOCH_NAMES = {_LOCK_ALL: "a lock_all epoch", _FENCE: "an active-target fence epoch"}

_VOID = np.dtype("V")
_NOT_CONTIGUOUS = "RMA buffers must be C-contiguous; pass np.ascontiguousarray(...)"

_NOTHING_TO_FLUSH = "%s outside any passive-target epoch: nothing to complete"
#: access class of the MPI-3 atomics' footprints, tracked only for a sanitizer
_RMW = "rmw"

#: pending additions an :class:`_IntervalSet` tolerates before folding them
#: into its compacted disjoint coverage (amortises the sort; see class doc)
INTERVAL_COMPACT_AT = 8


def _segments_overlap(
    a_off: np.ndarray, a_len: np.ndarray, b_off: np.ndarray, b_len: np.ndarray
) -> bool:
    """True if any interval of A intersects any interval of B.

    B must be sorted by offset (A need not be).  Intervals within B may
    themselves overlap, so a running-maximum of interval ends is used:
    interval ``a`` intersects some ``b`` iff among all b starting before
    ``a``'s end, the furthest-reaching end exceeds ``a``'s start.
    Vectorised searchsorted — no O(N·M) scan.
    """
    if len(a_off) == 0 or len(b_off) == 0:
        return False
    b_end_cummax = np.maximum.accumulate(b_off + b_len)
    a_end = a_off + a_len
    # number of b intervals starting strictly before each a's end
    idx = np.searchsorted(b_off, a_end, side="left")
    has_candidate = idx > 0
    reach = b_end_cummax[np.maximum(idx - 1, 0)]
    return bool(np.any(has_candidate & (reach > a_off)))


#: what every fresh :class:`_IntervalSet` starts from — shared, because a
#: set is built per epoch and per flush: the empty coverage (replaced on
#: compaction, never written) and the inverted bounding box
_NO_COVERAGE = np.empty(0, dtype=np.int64)
_NO_COVERAGE.setflags(write=False)
_I64_MAX = int(np.iinfo(np.int64).max)
_I64_MIN = int(np.iinfo(np.int64).min)


class _IntervalSet:
    """Byte-coverage set with amortised-cheap overlap queries.

    Stores the union of all added intervals as a compacted sorted
    disjoint array plus a small pending list; queries check both.  With
    compaction every :data:`INTERVAL_COMPACT_AT` additions, recording N
    operations in one epoch costs O(N log N) total instead of the O(N^2)
    a naive check-against-every-previous-op scan would (the regime the
    batched IOV method hits with thousands of segments per epoch).

    Additions and queries are *footprints*: the target
    :class:`~repro.mpi.datatypes.SegmentMap` of the access itself.  Both
    answer from its memoised ``bounds()`` — disjoint bounding boxes cannot
    overlap, which is exact — so the closed-form map of a strided op is
    never materialised into ``offsets``/``lengths`` unless two boxes meet
    or the set compacts.  A single-interval query that does meet a box
    takes unsorted vectorised compares, no argsort or concatenation.
    """

    __slots__ = ("_cov_off", "_cov_len", "_pending", "count", "_lo", "_hi")

    _COMPACT_AT = INTERVAL_COMPACT_AT

    def __init__(self) -> None:
        self._cov_off = self._cov_len = _NO_COVERAGE
        self._pending: list[dt.SegmentMap] = []
        self.count = 0
        #: bounding box over everything ever added (cheap O(1) reject)
        self._lo = _I64_MAX
        self._hi = _I64_MIN

    def add(self, fp: dt.SegmentMap) -> None:
        if fp.nsegments == 0:
            return
        lo, hi = fp.bounds()
        self._lo = min(self._lo, lo)
        self._hi = max(self._hi, hi)
        self._pending.append(fp)
        self.count += 1
        if len(self._pending) >= self._COMPACT_AT:
            self._compact()

    def _compact(self) -> None:
        offs = np.concatenate([self._cov_off] + [p.offsets for p in self._pending])
        lens = np.concatenate([self._cov_len] + [p.lengths for p in self._pending])
        order = np.argsort(offs, kind="stable")
        offs, lens = offs[order], lens[order]
        # merge into disjoint coverage
        merged = dt.SegmentMap(offs, lens).coalesced()
        # coalesced() only merges exactly-adjacent runs; also merge overlaps
        o, l = merged.offsets, merged.lengths
        if len(o) > 1:
            ends = np.maximum.accumulate(o + l)
            new_run = np.empty(len(o), dtype=bool)
            new_run[0] = True
            new_run[1:] = o[1:] > ends[:-1]
            starts = np.flatnonzero(new_run)
            run_ends = np.append(starts[1:], len(o))
            o2 = o[starts]
            l2 = np.array(
                [ends[e - 1] - o[s] for s, e in zip(starts, run_ends)],
                dtype=np.int64,
            )
            o, l = o2, l2
        self._cov_off, self._cov_len = o, l
        self._pending.clear()

    def overlaps(self, fp: dt.SegmentMap) -> bool:
        if self.count == 0 or fp.nsegments == 0:
            return False
        # disjoint bounding boxes cannot overlap: O(1), nothing materialised
        q_lo, q_hi = fp.bounds()
        if q_lo >= self._hi or q_hi <= self._lo:
            return False
        single = fp.nsegments == 1

        def meets(off: np.ndarray, length: np.ndarray, is_sorted: bool) -> bool:
            if single:  # scalar query: unsorted vectorised compare, no argsort
                return bool(np.any((off < q_hi) & (off + length > q_lo)))
            if not is_sorted:
                order = np.argsort(off, kind="stable")
                off, length = off[order], length[order]
            return _segments_overlap(fp.offsets, fp.lengths, off, length)

        if len(self._cov_off) and meets(self._cov_off, self._cov_len, True):
            return True
        for p in self._pending:
            p_lo, p_hi = p.bounds()
            # only where the boxes meet are the segments themselves compared
            if q_lo < p_hi and q_hi > p_lo and meets(
                p.offsets, p.lengths, p.nsegments == 1 or p._arith_params() is not None
            ):
                return True
        return False


class _Epoch:
    """An open access epoch of one origin on one target."""

    __slots__ = (
        "origin",
        "target",
        "mode",
        "puts",
        "gets",
        "accs",
        "pending_gets",
        "pending_reqs",
        "op_count",
        "bytes_moved",
        "lock",
        "recorded",
    )

    def __init__(self, origin: int, target: int, mode: str):
        self.origin = origin
        self.target = target
        self.mode = mode
        #: what ``Win._acquire`` returned, for ``Win._release``
        self.lock: Any = None
        #: per-class byte coverage used for conflict detection
        self.puts = _IntervalSet()
        self.gets = _IntervalSet()
        self.accs: dict[str, _IntervalSet] = {}
        #: accesses recorded since the last flush: none, nothing to conflict with
        self.recorded = 0
        #: (user_byte_view, origin_segmap, source): the target's segment map,
        #: read at completion — or the staged payload a fault injector saw
        self.pending_gets: list[tuple] = []
        #: request-based ops issued in this epoch (MPI-3 rput/rget);
        #: closing the epoch with any of them incomplete is erroneous
        self.pending_reqs: list["_DoneRequest"] = []
        self.op_count = 0
        self.bytes_moved = 0

    def conflict_class(
        self, kind: str, opname: "str | None", fp: dt.SegmentMap
    ) -> "str | None":
        """Name of the first access class conflicting with the new op,
        whose target footprint is ``fp``."""
        if not self.recorded:  # nothing since the last flush
            return None
        if kind != "get" and self.gets.overlaps(fp):
            return "get"
        if self.puts.overlaps(fp):
            return "put"
        for name, cover in self.accs.items():
            if kind == "acc" and name == opname:
                continue  # same-op accumulates may overlap (MPI-2 §11.7.1)
            if cover.overlaps(fp):
                return f"acc({name})"
        return None


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

    Every §III/§V rule is evaluated here, once, and a failed rule leaves
    through :meth:`_violate`.  When the runtime has a sanitizer installed
    (see :mod:`repro.sanitizer`) that exit hands it the finding, so it can
    record it and raise the structured
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
        self.strict = strict
        self.mpi3 = mpi3
        self._locks = [_LockState() for _ in range(comm.size)]
        #: (origin_world, target_rank) -> open epoch
        self._epochs: dict[tuple[int, int], _Epoch] = {}
        #: origin_world -> the epoch it is in: the target of its ``lock``
        #: (the one-lock-per-window rule), ``_LOCK_ALL`` or ``_FENCE``
        self._open: dict[int, "int | str"] = {}
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
        self,
        plain_exc: "Exception | None",
        kind: str,
        op: str,
        target: int,
        detail: str,
        ranges: tuple = (),
    ) -> None:
        """The one exit of a failed rule.

        ``kind`` is a ``repro.sanitizer.ViolationKind`` value.  An
        installed sanitizer gets the finding first (``mode="raise"``
        raises the structured error there); otherwise, or in
        ``mode="record"``, the plain MPI error fires.  ``plain_exc`` is
        ``None`` for rules the window does not enforce by itself, which
        therefore only a sanitizer can turn into an error.
        """
        san = self.runtime.sanitizer
        if san is not None:
            san.report(
                kind, current_proc().rank, op, target, self.win_id, detail, ranges
            )
        if plain_exc is not None:
            raise plain_exc

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
        for key in [k for k in self._epochs if k[0] == world_rank]:
            self._drop_epoch(key)
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
                if self._epochs or self._open:
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
            for key in list(self._epochs):
                self._drop_epoch(key)  # every holder has its epoch
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
        """The one nesting rule of ``lock``, ``lock_all`` and ``fence_sync``,
        against the origin's epoch record (``runtime.cond`` held): one lock
        per window per process (MPI-2), and passive and active epochs do
        not overlap — successive fences are how fence epochs end."""
        rec = self._open.get(origin)
        if rec is None or (op == "fence_sync" and rec == _FENCE):
            return
        epoch = _EPOCH_NAMES.get(rec)  # None: a lock on target ``rec``
        if op == "fence_sync":
            plain = detail = (
                "MPI_Win_fence while holding a passive-target lock: active "
                "and passive epochs may not overlap"
            )
        elif op == "lock" and epoch is None:
            plain = (
                f"origin {origin} already holds a lock on target {rec} of "
                "this window (MPI-2 allows one lock per window per process)"
            )
            detail = (
                f"already holds a lock on target {rec} of this window (one "
                "lock per window per process)"
            )
        elif op == "lock":
            plain = detail = f"lock() inside {epoch}"
        elif rec == _FENCE:  # not a rule the window enforces by itself
            plain, detail = None, f"lock_all inside {epoch}"
        else:
            plain = "lock_all while already in an epoch"
            detail = f"lock_all while already in {epoch}" if epoch else (
                f"lock_all while holding a lock on target {rec} of this window"
            )
        self._violate(
            RMASyncError(plain) if plain else None,
            "lock-nesting", op, target_rank, detail,
        )

    def _acquire(self, origin: int, target_rank: int, mode: str) -> Any:
        """Take ``target_rank``'s lock for ``origin`` (``runtime.cond`` held;
        waiting lets go of it).  With :meth:`_release` the only lock code a
        backend supplies — here the FIFO grant of the target's
        :class:`_LockState`.  Returns what :meth:`_release` gets back."""
        rt = self.runtime
        ls = self._locks[target_rank]
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
        self._epochs[(origin, target_rank)] = epoch

    def _drop_epoch(self, key: tuple[int, int]) -> None:
        """Forget an epoch, giving back its lock if it holds one."""
        epoch = self._epochs.pop(key, None)
        if epoch is not None and epoch.mode != _FENCE:
            self._release(epoch)

    def _close_epoch(self, origin: int, target_rank: int) -> None:
        """Complete one lock epoch and give its lock back (``runtime.cond``
        held); ``unlock`` and ``unlock_all`` close every epoch this way."""
        epoch = self._epochs[(origin, target_rank)]
        if epoch.pending_reqs:
            self._audit_requests(epoch)
        self._deliver_gets(epoch)  # before the lock goes: MPI reads here
        self._drop_epoch((origin, target_rank))

    def lock(self, target_rank: int, mode: str = LOCK_EXCLUSIVE) -> None:
        """Begin a passive-target access epoch (MPI_Win_lock)."""
        if mode not in (LOCK_SHARED, LOCK_EXCLUSIVE):
            raise ArgumentError(f"unknown lock mode {mode!r}")
        self._check_target(target_rank)
        rt = self.runtime
        origin = current_proc().rank
        with rt.cond:
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
            rt.notify_progress()
        self._charge_sync("lock")

    def unlock(self, target_rank: int) -> None:
        """End the access epoch; completes all ops locally and remotely."""
        self._check_target(target_rank)
        rt = self.runtime
        origin = current_proc().rank
        with rt.cond:
            self._check_alive()
            rt.check_self_alive()
            if self._open.get(origin) != target_rank:
                self._violate(
                    RMASyncError(
                        f"unlock({target_rank}) without a matching lock by origin {origin}"
                    ),
                    "lock-unmatched", "unlock", target_rank,
                    "unlock without a matching lock by this origin",
                )
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
            for (o, _t), epoch in list(self._epochs.items()):
                if epoch.mode == _FENCE:
                    self._deliver_gets(epoch)
                    del self._epochs[(o, _t)]
            for w in self._world_of.values():
                if end:
                    self._open.pop(w, None)
                else:
                    self._open[w] = _FENCE

        with rt.cond:
            self.comm._coll.run(self.comm.rank, "win_fence", None, close)
        self._charge_sync("fence")

    def _fence_epoch(self, origin: int, target_rank: int) -> "_Epoch | None":
        if self._open.get(origin) != _FENCE:
            return None
        key = (origin, target_rank)
        epoch = self._epochs.get(key)
        if epoch is None:
            epoch = _Epoch(origin, target_rank, _FENCE)
            self._epochs[key] = epoch
        return epoch

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
            granted = 0
            try:
                for t in range(self.comm.size):
                    self._open_epoch(origin, t, LOCK_SHARED)
                    granted += 1
            except BaseException:
                # a target that never granted: give back those that did
                for t in range(granted):
                    self._drop_epoch((origin, t))
                rt.notify_progress()
                raise
            self._open[origin] = _LOCK_ALL
            rt.notify_progress()
        self._charge_sync("lock_all")

    def unlock_all(self) -> None:
        """Close the :meth:`lock_all` epoch: :meth:`unlock` on every target."""
        self._require_mpi3("unlock_all")
        rt = self.runtime
        origin = current_proc().rank
        with rt.cond:
            if self._open.get(origin) != _LOCK_ALL:
                self._violate(
                    RMASyncError("unlock_all without lock_all"),
                    "lock-unmatched", "unlock_all", -1,
                    "unlock_all without a lock_all epoch open",
                )
            for t in range(self.comm.size):
                self._close_epoch(origin, t)
            del self._open[origin]
            rt.notify_progress()
        self._charge_sync("unlock_all")

    def _flush(self, origin: int, target_rank: int) -> None:
        """Complete ``origin``'s ops at ``target_rank`` and keep the epoch
        (``runtime.cond`` held); ``flush`` and ``flush_all`` both end here."""
        # the completion call is where a dead target's loss surfaces
        if self._world_of[target_rank] in self.runtime.dead_ranks:
            raise TargetFailedError(
                f"flush({target_rank}) on failed target of win {self.win_id}"
            )
        epoch = self._epochs.get((origin, target_rank))
        if epoch is None:
            self._violate(
                RMASyncError(f"flush({target_rank}) outside an epoch"),
                "flush", "flush", target_rank, _NOTHING_TO_FLUSH % "flush",
            )
        if epoch.pending_gets:
            self._deliver_gets(epoch)
        if epoch.recorded:
            # flushed ops no longer conflict with later ops of this epoch;
            # only a set that recorded something is replaced (a flush
            # typically follows one op, i.e. one class of access)
            if epoch.puts.count:
                epoch.puts = _IntervalSet()
            if epoch.gets.count:
                epoch.gets = _IntervalSet()
            epoch.accs = {}
            epoch.recorded = 0

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
            mine = [t for (o, t) in self._epochs if o == origin]
            if not mine:
                # a no-op for the window; only a sanitizer objects
                self._violate(
                    None, "flush", "flush_all", -1, _NOTHING_TO_FLUSH % "flush_all"
                )
            for t in mine:
                self._flush(origin, t)
            self.runtime.notify_progress()
        self._charge_sync("flush")

    def _atomic_section(self, target_rank: int) -> Any:
        """Context entered with ``runtime.cond`` held around the body of
        ``accumulate``, ``fetch_and_op`` and ``compare_and_swap``.

        The one hook a backend supplies to make them atomic in shared
        epochs; here ``runtime.cond`` already serialises every rank, so
        the section is its (reentrant) lock, taken once more.
        """
        return self.runtime.giant_lock

    def fetch_and_op(
        self,
        value: "int | float",
        target_rank: int,
        target_offset: int,
        datatype: dt.Datatype = dt.LONG,
        op="MPI_SUM",
    ) -> "int | float":
        """Atomic read-modify-write on one element (MPI-3 MPI_Fetch_and_op)."""
        self._require_mpi3("fetch_and_op")
        op = mpi_ops.lookup(op)
        with self.runtime.cond, self._atomic_section(target_rank):
            buf = self._atomic_view(target_rank, target_offset, datatype)
            old = buf[0].item()
            if op is not mpi_ops.NO_OP:
                src = np.array([value], dtype=datatype.base)
                op.apply(buf, src)
            self.runtime.notify_progress()
        self._charge_op("rmw", datatype.size, 1)
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
        with self.runtime.cond, self._atomic_section(target_rank):
            buf = self._atomic_view(target_rank, target_offset, datatype)
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
    ) -> None:
        """One-sided put (MPI_Put); completes at unlock."""
        view, omap, segmap, nbytes = self._op_maps(
            "put", origin, origin_datatype, origin_count,
            target_rank, target_offset, target_datatype, target_count,
        )
        rt = self.runtime
        with rt.giant_lock:
            epoch = self._require_epoch(target_rank, "put")
            self._record_access(epoch, "put", None, segmap, origin)
            buf = self._buffers[target_rank]
            if rt.faults is None:
                segmap.copy_from(buf, omap, view)
            else:  # the injector filters the packed payload
                payload = self._fault_filter(
                    "put", self._gather_origin(view, omap, target_rank)
                )
                if payload is not None:
                    segmap.scatter(buf, payload)
            op_index = epoch.op_count
            epoch.op_count += 1
            epoch.bytes_moved += nbytes
            rt.notify_progress()
        self._charge_op("put", nbytes, segmap.nsegments, op_index)

    def get(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_offset: int = 0,
        target_datatype: "dt.Datatype | None" = None,
        target_count: int = 1,
        origin_datatype: "dt.Datatype | None" = None,
        origin_count: int = 1,
    ) -> None:
        """One-sided get (MPI_Get); data lands in ``origin`` at unlock/flush."""
        view, omap, segmap, nbytes = self._op_maps(
            "get", origin, origin_datatype, origin_count,
            target_rank, target_offset, target_datatype, target_count,
        )
        rt = self.runtime
        with rt.giant_lock:
            epoch = self._require_epoch(target_rank, "get")
            self._record_access(epoch, "get", None, segmap, origin)
            # the target is read when the get completes, which is where MPI
            # places it; an injector filters a payload staged now instead
            source: "dt.SegmentMap | np.ndarray | None" = segmap
            if rt.faults is not None:
                source = self._fault_filter(
                    "get", segmap.gather(self._buffers[target_rank], copy=True)
                )
            if source is not None:
                epoch.pending_gets.append((view, omap, source))
            op_index = epoch.op_count
            epoch.op_count += 1
            epoch.bytes_moved += nbytes
            rt.notify_progress()
        self._charge_op("get", nbytes, segmap.nsegments, op_index)

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
    ) -> None:
        """One-sided accumulate (MPI_Accumulate) with a predefined op.

        Element type is taken from the datatype's predefined leaf type
        (or the origin array's dtype when no datatype is given).  An
        accumulate that is rejected — its element type, or target segments
        that are not whole elements — records and counts nothing.
        """
        op = mpi_ops.lookup(op)
        view, omap, segmap, nbytes = self._op_maps(
            "acc", origin, origin_datatype, origin_count,
            target_rank, target_offset, target_datatype, target_count,
        )
        base = (
            target_datatype.base
            if target_datatype is not None
            else np.asarray(origin).dtype
        )
        if base == _VOID or base.itemsize == 0:
            raise ArgumentError("accumulate: cannot infer element type")
        data = self._gather_origin(view, omap, target_rank)
        rt = self.runtime
        with rt.giant_lock, self._atomic_section(target_rank):
            epoch = self._require_epoch(target_rank, "acc")
            _check_acc_alignment(segmap, base)
            self._record_access(epoch, "acc", op.name, segmap, origin)
            payload = self._fault_filter("acc", data)
            if payload is not None:
                _accumulate_into(self._buffers[target_rank], segmap, payload, base, op)
            op_index = epoch.op_count
            epoch.op_count += 1
            epoch.bytes_moved += nbytes
            rt.notify_progress()
        self._charge_op("acc", nbytes, segmap.nsegments, op_index)

    def rput(self, origin: np.ndarray, target_rank: int, *args: Any, **kw: Any):
        """Request-based put (MPI-3); completion of the request = local done."""
        self._require_mpi3("rput")
        self.put(origin, target_rank, *args, **kw)
        req = _DoneRequest()
        self._register_request(target_rank, req)
        return req

    def rget(self, origin: np.ndarray, target_rank: int, **kw: Any):
        """Request-based get (MPI-3): data is delivered at request wait."""
        self._require_mpi3("rget")
        self.get(origin, target_rank, **kw)
        o = current_proc().rank
        win = self

        class _GetRequest(_DoneRequest):
            __slots__ = ()

            def wait(self):
                with win.runtime.cond:
                    epoch = win._epochs.get((o, target_rank))
                    if epoch is not None:
                        win._deliver_gets(epoch)
                return super().wait()

            def test(self):
                self.wait()
                return True, None

        req = _GetRequest()
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
            epoch = self._epochs.get((origin, target_rank))
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
                epoch = self._epochs.get((origin, me))
                ok = epoch is not None and epoch.mode == LOCK_EXCLUSIVE
                if not ok and self._open.get(origin) == _LOCK_ALL:
                    ok = True  # MPI-3 unified-model relaxation
                if not ok:
                    self._violate(
                        RMASyncError(
                            "direct local access requires an exclusive self-lock "
                            "(use ARMCI access_begin/access_end)"
                        ) if self.strict else None,
                        "local-load-store", "local_view", me,
                        "direct load/store of exposed memory without an "
                        "exclusive self-lock",
                    )
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
        self._violate(
            RMARangeError(
                f"{what} outside window of {nbytes}B at target {target_rank}"
            ),
            "range", op, target_rank,
            f"datatype footprint exceeds the {nbytes}-byte window region at "
            "the target",
            ((lo, hi),),
        )

    def _require_epoch(self, target_rank: int, op: str) -> _Epoch:
        """The calling origin's epoch on ``target_rank`` (``runtime.cond``
        held): where a data op learns who is calling, once, and that both
        ends are alive."""
        rt = self.runtime
        # current_proc() only to raise its error outside an SPMD region
        proc = getattr(_tls, "proc", None) or current_proc()
        if proc.dead:
            rt.check_self_alive()
        if self._world_of[target_rank] in rt.dead_ranks:
            raise TargetFailedError(
                f"RMA operation on failed target rank {target_rank} "
                f"of win {self.win_id}"
            )
        origin = proc.rank
        epoch = self._epochs.get((origin, target_rank))
        if epoch is None:
            epoch = self._fence_epoch(origin, target_rank)
        if epoch is None:
            self._violate(
                RMASyncError(
                    f"RMA operation on target {target_rank} outside an access epoch"
                ),
                "epoch", op, target_rank, "RMA operation outside any access epoch",
            )
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

    def _record_access(
        self,
        epoch: _Epoch,
        kind: str,
        opname: "str | None",
        segmap: dt.SegmentMap,
        origin_buf: np.ndarray,
    ) -> None:
        """Apply the conflict-class rules to one put/get/acc, then record it."""
        if not self._checked():
            return
        if kind != "acc" and segmap.overlaps_self():
            msg = f"{kind} with self-overlapping target segments within one operation"
            self._violate(
                RMAConflictError(msg) if self.strict else None,
                "conflict", kind, epoch.target, msg,
            )
        san = self.runtime.sanitizer
        if san is not None:
            san.on_op(self, epoch.origin, kind, origin_buf, epoch.mode, epoch.target)
        # the footprint is the target map itself (see _IntervalSet)
        self._admit(epoch, kind, opname, segmap)

    def _admit(
        self, epoch: _Epoch, kind: str, opname: "str | None", fp: dt.SegmentMap
    ) -> None:
        """Fail on the first earlier access the new one (target footprint
        ``fp``) conflicts with, then record it in ``epoch``.

        Searched in the origin's own epoch, then in the concurrently open
        epochs of other origins on the same target (possible only under
        shared locks and fence epochs).
        """
        other = epoch
        hit = epoch.conflict_class(kind, opname, fp)
        if hit is None:
            target, origin = epoch.target, epoch.origin
            for (o, t), other in self._epochs.items():
                if t == target and o != origin:
                    hit = other.conflict_class(kind, opname, fp)
                    if hit is not None:
                        break
        if hit is not None:
            desc = _RMW if opname == _RMW else kind
            if other is epoch:
                plain = (
                    f"{kind} conflicts with earlier {hit} in the same epoch "
                    f"(origin {epoch.origin} -> target {epoch.target})"
                )
                who = "in the same epoch"
            else:
                plain = (
                    f"{kind} by origin {epoch.origin} conflicts with concurrent "
                    f"{hit} by origin {other.origin} on target {epoch.target} "
                    "(both hold shared locks)"
                )
                who = f"in a concurrent epoch of origin {other.origin}"
            # the window has no rule of its own about atomics' footprints
            enforced = self.strict and opname != _RMW and hit != f"acc({_RMW})"
            lo, hi = fp.bounds()
            self._violate(
                RMAConflictError(plain) if enforced else None,
                "acc-interleave" if kind == "acc" and hit.startswith("acc") else "conflict",
                desc, epoch.target, f"{desc} overlaps an earlier {hit} access {who}",
                ((int(lo), int(hi)),),
            )
        epoch.recorded += 1
        if kind == "put":
            epoch.puts.add(fp)
        elif kind == "get":
            epoch.gets.add(fp)
        else:
            name = opname or ""
            cover = epoch.accs.get(name)
            if cover is None:
                cover = epoch.accs[name] = _IntervalSet()
            cover.add(fp)

    def _atomic_view(
        self, target_rank: int, target_offset: int, datatype: dt.Datatype
    ) -> np.ndarray:
        """The element an MPI-3 atomic operates on, after the rule checks.

        The window treats atomics as self-contained and never
        conflict-checks them; only when a sanitizer is installed is their
        footprint checked and recorded, as one mutually atomic accumulate
        class — mixed atomics on one counter are clean, an atomic racing
        a put/get in the same epoch is not.
        """
        epoch = self._require_epoch(target_rank, _RMW)
        disp = target_offset * self._disp_units[target_rank]
        end = disp + datatype.size
        buf = self._buffers[target_rank]
        if disp < 0 or end > buf.nbytes:
            self._out_of_range(
                f"atomic access [{disp},{end})", _RMW, disp, end, target_rank
            )
        if self.runtime.sanitizer is not None and self._checked():
            fp = dt.SegmentMap.arithmetic(disp, datatype.size, datatype.size, 1)
            self._admit(epoch, "acc", _RMW, fp)
        return buf[disp:end].view(datatype.base)

    def _audit_requests(self, epoch: _Epoch) -> None:
        """A closing epoch must leave no request-based op unwaited.

        ``pending_reqs`` is only ever filled for a sanitizer (see
        :meth:`_register_request`); the window has no such rule itself.
        """
        pending = sum(1 for r in epoch.pending_reqs if not r.completed)
        if pending:
            self._violate(
                None, "request", "unlock", epoch.target,
                f"{pending} request-based op(s) (rput/rget) never completed "
                "with wait/test before the epoch closed",
            )

    def _deliver_gets(self, epoch: _Epoch) -> None:
        buf = self._buffers[epoch.target]
        for user_view, origin_segmap, source in epoch.pending_gets:
            if isinstance(source, dt.SegmentMap):
                origin_segmap.copy_from(user_view, source, buf)
            else:
                origin_segmap.scatter(user_view, source)
        epoch.pending_gets.clear()

    # -- modeled time --------------------------------------------------------------------
    # (a fuzz point is only reached with a schedule or fault injector installed)
    def _charge_sync(self, kind: str) -> None:
        rt = self.runtime
        if rt.timing is not None:
            cost = rt.timing.rma_sync_cost(kind)
            current_proc().clock.advance(cost, kind=f"rma:{kind}")
        if rt.schedule is not None or rt.faults is not None:
            rt.fuzz_point(f"rma:{kind}")

    def _charge_op(self, kind: str, nbytes: int, nsegments: int, op_index: int = 0) -> None:
        rt = self.runtime
        if rt.timing is not None:
            cost = rt.timing.rma_op_cost(kind, nbytes, nsegments, op_index)
            current_proc().clock.advance(cost, kind=f"rma:{kind}", nbytes=nbytes)
        if rt.schedule is not None or rt.faults is not None:
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


def _check_acc_alignment(segmap: dt.SegmentMap, base: np.dtype) -> None:
    """An accumulate's target segments must be whole ``base`` elements.

    Every row of a progression is aligned iff the first one, the row
    length and (past one row) the step are, so an arithmetic map is
    decided from its four integers; the error names the first misaligned
    interval either way.
    """
    itemsize = base.itemsize
    if itemsize <= 1 or not segmap.total_bytes:
        return
    arith = segmap._arith_params()
    if arith is not None:
        start, step, seg_len, n = arith
        misaligned = start % itemsize or seg_len % itemsize or (n > 1 and step % itemsize)
    else:
        misaligned = np.any(segmap.offsets % itemsize) or np.any(segmap.lengths % itemsize)
    if misaligned:
        lo, hi = next(
            iv for iv in segmap.intervals() if iv[0] % itemsize or iv[1] % itemsize
        )
        raise ArgumentError(
            f"accumulate segment [{lo},{hi}) not aligned to {base} elements"
        )


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
