"""The RMA access rules of MPI passive- and active-target windows (§III, §V).

These rules shaped the whole ARMCI-MPI design:

* **Passive target epochs.**  All one-sided ops must happen between
  ``lock(target)`` and ``unlock(target)``; ops outside an epoch raise
  :class:`~repro.mpi.errors.RMASyncError`.
* **Shared vs exclusive locks** with FIFO-fair queuing; a process may
  hold at most **one** lock per window at a time (the MPI-2 restriction
  that forbids ARMCI-MPI from locking a local and a remote window region
  of the same window simultaneously and forces buffer staging, §V-E.1),
  and passive and active epochs do not nest (:func:`check_nesting`).
* **Conflicting accesses are erroneous.**  Overlapping put/get/acc within
  one epoch, or between concurrently open epochs of different origins
  (possible only under shared locks), raise
  :class:`~repro.mpi.errors.RMAConflictError` — except
  accumulate-vs-accumulate with the same op, which MPI permits
  (:func:`find_conflict`), and so do put/get target segments that
  overlap each other (:func:`self_overlap`).  Real MPI may silently
  corrupt data in these cases; they are detected eagerly so tests can
  prove ARMCI-MPI never triggers them.
* **Accumulates combine whole elements** (:func:`_check_acc_alignment`),
  and an atomic op's target bytes are one *footprint slot*, the rows
  ``(lo, hi, step, seg_len, n)`` (:func:`_footprint_slot`) that the proc
  backend reserves and compares (:func:`_slots_overlap`).
* **Local load/store** of exposed memory requires an exclusive self-lock
  when strict checking is on (the public/private window-copy rule of
  §III that motivated the ARMCI DLA extension).

This module holds the nesting, conflict, self-overlap, alignment and
slot rules as pure functions over plain records — an epoch's
:class:`Accesses`, a target's open epochs, segment maps and slots — and
imports no runtime, communicator or backend (the epoch and local
load/store rules are one test each of the window's own state, made in
:class:`~repro.mpi.window.Win`).  A rule that fails returns a
:class:`Finding`; ``Win`` routes it to ``Win._violate``, its one exit,
which raises the plain MPI error or hands the finding to an installed
sanitizer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import datatypes as dt
from .errors import ArgumentError

__all__ = [
    "INTERVAL_COMPACT_AT",
    "Accesses",
    "Finding",
    "check_nesting",
    "conflict_class",
    "find_conflict",
    "forget_accesses",
    "record_access",
    "self_overlap",
]

#: an origin's epoch record (``Win._open``) holds the target of its
#: ``lock``, or one of these for the window-wide epochs
LOCK_ALL = "lock_all"
FENCE = "fence"
_EPOCH_NAMES = {LOCK_ALL: "a lock_all epoch", FENCE: "an active-target fence epoch"}

#: access class of the MPI-3 atomics' footprints, tracked only for a sanitizer
RMW = "rmw"

#: pending additions an :class:`_IntervalSet` tolerates before folding them
#: into its compacted disjoint coverage (amortises the sort; see class doc)
INTERVAL_COMPACT_AT = 8


class Finding(NamedTuple):
    """A failed rule: its ``repro.sanitizer.ViolationKind`` value, the text
    of the plain MPI error (None for a rule the window does not enforce by
    itself, which only a sanitizer reports), the sanitizer's detail, and
    the byte ranges involved."""

    kind: str
    plain: "str | None"
    detail: str
    ranges: tuple = ()


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
        lo, hi = fp._bounds or fp.bounds()  # (the memo, read without a call)
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
            o = o[starts]
            l = ends[run_ends - 1] - o
        self._cov_off, self._cov_len = o, l
        self._pending.clear()

    def overlaps(self, fp: dt.SegmentMap) -> bool:
        if self.count == 0 or fp.nsegments == 0:
            return False
        # disjoint bounding boxes cannot overlap: O(1), nothing materialised
        q_lo, q_hi = fp._bounds or fp.bounds()
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
            p_lo, p_hi = p._bounds  # (memoised when it was added)
            # only where the boxes meet are the segments themselves compared
            if q_lo < p_hi and q_hi > p_lo and meets(
                p.offsets, p.lengths, p.nsegments == 1 or p._arith_params() is not None
            ):
                return True
        return False


class Accesses:
    """What the conflict rules read of an open epoch of ``origin`` (a world
    rank) on ``target`` (a window rank): its lock mode (or :data:`FENCE`)
    and the byte coverage of each access class recorded since the epoch's
    last completion."""

    __slots__ = ("origin", "target", "mode", "puts", "gets", "accs", "recorded")

    def __init__(self, origin: int, target: int, mode: str):
        self.origin = origin
        self.target = target
        self.mode = mode
        self.puts = _IntervalSet()
        self.gets = _IntervalSet()
        #: one coverage per accumulate op name (``RMW`` for the atomics)
        self.accs: dict[str, _IntervalSet] = {}
        #: accesses recorded since the last completion: none, nothing to
        #: conflict with
        self.recorded = 0


def record_access(rec: Accesses, kind: str, opname: "str | None", fp: dt.SegmentMap) -> None:
    """Record an admitted access of ``kind`` (``"put"``/``"get"``/``"acc"``,
    ``opname`` the accumulate's) with target footprint ``fp``."""
    rec.recorded += 1
    if kind == "put":
        rec.puts.add(fp)
    elif kind == "get":
        rec.gets.add(fp)
    else:
        name = opname or ""
        cover = rec.accs.get(name)
        if cover is None:
            cover = rec.accs[name] = _IntervalSet()
        cover.add(fp)


def forget_accesses(rec: Accesses) -> None:
    """Completed ops no longer conflict with later ops of their epoch.
    Only a set that recorded something is replaced (a flush typically
    follows one op, i.e. one class of access)."""
    if rec.puts.count:
        rec.puts = _IntervalSet()
    if rec.gets.count:
        rec.gets = _IntervalSet()
    rec.accs = {}
    rec.recorded = 0


def conflict_class(
    rec: Accesses, kind: str, opname: "str | None", fp: dt.SegmentMap
) -> "str | None":
    """Name of the first access class of ``rec`` that conflicts with a new
    ``kind`` access whose target footprint is ``fp``: gets conflict with
    everything but gets, puts with everything, accumulates with everything
    but accumulates of the same op (MPI-2 §11.7.1)."""
    if not rec.recorded:  # nothing since the last completion
        return None
    if kind != "get" and rec.gets.overlaps(fp):
        return "get"
    if rec.puts.overlaps(fp):
        return "put"
    for name, cover in rec.accs.items():
        if kind == "acc" and name == opname:
            continue  # same-op accumulates may overlap
        if cover.overlaps(fp):
            return f"acc({name})"
    return None


def find_conflict(
    rec: Accesses,
    open_at_target: "dict[int, Accesses]",
    kind: str,
    opname: "str | None",
    fp: dt.SegmentMap,
    strict: bool,
) -> "Finding | None":
    """The first earlier access a new one conflicts with: searched in the
    origin's own epoch ``rec``, then in the concurrently open epochs of
    other origins on the same target (possible only under shared locks and
    fence epochs), ``open_at_target`` being every epoch open on that
    target, by origin.

    The plain error fires on a ``strict`` window only, and never for the
    atomics' footprints (``opname`` :data:`RMW`), which only a sanitizer
    checks.
    """
    # (a record with nothing recorded conflicts with nothing: not asked)
    other = rec
    hit = conflict_class(rec, kind, opname, fp) if rec.recorded else None
    if hit is None:
        for o, other in open_at_target.items():
            if (
                o != rec.origin and other.recorded
                and (hit := conflict_class(other, kind, opname, fp))
            ):
                break
        else:
            return None
    desc = RMW if opname == RMW else kind
    if other is rec:
        plain = (
            f"{kind} conflicts with earlier {hit} in the same epoch "
            f"(origin {rec.origin} -> target {rec.target})"
        )
        who = "in the same epoch"
    else:
        plain = (
            f"{kind} by origin {rec.origin} conflicts with concurrent "
            f"{hit} by origin {other.origin} on target {rec.target} "
            "(both hold shared locks)"
        )
        who = f"in a concurrent epoch of origin {other.origin}"
    enforced = strict and opname != RMW and hit != f"acc({RMW})"
    lo, hi = fp.bounds()
    return Finding(
        "acc-interleave" if kind == "acc" and hit.startswith("acc") else "conflict",
        plain if enforced else None,
        f"{desc} overlaps an earlier {hit} access {who}",
        ((int(lo), int(hi)),),
    )


def self_overlap(kind: str, fp: dt.SegmentMap, strict: bool) -> "Finding | None":
    """A put or get whose target segments overlap each other within the
    one operation is erroneous (an accumulate's may: same-op accumulates
    combine in order); the plain error fires on a ``strict`` window."""
    if kind == "acc" or fp.nsegments < 2 or not fp.overlaps_self():
        return None
    msg = f"{kind} with self-overlapping target segments within one operation"
    return Finding("conflict", msg if strict else None, msg)


def check_nesting(origin: int, rec: "int | str | None", op: str) -> "Finding | None":
    """The one nesting rule of ``lock``, ``lock_all`` and ``fence_sync``
    (``op``) against ``origin``'s epoch record ``rec`` — the target of its
    lock, :data:`LOCK_ALL`, :data:`FENCE` or None: one lock per window per
    process (MPI-2), and passive and active epochs do not overlap —
    successive fences are how fence epochs end."""
    if rec is None or (op == "fence_sync" and rec == FENCE):
        return None
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
    elif rec == FENCE:  # not a rule the window enforces by itself
        plain, detail = None, f"lock_all inside {epoch}"
    else:
        plain = "lock_all while already in an epoch"
        detail = f"lock_all while already in {epoch}" if epoch else (
            f"lock_all while holding a lock on target {rec} of this window"
        )
    return Finding("lock-nesting", plain, detail)


def _footprint_slot(fp: dt.SegmentMap) -> "tuple | None":
    """The rows ``(lo, hi, step, seg_len, n)`` an atomic op with target
    footprint ``fp`` reserves (see ``Win._atomic_section``): its
    arithmetic progression, or its bounding box as one row when it is
    none — or None for a zero-byte op, which reserves nothing."""
    if not fp.total_bytes:
        return None
    arith = fp._arith_params()
    if arith is None:
        lo, hi = fp.bounds()
        return lo, hi, hi - lo, hi - lo, 1
    start, step, seg_len, n = arith
    return start, start + (n - 1) * step + seg_len, step, seg_len, n


def _slots_overlap(a: tuple, b: tuple) -> bool:
    """Whether two footprint slots may share a byte.

    Exact when either is one row or both share a step (every GA piece of
    one array); otherwise the bounding boxes decide, which errs only
    towards "overlap" (as does reserving the bounding box of a footprint
    that is no progression).  Row ``i`` of ``a`` meets row ``j`` of ``b``
    iff ``-seg_len_b < d + k*step < seg_len_a`` with ``d = lo_b - lo_a``
    and ``k = j - i``, so the footprints meet iff that window of ``k``
    meets ``[1 - n_a, n_b - 1]``.
    """
    a0, a1, sa, la, na = a
    b0, b1, sb, lb, nb = b
    if b0 >= a1 or a0 >= b1:
        return False
    if na > 1 and nb > 1 and sa != sb:
        return True
    step = sa if na > 1 else sb
    d = b0 - a0
    return max(1 - na, -((lb + d - 1) // step)) <= min(nb - 1, (la - d - 1) // step)


def _check_acc_alignment(segmap: dt.SegmentMap, base: np.dtype) -> "tuple | None":
    """An accumulate's target segments must be whole ``base`` elements;
    returns the map's :func:`_footprint_slot`.

    Every row of a progression is aligned iff the first one, the row
    length and (past one row) the step are, so an arithmetic map is
    decided from its four integers; the error names the first misaligned
    interval either way.
    """
    slot = _footprint_slot(segmap)
    itemsize = base.itemsize
    if itemsize <= 1 or slot is None:
        return slot
    start, _, step, seg_len, n = slot
    if n == segmap.nsegments:  # the slot is the map's progression, not its box
        misaligned = start % itemsize or seg_len % itemsize or (n > 1 and step % itemsize)
    else:
        misaligned = np.any(segmap.offsets % itemsize) or np.any(segmap.lengths % itemsize)
    if not misaligned:
        return slot
    lo, hi = next(
        iv for iv in segmap.intervals() if iv[0] % itemsize or iv[1] % itemsize
    )
    raise ArgumentError(
        f"accumulate segment [{lo},{hi}) not aligned to {base} elements"
    )
