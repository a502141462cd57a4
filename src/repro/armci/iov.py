"""Generalized I/O vector (IOV) operations — §VI-A, §VI-B.

ARMCI's ``armci_giov_t`` describes N equal-length segments to move
between the local process and one remote process.  ARMCI-MPI provides
four transfer methods (selected by
:class:`~repro.armci.config.ArmciConfig`):

``conservative``
    one RMA operation per segment, **each in its own epoch** — correct
    even when segments overlap or belong to different GMRs (different
    ARMCI_Malloc calls).
``batched``
    up to B operations per epoch (B=0 → one epoch for everything).
    Requires all segments in one GMR with no overlap, since ops in one
    epoch are concurrent under MPI-2.
``direct``
    two MPI indexed datatypes (origin and target layouts) and a single
    RMA operation — MPI chooses pack/unpack vs scatter/gather.
    Same preconditions as batched.
``auto``
    scan the descriptor (conflict tree of §VI-B, O(N·log N)) and use
    ``direct`` when safe, falling back to ``conservative`` when
    segments overlap or span GMRs — because letting MPI detect the
    error is allowed to corrupt data first (§VI-B).

The scan checks the side being *written* (remote for put/acc, local for
get): MPI permits overlapping reads within an epoch, and overlapping
same-op accumulates, but overlapping writes are erroneous.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..mpi import datatypes as dt
from ..mpi.errors import ArgumentError, RMARangeError
from .conflict_tree import ConflictTree

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci
    from .gmr import Gmr


@dataclass(frozen=True)
class IovRequest:
    """A fully resolved IOV operation against one remote process."""

    kind: str  # "put" | "get" | "acc"
    local: np.ndarray  # flat uint8 view of the local buffer
    loc_offsets: np.ndarray  # int64 byte offsets into `local`
    rank: int  # absolute remote process id
    rem_addrs: np.ndarray  # int64 virtual addresses on `rank`
    seg_bytes: int
    acc_dtype: "np.dtype | None" = None  # element type for accumulate

    def __post_init__(self) -> None:
        if self.kind not in ("put", "get", "acc"):
            raise ArgumentError(f"bad IOV kind {self.kind!r}")
        if len(self.loc_offsets) != len(self.rem_addrs):
            raise ArgumentError(
                f"IOV: {len(self.loc_offsets)} local vs {len(self.rem_addrs)} "
                "remote segments"
            )
        if self.seg_bytes < 0:
            raise ArgumentError(f"negative segment size {self.seg_bytes}")
        if self.seg_bytes and len(self.loc_offsets):
            lo, hi = int(self.loc_offsets.min()), int(self.loc_offsets.max())
            if lo < 0 or hi + self.seg_bytes > self.local.nbytes:
                # a slice would silently truncate (or wrap) such a segment
                raise ArgumentError(
                    f"IOV: a {self.seg_bytes}-byte local segment at offsets "
                    f"{lo}..{hi} leaves the {self.local.nbytes}-byte local buffer"
                )
        if self.kind == "acc":
            if self.acc_dtype is None:
                raise ArgumentError("accumulate IOV requires acc_dtype")
            if self.seg_bytes % np.dtype(self.acc_dtype).itemsize:
                raise ArgumentError(
                    f"accumulate IOV: segment of {self.seg_bytes} bytes is "
                    f"not a whole number of {self.acc_dtype} elements"
                )

    @property
    def nsegments(self) -> int:
        return len(self.loc_offsets)

    def segment(self, loc_off: int) -> np.ndarray:
        """The local segment at ``loc_off``, as one contiguous RMA op wants
        it (an accumulate takes its element type from the array)."""
        seg = self.local[loc_off : loc_off + self.seg_bytes]
        return seg if self.kind != "acc" else seg.view(self.acc_dtype)


def execute(armci: "Armci", req: IovRequest, method: "str | None" = None) -> "str | None":
    """Run one IOV operation with the configured (or given) method; returns
    the method that ran (None: an empty descriptor, nothing moved)."""
    if req.nsegments == 0 or req.seg_bytes == 0:
        return None
    method = method or armci.config.iov_method
    single = None  # the one GMR of the segments, where auto already resolved it
    if method == "auto":
        method, single = _auto_select(armci, req)
    if method == "conservative":
        _conservative(armci, req)
    elif method == "batched":
        _batched(armci, req)
    elif method == "direct":
        _direct(armci, req, single or _require_single_gmr(armci, req, "direct"))
    else:  # pragma: no cover - config validates
        raise ArgumentError(f"unknown IOV method {method!r}")
    return method


# ---------------------------------------------------------------------------
# GMR resolution (§V-A for an address array; each hit passes the §VIII-A gate)
# ---------------------------------------------------------------------------


def _lookup(armci: "Armci", req: IovRequest, addr: int) -> "tuple[Gmr, int, int]":
    """(gmr, window rank, slab base) of one remote segment address."""
    gmr = armci.table.lookup(req.rank, addr)
    if gmr is None:
        raise ArgumentError(
            f"IOV segment address {addr:#x} on process {req.rank} "
            "is not in any GMR"
        )
    armci._check_mode(gmr, req.kind)
    win_rank = gmr.win_rank_of_absolute(req.rank)
    return gmr, win_rank, gmr.bases[win_rank]


def _resolve_single_gmr(armci: "Armci", req: IovRequest):
    """``(gmr, win_rank, base)`` of the one GMR containing every remote
    segment, or None if they span several."""
    gmr, win_rank, base = _lookup(armci, req, int(req.rem_addrs[0]))
    lo = int(req.rem_addrs.min())
    hi = int(req.rem_addrs.max()) + req.seg_bytes
    if lo >= base and hi <= base + gmr.sizes[win_rank]:
        return gmr, win_rank, base
    return None


def _resolve_per_segment(armci: "Armci", req: IovRequest):
    """(gmr, win_rank, displacement) per segment (conservative path),
    every segment range-checked before the first one is issued."""
    out = []
    for addr in req.rem_addrs.tolist():
        gmr, win_rank, base = _lookup(armci, req, addr)
        disp = addr - base
        if disp + req.seg_bytes > gmr.sizes[win_rank]:
            raise RMARangeError(
                f"IOV segment [{addr:#x}, +{req.seg_bytes}) on process "
                f"{req.rank} overruns its {gmr.sizes[win_rank]}-byte GMR slice"
            )
        out.append((gmr, win_rank, disp))
    return out


# ---------------------------------------------------------------------------
# auto method: §VI-B descriptor checking
# ---------------------------------------------------------------------------


def _written_side_offsets(req: IovRequest) -> np.ndarray:
    return req.loc_offsets if req.kind == "get" else req.rem_addrs


def descriptor_is_safe(req: IovRequest) -> bool:
    """True if the written-side segments are pairwise disjoint.

    Same-op accumulates may overlap under MPI, but a *single* datatype
    operation may not access one location twice, so the auto method is
    conservative for accumulate too — matching the real ARMCI-MPI.
    """
    offs = _written_side_offsets(req)
    n = req.seg_bytes
    tree = ConflictTree()
    for o in offs.tolist():
        if not tree.insert(int(o), int(o) + n - 1):
            return False
    return True


def _auto_select(armci: "Armci", req: IovRequest):
    """``(method, resolved single GMR or None)``: direct when it is safe."""
    single = _resolve_single_gmr(armci, req)
    if single is None or not descriptor_is_safe(req):
        return "conservative", None
    return "direct", single


# ---------------------------------------------------------------------------
# transfer methods
# ---------------------------------------------------------------------------


def _conservative(armci: "Armci", req: IovRequest) -> None:
    """One op per segment, one epoch (or flush cycle) per op.

    Handles multi-GMR and overlap: under the mpi3 datapath the per-op
    flush clears the standing epoch's access coverage, so overlapping
    segments are as legal as they are with one exclusive epoch each.
    """
    resolved = _resolve_per_segment(armci, req)
    for (gmr, win_rank, disp), loc_off in zip(resolved, req.loc_offsets.tolist()):
        armci._in_epoch(
            gmr, win_rank, req.kind,
            armci._issue, gmr.win, req.kind, req.segment(loc_off), win_rank, disp,
        )


def _batched(armci: "Armci", req: IovRequest) -> None:
    """Up to B ops per epoch (B = config.iov_batch_size; 0 = unlimited).

    Under the mpi3 datapath each batch is issued into the standing
    lock_all epoch and completed by one per-target flush.
    """
    gmr, win_rank, base = _require_single_gmr(armci, req, "batched")
    disps = (req.rem_addrs - base).tolist()
    loc_offs = req.loc_offsets.tolist()
    B = armci.config.iov_batch_size or req.nsegments

    def issue_batch(start: int, flush: bool = False) -> None:
        try:
            for i in range(start, min(start + B, req.nsegments)):
                armci._issue(gmr.win, req.kind, req.segment(loc_offs[i]), win_rank, disps[i])
        finally:
            if flush:
                gmr.win.flush(win_rank)

    for start in range(0, req.nsegments, B):
        armci._in_epoch(gmr, win_rank, req.kind, issue_batch, start)


#: bound on the direct-method layout memo below (entries, LRU eviction)
IOV_DATATYPE_CACHE_MAX = 128

#: (elem name, block length, displacement bytes) -> committed hindexed type.
#: GA's gather/scatter phases replay the same IOV layouts (identical
#: displacement vectors) many times per iteration; the displacement array's
#: raw bytes key the memo so a hit costs one hash of an int64 buffer
#: instead of rebuilding + re-flattening a thousand-segment datatype.
_iov_dt_cache: "OrderedDict[tuple, dt.Datatype]" = OrderedDict()


def _hindexed_cached(blocks: int, disps: np.ndarray, elem: dt.Datatype) -> dt.Datatype:
    key = (elem.name, blocks, disps.tobytes())
    hit = _iov_dt_cache.get(key)
    if hit is not None:
        _iov_dt_cache.move_to_end(key)
        return hit.commit()  # re-commit in case a caller free()d it
    built = dt.hindexed([blocks] * len(disps), disps.tolist(), elem).commit()
    _iov_dt_cache[key] = built
    if len(_iov_dt_cache) > IOV_DATATYPE_CACHE_MAX:
        _iov_dt_cache.popitem(last=False)
    return built


def iov_datatype_cache_clear() -> None:
    """Drop all memoised IOV layouts (test/bench hook)."""
    _iov_dt_cache.clear()


def iov_datatype_cache_len() -> int:
    return len(_iov_dt_cache)


def _direct(armci: "Armci", req: IovRequest, single: "tuple[Gmr, int, int]") -> None:
    """One RMA op with indexed datatypes describing both layouts (§VI-A);
    ``single`` is the segments' resolved ``(gmr, window rank, slab base)``."""
    gmr, win_rank, base = single
    elem = dt.BYTE if req.kind != "acc" else dt.from_numpy_dtype(req.acc_dtype)
    blocks = req.seg_bytes // elem.size  # whole elements: IovRequest checked
    target_t = _hindexed_cached(blocks, req.rem_addrs - base, elem)
    origin_t = _hindexed_cached(blocks, req.loc_offsets, elem)
    armci._in_epoch(
        gmr, win_rank, req.kind,
        armci._issue, gmr.win, req.kind, req.local, win_rank, 0, origin_t, target_t,
    )


def _require_single_gmr(armci: "Armci", req: IovRequest, method: str):
    single = _resolve_single_gmr(armci, req)
    if single is None:
        raise ArgumentError(
            f"IOV {method} method requires all segments in one GMR; "
            "use method='conservative' or 'auto' (§VI-A)"
        )
    return single
