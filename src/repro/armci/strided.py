"""ARMCI strided notation and its two translations (§VI-C, Table I).

ARMCI/GA strided notation describes an n-D patch transfer compactly:

=============  ==============================================
``src, dst``   base pointers
``sl``         stride levels (dimensionality - 1)
``count[]``    length ``sl+1``; ``count[0]`` is the contiguous
               byte length, ``count[i>0]`` are repetition counts
``src_strd[]`` source byte strides, length ``sl``
``dst_strd[]`` destination byte strides, length ``sl``
=============  ==============================================

Two translations are implemented, as in the paper:

1. **Algorithm 1** — the strided→IOV conversion: enumerate every
   contiguous segment's displacement.  :func:`algorithm1_iter` is a
   literal transcription of the paper's pseudocode (odometer index
   vector with carry propagation) used as the reference;
   :func:`segment_displacements` is the vectorised equivalent used in
   production (identical traversal order, verified by property tests).
2. **Direct subarray translation** — reconstruct the parent-array
   dimensions that are implicit in the stride vector and emit one MPI
   subarray datatype, handing the whole transfer to MPI as a single
   operation.  This "translation backwards" only works when strides
   nest evenly (``strides[i] % strides[i-1] == 0``), which is always
   true for GA-generated patches; otherwise we fall back to an
   hindexed datatype — still a single MPI operation, so it remains the
   *direct* method.

   An operation (:func:`compiled_strided_op`) hands MPI the outermost
   count as the op's count, the way MPI says "n rows": each side's
   datatype is the translation of the inner levels, resized to the
   outermost stride (``MPI_Type_create_resized``), so one compiled op
   serves every height of a patch width and a one-row unit replicates
   in closed form.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..mpi import datatypes as dt
from ..mpi.errors import ArgumentError


@dataclass(frozen=True)
class StridedSpec:
    """A validated (count, src_strides, dst_strides) strided descriptor."""

    count: tuple[int, ...]
    src_strides: tuple[int, ...]
    dst_strides: tuple[int, ...]

    def __post_init__(self) -> None:
        sl = self.stride_levels
        if len(self.src_strides) != sl or len(self.dst_strides) != sl:
            raise ArgumentError(
                f"stride arrays must have length {sl} (= len(count)-1); got "
                f"src={len(self.src_strides)} dst={len(self.dst_strides)}"
            )
        if not self.count:
            raise ArgumentError("count must have at least one entry")
        if any(c < 0 for c in self.count):
            raise ArgumentError(f"negative count: {self.count}")
        if any(s < 0 for s in self.src_strides + self.dst_strides):
            raise ArgumentError("negative strides are not supported")
        for name, strides in (("src", self.src_strides), ("dst", self.dst_strides)):
            if sl and self.count[0] > strides[0] and self.count[0] and strides[0]:
                raise ArgumentError(
                    f"{name}: contiguous length count[0]={self.count[0]} exceeds "
                    f"innermost stride {strides[0]} (segments would overlap)"
                )

    @property
    def stride_levels(self) -> int:
        return len(self.count) - 1

    @property
    def seg_bytes(self) -> int:
        return self.count[0]

    @property
    def num_segments(self) -> int:
        n = 1
        for c in self.count[1:]:
            n *= c
        return n

    @property
    def total_bytes(self) -> int:
        return self.seg_bytes * self.num_segments

    @classmethod
    def make(
        cls,
        count: Sequence[int],
        src_strides: Sequence[int],
        dst_strides: Sequence[int],
    ) -> "StridedSpec":
        return cls(tuple(count), tuple(src_strides), tuple(dst_strides))


def algorithm1_iter(
    strides: Sequence[int], count: Sequence[int]
) -> Iterator[int]:
    """Literal Algorithm 1 of the paper: yield segment displacements.

    ``count[0]`` (the contiguous byte length) is not consumed here; the
    iteration space is ``idx[i] in [0, count[i+1])`` with ``idx[0]``
    varying fastest, exactly as the pseudocode's odometer increments.
    """
    sl = len(strides)
    if sl == 0:
        yield 0
        return
    if any(count[i + 1] == 0 for i in range(sl)):
        return
    idx = [0] * sl
    while idx[sl - 1] < count[sl]:
        disp = 0
        for i in range(sl):
            disp += strides[i] * idx[i]
        yield disp
        # increment innermost index and propagate the carry
        idx[0] += 1
        for i in range(sl - 1):
            if idx[i] >= count[i + 1]:
                idx[i] = 0
                idx[i + 1] += 1
    return


def segment_displacements(
    strides: Sequence[int], count: Sequence[int]
) -> np.ndarray:
    """Vectorised Algorithm 1: all displacements, same traversal order."""
    sl = len(strides)
    if sl == 0:
        return np.zeros(1, dtype=np.int64)
    dims = [count[i + 1] for i in range(sl)]
    if any(d == 0 for d in dims):
        return np.zeros(0, dtype=np.int64)
    # build the displacement grid with idx[0] fastest: put axis i at
    # reversed position, then a C-order flatten walks idx[0] innermost
    disp = np.zeros(tuple(reversed(dims)), dtype=np.int64)
    for i in range(sl):
        contrib = np.int64(strides[i]) * np.arange(dims[i], dtype=np.int64)
        shape = [1] * sl
        shape[sl - 1 - i] = dims[i]
        disp = disp + contrib.reshape(shape)
    return disp.reshape(-1)


def strided_to_iov(spec: StridedSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """Strided → IOV: (src displacements, dst displacements, segment bytes).

    This is the common ARMCI implementation strategy the paper mentions;
    ARMCI-MPI uses it when ``strided_method="iov"`` is configured.
    """
    src = segment_displacements(spec.src_strides, spec.count)
    dst = segment_displacements(spec.dst_strides, spec.count)
    return src, dst, spec.seg_bytes


# ---------------------------------------------------------------------------
# direct translation: strided notation -> MPI subarray datatype (§VI-C)
# ---------------------------------------------------------------------------


def _nests_evenly(strides: Sequence[int], count: Sequence[int]) -> bool:
    """Can (strides, count) be expressed as an n-D subarray of bytes?"""
    sl = len(strides)
    if sl == 0:
        return True
    if strides[0] <= 0 or count[0] > strides[0]:
        return False
    for i in range(1, sl):
        if strides[i] <= 0 or strides[i] % strides[i - 1]:
            return False
        if count[i] * strides[i - 1] > strides[i]:
            return False  # level i segments would wrap into each other
    return True


#: bound on the translation memo below (entries, LRU eviction)
STRIDED_DATATYPE_CACHE_MAX = 256

#: The one memo of strided translations, in two forms.  GA issues long
#: runs of strided operations over identically-shaped patches (every tile
#: of a distributed array shares one stride/count signature), so the same
#: translation is requested over and over; rebuilding and re-flattening
#: the subarray/hindexed type per operation was a dominant hot spot.
#:
#: * ``(strides, count, element type name)`` -> committed datatype: one
#:   side's layout (:func:`strided_datatype`);
#: * ``(local strides, remote strides, count[:-1], element dtype, direct)``
#:   -> a whole *compiled strided op* (:func:`compiled_strided_op`), one per
#:   patch width: the outermost count is the op's MPI count.
#:
#: Entries are pure functions of their keys — no GMR, window or address —
#: so nothing here needs invalidating when an allocation is freed.
_strided_dt_cache: "OrderedDict[tuple, dt.Datatype | tuple]" = OrderedDict()


def _recall(key: tuple):
    """The memoised value of ``key``, now the most recently used, or None."""
    hit = _strided_dt_cache.get(key)
    if hit is not None:
        try:
            _strided_dt_cache.move_to_end(key)
        except KeyError:
            pass  # another rank thread evicted it since the get; the value stands
    return hit


def _remember(key: tuple, value):
    _strided_dt_cache[key] = value
    if len(_strided_dt_cache) > STRIDED_DATATYPE_CACHE_MAX:
        _strided_dt_cache.popitem(last=False)
    return value


def strided_datatype_uncached(
    strides: Sequence[int], count: Sequence[int], elem: dt.Datatype = dt.BYTE
) -> dt.Datatype:
    """Build (and commit) the translation datatype, bypassing the memo.

    This is the pre-memoization translation path, kept public as the
    hot-path benchmark baseline and for callers that intend to
    ``free()`` the type.
    """
    sl = len(strides)
    esz = elem.size
    if count[0] % esz or any(s % esz and c > 1 for s, c in zip(strides, count[1:])):
        raise ArgumentError(
            f"accumulate layout is not aligned to {elem.name} elements"
        )
    row = count[0] // esz  # the contiguous run, in elements
    if sl == 0:
        t = dt.contiguous(row, elem)
    elif _nests_evenly(strides, count) and strides[0] % esz == 0:
        sizes = [count[sl]]
        for i in range(sl - 1, 0, -1):
            sizes.append(strides[i] // strides[i - 1])
        sizes.append(strides[0] // esz)
        subsizes = [count[i] for i in range(sl, 0, -1)] + [row]
        starts = [0] * (sl + 1)
        t = dt.subarray(sizes, subsizes, starts, elem)
    else:
        disps = segment_displacements(strides, count)
        t = dt.hindexed([row] * len(disps), disps.tolist(), elem)
    return t.commit()


def strided_datatype(
    strides: Sequence[int], count: Sequence[int], elem: dt.Datatype = dt.BYTE
) -> dt.Datatype:
    """One MPI datatype covering a whole strided transfer (memoised).

    Prefers the subarray form (the paper's backward translation): the
    parent byte array has C-order dimensions

    ``[count[sl], strides[sl-1]/strides[sl-2], ..., strides[1]/strides[0], strides[0]]``

    and the patch is ``[count[sl], count[sl-1], ..., count[1], count[0]]``
    starting at index 0 in every dimension.  When strides do not nest
    evenly, an hindexed type over Algorithm 1's displacements is built
    instead — still a single MPI operation.  ``elem`` types the layout's
    blocks (an accumulate needs its target's element type); the layout
    must then consist of whole elements.

    Results are memoised in a bounded LRU keyed on ``(strides, count, elem)``;
    callers share the returned committed type and must not ``free()`` it
    (a freed cache entry is transparently re-committed on the next hit).
    """
    key = (tuple(strides), tuple(count), elem.name)
    hit = _recall(key)
    if hit is not None:
        # a caller may have free()d the shared type; commit() restores the
        # segment map and is a no-op on a live entry
        return hit.commit()
    return _remember(key, strided_datatype_uncached(strides, count, elem))


def compiled_strided_op(
    local_strides: "tuple[int, ...]",
    remote_strides: "tuple[int, ...]",
    count: "tuple[int, ...]",
    acc_dtype: "np.dtype | None" = None,
    direct: bool = True,
) -> "tuple[int, int, dt.Datatype | None, dt.Datatype | None, int]":
    """Everything about a strided put/get/acc that its descriptor decides:
    ``(total bytes, local span, origin datatype, target datatype, n)``.

    The outermost count is the MPI count, as MPI says "n rows": each side's
    datatype is one *outer unit* — :func:`strided_datatype` of the inner
    levels, resized to the outermost stride — that the op replicates
    ``n = count[-1]`` times (a contiguous descriptor is its own unit,
    ``n = 1``).  So the memo holds one entry per patch *width*, keyed on
    ``(local strides, remote strides, count[:-1], acc dtype, direct)``
    (``count[0]`` itself for a 2-level count), and every height of it
    hits; a hit is one tuple hash and the arithmetic for ``total`` and
    ``span``.  The arguments must be tuples.

    The descriptor is validated (:class:`StridedSpec`) on a miss, and on
    every use whose ``n`` the entry does not vouch for — a negative one, or
    past one row over an outer stride that is not whole accumulate
    elements — so an invalid descriptor raises every time and memoises
    nothing; nor does one that moves no bytes.  The span is the bytes from
    the local base to one past the furthest strided byte.  The target type
    is in ``acc_dtype`` elements for an accumulate; the origin type is None
    when the local side is contiguous (its unit is one segment at 0 as
    long as the outermost stride), whose bytes the window then takes as
    they are — and both are None when the caller will not use the direct
    method (``direct=False``: the IOV method builds its own layouts).
    """
    # (a descriptor whose strides do not match its count misses, and raises)
    if len(count) == 2:  # GA's 2-D pieces: count[:-1] is one int, kept unboxed
        key, n = (local_strides, remote_strides, count[0], acc_dtype, direct), count[1]
    elif local_strides:
        key, n = (local_strides, remote_strides, count[:-1], acc_dtype, direct), count[-1]
    else:
        key, n = (local_strides, remote_strides, count, acc_dtype, direct), 1
    hit = _strided_dt_cache.get(key)  # _recall, inline: this is every strided op
    if hit is None or n < 1 or (n > 1 and hit[5]):
        return _compile(key, local_strides, remote_strides, count, acc_dtype, direct)
    try:
        _strided_dt_cache.move_to_end(key)
    except KeyError:
        pass  # (see _recall)
    unit_bytes, unit_span, outer, origin_t, target_t, _ = hit
    # the re-commit rule of strided_datatype
    if target_t is not None and not target_t.committed:
        target_t.commit()
    if origin_t is not None and not origin_t.committed:
        origin_t.commit()
    return unit_bytes * n, unit_span + outer * (n - 1), origin_t, target_t, n


def _compile(key, local_strides, remote_strides, count, acc_dtype, direct):
    """The miss (and validation) path of :func:`compiled_strided_op`: the
    memo entry is ``(unit bytes, unit span, local outermost stride, origin
    type, target type, outer stride misaligned for the accumulate)``."""
    spec = StridedSpec(count, local_strides, remote_strides)
    nested = len(count) > 1
    unit, n = (count[:-1], count[-1]) if nested else (count, 1)
    unit_span = unit[0] + sum(s * max(c - 1, 0) for s, c in zip(local_strides, unit[1:]))
    outer = local_strides[-1] if nested else unit_span
    span = unit_span + outer * max(n - 1, 0)
    if not spec.total_bytes:
        return 0, span, None, None, n
    origin_t = target_t = None
    misaligned = False
    if direct:
        elem = dt.BYTE if acc_dtype is None else dt.from_numpy_dtype(acc_dtype)
        misaligned = nested and remote_strides[-1] % elem.size != 0
        if misaligned and n > 1:
            raise ArgumentError(f"accumulate layout is not aligned to {elem.name} elements")
        origin_t = _outer_unit(local_strides, unit, dt.BYTE)
        target_t = _outer_unit(remote_strides, unit, elem)
        omap = origin_t.segment_map()
        if omap.nsegments == 1 and omap.bounds() == (0, outer):
            origin_t = None
    _remember(
        key, (spec.total_bytes // n, unit_span, outer, origin_t, target_t, misaligned)
    )
    return spec.total_bytes, span, origin_t, target_t, n


def _outer_unit(strides, unit, elem: dt.Datatype) -> dt.Datatype:
    """One side's outer unit: the inner levels' layout (the hindexed
    fallback included), resized to the outermost stride."""
    if not strides:  # a contiguous descriptor is its own unit
        return strided_datatype(strides, unit, elem)
    return dt.resized(strided_datatype(strides[:-1], unit, elem), strides[-1]).commit()


def strided_datatype_cache_clear() -> None:
    """Drop all memoised strided translations (test/bench hook)."""
    _strided_dt_cache.clear()


def strided_datatype_cache_len() -> int:
    return len(_strided_dt_cache)


def local_patch_view(arr: np.ndarray) -> "tuple[np.ndarray, list[int]] | None":
    """An n-D array as ARMCI strided notation: ``(flat bytes, byte strides)``.

    This is GA's one derivation of a strided local side: a row-major view
    with a contiguous innermost dimension (a whole array, or a slice of a
    larger one) is ``count[0] = row bytes`` at the view's own byte strides,
    so a transfer can address it in place.  ``flat`` starts at the first
    element; the strides are per dimension, outermost first (ARMCI's
    vector is ``reversed(strides[:-1])``).  A stride that is never stepped
    (a size-1 dimension, or any in an empty array) is reported canonically
    whatever numpy stores for it (``x[None, :]`` has 0 there).  Any other
    layout (Fortran order, negative, zero or non-unit inner strides) has no
    such description: None.
    """
    if arr.ndim == 0:
        return None
    item = need = arr.itemsize
    strides: list[int] = []
    for n, s in zip(reversed(arr.shape), reversed(arr.strides)):
        if n == 1 or arr.size == 0:
            s = need
        elif s < need or (not strides and s != item):
            return None
        strides.append(s)
        need = s * n
    strides.reverse()
    if arr.flags.c_contiguous:
        flat = arr.reshape(-1).view(np.uint8)
    else:
        span = sum((n - 1) * s for n, s in zip(arr.shape, strides)) + item
        flat = np.lib.stride_tricks.as_strided(arr.view(np.uint8), (span,), (1,))
    return flat, strides
