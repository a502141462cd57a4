"""MPI derived datatypes for the simulated runtime.

The paper's *direct* noncontiguous methods (§VI-A, §VI-C) hand an entire
IOV or strided transfer to MPI as **one** communication operation using an
indexed or subarray derived datatype, letting the MPI library choose
pack/unpack vs. scatter/gather.  To reproduce that, the simulated MPI
implements a working datatype engine:

* predefined types (``BYTE``, ``INT``, ``LONG``, ``FLOAT``, ``DOUBLE`` …)
  backed by NumPy dtypes;
* constructors: ``contiguous``, ``vector``/``hvector``,
  ``indexed``/``hindexed``/``indexed_block``, ``subarray`` (C order) and
  ``resized``;
* ``commit()``/``free()`` bookkeeping (uncommitted types are erroneous in
  communication, as in MPI);
* **flattening** to a canonical ``(offsets, lengths)`` byte-segment map
  with adjacent-segment coalescing — the segment map drives packing,
  conflict detection, and the cost model;
* vectorised ``pack``/``unpack`` between user buffers and contiguous
  wire representation.

Flattening is vectorised with NumPy (offset grids are built by
broadcasting, not by Python loops) because NWChem-scale transfers flatten
tens of thousands of segments (§VI-B).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, DatatypeError

__all__ = [
    "Datatype",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "LONG",
    "LONG_LONG",
    "FLOAT",
    "DOUBLE",
    "UNSIGNED",
    "UNSIGNED_LONG",
    "PREDEFINED",
    "contiguous",
    "vector",
    "hvector",
    "indexed",
    "hindexed",
    "indexed_block",
    "struct_type",
    "subarray",
    "resized",
    "SegmentMap",
    "flat_bytes",
]


_BYTE = np.dtype(np.uint8)


def flat_bytes(arr, not_contiguous: str) -> np.ndarray:
    """``arr``'s memory as a flat ``uint8`` view; ``not_contiguous`` is the
    message of the :class:`ArgumentError` raised when it is not
    C-contiguous.  The one flattening of a communication buffer: the
    window's origin and every ARMCI local side go through it, and a flat
    contiguous array (what ARMCI hands the window) is viewed as it is."""
    if type(arr) is np.ndarray and arr.ndim == 1 and arr.strides[0] == arr.itemsize:
        return arr if arr.dtype is _BYTE else arr.view(_BYTE)
    arr = np.asarray(arr)
    if not arr.flags["C_CONTIGUOUS"]:
        raise ArgumentError(not_contiguous)
    return arr.reshape(-1).view(_BYTE)


def _rows(buffer: np.ndarray, start: int, step: int, seg_len: int, n: int, dtype=_BYTE):
    """``n`` rows of ``seg_len`` bytes, ``step`` apart from byte ``start`` of
    ``buffer``, as one 2-D view in ``dtype`` elements (offsets and lengths
    must be whole elements): how every arithmetic map is copied,
    scattered and accumulated in place, without an index array."""
    item = dtype.itemsize
    return np.ndarray((n, seg_len // item), dtype, buffer, start, (step, item))


#: flat gather/scatter index matrices are memoised on the segment map only
#: up to this many data bytes (the index is int64, i.e. 8x the data size)
_INDEX_CACHE_MAX_BYTES = 1 << 20


class SegmentMap:
    """Canonical flattened form of a datatype: byte segments in layout order.

    ``offsets[i]`` is the byte displacement of segment *i* from the start
    of the buffer; ``lengths[i]`` its length in bytes.  Segments are
    stored in *traversal* order (the order MPI serialises data), which is
    not necessarily ascending address order for exotic layouts.

    The map also owns the vectorised datapath: :meth:`gather` and
    :meth:`scatter` move all segments with one NumPy fancy-indexing
    operation (§VI's observation that datatype processing dominates
    noncontiguous transfer cost — a per-segment Python loop is exactly
    the overhead the paper's direct methods avoid).
    """

    __slots__ = (
        "offsets",
        "lengths",
        "nsegments",
        "total_bytes",
        "_uniform",
        "_flat_idx",
        "_self_overlap",
        "_arith",
        "_bounds",
    )

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if self.offsets.shape != self.lengths.shape or self.offsets.ndim != 1:
            raise ArgumentError("SegmentMap arrays must be 1-D and equal length")
        self.nsegments = len(self.offsets)
        #: data bytes the map covers (its wire size)
        self.total_bytes = int(self.lengths.sum())
        self._uniform: "int | None | bool" = False  # False = not yet computed
        self._flat_idx: "np.ndarray | None" = None
        self._self_overlap: "bool | None" = None
        self._arith: "tuple[int, int, int, int] | None | bool" = False
        self._bounds: "tuple[int, int] | None" = None

    @classmethod
    def arithmetic(cls, start: int, step: int, seg_len: int, n: int) -> "SegmentMap":
        """``n`` segments of ``seg_len`` bytes, ``step`` apart from ``start``,
        in closed form: the coalesced map of those segments (back-to-back
        rows are one segment) with every memo filled and no array built.

        ``offsets``/``lengths`` materialise on first use.  Layouts that are
        not an ascending progression of non-empty rows take the array form.
        """
        if n == 1 or step == seg_len:
            seg_len *= n
            step, n = seg_len, min(n, 1)
        if n < 1 or seg_len < 1 or step < 1:
            n = max(n, 0)
            return cls(start + step * np.arange(n), np.full(n, seg_len)).coalesced()
        return cls._closed_form(start, step, seg_len, n)

    @classmethod
    def _closed_form(cls, start: int, step: int, seg_len: int, n: int) -> "SegmentMap":
        new = cls.__new__(cls)  # offsets/lengths stay unset: see __getattr__
        new.nsegments, new.total_bytes, new._uniform = n, n * seg_len, seg_len
        new._flat_idx, new._self_overlap = None, step < seg_len
        new._arith = (start, step, seg_len, n)
        new._bounds = (start, start + (n - 1) * step + seg_len)
        return new

    def __getattr__(self, name: str):
        # reached only for the unset array slots of a closed-form map
        if name not in ("offsets", "lengths"):
            raise AttributeError(name)
        start, step, seg_len, n = self._arith  # type: ignore[misc]
        self.offsets = np.arange(start, start + step * n, step, dtype=np.int64)
        self.lengths = np.full(n, seg_len, dtype=np.int64)
        return getattr(self, name)

    @property
    def uniform_seg_len(self) -> "int | None":
        """Shared segment length in bytes, or None when lengths differ.

        Zero-segment maps report None; single-segment maps report their
        length.  Computed once and memoised — the uniform case is the
        gather/scatter fast path.
        """
        if self._uniform is False:
            if len(self.lengths) == 0:
                self._uniform = None
            else:
                first = int(self.lengths[0])
                if len(self.lengths) == 1 or np.all(self.lengths == first):
                    self._uniform = first
                else:
                    self._uniform = None
        return self._uniform

    def bounds(self) -> tuple[int, int]:
        """``(lo, hi)`` half-open byte bounds of the whole map (memoised)."""
        if self._bounds is None:
            if len(self.offsets) == 0:
                self._bounds = (0, 0)
            elif len(self.offsets) == 1:
                off = int(self.offsets[0])
                self._bounds = (off, off + int(self.lengths[0]))
            else:
                self._bounds = (
                    int(self.offsets.min()),
                    int((self.offsets + self.lengths).max()),
                )
        return self._bounds

    def _arith_params(self) -> "tuple[int, int, int, int] | None":
        """``(start, step, seg_len, nsegments)`` when segments are uniform
        and equally spaced with positive step, else None (memoised).  A
        single non-empty segment is the one-row case, ``step == seg_len``.

        Such maps are views with strides ``(step, 1)`` — the layout every
        vector/subarray type and GA tile produces — so gather/scatter can
        run as one C-level 2-D strided copy instead of fancy indexing.
        """
        if self._arith is False:
            self._arith = None
            L, n = self.uniform_seg_len, len(self.offsets)
            if L:
                step = int(self.offsets[1]) - int(self.offsets[0]) if n > 1 else L
                if step > 0 and (n == 1 or bool(np.all(np.diff(self.offsets) == step))):
                    self._arith = (int(self.offsets[0]), step, L, n)
        return self._arith

    def copy_from(self, buffer: np.ndarray, src: "SegmentMap", src_buffer: np.ndarray) -> None:
        """Set this map's bytes of ``buffer`` to ``src``'s bytes of
        ``src_buffer`` (equal totals), as if gathered and then scattered.

        One C-level strided copy of :meth:`row_views`, or one slice store
        when both maps are a single segment; numpy resolves aliasing
        buffers as if the source were copied first.  Anything else packs
        and unpacks.
        """
        if self.nsegments == 1 == src.nsegments:  # every small op: skip the views
            (lo, hi), (src_lo, src_hi) = self.bounds(), src.bounds()
            buffer[lo:hi] = src_buffer[src_lo:src_hi]
            return
        rows = self.row_views(buffer, src, src_buffer)
        if rows is not None:
            np.copyto(*rows)
            return
        data = src.gather(src_buffer, copy=False)
        if data.base is not None and np.may_share_memory(data, buffer):
            data = data.copy()
        self.scatter(buffer, data)

    def row_views(
        self, buffer: np.ndarray, src: "SegmentMap", src_buffer: np.ndarray, dtype=_BYTE
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """This map's bytes of ``buffer`` and ``src``'s bytes of
        ``src_buffer`` (equal totals) as two 2-D views of one shape in
        ``dtype`` elements, row for row — or None when the maps do not
        pair up so: both must be arithmetic with disjoint rows of one
        length, a whole number of elements (a contiguous side is re-cut
        to the other's row length).  This map's rows must start on whole
        elements; ``src``'s may not (numpy reads unaligned views).
        """
        a, b = self._arith_params(), src._arith_params()
        if a is None or b is None or a[1] < a[2] or b[1] < b[2]:
            return None
        # the shared row length; a contiguous side (step == seg_len) adopts
        # the other's; two strided sides with different rows have none
        (start, step, L, n), (s_start, s_step, s_L, s_n) = a, b
        row = L if (L == s_L or s_step == s_L) else s_L if step == L else 0
        item = dtype.itemsize
        if not row or row % item:
            return None
        # a contiguous side re-cut into rows of that length
        if L != row:
            n, step = n * L // row, row
        if s_L != row:
            s_n, s_step = s_n * s_L // row, row
        shape = (n, row // item)  # (= s_n rows: the totals are equal)
        return (
            np.ndarray(shape, dtype, buffer, start, (step, item)),
            np.ndarray(shape, dtype, src_buffer, s_start, (s_step, item)),
        )

    def flat_index(self) -> np.ndarray:
        """``int64`` array mapping wire position -> buffer byte offset.

        ``buffer[flat_index()]`` serialises the map; assigning through it
        deserialises.  Memoised for small maps (committed datatypes are
        long-lived and reused), rebuilt on the fly for large ones to
        bound memory.
        """
        idx = self._flat_idx
        if idx is not None:
            return idx
        L = self.uniform_seg_len
        if L is not None:
            idx = (
                self.offsets[:, None] + np.arange(L, dtype=np.int64)[None, :]
            ).reshape(-1)
        elif self.total_bytes == 0:
            idx = np.empty(0, dtype=np.int64)
        else:
            # general case: repeat each segment start over its length and
            # add the intra-segment position
            starts = np.repeat(self.offsets, self.lengths)
            cum = np.concatenate(([0], np.cumsum(self.lengths)[:-1]))
            within = np.arange(self.total_bytes, dtype=np.int64) - np.repeat(cum, self.lengths)
            idx = starts + within
        if self.total_bytes <= _INDEX_CACHE_MAX_BYTES:
            self._flat_idx = idx
        return idx

    def gather(self, buffer: np.ndarray, copy: bool = True) -> np.ndarray:
        """Serialise this map's bytes from ``buffer`` into one contiguous array.

        With ``copy=False`` the single-segment case returns a zero-copy
        view into ``buffer``; callers must consume it before mutating the
        source.
        """
        n = self.nsegments
        if n == 0:
            return np.empty(0, dtype=np.uint8)
        if n == 1:
            lo, hi = self.bounds()
            seg = buffer[lo:hi]
            return seg if not copy else seg.copy()
        arith = self._arith_params()
        if arith is not None:
            return np.ascontiguousarray(_rows(buffer, *arith)).reshape(-1)
        return buffer[self.flat_index()]

    def scatter(self, buffer: np.ndarray, data: np.ndarray) -> None:
        """Deserialise contiguous ``data`` into ``buffer`` (inverse of gather).

        Traversal-order write semantics (later segments win on overlap)
        are preserved: the fancy-indexed store is only used for
        non-self-overlapping maps.
        """
        n = self.nsegments
        if n == 0:
            return
        if n == 1:
            lo, hi = self.bounds()
            buffer[lo:hi] = data
            return
        arith = self._arith_params()
        if arith is not None and arith[1] >= arith[2]:
            # step >= segment length: rows are disjoint, one strided store
            _, _, L, nseg = arith
            _rows(buffer, *arith)[...] = data.reshape(nseg, L)
            return
        if not self.overlaps_self():
            buffer[self.flat_index()] = data
            return
        pos = 0
        for off, ln in zip(self.offsets.tolist(), self.lengths.tolist()):
            buffer[off : off + ln] = data[pos : pos + ln]
            pos += ln

    def coalesced(self) -> "SegmentMap":
        """Merge segments that are adjacent in both traversal and address order."""
        arith = self._arith_params()
        if arith is not None:
            # rows of a progression merge all together (back to back) or not at all
            if arith[3] == 1 or arith[1] != arith[2]:
                return self
            return SegmentMap.arithmetic(*arith)
        if self.nsegments <= 1:
            return self
        offs, lens = self.offsets, self.lengths
        # boundary[i] is True where segment i does NOT merge into i-1
        boundary = np.empty(len(offs), dtype=bool)
        boundary[0] = True
        boundary[1:] = offs[:-1] + lens[:-1] != offs[1:]
        starts = np.flatnonzero(boundary)
        ends_excl = np.append(starts[1:], len(offs))
        new_offs = offs[starts]
        cum = np.concatenate(([0], np.cumsum(lens)))
        new_lens = cum[ends_excl] - cum[starts]
        return SegmentMap(new_offs, new_lens)

    def shifted(self, displacement_bytes: int) -> "SegmentMap":
        """Return a copy displaced by ``displacement_bytes``.

        The memos are computed on *this* map (long-lived: it is the
        datatype's cached one) and carried over — translation changes only
        where the arithmetic progression and the bounds start.
        """
        d = int(displacement_bytes)
        arith = self._arith_params()
        if arith is not None:
            return SegmentMap._closed_form(arith[0] + d, *arith[1:])
        new = SegmentMap.__new__(SegmentMap)
        new.offsets, new.lengths, new._flat_idx = self.offsets + d, self.lengths, None
        new.nsegments, new.total_bytes = self.nsegments, self.total_bytes
        new._uniform, new._arith = self.uniform_seg_len, None
        new._self_overlap = self.overlaps_self()
        lo, hi = self.bounds()
        new._bounds = (lo + d, hi + d)
        return new

    def intervals(self) -> Iterable[tuple[int, int]]:
        """Yield ``(lo, hi)`` half-open byte intervals in traversal order."""
        for off, ln in zip(self.offsets.tolist(), self.lengths.tolist()):
            yield off, off + ln

    def overlaps_self(self) -> bool:
        """True if any two segments of this map overlap each other (memoised)."""
        if self._self_overlap is None:
            if self.nsegments <= 1:
                self._self_overlap = False
            elif (arith := self._arith_params()) is not None:
                self._self_overlap = arith[1] < arith[2]  # step < seg_len
            else:
                order = np.argsort(self.offsets, kind="stable")
                offs = self.offsets[order]
                ends = offs + self.lengths[order]
                self._self_overlap = bool(np.any(ends[:-1] > offs[1:]))
        return self._self_overlap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentMap(n={self.nsegments}, bytes={self.total_bytes})"


class Datatype:
    """An MPI datatype: a recipe mapping buffer bytes to wire bytes.

    Attributes
    ----------
    size:
        Number of data bytes one instance of the type carries.
    extent:
        Span in the user buffer from the first to one past the last byte
        (MPI extent; replication with ``count > 1`` advances by extent).
    base:
        NumPy dtype of the underlying predefined leaf type.  MPI
        accumulate requires all leaves to share one predefined type; the
        constructors enforce that.
    """

    __slots__ = ("name", "size", "extent", "base", "committed", "_segmap", "_count_maps")

    #: per-datatype bound on memoised replicated segment maps
    _COUNT_CACHE_MAX = 64

    def __init__(self, name: str, size: int, extent: int, base: np.dtype):
        if size < 0 or extent < 0:
            raise DatatypeError(f"{name}: negative size/extent")
        self.name = name
        self.size = int(size)
        self.extent = int(extent)
        self.base = np.dtype(base)
        self.committed = False
        self._segmap: SegmentMap | None = None
        self._count_maps: dict[int, SegmentMap] = {}

    # -- structural interface -------------------------------------------------
    def _flatten(self) -> SegmentMap:
        raise NotImplementedError

    def commit(self) -> "Datatype":
        """Finalize the type for use in communication (computes the segment map)."""
        if not self.committed:
            self._segmap = self._flatten().coalesced()
            if self._segmap.total_bytes != self.size:
                raise DatatypeError(
                    f"{self.name}: flatten produced {self._segmap.total_bytes} bytes, "
                    f"expected {self.size}"
                )
            self.committed = True
        return self

    def free(self) -> None:
        """Release the cached segment maps (mirrors MPI_Type_free)."""
        self.committed = False
        self._segmap = None
        self._count_maps.clear()

    @property
    def is_predefined(self) -> bool:
        return False

    def segment_map(self, count: int = 1) -> SegmentMap:
        """Segment map for ``count`` replications of this type.

        Predefined types are implicitly committed.  Derived types must be
        committed first, as in MPI.
        """
        if count < 0:
            raise ArgumentError(f"negative count {count}")
        if not self.committed:
            if self.is_predefined:
                self.commit()
            else:
                raise DatatypeError(f"{self.name} used before commit()")
        assert self._segmap is not None
        if count == 1:
            return self._segmap
        cached = self._count_maps.get(count)
        if cached is not None:
            return cached
        base = self._segmap
        if base.nsegments == 1:
            lo, hi = base.bounds()
            segmap = SegmentMap.arithmetic(lo, self.extent, hi - lo, count)
        else:
            reps = np.arange(count, dtype=np.int64) * self.extent
            offsets = (base.offsets[None, :] + reps[:, None]).reshape(-1)
            lengths = np.tile(base.lengths, count)
            segmap = SegmentMap(offsets, lengths).coalesced()
        if len(self._count_maps) >= self._COUNT_CACHE_MAX:
            self._count_maps.clear()
        self._count_maps[count] = segmap
        return segmap

    # -- data movement ---------------------------------------------------------
    def pack(self, buffer: np.ndarray, count: int = 1, copy: bool = True) -> np.ndarray:
        """Gather ``count`` instances from ``buffer`` into contiguous bytes.

        ``buffer`` is a 1-D ``uint8`` view of the user's memory, starting
        at the address the datatype's offsets are relative to.  With
        ``copy=False`` a single-segment (contiguous) type returns a
        zero-copy view of ``buffer``.
        """
        segmap = self.segment_map(count)
        _check_bounds(segmap, len(buffer), self.name)
        return segmap.gather(buffer, copy=copy)

    def unpack(self, buffer: np.ndarray, data: np.ndarray, count: int = 1) -> None:
        """Scatter contiguous bytes ``data`` into ``buffer`` (inverse of pack)."""
        segmap = self.segment_map(count)
        _check_bounds(segmap, len(buffer), self.name)
        if len(data) != segmap.total_bytes:
            raise ArgumentError(
                f"{self.name}: unpack got {len(data)} bytes, needs {segmap.total_bytes}"
            )
        segmap.scatter(buffer, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Datatype {self.name} size={self.size} extent={self.extent}>"


def _check_bounds(segmap: SegmentMap, buflen: int, name: str) -> None:
    if segmap.nsegments == 0:
        return
    lo, hi = segmap.bounds()
    if lo < 0 or hi > buflen:
        raise ArgumentError(
            f"{name}: access [{lo}, {hi}) outside buffer of {buflen} bytes"
        )


class _Predefined(Datatype):
    """A predefined (leaf) type backed by a NumPy scalar dtype."""

    __slots__ = ()

    def __init__(self, name: str, np_dtype: str):
        dt = np.dtype(np_dtype)
        super().__init__(name, dt.itemsize, dt.itemsize, dt)
        self.commit()

    @property
    def is_predefined(self) -> bool:
        return True

    def _flatten(self) -> SegmentMap:
        return SegmentMap.arithmetic(0, self.size, self.size, 1)


BYTE = _Predefined("MPI_BYTE", "u1")
CHAR = _Predefined("MPI_CHAR", "b")
SHORT = _Predefined("MPI_SHORT", "i2")
INT = _Predefined("MPI_INT", "i4")
LONG = _Predefined("MPI_LONG", "i8")
LONG_LONG = _Predefined("MPI_LONG_LONG", "i8")
UNSIGNED = _Predefined("MPI_UNSIGNED", "u4")
UNSIGNED_LONG = _Predefined("MPI_UNSIGNED_LONG", "u8")
FLOAT = _Predefined("MPI_FLOAT", "f4")
DOUBLE = _Predefined("MPI_DOUBLE", "f8")

PREDEFINED = {
    t.name: t
    for t in (BYTE, CHAR, SHORT, INT, LONG, LONG_LONG, UNSIGNED, UNSIGNED_LONG, FLOAT, DOUBLE)
}


def from_numpy_dtype(dt: "np.dtype | str") -> Datatype:
    """Map a NumPy dtype onto the matching predefined MPI type."""
    dt = np.dtype(dt)
    for t in PREDEFINED.values():
        if t.base == dt:
            return t
    raise DatatypeError(f"no predefined MPI type for numpy dtype {dt}")


class _Derived(Datatype):
    __slots__ = ("_builder",)

    def __init__(self, name, size, extent, base, builder):
        super().__init__(name, size, extent, base)
        self._builder = builder

    def _flatten(self) -> SegmentMap:
        return self._builder()


def contiguous(count: int, oldtype: Datatype) -> Datatype:
    """``MPI_Type_contiguous``: ``count`` back-to-back instances of ``oldtype``."""
    if count < 0:
        raise ArgumentError(f"contiguous: negative count {count}")

    def build() -> SegmentMap:
        return oldtype.segment_map(count)

    return _Derived(
        f"contig({count},{oldtype.name})",
        count * oldtype.size,
        count * oldtype.extent,
        oldtype.base,
        build,
    )


def vector(count: int, blocklength: int, stride: int, oldtype: Datatype) -> Datatype:
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` elements,
    successive blocks ``stride`` *elements* apart."""
    return hvector(count, blocklength, stride * oldtype.extent, oldtype)


def hvector(count: int, blocklength: int, stride_bytes: int, oldtype: Datatype) -> Datatype:
    """``MPI_Type_create_hvector``: like :func:`vector` with a byte stride."""
    if count < 0 or blocklength < 0:
        raise ArgumentError("hvector: negative count/blocklength")

    def build() -> SegmentMap:
        block = oldtype.segment_map(blocklength)
        if block.nsegments == 1:
            lo, hi = block.bounds()
            return SegmentMap.arithmetic(lo, stride_bytes, hi - lo, count)
        reps = np.arange(count, dtype=np.int64) * stride_bytes
        offsets = (block.offsets[None, :] + reps[:, None]).reshape(-1)
        lengths = np.tile(block.lengths, count)
        return SegmentMap(offsets, lengths)

    if count == 0 or blocklength == 0:
        extent = 0
    else:
        last_start = (count - 1) * stride_bytes
        extent = max(
            last_start + blocklength * oldtype.extent,
            blocklength * oldtype.extent,
        )
    return _Derived(
        f"hvector({count},{blocklength},{stride_bytes},{oldtype.name})",
        count * blocklength * oldtype.size,
        extent,
        oldtype.base,
        build,
    )


def indexed(
    blocklengths: Sequence[int], displacements: Sequence[int], oldtype: Datatype
) -> Datatype:
    """``MPI_Type_indexed``: blocks with per-block length and *element*
    displacement.  This is the type the paper's direct IOV method builds."""
    disp_bytes = [d * oldtype.extent for d in displacements]
    return hindexed(blocklengths, disp_bytes, oldtype, _name="indexed")


def _blocks_map(blocklengths, displacements_bytes, types) -> SegmentMap:
    """``blocklengths[i]`` instances of ``types[i]`` at each byte displacement."""
    parts_off: list[np.ndarray] = []
    parts_len: list[np.ndarray] = []
    for bl, disp, t in zip(blocklengths, displacements_bytes, types):
        if bl == 0:
            continue
        block = t.segment_map(bl)
        parts_off.append(block.offsets + disp)
        parts_len.append(block.lengths)
    if not parts_off:
        return SegmentMap(np.empty(0, np.int64), np.empty(0, np.int64))
    return SegmentMap(np.concatenate(parts_off), np.concatenate(parts_len))


def hindexed(
    blocklengths: Sequence[int],
    displacements_bytes: Sequence[int],
    oldtype: Datatype,
    _name: str = "hindexed",
) -> Datatype:
    """``MPI_Type_create_hindexed``: indexed with byte displacements."""
    if len(blocklengths) != len(displacements_bytes):
        raise ArgumentError("hindexed: blocklengths/displacements length mismatch")
    if any(b < 0 for b in blocklengths):
        raise ArgumentError("hindexed: negative blocklength")
    blocklengths = [int(b) for b in blocklengths]
    displacements_bytes = [int(d) for d in displacements_bytes]

    def build() -> SegmentMap:
        if oldtype.is_predefined:
            # a block of a predefined type is one segment: no per-block call
            bl = np.array(blocklengths, dtype=np.int64)
            keep = bl > 0
            return SegmentMap(
                np.array(displacements_bytes, dtype=np.int64)[keep],
                bl[keep] * oldtype.size,
            )
        return _blocks_map(
            blocklengths, displacements_bytes, [oldtype] * len(blocklengths)
        )

    size = sum(blocklengths) * oldtype.size
    if blocklengths:
        extent = max(
            (d + b * oldtype.extent for b, d in zip(blocklengths, displacements_bytes)),
            default=0,
        )
        extent = max(extent, 0)
    else:
        extent = 0
    return _Derived(
        f"{_name}(n={len(blocklengths)},{oldtype.name})",
        size,
        extent,
        oldtype.base,
        build,
    )


def indexed_block(
    blocklength: int, displacements: Sequence[int], oldtype: Datatype
) -> Datatype:
    """``MPI_Type_create_indexed_block``: indexed with one shared block length."""
    return indexed([blocklength] * len(displacements), displacements, oldtype)


def struct_type(
    blocklengths: Sequence[int],
    displacements_bytes: Sequence[int],
    types: "Sequence[Datatype]",
) -> Datatype:
    """``MPI_Type_create_struct``: heterogeneous blocks at byte displacements.

    The most general constructor: each block carries its own member
    datatype.  When the member leaf types differ, the resulting type has
    no single predefined base, so it is valid for put/get but erroneous
    in accumulate (matching MPI's rule that accumulate needs a uniform
    predefined type) — the window rejects it.
    """
    if not (len(blocklengths) == len(displacements_bytes) == len(types)):
        raise ArgumentError("struct: blocklengths/displacements/types mismatch")
    if any(b < 0 for b in blocklengths):
        raise ArgumentError("struct: negative blocklength")
    blocklengths = [int(b) for b in blocklengths]
    displacements_bytes = [int(d) for d in displacements_bytes]
    types = list(types)

    def build() -> SegmentMap:
        return _blocks_map(blocklengths, displacements_bytes, types)

    size = sum(b * t.size for b, t in zip(blocklengths, types))
    extent = max(
        (d + b * t.extent for b, d, t in
         zip(blocklengths, displacements_bytes, types)),
        default=0,
    )
    bases = {t.base for t in types if t.size}
    base = bases.pop() if len(bases) == 1 else np.dtype("V")
    return _Derived(
        f"struct(n={len(types)})", size, max(extent, 0), base, build
    )


def subarray(
    sizes: Sequence[int],
    subsizes: Sequence[int],
    starts: Sequence[int],
    oldtype: Datatype,
    order: str = "C",
) -> Datatype:
    """``MPI_Type_create_subarray`` (C order): an n-D patch of an n-D array.

    This is the target of the paper's direct strided translation (§VI-C):
    ARMCI strided notation is converted back into (array dims, subarray
    dims, start index) and handed to MPI as one subarray type.
    """
    sizes = [int(s) for s in sizes]
    subsizes = [int(s) for s in subsizes]
    starts = [int(s) for s in starts]
    ndims = len(sizes)
    if not (len(subsizes) == len(starts) == ndims):
        raise ArgumentError("subarray: sizes/subsizes/starts length mismatch")
    if ndims == 0:
        raise ArgumentError("subarray: zero dimensions")
    if order != "C":
        raise ArgumentError("subarray: only C order is supported")
    for d, (sz, ssz, st) in enumerate(zip(sizes, subsizes, starts)):
        if ssz < 0 or sz < 0 or st < 0 or st + ssz > sz:
            raise ArgumentError(
                f"subarray: dim {d} patch [{st},{st + ssz}) outside array of {sz}"
            )

    def build() -> SegmentMap:
        # byte strides of the parent array, C order
        strides = [oldtype.extent] * ndims
        for d in range(ndims - 2, -1, -1):
            strides[d] = strides[d + 1] * sizes[d + 1]
        base_off = sum(s * st for s, st in zip(strides, starts))
        if 0 in subsizes:
            return SegmentMap(np.empty(0, np.int64), np.empty(0, np.int64))
        inner = oldtype.segment_map(subsizes[-1])
        outer = [d for d in range(ndims - 1) if subsizes[d] > 1]
        if inner.nsegments == 1 and len(outer) <= 1:
            # rows along at most one dimension: an arithmetic progression
            lo, hi = inner.bounds()
            rows, step = (subsizes[outer[0]], strides[outer[0]]) if outer else (1, hi - lo)
            return SegmentMap.arithmetic(base_off + lo, step, hi - lo, rows)
        # outer index grid over dims 0..ndims-2, vectorised via broadcasting
        if ndims == 1:
            outer_offsets = np.zeros(1, dtype=np.int64)
        else:
            grids = np.meshgrid(
                *[np.arange(subsizes[d], dtype=np.int64) for d in range(ndims - 1)],
                indexing="ij",
            )
            outer_offsets = sum(
                g * strides[d] for d, g in enumerate(grids)
            ).reshape(-1)
        offsets = (
            base_off + outer_offsets[:, None] + inner.offsets[None, :]
        ).reshape(-1)
        lengths = np.tile(inner.lengths, len(outer_offsets))
        return SegmentMap(offsets, lengths)

    nelem = 1
    for s in subsizes:
        nelem *= s
    total = 1
    for s in sizes:
        total *= s
    return _Derived(
        f"subarray({sizes},{subsizes},{starts},{oldtype.name})",
        nelem * oldtype.size,
        total * oldtype.extent,
        oldtype.base,
        build,
    )


def resized(oldtype: Datatype, extent: int) -> Datatype:
    """``MPI_Type_create_resized`` with a lower bound of 0 (every type here
    starts at 0): ``oldtype``'s bytes at ``extent``, the stride by which
    ``count > 1`` replicates it.

    This is how "``n`` rows" reaches MPI as a count rather than a datatype
    of ``n`` rows: a single-segment ``oldtype`` replicates in closed form.
    Committing it commits ``oldtype`` too, so a freed ``oldtype`` does not
    strand it (MPI keeps a derived type valid past its parts' free).
    """
    if extent < 0:
        raise ArgumentError(f"resized: negative extent {extent}")

    def build() -> SegmentMap:
        return oldtype.commit().segment_map()

    return _Derived(
        f"resized({oldtype.name},{extent})", oldtype.size, extent, oldtype.base, build
    )
