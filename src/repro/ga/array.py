"""Global Arrays: distributed shared multidimensional arrays (§II-B).

A :class:`GlobalArray` aggregates the memory of all processes into one
n-D array accessed by *index ranges*:

* ``put(lo, hi, data)`` / ``get(lo, hi)`` / ``acc(lo, hi, data, alpha)``
  are one-sided and may touch several owners; each owner's share becomes
  one strided ARMCI operation (Fig. 2);
* ``access()`` / ``release()`` give direct load/store access to the
  local block through the ARMCI DLA extension (§V-E);
* locality introspection (``distribution``) lets owner-computes code
  avoid communication, GA's core performance idiom.

The class is generic over the runtime: anything exposing the ARMCI call
surface works — :class:`repro.armci.Armci` (the paper's ARMCI-MPI) or
:class:`repro.armci_native.NativeArmci` (the baseline), which is how
the NWChem proxy runs the same science on both stacks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import index, mul, sub
from typing import Sequence

import numpy as np

from ..armci.gmr import GlobalPtr
from ..armci.strided import local_patch_view
from ..mpi.errors import ArgumentError
from .distribution import BlockDistribution, Patch


@dataclass(frozen=True)
class GaCheckpoint:
    """An in-memory GA snapshot, replicated on every rank.

    Produced by :meth:`GlobalArray.checkpoint`; consumed by
    :meth:`GlobalArray.restore` — possibly on a *different* (smaller)
    runtime after a rank failure and :meth:`~repro.mpi.comm.Comm.shrink`.
    Replication is the point: when the rank that owned a block dies, every
    survivor still holds the block's bytes.
    """

    name: str
    shape: tuple
    dtype: np.dtype
    data: np.ndarray
    #: per-dimension minimum block sizes the GA was created with, so a
    #: restore-with-redistribution honours the same chunking constraints
    chunk: "tuple | None" = None


#: bound on a :class:`GlobalArray`'s table of owner plans (entries; the
#: table is emptied when it fills — a plan is cheap to rebuild)
OWNER_PLAN_MAX = 1024


def patch_bounds(name: str, lo, hi) -> "tuple[tuple[int, ...], tuple[int, ...]]":
    """A patch's ``lo`` and ``hi`` as tuples of ints.  Only integers are
    indices (``operator.index``: numpy integers pass, floats and strings
    do not — ``int()`` would silently truncate ``0.9`` to 0)."""
    try:
        return tuple(map(index, lo)), tuple(map(index, hi))
    except TypeError:
        which, bad = next(
            (which, x)
            for which, values in (("lo", lo), ("hi", hi))
            for x in values
            if not hasattr(x, "__index__")
        )
        raise ArgumentError(
            f"{name}: patch bound {which}={bad!r} is not an integer"
        ) from None


class GlobalArray:
    """A distributed shared n-D array in the Global Arrays model."""

    def __init__(self, runtime, shape, dtype, ptrs, dist, name, chunk=None):
        self.runtime = runtime
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.ptrs: list[GlobalPtr] = ptrs
        self.dist: BlockDistribution = dist
        self.name = name
        self.chunk = None if chunk is None else tuple(int(c) for c in chunk)
        self._access_view: "np.ndarray | None" = None
        #: owner plans of the patch classes seen so far (see _owner_pieces)
        self._plans: dict[tuple, tuple] = {}
        #: per rank, the C-order byte strides of its local block
        self._block_strides = []
        for rank in range(dist.nproc):
            shape, strides = dist.block(rank).shape, [self.dtype.itemsize] * len(self.shape)
            for d in range(len(shape) - 2, -1, -1):
                strides[d] = strides[d + 1] * max(shape[d + 1], 1)
            self._block_strides.append(strides)

    # -- creation ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        runtime,
        shape: Sequence[int],
        dtype: "np.dtype | str" = "f8",
        chunk: "Sequence[int] | None" = None,
        name: str = "ga",
    ) -> "GlobalArray":
        """Collective creation (GA_Create).

        ``chunk`` gives per-dimension minimum block sizes, as in GA.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        dist = BlockDistribution(shape, runtime.nproc, chunk)
        block = dist.block(runtime.my_id)
        nbytes = block.size * dtype.itemsize
        ptrs = runtime.malloc(nbytes)
        return cls(runtime, shape, dtype, ptrs, dist, name, chunk=chunk)

    def destroy(self) -> None:
        """Collective destruction (GA_Destroy)."""
        if self._access_view is not None:
            raise ArgumentError(f"{self.name}: destroy() during access()")
        me = self.runtime.my_id
        ptr = self.ptrs[me]
        self.runtime.barrier()
        self.runtime.free(None if ptr.is_null else ptr)

    def duplicate(self, name: "str | None" = None) -> "GlobalArray":
        """Collective: new GA with the same shape/distribution (GA_Duplicate)."""
        return GlobalArray.create(
            self.runtime, self.shape, self.dtype, chunk=self.chunk,
            name=name or f"{self.name}_copy",
        )

    # -- introspection -----------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    def distribution(self, rank: "int | None" = None) -> Patch:
        """The block ``[lo, hi)`` owned by ``rank`` (GA_Distribution)."""
        return self.dist.block(self.runtime.my_id if rank is None else rank)

    def owner(self, index: Sequence[int]) -> int:
        return self.dist.owner(index)

    # -- patch addressing --------------------------------------------------------------
    def _request(self, lo, hi, data: "np.ndarray | None", writable: bool = False):
        """Validate a patch and the user's buffer for it: ``(patch, buf,
        flat, strides)``, where ``buf`` is the array the transfer addresses
        and ``(flat, strides)`` its one strided description
        (:func:`local_patch_view`).  ``buf`` is ``data`` itself, a fresh
        array when a get has no ``out`` (``data`` None), or a contiguous
        stand-in when its layout has no such description (copied from it
        unless it is about to be overwritten)."""
        patch = Patch(*patch_bounds(self.name, lo, hi))
        if len(patch.lo) != len(self.shape):
            raise ArgumentError(
                f"{self.name}: patch rank {len(patch.lo)} != array rank {self.ndim}"
            )
        if data is None:
            data = np.empty(patch.shape, dtype=self.dtype)
        data = np.asarray(data)
        if data.dtype != self.dtype:
            raise ArgumentError(
                f"{self.name}: data dtype {data.dtype} != array dtype {self.dtype}"
            )
        if tuple(data.shape) != patch.shape:
            raise ArgumentError(
                f"{self.name}: data shape {data.shape} != patch shape {patch.shape}"
            )
        if writable and not data.flags.writeable:
            raise ArgumentError(f"{self.name}: get(out=...) needs a writable array")
        side = local_patch_view(data)
        if side is None:
            data = np.empty(patch.shape, self.dtype) if writable else np.array(data, order="C")
            side = local_patch_view(data)
        return (patch, data, *side)

    def _owner_pieces(self, patch: Patch, flat: np.ndarray, buf_strides: list) -> list:
        """One strided ARMCI argument tuple per owner of ``patch`` (Fig. 2).

        A list of ``(local, local_strides, remote_ptr, remote_strides, count)``:
        the local side is the user's buffer itself — its ``flat`` bytes from
        the piece's first element, at its own ``buf_strides`` — so the
        transfer moves between that buffer and the window with no copy in
        between.

        Everything but the remote address depends only on the patch's
        *class* — the buffer strides and, per dimension, which blocks the
        patch meets, its extent and where the block edges cut it — so it is
        derived once per class (:meth:`_compile_plan`) and replayed: a patch
        of a known class costs a ``bisect`` pair per dimension and, per
        owner, ``base + sum(block stride * lo)``.
        """
        lo = patch.lo
        key = list(buf_strides)
        for edges, l, h in zip(self.dist._edges, lo, patch.hi):
            # blocks [first, last) meet [l, h); first == -1 or last past the
            # grid exactly when the patch leaves the array (never compiled)
            first, last = bisect_right(edges, l) - 1, bisect_left(edges, h)
            key += (first, last, h - l)
            if last - first > 1:
                key += map(sub, edges[first + 1 : last], repeat(l))
        key = tuple(key)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._compile_plan(patch, buf_strides)
            if len(self._plans) >= OWNER_PLAN_MAX:
                self._plans.clear()
            self._plans[key] = plan
        pieces = []
        for at, loc_strides, rem_strides, count, rank, addr, terms in plan:
            for d, stride in terms:
                addr += stride * lo[d]
            pieces.append((flat[at:], loc_strides, GlobalPtr(rank, addr), rem_strides, count))
        return pieces

    def _compile_plan(self, patch: Patch, buf_strides: list) -> tuple:
        """The owner plan of ``patch``'s class, from ``dist.locate(patch)`` —
        the one owner decomposition.  Per owner: the constant ``put_s``
        arguments ``(offset of the piece in the user's flat bytes, local
        strides, remote strides, count)``, the owner's rank, and its remote
        address as ``const + sum(stride * lo[d])`` over the dimensions ``d``
        in which the piece starts where the patch does (elsewhere it starts
        at its block's edge, offset 0)."""
        loc_strides = tuple(reversed(buf_strides[:-1]))
        item = self.dtype.itemsize
        plan = []
        for piece in self.dist.locate(patch):
            base, strides = self.ptrs[piece.rank], self._block_strides[piece.rank]
            addr = base.addr + sum(map(mul, piece.local_patch.lo, strides))
            terms = tuple(
                (d, stride) for d, stride in enumerate(strides) if not piece.request_patch.lo[d]
            )
            shape = piece.global_patch.shape
            plan.append((
                sum(map(mul, piece.request_patch.lo, buf_strides)),
                loc_strides,
                tuple(reversed(strides[:-1])),
                # ARMCI vectors run innermost-first; count[0] is in bytes
                (shape[-1] * item, *reversed(shape[:-1])),
                base.rank,
                addr - sum(stride * patch.lo[d] for d, stride in terms),
                terms,
            ))
        return tuple(plan)

    # -- one-sided data access (GA_Put / GA_Get / GA_Acc) ------------------------------
    def put(self, lo: Sequence[int], hi: Sequence[int], data: np.ndarray) -> None:
        """One-sided put of ``data`` into the global patch ``[lo, hi)``."""
        patch, _, flat, buf_strides = self._request(lo, hi, data)
        for src, src_strides, ptr, strides, count in self._owner_pieces(
            patch, flat, buf_strides
        ):
            self.runtime.put_s(src, src_strides, ptr, strides, count)

    def get(
        self, lo: Sequence[int], hi: Sequence[int], out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """One-sided get of the global patch ``[lo, hi)``.

        ``out`` is filled in place through its own strides when it is a
        row-major view with a contiguous innermost dimension (e.g. a slice
        of a larger array); any other layout is served through one
        contiguous temporary.  A read-only ``out`` is an error.
        """
        patch, buf, flat, buf_strides = self._request(lo, hi, out, writable=True)
        for dst, dst_strides, ptr, strides, count in self._owner_pieces(
            patch, flat, buf_strides
        ):
            self.runtime.get_s(ptr, strides, dst, dst_strides, count)
        if out is None:
            return buf
        if buf is not out:
            out[...] = buf
        return out

    def acc(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        data: np.ndarray,
        alpha: float = 1.0,
    ) -> None:
        """One-sided accumulate: ``GA[lo:hi) += alpha * data`` (GA_Acc)."""
        patch, _, flat, buf_strides = self._request(lo, hi, data)
        for src, src_strides, ptr, strides, count in self._owner_pieces(
            patch, flat, buf_strides
        ):
            self.runtime.acc_s(
                src, src_strides, ptr, strides, count, scale=alpha, dtype=self.dtype
            )

    # -- direct local access (GA_Access / GA_Release, §V-E) ------------------------------
    def access(self) -> np.ndarray:
        """Exclusive direct access to the local block (GA_Access)."""
        if self._access_view is not None:
            raise ArgumentError(f"{self.name}: access() is already open")
        block = self.distribution()
        ptr = self.ptrs[self.runtime.my_id]
        nbytes = block.size * self.dtype.itemsize
        view = self.runtime.access_begin(ptr, nbytes, self.dtype).reshape(block.shape)
        self._access_view = view
        return view

    def release(self) -> None:
        """End direct access (GA_Release)."""
        if self._access_view is None:
            raise ArgumentError(f"{self.name}: release() without access()")
        self._access_view = None
        self.runtime.access_end(self.ptrs[self.runtime.my_id])

    # -- checkpoint / restore (survivor-restart support) --------------------------------
    def checkpoint(self) -> GaCheckpoint:
        """Collective in-memory checkpoint: a replicated full-array snapshot.

        Every rank reads the entire array one-sidedly (so only GA-surface
        operations are used — this works on both the ARMCI-MPI and native
        runtimes) and keeps a private copy.  Barriers on both sides make
        the snapshot a consistent cut: no in-flight update is half
        captured.  The returned :class:`GaCheckpoint` survives the death
        of any rank because every rank holds all of it.
        """
        self.sync()
        full = self.get([0] * self.ndim, list(self.shape))
        self.sync()
        return GaCheckpoint(self.name, self.shape, self.dtype, full, self.chunk)

    @classmethod
    def restore(cls, runtime, ckpt: GaCheckpoint, name: "str | None" = None) -> "GlobalArray":
        """Collective: recreate a checkpointed GA on ``runtime``.

        ``runtime`` may be a *different* ARMCI runtime than the one the
        checkpoint was taken on — in the survivor-restart protocol it is
        the rebuilt :class:`~repro.armci.Armci` on the shrunken world, so
        the block distribution is recomputed for the new process count
        (redistribute-on-shrink).  Each rank writes only its own block
        from the replicated snapshot (owner-computes), so restore issues
        no communication beyond the closing sync.
        """
        ga = cls.create(
            runtime, ckpt.shape, ckpt.dtype, chunk=ckpt.chunk,
            name=name or ckpt.name,
        )
        block = ga.distribution()
        if block.size:
            view = ga.access()
            view[...] = _subpatch(np.asarray(ckpt.data), block)
            ga.release()
        ga.sync()
        return ga

    # -- convenience --------------------------------------------------------------------
    def sync(self) -> None:
        """GA_Sync: fence + barrier."""
        self.runtime.barrier()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GlobalArray {self.name!r} shape={self.shape} dtype={self.dtype} "
            f"grid={self.dist.dims}>"
        )


def _subpatch(arr: np.ndarray, patch: Patch) -> np.ndarray:
    return arr[tuple(slice(l, h) for l, h in zip(patch.lo, patch.hi))]
