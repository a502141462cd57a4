"""Block data distribution for Global Arrays (Fig. 2's decomposition).

GA distributes an n-D array over a process grid in contiguous blocks.
A ``GA_Put``/``GA_Get`` on an index-range patch is decomposed into one
access per owning process — each generally a *noncontiguous* (strided)
ARMCI operation, which is exactly the translation Figure 2 of the paper
illustrates (one GA_Put on a 2-D array distributed over 4 processes →
four ``ARMCI_PutS`` calls).

The process-grid factorisation mirrors GA's heuristic: factor P into
grid dimensions so blocks stay as square as possible, respecting
minimum-chunk hints.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import ge, sub
from typing import Sequence

from ..mpi.errors import ArgumentError


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return sorted(out, reverse=True)


def grid_dims(nproc: int, shape: Sequence[int], chunk: "Sequence[int] | None" = None) -> list[int]:
    """Factor ``nproc`` into a process grid matched to ``shape``.

    Greedy assignment of prime factors (largest first) to the dimension
    whose per-process extent is currently largest — GA's "keep blocks
    square" heuristic.  A ``chunk`` hint gives per-dimension minimum
    block sizes; dimensions whose blocks would drop below the minimum
    stop receiving factors.
    """
    if nproc < 1:
        raise ArgumentError(f"nproc must be positive, got {nproc}")
    ndim = len(shape)
    if ndim == 0:
        raise ArgumentError("zero-dimensional arrays are not distributable")
    if any(s < 1 for s in shape):
        raise ArgumentError(f"bad shape {shape}")
    chunk = list(chunk) if chunk is not None else [1] * ndim
    dims = [1] * ndim
    for f in _prime_factors(nproc):
        # current block extent per dimension
        best, best_extent = None, -1.0
        for d in range(ndim):
            extent = shape[d] / dims[d]
            if extent / f >= max(chunk[d], 1) and extent > best_extent:
                best, best_extent = d, extent
        if best is None:
            break  # no dimension can be split further; leave procs idle
    # (idle processes own empty blocks)
        else:
            dims[best] *= f
    return dims


def block_bounds(extent: int, nblocks: int, b: int) -> tuple[int, int]:
    """[lo, hi) of block ``b`` when ``extent`` is split into ``nblocks``."""
    base, rem = divmod(extent, nblocks)
    lo = b * base + min(b, rem)
    hi = lo + base + (1 if b < rem else 0)
    return lo, hi


@dataclass(frozen=True, slots=True)
class Patch:
    """An n-D index patch ``[lo, hi)`` (half-open on every dimension)."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]
    #: extent per dimension, derived once (every GA op reads it)
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ArgumentError(f"patch rank mismatch: {self.lo} vs {self.hi}")
        shape = tuple(map(sub, self.hi, self.lo))
        if shape and min(shape) < 0:
            raise ArgumentError(f"inverted patch {self.lo}..{self.hi}")
        object.__setattr__(self, "shape", shape)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def empty(self) -> bool:
        return any(h <= l for l, h in zip(self.lo, self.hi))

    def intersect(self, other: "Patch") -> "Patch":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        hi = tuple(max(l, h) for l, h in zip(lo, hi))
        return Patch(lo, hi)

    def shifted_into(self, origin: Sequence[int]) -> "Patch":
        """This patch re-expressed relative to ``origin``."""
        return Patch(
            tuple(l - o for l, o in zip(self.lo, origin)),
            tuple(h - o for h, o in zip(self.hi, origin)),
        )


@dataclass(frozen=True)
class OwnedPiece:
    """One owner's share of a requested patch (the Fig. 2 decomposition)."""

    rank: int  # owning process (group rank)
    global_patch: Patch  # piece in global coordinates
    local_patch: Patch  # same piece in the owner's block coordinates
    request_patch: Patch  # same piece relative to the requested patch


class BlockDistribution:
    """Blocked distribution of ``shape`` over ``nproc`` processes."""

    def __init__(
        self,
        shape: Sequence[int],
        nproc: int,
        chunk: "Sequence[int] | None" = None,
    ):
        shape = tuple(int(s) for s in shape)
        dims = grid_dims(nproc, shape, chunk)
        self._install(shape, nproc, [
            [block_bounds(extent, nb, b)[0] for b in range(nb)] + [extent]
            for extent, nb in zip(shape, dims)
        ])

    def _install(self, shape: tuple, nproc: int, edges: "list[list[int]]") -> None:
        """Adopt the grid given by per-dimension block edges (the start of
        every block, then the extent) and tabulate each rank's block."""
        self.shape = shape
        self.nproc = nproc
        self._edges = edges
        self.dims = [len(e) - 1 for e in edges]
        self.grid_size = 1
        for d in self.dims:
            self.grid_size *= d
        zeros = tuple(0 for _ in shape)
        self._blocks = [Patch(zeros, zeros)] * nproc  # idle ranks own nothing
        for rank, coords in enumerate(itertools.product(*map(range, self.dims))):
            self._blocks[rank] = Patch(
                tuple(e[c] for e, c in zip(edges, coords)),
                tuple(e[c + 1] for e, c in zip(edges, coords)),
            )

    # -- rank <-> grid coordinates -------------------------------------------------
    def grid_coords(self, rank: int) -> "tuple[int, ...] | None":
        """Grid coordinate of ``rank``; None for idle (surplus) processes."""
        if rank >= self.grid_size:
            return None
        coords = []
        for d in reversed(self.dims):
            coords.append(rank % d)
            rank //= d
        return tuple(reversed(coords))

    def rank_of_coords(self, coords: Sequence[int]) -> int:
        rank = 0
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise ArgumentError(f"grid coordinate {coords} outside {self.dims}")
            rank = rank * d + c
        return rank

    # -- ownership ---------------------------------------------------------------------
    def block(self, rank: int) -> Patch:
        """The block ``[lo, hi)`` owned by ``rank`` (empty for idle ranks)."""
        return self._blocks[rank]

    def owner(self, index: Sequence[int]) -> int:
        """The rank owning element ``index``."""
        coords = []
        for x, edges in zip(index, self._edges):
            if not 0 <= x < edges[-1]:
                raise ArgumentError(f"index {tuple(index)} outside shape {self.shape}")
            coords.append(bisect_right(edges, x, 0, len(edges) - 1) - 1)
        return self.rank_of_coords(coords)

    def locate(self, patch: Patch) -> "list[OwnedPiece]":
        """All owners intersecting ``patch`` — NGA_Locate_region.

        One :class:`OwnedPiece` per owning process, in rank order: the unit
        that becomes one ARMCI strided operation (Fig. 2).
        """
        if len(patch.lo) != len(self.shape):
            raise ArgumentError(
                f"patch rank {len(patch.lo)} != array rank {len(self.shape)}"
            )
        for l, h, extent in zip(patch.lo, patch.hi, self.shape):
            if l < 0 or h > extent:
                raise ArgumentError(f"patch {patch} outside array shape {self.shape}")
        pieces: "list[OwnedPiece]" = []
        if patch.empty:
            return pieces
        # grid-coordinate range intersecting the patch per dimension
        ranges = [
            range(
                bisect_right(e, l, 0, len(e) - 1) - 1,
                bisect_right(e, h - 1, 0, len(e) - 1),
            )
            for e, l, h in zip(self._edges, patch.lo, patch.hi)
        ]
        plo, phi = patch.lo, patch.hi
        for coords in itertools.product(*ranges):  # the (small) sub-grid
            rank = 0
            for c, d in zip(coords, self.dims):
                rank = rank * d + c
            blo = self._blocks[rank].lo
            lo = tuple(map(max, plo, blo))
            hi = tuple(map(min, phi, self._blocks[rank].hi))
            if any(map(ge, lo, hi)):
                continue  # an empty block
            pieces.append(OwnedPiece(
                rank=rank,
                global_patch=Patch(lo, hi),
                local_patch=Patch(tuple(map(sub, lo, blo)), tuple(map(sub, hi, blo))),
                request_patch=Patch(tuple(map(sub, lo, plo)), tuple(map(sub, hi, plo))),
            ))
        return pieces

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockDistribution(shape={self.shape}, grid={self.dims})"
