"""Irregular (user-specified) block distributions — GA's ``NGA_Create_irreg``.

GA lets applications dictate block boundaries per dimension instead of
the automatic even split: NWChem, for example, aligns array blocks with
orbital-tile boundaries so tile fetches hit a single owner.  The class
below plugs into :class:`~repro.ga.array.GlobalArray` wherever
:class:`~repro.ga.distribution.BlockDistribution` does (same locate /
owner / block interface), so every GA operation works unchanged.
"""

from __future__ import annotations

from typing import Sequence

from ..mpi.errors import ArgumentError
from .distribution import BlockDistribution


class IrregularDistribution(BlockDistribution):
    """Blocked distribution with explicit per-dimension boundaries.

    ``boundaries[d]`` lists the starting index of every block along
    dimension ``d`` (first entry must be 0); the number of blocks per
    dimension defines the process grid, whose size must not exceed
    ``nproc`` (surplus processes own empty blocks, as with the regular
    distribution).
    """

    def __init__(
        self,
        shape: Sequence[int],
        nproc: int,
        boundaries: Sequence[Sequence[int]],
    ):
        shape = tuple(int(s) for s in shape)
        if len(boundaries) != len(shape):
            raise ArgumentError(
                f"need one boundary list per dimension: got {len(boundaries)} "
                f"for a {len(shape)}-d array"
            )
        edges: list[list[int]] = []
        for d, (extent, marks) in enumerate(zip(shape, boundaries)):
            marks = [int(m) for m in marks]
            if not marks or marks[0] != 0:
                raise ArgumentError(f"dim {d}: boundaries must start at 0")
            if any(b >= c for b, c in zip(marks, marks[1:])):
                raise ArgumentError(f"dim {d}: boundaries must increase: {marks}")
            if marks[-1] >= extent and extent > 0:
                raise ArgumentError(
                    f"dim {d}: last boundary {marks[-1]} must lie inside "
                    f"extent {extent}"
                )
            edges.append(marks + [extent])
        grid_size = 1
        for e in edges:
            grid_size *= len(e) - 1
        if grid_size > nproc:
            raise ArgumentError(
                f"irregular grid {[len(e) - 1 for e in edges]} needs "
                f"{grid_size} processes, only {nproc} available"
            )
        # Intentionally bypass BlockDistribution.__init__'s automatic
        # factorisation: we install the explicit grid instead.
        self._install(shape, nproc, edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IrregularDistribution(shape={self.shape}, "
            f"bounds={[e[:-1] for e in self._edges]})"
        )


def create_irregular(
    runtime,
    shape: Sequence[int],
    boundaries: Sequence[Sequence[int]],
    dtype="f8",
    name: str = "ga_irreg",
):
    """``NGA_Create_irreg``: a GlobalArray with explicit block boundaries."""
    import numpy as np

    from .array import GlobalArray

    shape = tuple(int(s) for s in shape)
    dt = np.dtype(dtype)
    dist = IrregularDistribution(shape, runtime.nproc, boundaries)
    block = dist.block(runtime.my_id)
    ptrs = runtime.malloc(block.size * dt.itemsize)
    return GlobalArray(runtime, shape, dt, ptrs, dist, name)
