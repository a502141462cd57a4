"""Ghost (halo) cells: GA_Create_ghosts / GA_Update_ghosts.

Stencil codes on Global Arrays allocate each block with a halo of ghost
cells mirroring the neighbouring blocks' edges; ``update_ghosts`` is the
collective that refreshes every halo with one-sided strided gets — a
communication pattern (2·ndim noncontiguous transfers per process per
update) that leans directly on the ARMCI strided machinery of §VI.

:class:`GhostArray` wraps a :class:`~repro.ga.array.GlobalArray` and
keeps the halo in a separate local NumPy buffer (the simulated analogue
of GA's in-place ghost regions):

* ``local_with_ghosts()`` — the owner's block plus halo, ready for a
  stencil sweep;
* ``update_ghosts()`` — refresh all halos (collective);
* ``store_local(interior)`` — write the swept interior back.

Boundary handling is periodic (wrap-around) or clamped-to-zero,
matching GA's ``GA_Set_ghost_corner_flag``-era options closely enough
for stencil workloads.
"""

from __future__ import annotations

import numpy as np

from ..mpi.errors import ArgumentError
from .array import GlobalArray
from .periodic import patch_pieces


class GhostArray:
    """A GlobalArray plus per-process halo of ``width`` ghost cells."""

    def __init__(self, ga: GlobalArray, width: int, periodic: bool = True):
        if width < 0:
            raise ArgumentError(f"ghost width must be >= 0, got {width}")
        for extent in ga.shape:
            if width > extent:
                raise ArgumentError(
                    f"ghost width {width} exceeds array extent {extent}"
                )
        self.ga = ga
        self.width = width
        self.periodic = periodic
        block = ga.distribution()
        self._halo_shape = tuple(s + 2 * width for s in block.shape)
        self._halo = np.zeros(self._halo_shape, dtype=ga.dtype)

    # -- creation ------------------------------------------------------------
    @classmethod
    def create(
        cls,
        runtime,
        shape,
        width: int,
        dtype="f8",
        periodic: bool = True,
        name: str = "ga_ghost",
    ) -> "GhostArray":
        """GA_Create_ghosts: distributed array with halo support."""
        ga = GlobalArray.create(runtime, shape, dtype, name=name)
        return cls(ga, width, periodic)

    # -- views ------------------------------------------------------------------
    def local_with_ghosts(self) -> np.ndarray:
        """The halo buffer: interior = owner's block, rim = ghosts.

        Call :meth:`update_ghosts` first to make the rim current.
        """
        return self._halo

    def interior(self) -> np.ndarray:
        """Writable view of the interior of the halo buffer."""
        w = self.width
        if w == 0:
            return self._halo
        return self._halo[tuple(slice(w, -w) for _ in self.ga.shape)]

    # -- data movement -------------------------------------------------------------
    def update_ghosts(self) -> None:
        """Refresh interior + halo from the global array (collective).

        Every process issues one one-sided get per halo-buffer row
        region (wrapping regions split into at most 3 pieces per
        dimension), then a sync — GA_Update_ghosts' semantics: after
        return, every halo reflects a consistent global state.
        """
        self.ga.sync()
        block = self.ga.distribution()
        # global index range the halo buffer covers (may run off the edges)
        lo = [l - self.width for l in block.lo]
        hi = [h + self.width for h in block.hi]
        for sl, g_lo, g_hi in patch_pieces(self.ga.shape, lo, hi, wrap=self.periodic):
            if g_lo is None:
                self._halo[sl] = 0  # clamped boundary
            else:
                self.ga.get(g_lo, g_hi, out=self._halo[sl])
        self.ga.sync()

    def store_local(self, interior: "np.ndarray | None" = None) -> None:
        """Write the interior back to the global array (collective)."""
        block = self.ga.distribution()
        data = self.interior() if interior is None else np.asarray(interior)
        if tuple(data.shape) != block.shape:
            raise ArgumentError(
                f"interior shape {data.shape} != owned block {block.shape}"
            )
        if not block.empty:
            self.ga.put(block.lo, block.hi, data)
        self.ga.sync()

    def destroy(self) -> None:
        self.ga.destroy()


def jacobi_sweep(halo: np.ndarray) -> np.ndarray:
    """One 2-D 5-point Jacobi step over a halo buffer (helper for tests
    and the stencil example); returns the new interior."""
    if halo.ndim != 2:
        raise ArgumentError("jacobi_sweep expects a 2-D halo buffer")
    return 0.25 * (
        halo[:-2, 1:-1] + halo[2:, 1:-1] + halo[1:-1, :-2] + halo[1:-1, 2:]
    )
