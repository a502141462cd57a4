#!/usr/bin/env python3
"""Distributed Jacobi stencil with GA ghost cells (halo exchange).

A 2-D heat-diffusion solve on a Global Array: each process sweeps its
own block, refreshing a one-cell halo with ``update_ghosts`` — the
classic PGAS stencil pattern, and a workload made entirely of the
noncontiguous strided transfers §VI of the paper optimises.

Run:  python examples/stencil_ghosts.py
"""

from __future__ import annotations

import numpy as np

from repro import mpi
from repro.armci import Armci
from repro.ga.ghosts import GhostArray, jacobi_sweep

SHAPE = (16, 16)
STEPS = 30


def main(comm):
    armci = Armci.init(comm)
    me = armci.my_id

    grid = GhostArray.create(armci, SHAPE, width=1, periodic=False)
    # boundary condition: the top edge is held at 1.0
    init = np.zeros(SHAPE)
    init[0, :] = 1.0
    if me == 0:
        grid.ga.put((0, 0), SHAPE, init)
    grid.ga.sync()

    block = grid.ga.distribution()
    for step in range(STEPS):
        grid.update_ghosts()  # halo refresh: strided one-sided gets
        new = jacobi_sweep(grid.local_with_ghosts())
        if block.lo[0] == 0:
            new[0, :] = 1.0  # reassert the hot edge
        grid.store_local(new)

    result = grid.ga.get((0, 0), SHAPE)
    if me == 0:
        # heat must decay monotonically away from the hot edge
        col = result[:, SHAPE[1] // 2]
        assert all(a >= b for a, b in zip(col, col[1:])), col
        print("temperature profile down the centre column:")
        print("  " + "  ".join(f"{v:.3f}" for v in col))
        print(f"strided ops issued by rank 0: "
              f"{armci.record.gets} gets, {armci.record.puts} puts")
    grid.ga.sync()
    grid.destroy()


if __name__ == "__main__":
    mpi.spmd_run(4, main)
    print("stencil_ghosts OK")
