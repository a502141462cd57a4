#!/usr/bin/env python3
"""Profiling GA traffic and aligning distributions with tiles.

Two production idioms on top of the reproduction:

1. **Tracing** (`Armci.trace()`, the ARMCI_PROFILE equivalent): record
   every one-sided operation a GA workload issues, then read the
   per-op and per-target breakdown — how you find the hot array.
2. **Irregular distribution** (`create_irregular`, NGA_Create_irreg):
   align block boundaries with the application's tile boundaries so
   each tile fetch hits exactly one owner — compare the op counts.

Run:  python examples/profiling_and_tiling.py
"""

from __future__ import annotations

import numpy as np

from repro import mpi
from repro.armci import Armci
from repro.ga import GlobalArray, create_irregular, zero
from repro.mpi.runtime import Runtime
from repro.simtime import INFINIBAND, MPITimingPolicy

TILES = [(0, 5), (5, 8)]  # row tiles of an 8x8 array


def fetch_all_tiles(ga) -> int:
    """Fetch every (row-tile x full-width) patch; return ops issued."""
    events = ga.runtime.record.events
    before = len(events)
    for lo, hi in TILES:
        ga.get((lo, 0), (hi, 8))
    return len(events) - before


def main(comm):
    armci = Armci.init(comm)
    tr = armci.trace()  # this rank's op record, now tracing
    me = armci.my_id

    # --- regular (even) distribution: tiles straddle block boundaries ---
    even = GlobalArray.create(armci, (8, 8), "f8", name="even")
    zero(even)
    if me == 0:
        even_ops = fetch_all_tiles(even)
    even.sync()

    # --- tile-aligned irregular distribution -----------------------------
    aligned = create_irregular(armci, (8, 8), [[0, 5], [0]], name="aligned")
    zero(aligned)
    if me == 0:
        aligned_ops = fetch_all_tiles(aligned)
        print(f"tile fetches: {even_ops} strided gets on the even "
              f"distribution vs {aligned_ops} on the tile-aligned one")
        assert aligned_ops <= even_ops
    aligned.sync()

    # --- profile a mixed workload ----------------------------------------
    tr.clear()
    ptrs = armci.malloc(256)
    right = (me + 1) % armci.nproc
    for _ in range(4):
        armci.put(np.ones(8), ptrs[right])
    armci.acc(np.ones(4), ptrs[0], scale=2.0)
    out = np.zeros(8)
    armci.get(ptrs[right], out)
    armci.barrier()
    if me == 0:
        print()
        print(tr.render(max_events=4))
    armci.barrier()
    armci.free(ptrs[me])
    aligned.destroy()
    even.destroy()


if __name__ == "__main__":
    rt = Runtime(4)
    rt.timing = MPITimingPolicy(INFINIBAND.mpi)  # modeled durations in the trace
    rt.spmd(main)
    print("\nprofiling_and_tiling OK")
