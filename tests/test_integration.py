"""Kitchen-sink integration: every layer exercised together on 8 ranks.

One SPMD program that touches the full stack the way a real GA
application would — groups, allocations, access modes, strided/IOV
traffic, mutexes, counters, DLA, GA math, ghost exchange, tracing —
with end-state assertions.  If any two subsystems interact badly, this
is where it shows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import AccessMode, Armci, ArmciConfig
from repro.ga import (
    GlobalArray,
    SharedCounter,
    TaskPool,
    dgemm,
    dot,
    fill,
    gather,
    scatter_acc,
    sum_all,
    zero,
)
from repro.ga.ghosts import GhostArray, jacobi_sweep

from conftest import spmd


def test_full_stack_workout():
    def main(comm):
        armci = Armci.init(comm, ArmciConfig(iov_method="auto"))
        trace = armci.trace()
        me, nproc = armci.my_id, armci.nproc

        # --- phase 1: raw ARMCI ring traffic -----------------------------
        ptrs = armci.malloc(256)
        right = (me + 1) % nproc
        armci.put(np.full(8, float(me)), ptrs[right])
        armci.barrier()
        mine = np.zeros(8)
        armci.get(ptrs[me], mine)
        assert np.all(mine == float((me - 1) % nproc))
        armci.barrier()

        # --- phase 2: access-mode-hinted accumulate storm ----------------
        armci.set_access_mode(ptrs[0], AccessMode.ACC_ONLY)
        for _ in range(5):
            armci.acc(np.ones(4), ptrs[0] + 64)
        armci.barrier()
        armci.set_access_mode(ptrs[0], AccessMode.DEFAULT)
        if me == 0:
            v = np.zeros(4)
            armci.get(ptrs[0] + 64, v)
            assert np.all(v == 5.0 * nproc)
        armci.barrier()

        # --- phase 3: mutex-protected read-modify-write -------------------
        mtx = armci.create_mutexes(2)
        for _ in range(3):
            mtx.lock(1, 0)
            v = np.zeros(1)
            armci.get(ptrs[0] + 128, v)
            armci.put(v + 1.0, ptrs[0] + 128)
            mtx.unlock(1, 0)
        armci.barrier()
        if me == 0:
            v = np.zeros(1)
            armci.get(ptrs[0] + 128, v)
            assert v[0] == 3.0 * nproc
        armci.barrier()

        # --- phase 4: GA math over the same runtime -----------------------
        n = 12
        A = GlobalArray.create(armci, (n, n), name="A")
        B = GlobalArray.create(armci, (n, n), name="B")
        C = GlobalArray.create(armci, (n, n), name="C")
        fill(A, 1.0)
        fill(B, 2.0)
        dgemm(1.0, A, B, 0.0, C)
        assert dot(C, C) == pytest.approx(n * n * (2.0 * n) ** 2)

        # --- phase 5: element scatter + NXTVAL task pool -------------------
        D = GlobalArray.create(armci, (nproc * 4,), name="D")
        zero(D)
        pool = TaskPool(armci, nproc * 4)
        my_tasks = list(pool.tasks())
        scatter_acc(D, [(t,) for t in my_tasks], np.ones(len(my_tasks)))
        D.sync()
        assert sum_all(D) == pytest.approx(nproc * 4)
        got = gather(D, [(i,) for i in range(nproc * 4)])
        assert np.all(got == 1.0), "every task processed exactly once"
        pool.destroy()

        # --- phase 6: ghost-cell stencil step ------------------------------
        G = GhostArray.create(armci, (8, 8), width=1, periodic=True)
        fill(G.ga, 1.0)
        G.update_ghosts()
        new = jacobi_sweep(G.local_with_ghosts())
        assert np.allclose(new, 1.0)  # uniform field is a fixed point
        G.store_local(new)

        # --- wrap up --------------------------------------------------------
        armci.barrier()
        ops = trace.summary_by_op()
        assert ops.get("put_s") or ops.get("get_s"), "GA traffic was traced"
        for ga_obj in (G.ga, D, C, B, A):
            ga_obj.destroy()
        mtx.destroy()
        armci.free(ptrs[me])
        assert len(armci.table) == 0, "no leaked allocations"
        return True

    assert all(spmd(8, main, watchdog_s=15.0))
