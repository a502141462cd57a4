from repro.mpi import LOCK_SHARED, Win


def body(comm, buf):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    win.lock(1)
    win.put(buf, 1)
    win.unlock(1)
    win.get(buf, 1, lock=LOCK_SHARED)  # an epoch of its own
