from repro.mpi import Win


def body(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    win.lock(0)
    win.lock(1)  # expect: lock-nesting
    win.unlock(1)


def own_epoch_inside_a_lock(comm, buf):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    win.lock(0)
    win.put(buf, 1, lock="exclusive")  # expect: lock-nesting
    win.unlock(0)
