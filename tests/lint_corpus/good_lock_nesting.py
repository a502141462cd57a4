from repro.mpi import Win


def body(comm, buf):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    win.lock(0)
    win.unlock(0)
    win.lock(1)
    win.unlock(1)
    win.put(buf, 1, lock="exclusive")  # its own epoch, after the others
