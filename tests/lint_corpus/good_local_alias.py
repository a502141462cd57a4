from repro.mpi import Win


def body(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    staged = win.exposed_buffer().copy()  # private staging copy
    win.lock(1)
    win.put(staged, 1)
    win.unlock(1)


def allocated(comm):
    win, mem = Win.allocate(comm, 64)
    comm.barrier()
    staged = mem[:8].copy()  # private staging copy
    win.lock(1)
    win.put(staged, 1)
    win.unlock(1)
    win.free()
