from repro.mpi import Win


def body(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    mine = win.exposed_buffer()
    win.lock(1)
    win.put(mine, 1)  # expect: local-alias
    win.unlock(1)


def allocated(comm):
    # Win.allocate's second value is the window's own memory
    win, mem = Win.allocate(comm, 64)
    comm.barrier()
    win.lock(1)
    win.put(mem[:8], 1)  # expect: local-alias
    win.unlock(1)
    win.free()
