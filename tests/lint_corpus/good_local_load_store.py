from repro.mpi import LOCK_EXCLUSIVE, Win


def body(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    win.lock(comm.rank, LOCK_EXCLUSIVE)
    view = win.local_view()
    view[0] = 1
    win.unlock(comm.rank)


def allocated(comm):
    win, mem = Win.allocate(comm, 64)
    win.lock(comm.rank, LOCK_EXCLUSIVE)
    mem[0] = 1
    win.unlock(comm.rank)
    comm.barrier()
    win.free()
