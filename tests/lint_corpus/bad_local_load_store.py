from repro.mpi import Win


def body(comm):
    win, _ = Win.allocate(comm, 64)
    comm.barrier()
    view = win.local_view()  # expect: local-load-store
    view[0] = 1


def allocated(comm):
    # Win.allocate's second value is the window's own memory
    win, mem = Win.allocate(comm, 64)
    mem[0] = 1  # expect: local-load-store
    comm.barrier()
    win.free()
