"""Location-consistency litmus tests over the blocking ARMCI operations.

ARMCI promises location consistency ("A Theory of Partitioned Global
Address Spaces", PAPERS.md): a blocking put/get/acc is complete when it
returns, and one origin's operations on one location take effect in its
program order.  Two litmus programs check consequences of that, for many
rounds, on both backends and both datapaths:

* **message passing (MP)** — rank 0 writes data, then raises a flag;
  rank 1 polls the flag with ``get`` and must then read the new data;
* **read-your-writes (RYW)** — an origin's ``get`` right after its own
  ``put`` or ``acc`` sees the result, on every target including itself.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.armci import Armci
from repro.mpi.runtime import Runtime

ROUNDS = 40

#: a poll that has not seen its value by then is a lost write
_POLL_S = 30.0


def _poll(a: Armci, ptr, want: int) -> None:
    """``get`` the ``i8`` at ``ptr`` until it reads ``want``."""
    seen = np.zeros(1, np.int64)
    deadline = time.monotonic() + _POLL_S
    while True:
        a.get(ptr, seen)
        if seen[0] == want:
            return
        assert seen[0] < want, f"{seen[0]} overtook {want}"
        assert time.monotonic() < deadline, f"never saw {want} (last {seen[0]})"


def _message_passing(comm, datapath: str):
    """Rank 2 hosts the data (8 ``i8``), the flag and the ack; rank 0 writes
    data then flag, rank 1 reads flag then data, then acks the round."""
    a = Armci.init(comm, datapath=datapath)
    ptrs = a.malloc(80 if a.my_id == 2 else 0)
    data, flag, ack = ptrs[2], ptrs[2] + 64, ptrs[2] + 72
    a.barrier()
    got = np.zeros(8, np.int64)
    for r in range(1, ROUNDS + 1):
        if a.my_id == 0:
            a.put(np.full(8, r, np.int64), data)
            a.acc(np.ones(1, np.int64), flag)  # the flag counts rounds
            _poll(a, ack, r)
        elif a.my_id == 1:
            _poll(a, flag, r)
            a.get(data, got)
            assert (got == r).all(), (r, got)
            a.put(np.array([r], np.int64), ack)
    a.barrier()
    a.free(ptrs[a.my_id])
    a.finalize()
    return "ok"


def _read_your_writes(comm, datapath: str):
    """Each origin owns one 16-byte slot on every rank and reads back each
    of its own writes to it at once."""
    a = Armci.init(comm, datapath=datapath)
    ptrs = a.malloc(16 * a.nproc)
    a.barrier()
    got = np.zeros(2, np.int64)
    for r in range(1, ROUNDS + 1):
        for t in range(a.nproc):
            slot = ptrs[t] + 16 * a.my_id
            a.put(np.array([r, -r], np.int64), slot)
            a.get(slot, got)
            assert got.tolist() == [r, -r], (t, r, got)
            a.acc(np.array([r, r], np.int64), slot)
            a.get(slot, got)
            assert got.tolist() == [2 * r, 0], (t, r, got)
    a.barrier()
    a.free(ptrs[a.my_id])
    a.finalize()
    return "ok"


def _run(backend: str, nproc: int, fn, datapath: str, ambient: bool) -> list:
    """``fn`` on ``nproc`` ranks; ``ambient``: a thread runtime takes the
    sanitizer or injector a ``--sanitize``/``--faults`` run installs (procs
    reject both)."""
    rt = Runtime(
        nproc, backend=backend, watchdog_s=10.0,
        apply_hooks=ambient and backend == "thread",
    )
    if backend == "proc":
        return rt.spmd(fn, datapath, join_timeout=120.0)
    return rt.spmd(fn, datapath)


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_message_passing(backend, datapath):
    """On a runtime with no schedule or injector.  With one, an mpi3 op and
    its flush are two sections, and the poll's ``get`` between the flag's
    ``acc`` and its flush is the cross-origin conflict a fuzzer is there
    to find."""
    assert _run(backend, 3, _message_passing, datapath, ambient=False) == ["ok"] * 3


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
@pytest.mark.parametrize("backend", ["thread", "proc"])
def test_read_your_writes(backend, datapath):
    assert _run(backend, 2, _read_your_writes, datapath, ambient=True) == ["ok"] * 2
