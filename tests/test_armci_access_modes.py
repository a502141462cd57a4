"""Tests for §VIII-A access-mode hints: shared locks where promises allow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import AccessMode, Armci, ArmciConfig
from repro.mpi.errors import ArgumentError
from repro.mpi.runtime import Runtime
from repro.mpi.window import LOCK_EXCLUSIVE, LOCK_SHARED
from repro.sanitizer import RmaSanitizer

from conftest import spmd


def test_mode_allows_table():
    assert AccessMode.DEFAULT.allows("put")
    assert AccessMode.READ_ONLY.allows("get")
    assert not AccessMode.READ_ONLY.allows("put")
    assert not AccessMode.READ_ONLY.allows("acc")
    assert AccessMode.ACC_ONLY.allows("acc")
    assert not AccessMode.ACC_ONLY.allows("get")
    assert AccessMode.CONFLICT_FREE.allows("put")


def test_lock_mode_selection():
    assert AccessMode.DEFAULT.lock_mode("get") == LOCK_EXCLUSIVE
    assert AccessMode.READ_ONLY.lock_mode("get") == LOCK_SHARED
    assert AccessMode.ACC_ONLY.lock_mode("acc") == LOCK_SHARED
    assert AccessMode.CONFLICT_FREE.lock_mode("put") == LOCK_SHARED
    # RMW and DLA stay exclusive regardless
    assert AccessMode.CONFLICT_FREE.lock_mode("rmw") == LOCK_EXCLUSIVE
    assert AccessMode.CONFLICT_FREE.lock_mode("dla") == LOCK_EXCLUSIVE


def test_read_only_phase_concurrent_gets():
    """All ranks get from one hot slab concurrently under shared locks.

    Under DEFAULT this serialises through exclusive epochs; under
    READ_ONLY it does not — and the strict window verifies no conflict
    arises (gets never conflict with gets)."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(1024)
        if a.my_id == 0:
            a.put(np.arange(128.0), ptrs[0])
        a.barrier()
        a.set_access_mode(ptrs[0], AccessMode.READ_ONLY)
        out = np.zeros(128)
        for _ in range(5):
            a.get(ptrs[0], out)
            np.testing.assert_array_equal(out, np.arange(128.0))
        a.barrier()
        a.set_access_mode(ptrs[0], AccessMode.DEFAULT)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(4, main)


def test_read_only_rejects_put():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        a.set_access_mode(ptrs[0], AccessMode.READ_ONLY)
        with pytest.raises(ArgumentError):
            a.put(np.zeros(4), ptrs[0])
        a.barrier()
        a.set_access_mode(ptrs[0], AccessMode.DEFAULT)
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_acc_only_phase_concurrent_accumulates():
    """The NWChem hot path: concurrent accumulates under shared locks."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        a.set_access_mode(ptrs[0], AccessMode.ACC_ONLY)
        for _ in range(10):
            a.acc(np.ones(8), ptrs[0])
        a.barrier()
        a.set_access_mode(ptrs[0], AccessMode.DEFAULT)
        if a.my_id == 0:
            v = np.zeros(8)
            a.get(ptrs[0], v)
            assert np.all(v == 10.0 * a.nproc)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(4, main)


def test_acc_only_rejects_get():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        a.set_access_mode(ptrs[0], AccessMode.ACC_ONLY)
        with pytest.raises(ArgumentError):
            a.get(ptrs[0], np.zeros(4))
        a.barrier()
        a.set_access_mode(ptrs[0], AccessMode.DEFAULT)
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_mode_is_per_gmr():
    def main(comm):
        a = Armci.init(comm)
        p1 = a.malloc(32)
        p2 = a.malloc(32)
        a.set_access_mode(p1[0], AccessMode.READ_ONLY)
        # p2 unaffected
        a.put(np.zeros(4), p2[a.my_id])
        a.barrier()
        a.set_access_mode(p1[0], AccessMode.DEFAULT)
        a.free(p2[a.my_id])
        a.free(p1[a.my_id])

    spmd(2, main)


def test_mode_change_is_collective_barrier():
    """No operation under the old mode may race one under the new mode."""

    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(32)
        # writes happen strictly before the READ_ONLY phase
        a.put(np.full(4, float(a.my_id)), ptrs[a.my_id])
        a.set_access_mode(ptrs[0], AccessMode.READ_ONLY)
        v = np.zeros(4)
        a.get(ptrs[0], v)
        assert np.all(v == 0.0)
        a.set_access_mode(ptrs[0], AccessMode.DEFAULT)
        a.free(ptrs[a.my_id])

    spmd(3, main)


# ---------------------------------------------------------------------------
# gate parity: every op family resolves its target through the same gate
# ---------------------------------------------------------------------------

_FORMS = [
    "contiguous", "strided_direct", "strided_iov",
    "v_conservative", "v_batched", "v_direct", "v_auto", "nb",
]


def _op(a, form, kind, ptr, buf):
    """One ``kind`` of the 32 bytes of ``buf`` against ``ptr`` via ``form``."""
    if form == "contiguous":
        call = {"put": (a.put, buf, ptr), "get": (a.get, ptr, buf), "acc": (a.acc, buf, ptr)}
    elif form.startswith("strided"):  # two 16-byte rows, dense on both sides
        rows = ([16], [16, 2])
        call = {
            "put": (a.put_s, buf, [16], ptr, *rows),
            "get": (a.get_s, ptr, [16], buf, *rows),
            "acc": (a.acc_s, buf, [16], ptr, *rows),
        }
    elif form.startswith("v_"):
        offs, addrs = [0, 16], [ptr, ptr + 16]
        call = {
            "put": (a.putv, buf, offs, addrs, 16, form[2:]),
            "get": (a.getv, addrs, buf, offs, 16, form[2:]),
            "acc": (a.accv, buf, offs, addrs, 16, 1.0, "f8", form[2:]),
        }
    else:
        call = {
            "put": (a.nb_put, buf, ptr), "get": (a.nb_get, ptr, buf), "acc": (a.nb_acc, buf, ptr),
        }
    fn, *args = call[kind]
    handle = fn(*args)
    if form == "nb":
        a.wait(handle)


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("kind", ["put", "get", "acc"])
@pytest.mark.parametrize("mode", [AccessMode.READ_ONLY, AccessMode.ACC_ONLY])
def test_access_mode_gate_is_the_same_for_every_op_family(mode, kind, form, datapath):
    """§VIII-A: a kind the mode forbids raises ArgumentError — whichever
    API form issues it — reports exactly one ``access-mode`` violation and
    moves no byte; a kind it allows completes with correct data."""
    config = ArmciConfig(strided_method="iov" if form == "strided_iov" else "direct")
    allowed = mode.allows(kind)
    seen = {}

    def main(comm):
        a = Armci.init(comm, config, datapath=datapath)
        ptrs = a.malloc(32)
        if a.my_id == 0:
            a.put(np.arange(4.0), ptrs[0])
        a.barrier()
        a.set_access_mode(ptrs[0], mode)
        if a.my_id == 1:
            seen["buf"] = np.full(4, 2.0)
            if allowed:
                _op(a, form, kind, ptrs[0], seen["buf"])
            else:
                with pytest.raises(ArgumentError):
                    _op(a, form, kind, ptrs[0], seen["buf"])
        a.barrier()
        a.set_access_mode(ptrs[0], AccessMode.DEFAULT)
        if a.my_id == 0:
            seen["slab"] = np.zeros(4)
            a.get(ptrs[0], seen["slab"])
        a.barrier()
        a.free(ptrs[a.my_id])

    rt = Runtime(2, watchdog_s=0.4)
    san = rt.sanitizer = RmaSanitizer(mode="record")
    rt.spmd(main)
    assert [v.kind.value for v in san.violations] == ([] if allowed else ["access-mode"])
    fetched = np.arange(4.0) if allowed and kind == "get" else np.full(4, 2.0)
    np.testing.assert_array_equal(seen["buf"], fetched)
    added = 2.0 if allowed and kind == "acc" else 0.0
    np.testing.assert_array_equal(seen["slab"], np.arange(4.0) + added)


# ---------------------------------------------------------------------------
# a warm GA patch class / compiled strided op still passes the gate per op
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
def test_the_gate_holds_for_a_warm_patch_class(datapath):
    """Owner plans and compiled strided ops hold no GMR state: a mode set
    *after* a class is warm is enforced on its very next op — one
    ``access-mode`` violation per refused op, no byte moved, gets served."""
    from repro.ga import GlobalArray

    seen = {}

    def main(comm):
        a = Armci.init(comm, datapath=datapath)
        ga = GlobalArray.create(a, (8, 8), "f8")
        ref = np.arange(64.0).reshape(8, 8)
        buf = np.full((2, 4), -1.0)
        if a.my_id == 0:
            ga.put((0, 0), (8, 8), ref)
            for _ in range(2):  # warm: put, acc and get of the remote class
                ga.put((5, 2), (7, 6), ref[5:7, 2:6])
                ga.acc((5, 2), (7, 6), np.zeros((2, 4)))
                ga.get((5, 2), (7, 6), out=buf)
        a.barrier()
        a.set_access_mode(ga.ptrs[1], AccessMode.READ_ONLY)
        if a.my_id == 0:
            with pytest.raises(ArgumentError, match="violates access mode read_only"):
                ga.put((5, 2), (7, 6), np.ones((2, 4)))
            with pytest.raises(ArgumentError, match="violates access mode read_only"):
                ga.acc((5, 2), (7, 6), np.ones((2, 4)))
            buf[...] = -1.0
            ga.get((5, 2), (7, 6), out=buf)
            seen["got"] = buf.copy()
        a.barrier()
        a.set_access_mode(ga.ptrs[1], AccessMode.DEFAULT)
        seen[a.my_id] = ga.get((0, 0), (8, 8))
        a.barrier()
        ga.destroy()

    rt = Runtime(2, watchdog_s=0.4)
    san = rt.sanitizer = RmaSanitizer(mode="record")
    rt.spmd(main)
    assert [v.kind.value for v in san.violations] == ["access-mode"] * 2
    ref = np.arange(64.0).reshape(8, 8)
    np.testing.assert_array_equal(seen["got"], ref[5:7, 2:6])
    np.testing.assert_array_equal(seen[0], ref)
    np.testing.assert_array_equal(seen[1], ref)


def test_the_iov_strided_method_still_takes_a_warm_class(monkeypatch):
    """``strided_method="iov"`` compiles a descriptor too (validation and
    sizes) but builds no datatype for it, and every op — first or repeated —
    goes through ``_iov_op``."""
    from repro.armci import strided
    from repro.ga import GlobalArray

    routed, built = [], []
    real_iov, real_build = Armci._iov_op, strided.strided_datatype_uncached

    def counting_iov(self, kind, *args, **kw):
        routed.append(kind)
        return real_iov(self, kind, *args, **kw)

    def counting_build(*args, **kw):
        built.append(args)
        return real_build(*args, **kw)

    def main(comm):
        a = Armci.init(comm, ArmciConfig(strided_method="iov"))
        ga = GlobalArray.create(a, (8, 8), "f8")
        ref = np.arange(64.0).reshape(8, 8)
        if a.my_id == 0:
            ga.put((0, 0), (8, 8), ref)
            routed.clear()
            for _ in range(3):
                ga.put((5, 2), (7, 6), ref[5:7, 2:6])
                ga.acc((5, 2), (7, 6), np.zeros((2, 4)))
                np.testing.assert_array_equal(ga.get((5, 2), (7, 6)), ref[5:7, 2:6])
            assert routed == ["put", "acc", "get"] * 3
        a.barrier()
        ga.destroy()

    strided.strided_datatype_cache_clear()
    monkeypatch.setattr(Armci, "_iov_op", counting_iov)
    monkeypatch.setattr(strided, "strided_datatype_uncached", counting_build)
    try:
        spmd(2, main)
    finally:
        strided.strided_datatype_cache_clear()
    assert built == []
