"""Tests for IOV operations: the four methods of §VI-A and auto checking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci import Armci, ArmciConfig
from repro.mpi.errors import ArgumentError

from conftest import spmd


def _scatter_roundtrip(config):
    def main(comm):
        a = Armci.init(comm, config)
        ptrs = a.malloc(512)
        if a.my_id == 0:
            local = np.arange(64, dtype="f8").view(np.uint8).copy()
            # four 16-byte segments from local offsets 0,64,128,192
            a.putv(
                local,
                loc_offsets=[0, 64, 128, 192],
                dst=[ptrs[1] + off for off in (0, 128, 256, 384)],
                seg_bytes=16,
            )
        a.barrier()
        if a.my_id == 1:
            v = np.zeros(64)
            a.get(ptrs[1], v)
            # segment k carried doubles [8k, 8k+1]
            assert v[0:2].tolist() == [0.0, 1.0]
            assert v[16:18].tolist() == [8.0, 9.0]
            assert v[32:34].tolist() == [16.0, 17.0]
            assert v[48:50].tolist() == [24.0, 25.0]
            assert v[2:16].sum() == 0
            # gather them back
            out = np.zeros(8)
            a.getv(
                src=[ptrs[1] + off for off in (0, 128, 256, 384)],
                local=out,
                loc_offsets=[0, 16, 32, 48],
                seg_bytes=16,
            )
            assert out.tolist() == [0, 1, 8, 9, 16, 17, 24, 25]
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


@pytest.mark.parametrize("method", ["auto", "conservative", "batched", "direct"])
def test_putv_getv_all_methods(method):
    _scatter_roundtrip(ArmciConfig(iov_method=method, iov_batch_size=2))


def test_accv():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        ones = np.ones(4).view(np.uint8).copy()
        a.accv(
            ones, loc_offsets=[0, 16],
            dst=[ptrs[0], ptrs[0] + 32], seg_bytes=16,
            scale=2.0,
        )
        a.barrier()
        if a.my_id == 0:
            v = np.zeros(8)
            a.get(ptrs[0], v)
            expect = np.zeros(8)
            expect[[0, 1, 4, 5]] = 2.0 * a.nproc
            np.testing.assert_array_equal(v, expect)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(3, main)


def test_iov_methods_stats_recorded():
    def main(comm):
        a = Armci.init(comm, ArmciConfig(iov_method="batched", iov_batch_size=3))
        ptrs = a.malloc(256)
        a.putv(
            np.zeros(32, dtype=np.uint8), [0, 8, 16, 24],
            [ptrs[a.my_id] + o for o in (0, 32, 64, 96)], 8,
        )
        a.barrier()
        ops, segs, nbytes = a.stats.iov_ops["batched"]
        # stats are shared: every rank issued one 4-segment putv
        assert ops == a.nproc and segs == 4 * a.nproc and nbytes == 32 * a.nproc
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_auto_falls_back_on_overlap():
    """Overlapping destination segments must route to conservative."""

    def main(comm):
        a = Armci.init(comm, ArmciConfig(iov_method="auto"))
        ptrs = a.malloc(64)
        local = np.zeros(32, dtype=np.uint8)
        # segments 0..16 and 8..24 overlap at the destination
        a.putv(local, [0, 16], [ptrs[a.my_id], ptrs[a.my_id] + 8], 16)
        a.barrier()
        ops, _, _ = a.stats.iov_ops["conservative"]
        assert ops == a.nproc
        assert "direct" not in a.stats.iov_ops
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_auto_falls_back_on_multiple_gmrs():
    """Segments spanning two allocations must route to conservative."""

    def main(comm):
        a = Armci.init(comm, ArmciConfig(iov_method="auto"))
        p1 = a.malloc(32)
        p2 = a.malloc(32)
        local = np.zeros(32, dtype=np.uint8)
        a.putv(local, [0, 16], [p1[a.my_id], p2[a.my_id]], 16)
        a.barrier()
        assert "conservative" in a.stats.iov_ops
        assert "direct" not in a.stats.iov_ops
        a.free(p2[a.my_id])
        a.free(p1[a.my_id])

    spmd(2, main)


def test_auto_uses_direct_when_safe():
    def main(comm):
        a = Armci.init(comm, ArmciConfig(iov_method="auto"))
        ptrs = a.malloc(64)
        a.putv(
            np.zeros(32, dtype=np.uint8), [0, 16],
            [ptrs[a.my_id], ptrs[a.my_id] + 32], 16,
        )
        a.barrier()
        assert "direct" in a.stats.iov_ops
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_direct_method_rejects_multi_gmr():
    def main(comm):
        a = Armci.init(comm, ArmciConfig(iov_method="direct"))
        p1 = a.malloc(32)
        p2 = a.malloc(32)
        with pytest.raises(ArgumentError):
            a.putv(
                np.zeros(32, dtype=np.uint8), [0, 16],
                [p1[a.my_id], p2[a.my_id]], 16,
            )
        a.barrier()
        a.free(p2[a.my_id])
        a.free(p1[a.my_id])

    spmd(1, main)


def test_iov_mixed_target_ranks_rejected():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        with pytest.raises(ArgumentError):
            a.putv(np.zeros(32, dtype=np.uint8), [0, 16], [ptrs[0], ptrs[1]], 16)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_empty_iov_is_noop():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        a.putv(np.zeros(8, dtype=np.uint8), [], [], 16)
        a.getv((0, []), np.zeros(8, dtype=np.uint8), [], 16)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(1, main)


def test_overlapping_get_destinations_fall_back():
    """For gets the *local* side is written; overlap there must degrade."""

    def main(comm):
        a = Armci.init(comm, ArmciConfig(iov_method="auto"))
        ptrs = a.malloc(64)
        out = np.zeros(32, dtype=np.uint8)
        a.getv(
            [ptrs[a.my_id], ptrs[a.my_id] + 32],
            out,
            loc_offsets=[0, 8],  # local overlap
            seg_bytes=16,
        )
        a.barrier()
        assert "conservative" in a.stats.iov_ops
        a.free(ptrs[a.my_id])

    spmd(1, main)


def test_batch_size_one_equals_conservative_epochs():
    """B=1 batched degenerates to one op per epoch (still single-GMR)."""

    def main(comm):
        a = Armci.init(comm, ArmciConfig(iov_method="batched", iov_batch_size=1))
        ptrs = a.malloc(128)
        a.putv(
            np.arange(32, dtype=np.uint8), [0, 8, 16, 24],
            [ptrs[a.my_id] + o for o in (0, 32, 64, 96)], 8,
        )
        a.barrier()
        v = np.zeros(128, dtype=np.uint8)
        a.get(ptrs[a.my_id], v)
        for k, off in enumerate((0, 32, 64, 96)):
            np.testing.assert_array_equal(v[off : off + 8], np.arange(8 * k, 8 * k + 8, dtype=np.uint8))
        a.free(ptrs[a.my_id])

    spmd(2, main)


def test_accv_misaligned_segment_raises():
    def main(comm):
        a = Armci.init(comm)
        ptrs = a.malloc(64)
        with pytest.raises(ArgumentError):
            a.accv(np.zeros(16, dtype=np.uint8), [0], [ptrs[a.my_id]], 12,
                   dtype="f8")
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(1, main)


#: name -> (local byte offsets, target byte offsets, segment bytes)
_ACCV_CASES = {
    "repeated_local": ([0, 0, 8], [0, 8, 16], 8),
    "overlapping_target": ([0, 16], [0, 8], 16),  # auto degrades to conservative
    "aliases_own_slab": ([0, 16], [0, 32], 16),
}


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
@pytest.mark.parametrize("method", ["auto", "conservative", "batched", "direct"])
@pytest.mark.parametrize("case", sorted(_ACCV_CASES))
def test_accv_scaled_matches_numpy_oracle(case, method, datapath):
    """``scale != 1`` is applied once per listed segment — also when a local
    segment is listed twice, targets overlap, or the local side is the
    caller's own global memory — and never to the caller's array."""
    loc_offs, tgt_offs, seg = _ACCV_CASES[case]
    values = np.array([1.0, 10.0, 100.0, 1000.0])

    def main(comm):
        a = Armci.init(comm, datapath=datapath)
        ptrs = a.malloc(64)
        if a.my_id == 0:
            local = values.copy()
            if case == "aliases_own_slab":
                view = a.access_begin(ptrs[0], 32, "f8")
                view[:] = values
                a.access_end(ptrs[0])
                local = a.table.require(ptrs[0]).local_slab()[:32].view("f8")
            a.accv(
                local, loc_offs, [ptrs[1] + o for o in tgt_offs], seg,
                scale=0.5, method=method,
            )
            assert local.tobytes() == values.tobytes()
            assert a.stats.staged_copies == (case == "aliases_own_slab")
            if case == "overlapping_target" and method == "auto":
                assert list(a.stats.iov_ops) == ["conservative"]
        a.barrier()
        if a.my_id == 1:
            got = np.zeros(8)
            a.get(ptrs[1], got)
            expect = np.zeros(8)
            for lo, to in zip(loc_offs, tgt_offs):
                expect[to // 8 : (to + seg) // 8] += 0.5 * values[lo // 8 : (lo + seg) // 8]
            np.testing.assert_array_equal(got, expect)
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)


@pytest.mark.parametrize("datapath", ["mpi2", "mpi3"])
@pytest.mark.parametrize("method", ["auto", "conservative", "batched", "direct"])
@pytest.mark.parametrize("kind", ["put", "get", "acc"])
def test_local_segment_past_the_buffer_raises_on_every_method(kind, method, datapath):
    """A local segment that leaves the buffer is an ``ArgumentError`` up
    front — not a silently truncated slice on the per-segment methods —
    and nothing moves on either side."""

    def main(comm):
        a = Armci.init(comm, datapath=datapath)
        ptrs = a.malloc(32)
        if a.my_id == 0:
            seeded = np.arange(100, 132, dtype=np.uint8)
            a.put(seeded, ptrs[1])
            local = np.arange(12, dtype=np.uint8)  # second segment: 8..16 > 12
            remote = [ptrs[1], ptrs[1] + 16]
            with pytest.raises(ArgumentError, match="local segment"):
                if kind == "put":
                    a.putv(local, [0, 8], remote, 8, method=method)
                elif kind == "get":
                    a.getv(remote, local, [0, 8], 8, method=method)
                else:
                    a.accv(local, [0, 8], remote, 8, dtype="u1", method=method)
            with pytest.raises(ArgumentError, match="local segment"):
                a.putv(local, [-4, 0], remote, 8, method=method)
            assert local.tolist() == list(range(12))
            after = np.zeros(32, dtype=np.uint8)
            a.get(ptrs[1], after)
            assert after.tolist() == seeded.tolist()
            assert not a.stats.iov_ops
        a.barrier()
        a.free(ptrs[a.my_id])

    spmd(2, main)
