"""Unit tests for the simtime package: clocks, path models, registration."""

from __future__ import annotations

import pytest

from repro.simtime import (
    PLATFORMS,
    MPITimingPolicy,
    PathModel,
    RegistrationModel,
    RegistrationState,
    SimClock,
    get_platform,
)


def test_clock_advance_accumulates():
    c = SimClock()
    assert c.advance(1.5, kind="a", nbytes=10) == 1.5
    c.advance(0.5, kind="b")
    assert c.now == 2.0


def test_clock_negative_charge_raises():
    c = SimClock()
    with pytest.raises(ValueError):
        c.advance(-1.0)


def test_clock_sync_to_only_moves_forward():
    c = SimClock()
    c.advance(5.0)
    c.sync_to(3.0)
    assert c.now == 5.0
    c.sync_to(8.0)
    assert c.now == 8.0


def _pm(**kw) -> PathModel:
    defaults = dict(
        name="t",
        latency=1e-6,
        bw_small=1e9,
        bw_large=1e9,
        bw_threshold=1 << 20,
        acc_rate=1e9,
        seg_overhead=1e-7,
        pack_rate=2e9,
    )
    defaults.update(kw)
    return PathModel(**defaults)


def test_pathmodel_contiguous_cost():
    p = _pm()
    assert p.xfer_time("put", 0) == pytest.approx(1e-6)
    assert p.xfer_time("put", 10**6) == pytest.approx(1e-6 + 1e-3)


def test_pathmodel_bandwidth_threshold():
    p = _pm(bw_small=2e9, bw_large=1e9, bw_threshold=1 << 16)
    assert p.wire_bw(1 << 16) == 2e9
    assert p.wire_bw((1 << 16) + 1) == 1e9
    # the Cray XT effect: achieved bandwidth DROPS past the threshold,
    # even though bigger messages normally amortise latency better
    assert p.bandwidth("get", 1 << 17) < p.bandwidth("get", 1 << 16)


def test_pathmodel_accumulate_extra_cost():
    p = _pm()
    assert p.xfer_time("acc", 4096) > p.xfer_time("put", 4096)


def test_pathmodel_segments_add_pack_cost():
    p = _pm()
    one = p.xfer_time("put", 4096, nsegments=1)
    many = p.xfer_time("put", 4096, nsegments=64)
    assert many == pytest.approx(one + 64 * 1e-7 + 4096 / 2e9)


def test_pathmodel_inflight_overhead():
    p = _pm(inflight_overhead=1e-8)
    first = p.xfer_time("put", 64, op_index=0)
    later = p.xfer_time("put", 64, op_index=5)
    assert later < first


def test_pathmodel_queue_penalty():
    p = _pm(epoch_queue_penalty=1e-7)
    assert p.xfer_time("put", 64, op_index=100) == pytest.approx(
        p.xfer_time("put", 64, op_index=0) + 1e-5
    )


def test_pathmodel_sync_times():
    p = _pm(lock_cost=2e-6, unlock_cost=3e-6)
    assert p.sync_time("lock") == 2e-6
    assert p.sync_time("unlock") == 3e-6
    assert p.sync_time("flush") == 1.5e-6
    assert p.sync_time("other") == 0.0


def test_pathmodel_validation():
    with pytest.raises(ValueError):
        _pm(bw_small=-1)
    with pytest.raises(ValueError):
        _pm().xfer_time("put", -1)


def test_pathmodel_bandwidth_monotone_in_size():
    p = _pm()
    sizes = [2**k for k in range(0, 24, 2)]
    bws = [p.bandwidth("get", s) for s in sizes]
    assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))


def test_timing_policy_adapter():
    p = _pm(lock_cost=1e-6)
    pol = MPITimingPolicy(p)
    assert pol.rma_sync_cost("lock") == 1e-6
    assert pol.rma_op_cost("put", 100, 1) == p.xfer_time("put", 100)
    assert pol.p2p_cost(100) == p.p2p_time(100)
    assert pol.collective_cost("barrier", 0, 16) == pytest.approx(
        4 * p.p2p_time(0)
    )


def test_collective_alltoall_scales_linearly():
    p = _pm()
    assert p.collective_time("alltoall", 64, 32) >= 31 * p.p2p_time(64)


# ---------------------------------------------------------------------------
# registration model (Fig. 5 machinery)
# ---------------------------------------------------------------------------


def test_registration_paths_ordering():
    m = RegistrationModel()
    n = 1 << 16  # 64 KiB, above the eager threshold
    fastest = m.armci_get_armci_buffer(n)
    assert m.mpi_get_touched(n) == pytest.approx(fastest)
    assert m.armci_get_mpi_buffer(n) > fastest
    assert m.mpi_get_untouched(n) > m.armci_get_mpi_buffer(n)


def test_registration_eager_threshold_behaviour():
    m = RegistrationModel()
    just_below = m.mpi_get_untouched(m.eager_threshold)
    just_above = m.mpi_get_untouched(m.eager_threshold + 1)
    # crossing two pages switches from bounce-copy to on-demand pinning,
    # with a visible jump (the Fig. 5 dip)
    assert just_above > just_below * 2


def test_registration_cost_scales_with_pages():
    m = RegistrationModel()
    assert m.registration_cost(1 << 20) > m.registration_cost(1 << 12)


def test_registration_state_caches():
    m = RegistrationModel()
    st = RegistrationState(m)
    n = 1 << 16
    first = st.transfer_cost(1, n)
    second = st.transfer_cost(1, n)
    assert second < first  # cached registration
    assert st.registered_buffers == 1


def test_registration_state_evicts_lru():
    m = RegistrationModel()
    st = RegistrationState(m, capacity_pages=32)
    big = 16 * 4096
    a = st.transfer_cost(1, big)
    st.transfer_cost(2, big)  # evicts nothing yet (16+16 = 32 pages)
    st.transfer_cost(3, big)  # evicts buffer 1
    again = st.transfer_cost(1, big)
    assert again == pytest.approx(a)  # re-registration cost paid again


def test_registration_state_validation():
    with pytest.raises(ValueError):
        RegistrationState(RegistrationModel(), capacity_pages=0)


# ---------------------------------------------------------------------------
# platforms / Table II
# ---------------------------------------------------------------------------


def test_all_four_platforms_present():
    assert set(PLATFORMS) == {"bgp", "ib", "xt5", "xe6"}


def test_get_platform_unknown_raises():
    with pytest.raises(KeyError):
        get_platform("summit")


def test_table2_values():
    """The Table II system characteristics, verbatim from the paper."""
    rows = {p.key: p.table2_row() for p in PLATFORMS.values()}
    assert rows["bgp"] == (
        "IBM Blue Gene/P (Intrepid)", "40,960", "1 x 4", "2 GB", "3D Torus", "IBM MPI",
    )
    assert rows["ib"] == (
        "Cluster (Fusion)", "320", "2 x 4", "36 GB", "InfiniBand QDR", "MVAPICH2 1.6",
    )
    assert rows["xt5"] == (
        "Cray XT5 (Jaguar PF)", "18,688", "2 x 6", "16 GB", "Seastar 2+", "Cray MPI",
    )
    assert rows["xe6"] == (
        "Cray XE6 (Hopper II)", "6,392", "2 x 12", "32 GB", "Gemini", "Cray MPI",
    )


def test_cores_per_node():
    assert PLATFORMS["bgp"].cores_per_node == 4
    assert PLATFORMS["ib"].cores_per_node == 8
    assert PLATFORMS["xt5"].cores_per_node == 12
    assert PLATFORMS["xe6"].cores_per_node == 24


def test_progress_config_validation():
    from repro.mpi.progress import ProgressConfig

    with pytest.raises(ValueError):
        ProgressConfig(mode="magic")
    with pytest.raises(ValueError):
        ProgressConfig(core_fraction_lost=1.5)
    with pytest.raises(ValueError):
        ProgressConfig(target_delay_factor=0.5)


def test_progress_presets():
    from repro.mpi.progress import MPI_ASYNC, MPI_POLLING, NATIVE_CHT

    assert NATIVE_CHT.mode == "cht" and NATIVE_CHT.core_fraction_lost > 0
    assert MPI_ASYNC.target_delay_factor == 1.0
    assert MPI_POLLING.target_delay_factor > 1.0
