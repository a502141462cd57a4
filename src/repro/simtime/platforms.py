"""The four experimental platforms of Table II, as calibrated cost models.

Each :class:`Platform` bundles the Table II system characteristics with
two :class:`~repro.simtime.netmodel.PathModel` instances — the
vendor-native ARMCI path and the MPI RMA path — a registration model
(Fig. 5 is only measured on the InfiniBand cluster, but every platform
gets parameters), and application-model coefficients for the NWChem
scaling curves (Fig. 6).

Calibration is to the paper's *qualitative* results (DESIGN.md lists the
shape targets); absolute numbers are in the right order of magnitude for
each interconnect generation but are not claimed to match the original
testbeds.  Tests in ``tests/test_platform_shapes.py`` pin the shape
relations so recalibration cannot silently break a figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netmodel import PathModel
from .registration import RegistrationModel

GB = 1e9


@dataclass(frozen=True)
class Platform:
    """One row of Table II plus everything the benches need to model it."""

    key: str
    name: str
    nodes: int
    sockets_per_node: int
    cores_per_socket: int
    mem_per_node_gb: int
    interconnect: str
    mpi_version: str
    native: PathModel
    mpi: PathModel
    registration: RegistrationModel
    #: sustained per-core DGEMM rate (GF/s) for the CCSD(T) proxy model
    core_gflops: float
    #: per-core fractional inflation of native-path communication at scale
    #: (comm time multiplied by ``1 + coeff * ncores``) — nonzero where the
    #: paper reports native scalability problems (Cray XE6, §VII-D)
    native_contention: float = 0.0
    #: same for the ARMCI-MPI path
    mpi_contention: float = 0.0
    #: multiplier on ARMCI-MPI communication reflecting exclusive-epoch
    #: serialisation on hot targets (§V-C: every op is an exclusive lock,
    #: so concurrent accessors of one target queue; native RDMA does not).
    #: Roughly the expected epoch queue depth at CCSD's access intensity.
    mpi_epoch_contention: float = 1.0

    @property
    def cores_per_node(self) -> int:
        return self.sockets_per_node * self.cores_per_socket

    def table2_row(self) -> tuple[str, str, str, str, str, str]:
        """This platform formatted as its Table II row."""
        return (
            self.name,
            f"{self.nodes:,}",
            f"{self.sockets_per_node} x {self.cores_per_socket}",
            f"{self.mem_per_node_gb} GB",
            self.interconnect,
            self.mpi_version,
        )


BLUEGENE_P = Platform(
    key="bgp",
    name="IBM Blue Gene/P (Intrepid)",
    nodes=40_960,
    sockets_per_node=1,
    cores_per_socket=4,
    mem_per_node_gb=2,
    interconnect="3D Torus",
    mpi_version="IBM MPI",
    # 850 MHz PowerPC 450: low wire bandwidth, *slow packing* — the
    # reason the batched method overtakes direct for 1 KiB segments.
    native=PathModel(
        name="bgp-native",
        latency=3.0e-6,
        bw_small=0.38 * GB,
        bw_large=0.38 * GB,
        bw_threshold=1 << 20,
        acc_rate=1.2 * GB,
        seg_overhead=2.0e-7,
        pack_rate=0.40 * GB,
    ),
    mpi=PathModel(
        name="bgp-mpi",
        latency=2.5e-6,
        bw_small=0.36 * GB,
        bw_large=0.36 * GB,
        bw_threshold=1 << 20,
        acc_rate=0.8 * GB,
        seg_overhead=3.0e-7,
        pack_rate=0.25 * GB,
        lock_cost=2.0e-6,
        unlock_cost=2.0e-6,
        inflight_overhead=2.8e-6,
    ),
    registration=RegistrationModel(
        latency=3.0e-6, pinned_bw=0.38 * GB, copy_rate=1.2 * GB
    ),
    core_gflops=3.4,
    mpi_epoch_contention=1.15,
)

INFINIBAND = Platform(
    key="ib",
    name="Cluster (Fusion)",
    nodes=320,
    sockets_per_node=2,
    cores_per_socket=4,
    mem_per_node_gb=36,
    interconnect="InfiniBand QDR",
    mpi_version="MVAPICH2 1.6",
    # The most aggressively tuned native ARMCI (§VII-D): near-wire-speed
    # strided ops and pipelined accumulate.
    native=PathModel(
        name="ib-native",
        latency=1.8e-6,
        bw_small=3.1 * GB,
        bw_large=3.1 * GB,
        bw_threshold=1 << 22,
        acc_rate=6.0 * GB,
        seg_overhead=5.0e-8,
        pack_rate=50.0 * GB,
    ),
    # MVAPICH2 1.6: good wire bandwidth, weak accumulate (>1.5 GB/s gap,
    # Fig. 3) and the epoch queue-management defect that collapses the
    # batched method at large segment counts (Fig. 4, §VII-A).
    mpi=PathModel(
        name="ib-mpi",
        latency=2.2e-6,
        bw_small=2.9 * GB,
        bw_large=2.9 * GB,
        bw_threshold=1 << 22,
        acc_rate=0.45 * GB,
        seg_overhead=2.0e-7,
        pack_rate=1.2 * GB,
        lock_cost=1.3e-6,
        unlock_cost=1.3e-6,
        epoch_queue_penalty=2.0e-8,
        inflight_overhead=3.0e-7,
    ),
    registration=RegistrationModel(
        latency=2.2e-6, pinned_bw=3.2 * GB, copy_rate=4.5 * GB
    ),
    core_gflops=9.2,
    # MVAPICH2 exclusive epochs serialise badly on 8-core fat nodes: the
    # application-level 2x gap of Fig. 6 despite moderate microbenchmark
    # gaps (§VII-D "roughly 2x ... shrinks as processor count increases")
    mpi_epoch_contention=4.5,
)

CRAY_XT5 = Platform(
    key="xt5",
    name="Cray XT5 (Jaguar PF)",
    nodes=18_688,
    sockets_per_node=2,
    cores_per_socket=6,
    mem_per_node_gb=16,
    interconnect="Seastar 2+",
    mpi_version="Cray MPI",
    native=PathModel(
        name="xt5-native",
        latency=6.0e-6,
        bw_small=2.0 * GB,
        bw_large=2.0 * GB,
        bw_threshold=1 << 22,
        acc_rate=4.0 * GB,
        seg_overhead=1.0e-7,
        pack_rate=40.0 * GB,
    ),
    # Cray MPI on Seastar: comparable below 32 KiB, half the native
    # bandwidth above (Fig. 3); datatype methods beat batched (Fig. 4).
    mpi=PathModel(
        name="xt5-mpi",
        latency=7.0e-6,
        bw_small=1.9 * GB,
        bw_large=1.0 * GB,
        bw_threshold=32 * 1024,
        acc_rate=1.5 * GB,
        seg_overhead=1.2e-7,
        pack_rate=3.0 * GB,
        lock_cost=1.0e-6,
        unlock_cost=1.0e-6,
        inflight_overhead=1.0e-6,
    ),
    registration=RegistrationModel(
        latency=6.0e-6, pinned_bw=2.0 * GB, copy_rate=4.0 * GB
    ),
    core_gflops=10.4,
    # 15-20% application gap (§VII-D)
    mpi_epoch_contention=1.8,
)

CRAY_XE6 = Platform(
    key="xe6",
    name="Cray XE6 (Hopper II)",
    nodes=6_392,
    sockets_per_node=2,
    cores_per_socket=12,
    mem_per_node_gb=32,
    interconnect="Gemini",
    mpi_version="Cray MPI",
    # The ARMCI available for Gemini was a development release (§VII-A):
    # low large-message bandwidth and contention at scale, so ARMCI-MPI
    # wins — the paper's headline reversal.
    native=PathModel(
        name="xe6-native",
        latency=1.5e-6,
        bw_small=0.7 * GB,
        bw_large=0.7 * GB,
        bw_threshold=1 << 22,
        acc_rate=8.0 * GB,
        seg_overhead=2.0e-7,
        pack_rate=6.0 * GB,
    ),
    mpi=PathModel(
        name="xe6-mpi",
        latency=2.0e-6,
        bw_small=1.5 * GB,
        bw_large=1.5 * GB,
        bw_threshold=1 << 22,
        acc_rate=1.6 * GB,
        seg_overhead=1.5e-7,
        pack_rate=5.0 * GB,
        lock_cost=1.5e-6,
        unlock_cost=1.5e-6,
        inflight_overhead=5.0e-7,
    ),
    registration=RegistrationModel(
        latency=2.0e-6, pinned_bw=1.5 * GB, copy_rate=6.0 * GB
    ),
    core_gflops=8.4,
    # development-release native ARMCI degrades at scale: (T) flattens
    # and CCSD worsens past ~5k cores (Fig. 6, bottom right)
    native_contention=6.5e-4,
    mpi_contention=1.0e-5,
    mpi_epoch_contention=1.05,
)

#: all platforms keyed as in the benches: bgp / ib / xt5 / xe6
PLATFORMS: dict[str, Platform] = {
    p.key: p for p in (BLUEGENE_P, INFINIBAND, CRAY_XT5, CRAY_XE6)
}


def get_platform(key: str) -> Platform:
    """Look up a platform by key (``bgp``, ``ib``, ``xt5``, ``xe6``)."""
    try:
        return PLATFORMS[key]
    except KeyError:
        raise KeyError(
            f"unknown platform {key!r}; choose from {sorted(PLATFORMS)}"
        ) from None
