"""ARMCI-MPI runtime configuration (the knobs §VI and §VIII expose).

Mirrors the environment variables of the real ARMCI-MPI release
(``ARMCI_IOV_METHOD``, ``ARMCI_IOV_BATCHED_LIMIT``,
``ARMCI_STRIDED_METHOD``, ``ARMCI_NO_MPI_LOCKS``-style coherence
shortcut) as a plain dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass

#: IOV transfer methods of §VI-A.
IOV_METHODS = ("auto", "conservative", "batched", "direct")
#: Strided transfer methods of §VI-C ("iov" funnels through an IOV method).
STRIDED_METHODS = ("direct", "iov")


@dataclass(frozen=True)
class ArmciConfig:
    """Configuration of one ARMCI-MPI instance.

    Attributes
    ----------
    iov_method:
        How generalized I/O vector operations are transferred:
        ``conservative`` (one RMA op per segment, each in its own
        epoch), ``batched`` (up to :attr:`iov_batch_size` ops per
        epoch), ``direct`` (one op with indexed datatypes), or ``auto``
        (conflict-tree scan, §VI-B, falling back to conservative when
        segments overlap or span GMRs).
    iov_batch_size:
        B of the batched method; 0 means unlimited (the paper's
        default).
    strided_method:
        ``direct`` translates ARMCI strided notation into one MPI
        subarray datatype (§VI-C); ``iov`` converts to IOV form via
        Algorithm 1 and then applies :attr:`iov_method`.
    coherent_shortcut:
        On cache-coherent systems many MPI implementations tolerate
        concurrent access to shared data; setting this disables the
        global-buffer staging protocol of §V-E.1 (and requires a
        non-strict window).  Default off: the paper's portable mode.
    alignment:
        Byte alignment of ARMCI_Malloc'd slabs in the simulated
        per-process address space.
    nb_coalesce_threshold:
        MPI-3 datapath only: largest merged transfer (bytes) the
        nonblocking coalescing queue will grow by appending an adjacent
        op (DART-MPI style aggregation).  0 disables merging — every
        nb op stays its own queue entry.
    nb_max_pending:
        MPI-3 datapath only: per-target cap on queued nb entries; the
        queue auto-drains (issue + one flush) when an enqueue would
        exceed it.  Bounds both memory and the modeled epoch queue
        depth.  Must be >= 1.
    """

    iov_method: str = "auto"
    iov_batch_size: int = 0
    strided_method: str = "direct"
    coherent_shortcut: bool = False
    alignment: int = 64
    nb_coalesce_threshold: int = 512
    nb_max_pending: int = 64

    def __post_init__(self) -> None:
        if self.iov_method not in IOV_METHODS:
            raise ValueError(
                f"iov_method must be one of {IOV_METHODS}, got {self.iov_method!r}"
            )
        if self.strided_method not in STRIDED_METHODS:
            raise ValueError(
                f"strided_method must be one of {STRIDED_METHODS}, "
                f"got {self.strided_method!r}"
            )
        if self.iov_batch_size < 0:
            raise ValueError("iov_batch_size must be >= 0 (0 = unlimited)")
        if self.alignment < 1 or self.alignment & (self.alignment - 1):
            raise ValueError("alignment must be a positive power of two")
        if self.nb_coalesce_threshold < 0:
            raise ValueError("nb_coalesce_threshold must be >= 0 (0 = no merging)")
        if self.nb_max_pending < 1:
            raise ValueError("nb_max_pending must be >= 1")


DEFAULT_CONFIG = ArmciConfig()
