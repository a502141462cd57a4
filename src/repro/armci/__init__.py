"""ARMCI-MPI: the ARMCI one-sided runtime implemented on MPI RMA (§V-§VI).

The paper's contribution.  Public surface:

* :class:`Armci` — runtime facade (`init`, `malloc`/`free`, `put`/`get`/
  `acc` (+ `_s` strided and `v` IOV forms), `rmw`, mutexes, DLA,
  access modes, fence/barrier);
* :class:`GlobalPtr` — the ``<process id, address>`` global address;
* :class:`ArmciConfig` — method/batch-size configuration (§VI-A);
* :class:`AccessMode` — §VIII-A access-mode hints;
* :class:`ConflictTree` — §VI-B overlap detection;
* :class:`OpRecord` — one rank's op counters and ARMCI_PROFILE trace
  (``Armci.record``, ``Armci.trace()``; ``Armci.stats`` totals them);
* :mod:`~repro.armci.strided` — Table I notation and Algorithm 1.
"""

from .access_modes import AccessMode
from .api import Armci, NbHandle
from .config import DEFAULT_CONFIG, IOV_METHODS, STRIDED_METHODS, ArmciConfig
from .conflict_tree import ConflictTree, any_overlap_naive, any_overlap_tree
from .gmr import NULL_ADDR, GlobalPtr, Gmr, GmrTable
from .groups import ArmciGroup
from .msg import (
    msg_barrier,
    msg_brdcst,
    msg_dgop,
    msg_igop,
    msg_llgop,
    msg_rcv,
    msg_snd,
)
from .mutexes import MutexSet
from .rmw import FETCH_AND_ADD, FETCH_AND_ADD_LONG, SWAP, SWAP_LONG
from .record import OpRecord, TraceEvent
from .strided import (
    StridedSpec,
    algorithm1_iter,
    segment_displacements,
    strided_datatype,
    strided_to_iov,
)

__all__ = [
    "AccessMode",
    "Armci",
    "ArmciConfig",
    "ArmciGroup",
    "ConflictTree",
    "DEFAULT_CONFIG",
    "FETCH_AND_ADD",
    "FETCH_AND_ADD_LONG",
    "GlobalPtr",
    "Gmr",
    "GmrTable",
    "IOV_METHODS",
    "MutexSet",
    "NbHandle",
    "NULL_ADDR",
    "OpRecord",
    "STRIDED_METHODS",
    "SWAP",
    "SWAP_LONG",
    "TraceEvent",
    "StridedSpec",
    "algorithm1_iter",
    "any_overlap_naive",
    "any_overlap_tree",
    "segment_displacements",
    "strided_datatype",
    "strided_to_iov",
    "msg_barrier",
    "msg_brdcst",
    "msg_dgop",
    "msg_igop",
    "msg_llgop",
    "msg_rcv",
    "msg_snd",
]
