"""Analytic performance modeling: clocks, LogGP cost models, platforms.

Functional correctness and performance are decoupled in this
reproduction: data always moves for real (NumPy copies inside the
simulated MPI), while time is charged through the models in this package.
See DESIGN.md ("Functional time vs modeled time").
"""

from .clock import SimClock
from .netmodel import MPITimingPolicy, PathModel
from .platforms import (
    BLUEGENE_P,
    CRAY_XE6,
    CRAY_XT5,
    INFINIBAND,
    PLATFORMS,
    Platform,
    get_platform,
)
from .registration import PAGE_BYTES, RegistrationModel, RegistrationState

__all__ = [
    "BLUEGENE_P",
    "CRAY_XE6",
    "CRAY_XT5",
    "INFINIBAND",
    "MPITimingPolicy",
    "PAGE_BYTES",
    "PLATFORMS",
    "PathModel",
    "Platform",
    "RegistrationModel",
    "RegistrationState",
    "SimClock",
    "get_platform",
]
