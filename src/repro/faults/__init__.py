"""``repro.faults``: seeded, deterministic fault injection.

The robustness counterpart to :mod:`repro.sanitizer`: where the
sanitizer proves the §V protocols *correct* under legal reorderings,
this package proves them *survivable* under failure.  A
:class:`FaultPlan` describes a scenario — kill a rank at any operation
boundary, stall it for scheduler steps, delay or degrade delivery,
corrupt or drop one RMA op — and a :class:`FaultInjector` executes it
against a live runtime.  Composed with the deterministic schedule, a
fault scenario is a pure function of ``(schedule seed, plan)`` and
replays bit-identically.  The same plan type drives the proc backend:
there a kill or stall is keyed to ``after_s`` wall-clock seconds instead
of a fuzz point and is delivered as a real signal
(:mod:`repro.faults.proc`).

The runtime degrades gracefully rather than hanging: failed ranks are
quarantined (ops targeting them raise a typed
:class:`~repro.mpi.errors.TargetFailedError`), the §V-D mutex queue is
repaired when a holder dies (the next waiter receives
:class:`~repro.armci.mutexes.MutexHolderFailed` and owns the repaired
mutex), lock acquisition retries with seeded exponential backoff under
per-op timeouts, and both the wall-clock watchdog and the deterministic
scheduler diagnose "survivors stuck because of a dead rank" as
``TargetFailedError`` instead of a deadlock.  See ``docs/faults.md``.

CLI: ``python -m repro.faults <script|scenario:NAME> --kill 1@5
--seed 0 --schedules 8`` (see :mod:`repro.faults.cli`).
"""

from __future__ import annotations

from ..armci.mutexes import MutexHolderFailed
from ..mpi.errors import (
    CommRevokedError,
    OpTimeoutError,
    RankKilledError,
    RetriesExhausted,
    TargetFailedError,
)
from .injector import FaultInjector
from .plan import Corrupt, Delay, FaultPlan, Kill, Stall
from .proc import sweep_stale_segments
from .scenarios import RECOVER_SCENARIOS, SCENARIOS

__all__ = [
    "CommRevokedError",
    "Corrupt",
    "Delay",
    "FaultInjector",
    "FaultPlan",
    "Kill",
    "MutexHolderFailed",
    "OpTimeoutError",
    "RECOVER_SCENARIOS",
    "RankKilledError",
    "RetriesExhausted",
    "SCENARIOS",
    "Stall",
    "TargetFailedError",
    "install_ambient",
    "sweep_stale_segments",
    "uninstall_ambient",
]


def install_ambient(plan: "FaultPlan | None" = None):
    """Attach a fault injector to every runtime created from now on.

    With no ``plan``, an *empty* (benign) plan is used: every fuzz point
    and RMA payload is routed through the injector — exercising the
    whole injection plumbing — but no fault fires and no clock is
    perturbed, so outcomes are unchanged.  Returns a token for
    :func:`uninstall_ambient`.  This is what ``pytest --faults`` and the
    ``faults`` marker use.
    """
    from ..mpi import runtime as _runtime

    if plan is None:
        plan = FaultPlan(seed=0)

    def hook(rt) -> None:
        rt.faults = FaultInjector(plan)

    _runtime.RUNTIME_CREATION_HOOKS.append(hook)
    return hook


def uninstall_ambient(token) -> None:
    """Remove a hook installed by :func:`install_ambient`."""
    from ..mpi import runtime as _runtime

    try:
        _runtime.RUNTIME_CREATION_HOOKS.remove(token)
    except ValueError:
        pass
