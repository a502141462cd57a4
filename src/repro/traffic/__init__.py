"""``repro.traffic``: a service-style load harness over the GA layer.

Everything before this package drives the runtime from a handful of
SPMD ranks in lockstep; the regime "Quo Vadis MPI RMA?" calls realistic
— many concurrent small one-sided operations behind a service
front-end — was never exercised, and never *while faults land*.  This
package closes that gap: many client sessions per rank submit GA
operations through an admission front-end with production robustness
semantics (bounded queue with typed :class:`~repro.traffic.frontend.
Overloaded` shedding, per-request deadlines, retry with seeded
exponential backoff and jitter, a circuit breaker that trips on rank
failures and routes traffic around ULFM recovery), over three value-
checked workloads: a ghost-cell stencil, NXTVAL work stealing, and an
irregular-distribution BFS (:mod:`repro.traffic.workloads`).

Composability is the point: on the thread backend the harness runs
under the deterministic scheduler with seeded
:class:`~repro.faults.plan.FaultPlan` kills, so a failing traffic seed
replays bit-identically (same shed/retry/violation trace); on the proc
backend the same plan type's ``after_s`` kills and stalls deliver real
``SIGKILL``/``SIGSTOP`` mid-traffic and the harness must shed, retry,
recover, and drain instead of failing the run.  See ``docs/traffic.md``
and the ``BENCH_traffic.json`` gate (``python -m repro.bench
--traffic-smoke``).

CLI: ``python -m repro.traffic --scenario stencil --nproc 4 --seed 7``
(see :mod:`repro.traffic.cli`).
"""

from __future__ import annotations

from .frontend import (
    AdmissionQueue,
    CircuitBreaker,
    DeadlineExceeded,
    Overloaded,
    Request,
)
from .harness import (
    TrafficConfig,
    TrafficResult,
    run_traffic,
    run_traffic_proc,
    trace_digest,
    traffic_body,
)
from .workloads import WORKLOADS, make_workload

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "DeadlineExceeded",
    "Overloaded",
    "Request",
    "TrafficConfig",
    "TrafficResult",
    "WORKLOADS",
    "make_workload",
    "run_traffic",
    "run_traffic_proc",
    "trace_digest",
    "traffic_body",
]
