"""Traffic-harness benchmark: offered load vs goodput, latency, degradation.

Runs the :mod:`repro.traffic` service harness in the regimes the paper's
robustness story cares about and records the service-level trajectory in
``benchmarks/BENCH_traffic.json``:

* **thread sweep** — each workload (stencil / worksteal / bfs) across an
  offered-load sweep on the deterministic scheduler: goodput
  (completions per tick), p50/p99 queueing latency in ticks, and shed
  rate at each point.  These runs are bit-deterministic, so they are
  also correctness gates: every point must finish ``ok`` with its
  serial-numpy oracle verified.
* **thread faulted** — the same workloads with a seeded
  :class:`~repro.faults.plan.FaultPlan` kill landing mid-traffic.  The
  harness must degrade gracefully (recover, shed the backlog, drain)
  and still verify, and a second run from the same seed must reproduce
  both the scheduler digest and the traffic trace digest bit-for-bit —
  the failing-seed replay contract.
* **proc pair** — a wall-clock proc-backend run, fault-free and then
  with a real ``SIGKILL`` timed (as a fraction of the measured
  fault-free wall time) to land mid-traffic.  The gate is graceful
  degradation: the killed run must recover at least once, stay
  value-correct, and keep goodput at or above
  :data:`GOODPUT_FLOOR` of the fault-free run.

Absolute wall seconds are machine-dependent trajectory data; the
``traffic`` entry of :mod:`repro.bench.registry` enforces the
proc-backend degradation gate (:func:`check_degradation`: recovery
observed + goodput floor) only on hosts with at least
``registry.WALLCLOCK_MIN_CPUS`` usable CPUs, where the kill timing is
meaningful.  Determinism, oracle verification, and replay identity
(:func:`check_correctness`) are gated on every host.
"""

from __future__ import annotations

import time

from ..faults.plan import FaultPlan
from ..traffic import TrafficConfig, run_traffic, run_traffic_proc
from .harness import format_table

#: world size and seed for every run (the trajectory replays from these)
NPROC = 4
SEED = 7
#: thread-backend offered-load sweep (arrivals per rank per tick)
OFFERED_SWEEP = (1, 3, 6)
#: thread-backend fault: kill VICTIM at fuzz point KILL_POINT
VICTIM = 1
KILL_POINT = 40
#: proc-backend scenario: big enough that the SIGKILL lands mid-traffic
PROC_SCENARIO = "stencil"
PROC_SIZE = 160
PROC_TICK_SLEEP_S = 0.1
PROC_VICTIM = 2
#: SIGKILL delay as a fraction of the measured fault-free wall time
PROC_KILL_FRACTION = 0.45
#: killed-run goodput must stay at or above this fraction of fault-free
GOODPUT_FLOOR = 0.5

_SCENARIOS = ("stencil", "worksteal", "bfs")


def _point(result) -> dict:
    """Service-level metrics of one run, as recorded in the baseline."""
    return {
        "ok": result.ok,
        "verified": result.verified,
        "ticks": result.ticks,
        "offered": result.offered,
        "admitted": result.admitted,
        "completed": result.completed,
        "goodput_per_tick": result.goodput,
        "p50_ticks": result.p50_ticks,
        "p99_ticks": result.p99_ticks,
        "retries": result.retries,
        "shed": result.shed,
        "shed_rate": result.shed_rate,
        "recoveries": result.recoveries,
        "recovery_dip": result.recovery_dip,
        "drain_ticks": result.drain_ticks,
        "digest": result.digest,
    }


def measure(fast: bool = False) -> dict:
    """Thread sweep + faulted replay pairs + the proc clean/SIGKILL pair."""
    results: dict = {"thread": {}, "proc": {}}
    sweep = OFFERED_SWEEP[1:2] if fast else OFFERED_SWEEP
    for scenario in _SCENARIOS:
        entry: dict = {"sweep": {}}
        for offered in sweep:
            cfg = TrafficConfig(scenario=scenario, seed=SEED, offered=offered)
            r = run_traffic(cfg, NPROC, SEED)
            entry["sweep"][f"offered{offered}"] = _point(r)
        plan = FaultPlan(seed=SEED).kill(VICTIM, KILL_POINT)
        cfg = TrafficConfig(scenario=scenario, seed=SEED, offered=OFFERED_SWEEP[1])
        faulted = run_traffic(cfg, NPROC, SEED, plan=plan)
        replay = run_traffic(cfg, NPROC, SEED, plan=plan)
        entry["faulted"] = _point(faulted)
        entry["faulted"]["replay_identical"] = bool(
            replay.digest == faulted.digest
            and replay.schedule_digest == faulted.schedule_digest
        )
        results["thread"][scenario] = entry
    # proc pair: measure the fault-free wall time, then aim the SIGKILL
    # at PROC_KILL_FRACTION of it so it lands mid-traffic
    cfg = TrafficConfig(
        scenario=PROC_SCENARIO, seed=SEED, size=PROC_SIZE,
        tick_sleep_s=PROC_TICK_SLEEP_S,
    )
    t0 = time.monotonic()
    clean = run_traffic_proc(cfg, NPROC)
    clean_wall_s = time.monotonic() - t0
    kill_after_s = max(0.3, PROC_KILL_FRACTION * clean_wall_s)
    plan = FaultPlan(seed=SEED).kill(PROC_VICTIM, after_s=kill_after_s)
    t0 = time.monotonic()
    killed = run_traffic_proc(cfg, NPROC, plan=plan)
    killed_wall_s = time.monotonic() - t0
    ratio = (
        killed.goodput / clean.goodput if clean.goodput > 0 else 0.0
    )
    results["proc"] = {
        "scenario": PROC_SCENARIO,
        "size": PROC_SIZE,
        "tick_sleep_s": PROC_TICK_SLEEP_S,
        "kill_after_s": kill_after_s,
        "clean": {**_point(clean), "wall_s": clean_wall_s},
        "killed": {**_point(killed), "wall_s": killed_wall_s},
        "goodput_ratio": ratio,
    }
    return results


def format_results(results: dict) -> str:
    def row(scenario: str, label: str, p: dict, note: str = "") -> list:
        return [
            scenario, label, f"{p['goodput_per_tick']:.3f}",
            f"{p['p50_ticks']:.0f}", f"{p['p99_ticks']:.0f}",
            f"{p['shed_rate']:.3f}", p["recoveries"], note,
        ]

    rows = []
    for scenario, entry in results["thread"].items():
        for key in sorted(entry["sweep"]):
            rows.append(row(scenario, key[len("offered"):], entry["sweep"][key]))
        f = entry["faulted"]
        rows.append(row(
            scenario, "+kill", f,
            f"dip={f['recovery_dip']:.2f} drain={f['drain_ticks']}"
            f" replay={'ok' if f['replay_identical'] else 'DIVERGED'}",
        ))
    table = format_table(
        f"traffic harness (nproc {NPROC}, seed {SEED})",
        ["scenario", "offered", "goodput", "p50", "p99", "shed", "recov", ""],
        rows,
    )
    proc = results["proc"]
    c, k = proc["clean"], proc["killed"]
    return (
        f"{table}\nproc[{proc['scenario']}] clean: goodput "
        f"{c['goodput_per_tick']:.3f}/tick in {c['wall_s']:.2f}s; "
        f"SIGKILL@{proc['kill_after_s']:.2f}s: "
        f"{k['goodput_per_tick']:.3f}/tick, recoveries={k['recoveries']}, "
        f"ratio {proc['goodput_ratio']:.2f} (floor {GOODPUT_FLOOR:g})"
    )


def check_correctness(measured: dict, _committed: dict) -> "list[str]":
    """Host-independent contracts: every run (thread sweep, faulted, proc
    pair) verifies its oracle, faulted runs recover, replays are identical."""
    problems = []
    for scenario, entry in measured["thread"].items():
        for key, p in {**entry["sweep"], "faulted": entry["faulted"]}.items():
            if not (p["ok"] and p["verified"]):
                problems.append(
                    f"thread {scenario} {key}: ok={p['ok']} "
                    f"verified={p['verified']}"
                )
        f = entry["faulted"]
        if f["recoveries"] < 1:
            problems.append(f"thread {scenario} faulted: no recovery observed")
        if not f["replay_identical"]:
            problems.append(f"thread {scenario} faulted: replay DIVERGED")
    for which in ("clean", "killed"):
        p = measured["proc"][which]
        if not (p["ok"] and p["verified"]):
            problems.append(
                f"proc {which}: ok={p['ok']} verified={p['verified']}"
            )
    return problems


def check_degradation(measured: dict, _committed: dict) -> "list[str]":
    """Wall-clock contract: the real SIGKILL lands mid-traffic, the run
    recovers, and goodput stays at or above the floor."""
    proc = measured["proc"]
    problems = []
    if proc["killed"]["recoveries"] < 1:
        problems.append(
            "proc killed: SIGKILL landed outside the traffic window "
            "(no recovery observed)"
        )
    if proc["goodput_ratio"] < GOODPUT_FLOOR:
        problems.append(
            f"proc killed: goodput ratio {proc['goodput_ratio']:.2f} "
            f"below the {GOODPUT_FLOOR:g} floor"
        )
    return problems
