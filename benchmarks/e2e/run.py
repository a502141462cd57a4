#!/usr/bin/env python3
"""Wall-clock GA-level benchmark with per-layer attribution.

One measured run (the unit the driver calls; last stdout line is JSON)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced then traced, each in a fresh interpreter::

    python3 benchmarks/e2e/run.py [--seed N] [--repeat R] [--quick] [--out PATH]

Judge two result files against the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --compare A.json B.json

See ``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
#: lock files of the proc backend land here, inside the checkout, so the
#: leak check is a directory listing
TMP = os.path.join(OUT, "tmp")

# The ranks are the parallelism: a BLAS pool per rank would put 4+
# threads on the 2-core reference host and make ccsd_proxy's DGEMMs noisy.
# Must be set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"{ROOT}/src/repro not found: run from a full checkout of the repository")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wk  # noqa: E402
from repro.mpi import Runtime  # noqa: E402
from repro.sanitizer.fuzz import run_schedule  # noqa: E402

QUICK_SCALE = 0.1
QUICK_SECONDS = 0.5
JOIN_TIMEOUT_S = 170.0
SETUP_DISCARD = 2
SPAWN_JOBS = 5
#: --compare calls the comparison void when the floors differ by more
#: (ISSUE 11 asked for 0.10; two sets of one commit on the reference host
#: already differ by up to 0.2)
FLOOR_TOLERANCE = 0.25
#: every run reports it beside the end-to-end metrics; it must stay 0, so
#: it cannot be one of the contract's never-zero ``end_to_end`` metrics
FAILED_FRAC = {"name": "failed_frac", "unit": "1", "better": "lower", "bound": 0.0}

#: span -> the only workloads on which it may be called in the traced
#: section; a call anywhere else is counted as a failure
ONLY_ON = {
    "window.lock": {"small_thread_mpi2", "nxtval_proc_mpi2"},
    "window.unlock": {"small_thread_mpi2", "nxtval_proc_mpi2"},
    "window.flush": {
        "small_proc_mpi3", "small_checked_thread", "large_getput_proc",
        "large_acc_proc", "ccsd_proxy",
    },
    "sanitizer.hooks": {"small_checked_thread"},
}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# one measured run
# ---------------------------------------------------------------------------


def launch(wl: wk.Workload, seed: int, fn, *args):
    """Run ``fn`` on the workload's backend; returns (per-rank results, info)."""
    if wl.checked:
        report = run_schedule(fn, wk.NRANKS, seed, args=args, sanitize=True)
        if not report.ok:
            raise RuntimeError(f"checked schedule failed: {report.error}")
        return report.results, {
            "schedule_digest": report.digest,
            "violations": len(report.violations),
        }
    rt = Runtime(wk.NRANKS, backend=wl.backend)
    return rt.spmd(fn, *args, join_timeout=JOIN_TIMEOUT_S), {}


def oracle_failures(wl: wk.Workload, seed: int, ranks: "list[dict]") -> int:
    if wl.kind == "patch":
        return sum(r["mismatches"] for r in ranks)
    if wl.kind == "nxtval":
        return wk.ticket_errors([r["tickets"] for r in ranks])
    return wk.energy_errors([r["energies"] for r in ranks], seed)


def leaked_resources() -> "list[str]":
    """What a finished job must not leave behind (ROADMAP aim 3's leak gate)."""
    leaks = glob.glob(f"/dev/shm/repro-{os.getpid()}x*")
    leaks += [os.path.join(TMP, name) for name in os.listdir(TMP)]
    leaks += [f"pid {p.pid}" for p in multiprocessing.active_children()]
    return leaks


def measure_setup(wl: wk.Workload, seed: int, cycles: int) -> float:
    """Median over cycles of the slowest rank's set-up time."""
    per_rank, _ = launch(wl, seed, wk.setup_main, wl, seed, cycles)
    slowest = [max(times) for times in zip(*per_rank)]
    return statistics.median(slowest[SETUP_DISCARD:])


def section_stats(ranks: "list[dict]", key: str) -> dict:
    """Throughput and latency of one section, in calibrated and in wall time."""
    wall = [r[key]["lat_s"] for r in ranks]
    cal = [r[key]["lat_s"] / r[key]["speed"] for r in ranks]
    ops = sum(r[key]["ops"] for r in ranks)
    pooled = np.concatenate(cal)
    return {
        "ops": ops,
        "lat_s": pooled,
        # the slowest rank sets SPMD time
        "ops_per_s": ops / max(c.sum() for c in cal),
        "op_p50_us": float(np.median(pooled)) * 1e6,
        "wall_lat_s": np.concatenate(wall),
        "wall_ops_per_s": ops / max(w.sum() for w in wall),
        # time-weighted host-speed factor of each rank (1.0 when uncalibrated)
        "speed": [float(w.sum() / c.sum()) for w, c in zip(wall, cal)],
    }


def untraced_pass(wl: wk.Workload, seed: int, seconds: float, scale: float):
    setup_s = measure_setup(wl, seed, max(SETUP_DISCARD + 2, int(wl.setup_cycles * scale)))
    ranks, info = launch(wl, seed, wk.rank_main, wl, seed, seconds, scale)
    st = section_stats(ranks, "timed")
    cpu = [r["cpu_s"] / h for r, h in zip(ranks, st["speed"])]
    # thread ranks share one process, so each reports the same process CPU
    cpu_s = sum(cpu) if wl.backend == "proc" else max(cpu)
    metrics = {
        "ops_per_s": st["ops_per_s"],
        "op_p50_us": st["op_p50_us"],
        "cpu_us_per_op": cpu_s / st["ops"] * 1e6,
        "setup_s": setup_s,
        "rss_peak_MB": max(r["rss_mb"] for r in ranks),
    }
    info.update(
        latency_samples=int(st["lat_s"].size),
        floor_memcpy_us=statistics.median(r["floor_us"] for r in ranks),
        host_speed_factor=statistics.mean(st["speed"]),
        wall_ops_per_s=st["wall_ops_per_s"],
        wall_op_p50_us=float(np.median(st["wall_lat_s"])) * 1e6,
    )
    return metrics, info, st["ops"], oracle_failures(wl, seed, ranks)


def traced_pass(wl: wk.Workload, seed: int, scale: float):
    spawn = []
    for _ in range(max(2, int(SPAWN_JOBS * scale))):
        t0 = time.perf_counter()
        Runtime(wk.NRANKS, backend=wl.backend).spmd(wk.empty_main)
        spawn.append(time.perf_counter() - t0)
    ranks, info = launch(wl, seed, wk.rank_main, wl, seed, None, scale)
    plain = section_stats(ranks, "timed")
    traced = section_stats(ranks, "traced")
    tops = traced["ops"]
    floor_us = statistics.median(r["floor_us"] for r in ranks)
    metrics = {}
    calls = {}
    self_sum_us = 0.0
    for span in spans.SPANS:
        calls[span] = sum(r["trace"]["agg"][span][0] for r in ranks)
        self_us = sum(r["trace"]["agg"][span][2] for r in ranks) / 1e3 / tops
        metrics[f"{span}.self_us_per_op"] = self_us
        metrics[f"{span}.calls_per_op"] = calls[span] / tops
        self_sum_us += self_us
    pieces = calls["armci.put_s"] + calls["armci.get_s"] + calls["armci.acc_s"]
    wall_lat = plain["wall_lat_s"]
    traced_mean_us = float(traced["wall_lat_s"].mean()) * 1e6
    metrics.update({
        "backend.spawn_s": statistics.median(spawn),
        "backend.win_create_us": max(r["win_create_us"] for r in ranks),
        "floor.memcpy_us": floor_us,
        "host.speed_factor": statistics.mean(plain["speed"]),
        "ga.overhead_x": float(np.median(wall_lat)) * 1e6 / floor_us,
        "ga.MB_per_s": plain["wall_ops_per_s"] * ranks[0]["bytes_per_op"] / 1e6,
        "ga.op_p99_us": float(np.percentile(wall_lat, 99)) * 1e6,
        "ga.pieces_per_op": pieces / tops,
        # the two sections run seconds apart: compare them in calibrated time
        "trace.overhead_frac": float(traced["lat_s"].mean() / plain["lat_s"].mean()) - 1.0,
    })
    stray = [s for s, allowed in ONLY_ON.items() if calls[s] and wl.name not in allowed]
    per_rank = [r["trace"] for r in ranks]
    rank_ops = [r["traced"]["ops"] for r in ranks]
    info.update(
        latency_samples=int(wall_lat.size),
        floor_memcpy_us=floor_us,
        traced_op_mean_us=traced_mean_us,
        # acceptance: the spans account for the traced op within 2 %
        self_sum_frac=self_sum_us / traced_mean_us,
        stray_calls=stray,
        layer_table=spans.layer_table(per_rank, rank_ops),
    )
    with open(os.path.join(OUT, f"{wl.name}.trace.json"), "w") as f:
        json.dump(spans.chrome_trace(per_rank), f)
    return metrics, info, tops, oracle_failures(wl, seed, ranks) + len(stray)


def measure(wl: wk.Workload, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One pass of one workload: the driver's result plus an ``info`` dict."""
    os.makedirs(TMP, exist_ok=True)
    scale = QUICK_SCALE if quick else 1.0
    try:
        if trace:
            metrics, info, attempted, failed = traced_pass(wl, seed, scale)
        else:
            metrics, info, attempted, failed = untraced_pass(
                wl, seed, QUICK_SECONDS if quick else seconds, scale
            )
    except Exception:  # noqa: BLE001 - a fatal error fails every remaining op
        traceback.print_exc()
        metrics, info, attempted, failed = {}, {"fatal": True}, 1, 1
    finally:
        spans.uninstall()
    leaks = leaked_resources()
    info["leaks"] = leaks
    failed += len(leaks)
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(min(failed, attempted)),
        "metrics": metrics,
        "info": info,
    }


def pin_for(wl: wk.Workload) -> "list[int]":
    """Thread-backend ranks serialise on the GIL; unpinned, cross-core
    wake-ups made the same stream 2.5x slower with +-25 % spread."""
    if wl.backend == "thread":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return sorted(os.sched_getaffinity(0))


def run_one(args) -> int:
    contract = load_contract()
    wl = wk.BY_NAME[args.workload]
    os.environ["TMPDIR"] = TMP
    affinity = pin_for(wl)
    load1 = os.getloadavg()[0]
    res = measure(wl, args.seed, args.seconds, bool(args.trace), args.quick)
    declared = contract["per_layer" if args.trace else "end_to_end"]
    if res["metrics"] and set(res["metrics"]) != {m["name"] for m in declared}:
        sys.exit("emitted metrics differ from the ones BENCHMARK.json declares")
    info = res.pop("info")
    info.update(affinity=affinity, loadavg_1m=load1)
    if "layer_table" in info:
        print(info["layer_table"])
    for key in ("fatal", "leaks", "stray_calls"):
        if info.get(key):
            print(f"{wl.name}  {key}: {info[key]}")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in res["metrics"].items():
        print(f"{wl.name}  {name} = {value:.6g} {units[name]}")
    print(f"{wl.name}  latency samples = {info.get('latency_samples', 0)}")
    if "wall_ops_per_s" in info:
        print(
            f"{wl.name}  wall clock: ops_per_s = {info['wall_ops_per_s']:.6g}, op_p50_us = "
            f"{info['wall_op_p50_us']:.6g}, host speed factor = {info['host_speed_factor']:.4f}"
        )
    if "self_sum_frac" in info:
        print(
            f"{wl.name}  span self times sum to {info['self_sum_frac']:.4f} of the "
            f"traced op mean ({info['traced_op_mean_us']:.6g} us)"
        )
    if args.detail:
        with open(args.detail, "w") as f:
            json.dump(info, f)
    res["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in res["metrics"].items()
    }
    _stop_resource_tracker()
    print(json.dumps(res))
    return 0 if res["correct"] else 1


def _stop_resource_tracker() -> None:
    """Reap multiprocessing's tracker, the one helper process spmd leaves
    to interpreter exit, so every process this run started has ended."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ---------------------------------------------------------------------------
# every workload, each pass in a fresh interpreter
# ---------------------------------------------------------------------------


def host_metadata() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        git = ["git", "-C", ROOT]
        commit = subprocess.run(
            git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        if subprocess.run(git + ["status", "--porcelain"], capture_output=True).stdout:
            commit += "+dirty"
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "git_commit": commit,
    }


def _child(wl_name: str, seed: int, seconds: float, trace: int, quick: bool):
    """One measured run in a fresh interpreter (a second job in the same
    process ran 40 % slower than the first)."""
    detail = os.path.join(OUT, f"{wl_name}.detail.json")
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", wl_name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--detail", detail,
    ] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    res = json.loads(lines[-1])
    with open(detail) as f:
        res["info"] = json.load(f)
    return res


def spread(values: "list[float]") -> "float | None":
    """Interquartile distance as a share of the median (None below 4 runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def run_all(args) -> int:
    contract = load_contract()
    os.makedirs(OUT, exist_ok=True)
    names = [args.workload] if args.workload else [w.name for w in wk.WORKLOADS]
    result = {
        "host": host_metadata(), "seed": args.seed, "repeat": args.repeat,
        "seconds": QUICK_SECONDS if args.quick else args.seconds,
        "op_count_scale": QUICK_SCALE if args.quick else 1.0,
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = [
            _child(name, args.seed + k, args.seconds, 0, args.quick)
            for k in range(args.repeat)
        ]
        traced = _child(name, args.seed, args.seconds, 1, args.quick)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        ok = ok and all(r["correct"] for r in runs + [traced])
        e2e = {}
        for m in contract["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if r["metrics"]]
            if values:
                e2e[m["name"]] = {
                    "median": statistics.median(values), "spread": spread(values),
                    "values": values, "unit": m["unit"],
                }
        e2e["failed_frac"] = {"median": failed / attempted, "unit": "1"}
        tinfo = traced["info"]
        timed = [r["info"] for r in runs if "wall_ops_per_s" in r["info"]]
        result["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": attempted, "failed": failed,
            "affinity": tinfo.get("affinity"),
            # one reading is a 200-copy median at one instant: pool all runs
            "floor_memcpy_us": statistics.median(
                r["info"]["floor_memcpy_us"] for r in runs + [traced]
                if "floor_memcpy_us" in r["info"]
            ),
            "self_sum_frac": tinfo.get("self_sum_frac"),
            "schedule_digest": tinfo.get("schedule_digest"),
            "latency_samples": [r["info"].get("latency_samples") for r in runs],
            # what the calibration did: the same runs in plain wall time
            "wall_clock": {
                key: statistics.median(info[key] for info in timed)
                for key in ("wall_ops_per_s", "wall_op_p50_us", "host_speed_factor")
                if timed
            },
        }
        print(f"{name}  failed_frac = {failed / attempted:.6g}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str, out: "str | None" = None) -> int:
    """One row per workload x end-to-end metric; non-zero exit on a regression.

    ``out`` also gets the rows as JSON (how ``BENCH_e2e.json`` is written).
    """
    contract = load_contract()
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows, notes = [], []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        fa_us, fb_us = wa["floor_memcpy_us"], wb["floor_memcpy_us"]
        if abs(fb_us - fa_us) > FLOOR_TOLERANCE * fa_us:
            notes.append(
                f"{name}: floor.memcpy_us moved {fa_us:.3g} -> {fb_us:.3g} us: "
                "the host changed, this comparison is void"
            )
        for m in contract["end_to_end"] + [FAILED_FRAC]:
            ma, mb = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                continue
            va, vb = ma["median"], mb["median"]
            diff = (vb - va) / va if va else float(vb != va)
            if ma.get("spread") is not None and ma["spread"] > m["bound"]:
                verdict = "unresolved"
            elif (diff if m["better"] == "lower" else -diff) > m["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": m["name"], "unit": m["unit"], "bound": m["bound"],
                "A": va, "B": vb, "spread_A": ma.get("spread"), "spread_B": mb.get("spread"),
                "diff": diff, "verdict": verdict,
            })
        if wa.get("schedule_digest") != wb.get("schedule_digest"):
            notes.append(f"{name}: schedule digest differs")
        moved = [
            k for k, v in wa["per_layer"].items()
            if k.endswith(".calls_per_op") and wb["per_layer"].get(k) != v
        ]
        if moved:
            notes.append(f"{name}: calls_per_op differs for {', '.join(moved)}")
    print(f"{'workload':<22}{'metric':<15}{'A':>12}{'B':>12}{'diff':>9}{'bound':>7}  verdict")
    for r in rows:
        print(
            f"{r['workload']:<22}{r['metric']:<15}{r['A']:>12.5g}{r['B']:>12.5g}"
            f"{r['diff']:>+9.1%}{r['bound']:>7.2f}  {r['verdict']}"
        )
    print("\n".join(notes))
    if out:
        with open(out, "w") as f:
            json.dump({"A": a.get("host"), "B": b.get("host"), "rows": rows, "notes": notes}, f, indent=1)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(wk.BY_NAME))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed section of the untraced pass (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="one measured run of --workload: 0 = end-to-end, 1 = per-layer")
    ap.add_argument("--quick", action="store_true", help="a tenth of the work (tests)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="untraced runs per workload, on seeds seed..seed+R-1")
    ap.add_argument("--out", help="write the result file (or the --compare rows) here")
    ap.add_argument("--detail", help="write the run's info (digest, layer table inputs) here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, out=args.out)
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            ap.error("--trace needs --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
