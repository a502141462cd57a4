"""Tests for the bench harness utilities and the CLI."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.bench import (
    Series,
    format_series_table,
    format_table,
    gbps,
    pow2_sizes,
    registry,
)
from repro.bench.cli import build_parser, main


def test_pow2_sizes():
    assert pow2_sizes(0, 4) == [1, 2, 4, 8, 16]
    assert pow2_sizes(2, 8, step=3) == [4, 32, 256]


def test_gbps():
    assert gbps(1e9, 1.0) == 1.0
    assert gbps(100, 0.0) == 0.0


def test_series_and_table_formatting():
    s1 = Series(label="a")
    s2 = Series(label="b")
    for x in (1, 2):
        s1.add(x, x * 1.0)
        s2.add(x, x * 2.0)
    text = format_series_table("T", "x", [s1, s2])
    assert "T" in text and "a" in text and "b" in text
    lines = text.splitlines()
    assert len(lines) == 5  # title, rule, header, two rows


def test_series_mismatched_axes_raise():
    s1 = Series(label="a", x=[1], y=[1.0])
    s2 = Series(label="b", x=[2], y=[1.0])
    with pytest.raises(ValueError):
        format_series_table("T", "x", [s1, s2])


def test_format_table_alignment():
    out = format_table("T", ["col", "value"], [["x", 1.23456], ["yy", 2.0]])
    lines = out.splitlines()
    assert all(len(l) == len(lines[2]) for l in lines[2:])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["fig4", "--platform", "ib", "--kind", "get"])
    assert args.command == "fig4" and args.platform == "ib"
    with pytest.raises(SystemExit):
        parser.parse_args(["fig3", "--platform", "summit"])


def test_cli_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Cray XE6 (Hopper II)" in out
    assert "MVAPICH2 1.6" in out


def test_cli_fig5(capsys):
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "ARMCI-IB, ARMCI Alloc" in out
    assert "MPI, ARMCI Alloc" in out


def test_cli_fig6(capsys):
    assert main(["fig6", "--platform", "ib", "--kind", "ccsd"]) == 0
    out = capsys.readouterr().out
    assert "CCSD time (min)" in out
    assert "192" in out


def test_cli_fig3_sparse(capsys):
    assert main(["fig3", "--platform", "xe6", "--step", "12"]) == 0
    out = capsys.readouterr().out
    assert "Get (MPI)" in out


def test_cli_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "table2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "Blue Gene/P" in proc.stdout


# ---------------------------------------------------------------------------
# the bench registry: one table-driven suite over every entry
# ---------------------------------------------------------------------------

ALL = sorted(registry.BENCHES.values(), key=lambda b: b.name)
GATES = [b for b in ALL if b.checks]
WITH_BASELINE = [b for b in ALL if b.baseline]


def _id(bench):
    return bench.name


@pytest.fixture
def stubbed(monkeypatch):
    """Replace one registry entry's measure/format/checks for the test."""

    def _stubbed(bench, **changes):
        changes.setdefault("measure", lambda fast: {"fast": fast})
        changes.setdefault("format", lambda results: f"RESULTS {results}")
        changes.setdefault("spawns", False)
        stub = dataclasses.replace(bench, **changes)
        monkeypatch.setitem(registry.BENCHES, bench.name, stub)
        return stub

    return _stubbed


@pytest.mark.parametrize("bench", ALL, ids=_id)
def test_subcommand_parses_the_common_flags(bench):
    p = build_parser()
    args = p.parse_args([bench.name, "--smoke"])
    assert args.command == bench.name and args.smoke
    args = p.parse_args([bench.name, "--fast", "--write", "--baseline", "x.json"])
    assert args.fast and args.write and args.baseline == "x.json"
    assert not args.smoke


@pytest.mark.parametrize("bench", ALL, ids=_id)
def test_alias_maps_to_the_subcommand(bench, stubbed, capsys, tmp_path):
    stub = stubbed(bench, checks=tuple(
        dataclasses.replace(check, fn=lambda m, c: [], min_cpus=1)
        for check in bench.checks
    ))
    baseline = tmp_path / "b.json"
    if bench.baseline:
        registry.write_baseline(stub, {}, baseline)
    assert main([bench.alias, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    # a gate alias runs the gate (fast measurement); a report alias measures
    if bench.checks:
        assert f"{bench.name.upper()} SMOKE: ok" in out
        assert "RESULTS {'fast': True}" in out
    else:
        assert "RESULTS {'fast': False}" in out


def test_the_parent_commits_alias_spellings_all_resolve():
    assert {b.alias for b in ALL} == {
        "--hotpath-smoke", "--mpi3-smoke", "--procs-smoke",
        "--proc-recover-smoke", "--traffic-smoke", "--sanitize-smoke",
        "--recover-smoke", "--lint-smoke", "--sanitize-ablation",
    }


@pytest.mark.parametrize("bench", GATES, ids=_id)
def test_failing_check_exits_one(bench, stubbed, capsys, tmp_path):
    failing = registry.Check("stub", lambda measured, committed: ["REGRESSED"])
    stub = stubbed(bench, checks=(failing,))
    baseline = tmp_path / "b.json"
    if bench.baseline:
        registry.write_baseline(stub, {}, baseline)
    assert main([bench.name, "--smoke", "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert f"{bench.name.upper()} SMOKE: FAIL" in out and "REGRESSED" in out
    # gate-only benches (no baseline file) gate without --smoke too
    assert main([bench.name, "--baseline", str(baseline)]) == (
        0 if bench.baseline else 1
    )


@pytest.mark.parametrize("bench", WITH_BASELINE, ids=_id)
def test_write_round_trips_through_the_loader(bench, stubbed, capsys, tmp_path):
    fake = {"workload": {"metric": 1.5}}
    stub = stubbed(
        bench,
        measure=lambda fast: fake,
        checks=(
            registry.Check("cheap", lambda m, c: []),
            registry.Check("wide", lambda m, c: [], min_cpus=10**6),
        ),
    )
    out_file = tmp_path / "nested" / "BENCH.json"
    assert main([bench.name, "--write", "--baseline", str(out_file)]) == 0
    assert str(out_file) in capsys.readouterr().out
    payload = registry.load_baseline(stub, out_file)
    assert payload["results"] == fake
    assert payload["bench"] == bench.name and payload["units"] == bench.units
    assert payload["environment"] == registry.environment()
    assert set(payload["environment"]) == {
        "python", "numpy", "machine", "usable_cpus"
    }
    for key, value in bench.header.items():
        assert payload[key] == json.loads(json.dumps(value))
    # the skipped verdict is recorded per check, distinct from ok
    cpus = registry.usable_cpus()
    assert payload["checks"] == {
        "cheap": {"min_cpus": 1, "verdict": "ok"},
        "wide": {"min_cpus": 10**6,
                 "verdict": f"skipped(cpu_count={cpus}<{10**6})"},
    }


@pytest.mark.parametrize("bench", WITH_BASELINE, ids=_id)
def test_committed_baseline_is_the_single_writers_schema(bench):
    payload = registry.load_baseline(bench)
    assert payload["bench"] == bench.name
    assert set(payload["checks"]) == {c.name for c in bench.checks}
    assert set(bench.header) <= set(payload)


# ---------------------------------------------------------------------------
# the gate runner
# ---------------------------------------------------------------------------


def _gate_bench(tmp_path, **changes):
    fields = dict(
        name="toy", help="", measure=lambda fast: {"x": 1},
        format=lambda results: "TOY TABLE", baseline="BENCH_toy.json",
    )
    bench = registry.Bench(**{**fields, **changes})
    path = tmp_path / "BENCH_toy.json"
    registry.write_baseline(bench, {"x": 0}, path)
    return bench, path


def test_gate_unreadable_baseline_fails_before_measuring(tmp_path):
    def boom(fast):
        raise AssertionError("must not measure")

    bench, path = _gate_bench(tmp_path, measure=boom)
    for bad in ("{not json", json.dumps({"schema": 1, "results": {}}), None):
        if bad is None:
            path.unlink()
        else:
            path.write_text(bad)
        verdict, report = registry.run_gate(bench, path)
        assert verdict == registry.FAIL
        assert "TOY SMOKE: FAIL" in report and "unreadable baseline" in report


def test_gate_measure_exception_is_a_fail_not_a_crash(tmp_path):
    def boom(fast):
        raise RuntimeError("restored GA diverged")

    bench, path = _gate_bench(tmp_path)
    verdict, report = registry.run_gate(dataclasses.replace(bench, measure=boom), path)
    assert verdict == registry.FAIL
    assert "restored GA diverged" in report and "TOY SMOKE: FAIL" in report


def test_gate_verdicts_ok_skipped_fail(tmp_path, monkeypatch):
    seen = []

    def passing(measured, committed):
        seen.append((measured, committed))
        return []

    wide = registry.Check("wall-clock floor", lambda m, c: ["too slow"], min_cpus=4)
    bench, path = _gate_bench(
        tmp_path, checks=(registry.Check("correct", passing), wide)
    )
    monkeypatch.setattr(registry, "usable_cpus", lambda: 1)
    verdict, report = registry.run_gate(bench, path)
    assert verdict == "skipped(cpu_count=1<4)"
    assert report.splitlines()[-1] == "TOY SMOKE: skipped(cpu_count=1<4)"
    assert "[ok] correct" in report and "TOY TABLE" in report
    # checks get fast-measured results and the committed file's results
    assert seen[-1] == ({"x": 1}, {"x": 0})

    monkeypatch.setattr(registry, "usable_cpus", lambda: 64)
    verdict, report = registry.run_gate(bench, path)
    assert verdict == registry.FAIL and "  - too slow" in report

    bench = dataclasses.replace(bench, checks=bench.checks[:1])
    assert registry.run_gate(bench, path)[0] == registry.OK


def test_usable_cpus_respects_affinity_not_just_cpu_count(monkeypatch):
    monkeypatch.setattr(registry.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        registry.os, "sched_getaffinity", lambda pid: {3}, raising=False
    )
    assert registry.usable_cpus() == 1
    monkeypatch.delattr(registry.os, "sched_getaffinity")
    assert registry.usable_cpus() == 64
    monkeypatch.setattr(registry.os, "cpu_count", lambda: None)
    assert registry.usable_cpus() == 1


def test_gate_fails_on_leftovers_of_a_spawning_bench(tmp_path, monkeypatch):
    import os

    monkeypatch.setattr(registry.tempfile, "gettempdir", lambda: str(tmp_path))
    leaked = tmp_path / f"repro-proc-{os.getpid()}x7-leaked"

    def leaky(fast):
        leaked.mkdir()
        return {"x": 1}

    bench, path = _gate_bench(tmp_path, measure=leaky, spawns=True)
    (tmp_path / f"repro-proc-{os.getpid()}x6-already-there").mkdir()
    verdict, report = registry.run_gate(bench, path)
    assert verdict == registry.FAIL
    assert "left behind" in report and leaked.name in report
    assert "already-there" not in report
    # only entries that declare they spawn processes pay for the snapshot
    leaked.rmdir()
    assert registry.run_gate(dataclasses.replace(bench, spawns=False), path)[0] == "ok"


def test_leftovers_sees_shm_segments_and_children():
    import multiprocessing
    import os
    import time

    before = registry._leftovers()
    seg = f"/dev/shm/repro-{os.getpid()}x0-test"
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(30,))
    child.start()
    try:
        with open(seg, "w"):
            pass
        assert registry._leftovers() - before == {seg, f"child process {child.pid}"}
    finally:
        child.kill()
        child.join(10)
        os.unlink(seg)
    assert not child.is_alive()
    assert registry._leftovers() == before


def test_leftovers_blame_only_this_process(tmp_path, monkeypatch):
    """Another process's segments and lock directories (a run beside this
    one) are not this process's leftovers."""
    import os

    monkeypatch.setattr(registry.tempfile, "gettempdir", lambda: str(tmp_path))
    before = registry._leftovers()
    other = f"{os.getpid() + 1}x0"
    seg = f"/dev/shm/repro-{other}-test"
    (tmp_path / f"repro-proc-{other}-lock").mkdir()
    try:
        with open(seg, "w"):
            pass
        assert registry._leftovers() == before
    finally:
        os.unlink(seg)


# ---------------------------------------------------------------------------
# the real checks, fed fabricated measured/committed dicts (no processes)
# ---------------------------------------------------------------------------


def _verdicts(bench_name, measured, committed=None, cpus=64):
    """{check name: (verdict, failures)} of one real registry entry."""
    bench = registry.BENCHES[bench_name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(registry, "usable_cpus", lambda: cpus)
        outcomes = registry.run_checks(bench, measured, committed or {})
    return [(verdict, failures) for _check, verdict, failures in outcomes]


def test_hotpath_check_floor_regression_and_missing_key():
    good = {"pack_uniform_1024": {"speedup": 30.0}, "gmr_lookup_hot": {"speedup": 3.0}}
    assert _verdicts("hotpath", good, good) == [("ok", [])]
    # below the absolute floor (5x for pack) even though committed is low
    (verdict, failures), = _verdicts(
        "hotpath", {"pack_uniform_1024": {"speedup": 4.0}},
        {"pack_uniform_1024": {"speedup": 4.0}},
    )
    assert verdict == "FAIL" and "absolute floor 5.0x" in failures[0]
    # above the floor but > 2x below the committed speedup
    (verdict, failures), = _verdicts(
        "hotpath", {"pack_uniform_1024": {"speedup": 14.0}}, good
    )
    assert verdict == "FAIL" and "fell below 15.00x" in failures[0]
    # exactly committed / 2 still passes
    assert _verdicts("hotpath", {"pack_uniform_1024": {"speedup": 15.0}}, good) == [
        ("ok", [])
    ]
    # workload or metric missing from the committed file
    for committed in ({}, {"pack_uniform_1024": {}}):
        (verdict, failures), = _verdicts(
            "hotpath", {"pack_uniform_1024": {"speedup": 30.0}}, committed
        )
        assert verdict == "FAIL" and "missing from committed baseline" in failures[0]


def test_mpi3_check_both_floors_and_regression():
    good = {"small_put": {"mpi3_speedup": 9.6, "coalesce_speedup": 16.7}}
    assert _verdicts("mpi3", good, good) == [("ok", [])]
    low = {"small_put": {"mpi3_speedup": 1.9, "coalesce_speedup": 1.4}}
    (verdict, failures), = _verdicts("mpi3", low, low)
    assert verdict == "FAIL" and len(failures) == 2
    assert "absolute floor 2.0x" in failures[0]
    assert "absolute floor 1.5x" in failures[1]
    halved = {"small_put": {"mpi3_speedup": 4.7, "coalesce_speedup": 16.7}}
    (verdict, failures), = _verdicts("mpi3", halved, good)
    assert verdict == "FAIL" and "mpi3_speedup 4.70x fell below 4.80x" in failures[0]
    (verdict, failures), = _verdicts("mpi3", good, {"small_acc": good["small_put"]})
    assert verdict == "FAIL" and len(failures) == 2


def _procs_results(scaling, acc_ratio=1.1, disjoint_ratio=1.2):
    return {
        "scaling_1_to_4": scaling,
        "contended_acc_np2": {"mean_over_median": acc_ratio},
        "disjoint_acc_np2": {"together_over_alone": disjoint_ratio},
    }


def test_procs_check_scaling_floor_and_skip():
    assert _verdicts("procs", _procs_results(2.0)) == [("ok", [])] * 3
    (verdict, failures), _acc, _disjoint = _verdicts("procs", _procs_results(1.99))
    assert verdict == "FAIL" and "floor 2.0x" in failures[0]
    # the same bad ratio on a host that cannot scale is skipped, not ok
    assert _verdicts("procs", _procs_results(0.93), cpus=1) == [
        ("skipped(cpu_count=1<4)", []), ("skipped(cpu_count=1<2)", []),
        ("skipped(cpu_count=1<2)", []),
    ]
    assert _verdicts("procs", _procs_results(0.93), cpus=4)[0][0] == "FAIL"


def test_procs_contended_accumulate_check_fires_on_two_cpus():
    """The wall-clock check a 2-CPU host can enforce: ok or FAIL there,
    while the 1->4 scaling floor beside it stays skipped."""
    assert _verdicts("procs", _procs_results(1.8, 1.4), cpus=2) == [
        ("skipped(cpu_count=2<4)", []), ("ok", []), ("ok", []),
    ]
    _scaling, (verdict, failures), _disjoint = _verdicts(
        "procs", _procs_results(1.8, 1.84), cpus=2
    )
    assert verdict == "FAIL" and "1.84 (ceiling 1.4)" in failures[0]


def test_procs_disjoint_accumulate_check_fires_on_two_cpus():
    """Disjoint footprints that took turns (about 2x the uncontended op)
    fail on a 2-CPU host; ones that overlap pass."""
    assert _verdicts("procs", _procs_results(1.8, disjoint_ratio=1.5), cpus=2)[2] == ("ok", [])
    *_, (verdict, failures) = _verdicts(
        "procs", _procs_results(1.8, disjoint_ratio=1.97), cpus=2
    )
    assert verdict == "FAIL" and "1.97x the uncontended op's (ceiling 1.5x)" in failures[0]


def _proc_recover_results(value_correct=True, worst=0.2):
    return {
        "runs": {"hb0.05": {"value_correct": value_correct}},
        "worst_detect_latency_s": worst,
    }


def test_proc_recover_checks_correctness_everywhere_budget_on_wide_hosts():
    assert _verdicts("proc-recover", _proc_recover_results()) == [
        ("ok", []), ("ok", [])
    ]
    (_, _), (verdict, failures) = _verdicts(
        "proc-recover", _proc_recover_results(worst=6.01)
    )
    assert verdict == "FAIL" and "budget 6s" in failures[0]
    assert _verdicts("proc-recover", _proc_recover_results(worst=6.0))[1][0] == "ok"
    # 1-CPU host: the latency budget is skipped, a wrong restore still fails
    (verdict, failures), skipped = _verdicts(
        "proc-recover", _proc_recover_results(value_correct=False, worst=99.0),
        cpus=1,
    )
    assert verdict == "FAIL" and "hb0.05" in failures[0]
    assert skipped == ("skipped(cpu_count=1<4)", [])


def _traffic_results(**faulted):
    point = {"ok": True, "verified": True}
    proc = {**point, "recoveries": 1}
    return {
        "thread": {
            "stencil": {
                "sweep": {"offered3": dict(point)},
                "faulted": {**point, "recoveries": 1,
                            "replay_identical": True, **faulted},
            }
        },
        "proc": {"clean": dict(proc), "killed": dict(proc), "goodput_ratio": 0.6},
    }


def test_traffic_checks_split_host_independent_from_wall_clock():
    assert _verdicts("traffic", _traffic_results()) == [("ok", []), ("ok", [])]
    for broken, needle in (
        ({"verified": False}, "verified=False"),
        ({"recoveries": 0}, "no recovery observed"),
        ({"replay_identical": False}, "replay DIVERGED"),
    ):
        # gated everywhere, including hosts that skip the wall-clock floor
        (verdict, failures), skipped = _verdicts(
            "traffic", _traffic_results(**broken), cpus=1
        )
        assert verdict == "FAIL" and needle in failures[0]
        assert skipped == ("skipped(cpu_count=1<4)", [])
    results = _traffic_results()
    results["thread"]["stencil"]["sweep"]["offered3"]["ok"] = False
    results["proc"]["clean"]["verified"] = False
    assert len(_verdicts("traffic", results)[0][1]) == 2

    results = _traffic_results()
    results["proc"]["goodput_ratio"] = 0.49
    results["proc"]["killed"]["recoveries"] = 0
    ok, (verdict, failures) = _verdicts("traffic", results)
    assert ok == ("ok", []) and verdict == "FAIL"
    assert "no recovery observed" in failures[0] and "0.5 floor" in failures[1]
    results["proc"]["goodput_ratio"] = 0.5
    results["proc"]["killed"]["recoveries"] = 1
    assert _verdicts("traffic", results)[1] == ("ok", [])


@pytest.mark.parametrize("name", ["sanitize", "recover", "lint"])
def test_row_gates_fail_on_any_row_not_ok(name):
    rows = {
        "a": {"ok": True, "detail": "fine", "extra": []},
        "b": {"ok": False, "detail": "replay DIVERGED", "extra": ["more"]},
    }
    (verdict, failures), = _verdicts(name, rows)
    assert verdict == "FAIL" and failures == ["b: replay DIVERGED"]
    text = registry.BENCHES[name].format(rows)
    assert "[ok]" in text and "replay DIVERGED  [FAIL]" in text and "  more" in text
    rows["b"]["ok"] = True
    assert _verdicts(name, rows) == [("ok", [])]


def test_wall_clock_cpu_requirement_is_stated_once():
    wide = {c.min_cpus for b in ALL for c in b.checks if c.min_cpus > 1}
    assert wide == {registry.WALLCLOCK_MIN_CPUS, registry.CONTENTION_MIN_CPUS}
    gated = {b.name for b in ALL for c in b.checks if c.min_cpus > 1}
    assert gated == {"procs", "proc-recover", "traffic"}
    assert {b.name for b in ALL if b.spawns} == gated


# ---------------------------------------------------------------------------
# real (cheap, in-process) gates end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["mpi3", "sanitize"])
def test_real_gate_passes(name):
    verdict, report = registry.run_gate(registry.BENCHES[name])
    assert verdict == registry.OK, report
    assert report.splitlines()[-1] == f"{name.upper()} SMOKE: ok"


# ---------------------------------------------------------------------------
# the Makefile runs every gate
# ---------------------------------------------------------------------------


def test_every_gate_is_a_prerequisite_of_make_check():
    makefile = (pathlib.Path(__file__).resolve().parents[1] / "Makefile").read_text()
    (prereqs,) = re.findall(r"^check:(.*)$", makefile, flags=re.M)
    missing = [f"{b.name}-smoke" for b in GATES if f"{b.name}-smoke" not in prereqs.split()]
    assert not missing, f"gates left out of `make check`: {missing}"
    # one pattern rule serves them all, spelled like the CLI alias
    assert "%-smoke:\n\t$(PYTHON) -m repro.bench --$*-smoke" in makefile
