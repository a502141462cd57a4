"""Self-tests of the e2e benchmark (not in tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
import workloads as wk
from repro.ga import GlobalArray, SharedCounter
from repro.nwchem import CcsdDriver

CONTRACT = run.load_contract()
E2E = {m["name"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"] for m in CONTRACT["per_layer"]}


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    """One ``--quick`` pass of the documented command over every workload."""
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as f:
        return json.load(f)


def test_contract_names_the_workload_table():
    assert [w["name"] for w in CONTRACT["workloads"]] == [w.name for w in wk.WORKLOADS]
    assert [w["why"] for w in CONTRACT["workloads"]] == [w.why for w in wk.WORKLOADS]


def test_every_declared_metric_is_emitted_and_nothing_else(quick_result):
    assert set(quick_result["workloads"]) == set(wk.BY_NAME)
    for name, res in quick_result["workloads"].items():
        assert set(res["end_to_end"]) == E2E | {"failed_frac"}, name
        assert set(res["per_layer"]) == PER_LAYER, name
        assert res["end_to_end"]["failed_frac"]["median"] == 0, name


def test_self_times_sum_to_the_traced_op(quick_result):
    for name, res in quick_result["workloads"].items():
        assert res["self_sum_frac"] == pytest.approx(1.0, abs=0.02), name


def test_spans_stay_on_their_workloads(quick_result):
    for span, allowed in run.ONLY_ON.items():
        for name, res in quick_result["workloads"].items():
            calls = res["per_layer"][f"{span}.calls_per_op"]
            assert (calls > 0) == (name in allowed), (span, name)


def test_host_metadata(quick_result):
    assert {"nproc", "cpu_model", "python", "numpy", "git_commit"} <= set(quick_result["host"])
    assert quick_result["op_count_scale"] == run.QUICK_SCALE
    assert quick_result["workloads"]["small_thread_mpi2"]["affinity"] is not None
    assert len(quick_result["workloads"]["small_thread_mpi2"]["affinity"]) == 1


def _calls(res: dict) -> dict:
    return {k: v for k, v in res["metrics"].items() if k.endswith(".calls_per_op")}


def test_call_counts_repeat_for_a_seed_and_streams_differ_across_seeds():
    wl = wk.BY_NAME["small_proc_mpi3"]
    first = run.measure(wl, 3, 0.0, True, quick=True)
    again = run.measure(wl, 3, 0.0, True, quick=True)
    other = run.measure(wl, 4, 0.0, True, quick=True)
    assert first["correct"] and again["correct"] and other["correct"]
    assert _calls(first) == _calls(again)
    assert _calls(first) != _calls(other)
    a, b, c = (wk.PatchProgram(wl, seed, 0, 64) for seed in (3, 3, 4))
    assert a.rows == b.rows and a.cols == b.cols
    assert a.rows != c.rows


def test_checked_schedule_digest_repeats_for_a_seed():
    wl = wk.BY_NAME["small_checked_thread"]
    first = run.measure(wl, 3, 0.0, True, quick=True)
    again = run.measure(wl, 3, 0.0, True, quick=True)
    assert first["correct"] and again["correct"]
    assert first["info"]["violations"] == 0
    assert first["info"]["schedule_digest"] == again["info"]["schedule_digest"]


def _nth_call(monkeypatch, cls, attr, n, tamper):
    """Replace ``cls.attr`` so that its ``n``-th call goes through ``tamper``."""
    orig = getattr(cls, attr)
    seen = {"calls": 0}

    def patched(self, *args, **kw):
        seen["calls"] += 1
        if seen["calls"] == n:
            return tamper(orig, self, *args, **kw)
        return orig(self, *args, **kw)

    monkeypatch.setattr(cls, attr, patched)


def test_a_corrupted_put_fails_the_patch_oracle(monkeypatch):
    def corrupt(orig, self, lo, hi, data):
        return orig(self, lo, hi, data + 1.0)

    _nth_call(monkeypatch, GlobalArray, "put", 5, corrupt)
    res = run.measure(wk.BY_NAME["small_thread_mpi2"], 0, 0.2, False, quick=True)
    assert res["failed"] > 0 and not res["correct"]


def test_a_duplicated_ticket_fails_the_counter_oracle(monkeypatch):
    def duplicate(orig, self, *args):
        return orig(self, *args) - 1

    _nth_call(monkeypatch, SharedCounter, "next", 3, duplicate)
    res = run.measure(wk.BY_NAME["nxtval_proc_mpi2"], 0, 0.2, False, quick=True)
    assert res["failed"] > 0 and not res["correct"]


def test_a_perturbed_energy_fails_the_ccsd_oracle(monkeypatch):
    def perturb(orig, self):
        return orig(self) * (1 + 1e-6)

    _nth_call(monkeypatch, CcsdDriver, "iterate", 2, perturb)
    res = run.measure(wk.BY_NAME["ccsd_proxy"], 0, 0.2, False, quick=True)
    assert res["failed"] > 0 and not res["correct"]


def test_a_fatal_error_fails_the_run(monkeypatch):
    def boom(orig, self, *args, **kw):
        raise RuntimeError("injected")

    _nth_call(monkeypatch, GlobalArray, "get", 2, boom)
    res = run.measure(wk.BY_NAME["small_thread_mpi2"], 0, 0.2, False, quick=True)
    assert res["failed"] == res["attempted"] and not res["correct"]


def test_leftovers_are_counted_as_leaks():
    os.makedirs(run.TMP, exist_ok=True)
    segment = f"/dev/shm/repro-{os.getpid()}x999-leak-test"
    lockfile = os.path.join(run.TMP, "leak-test.lock")
    for path in (segment, lockfile):
        with open(path, "w"):
            pass
    try:
        assert set(run.leaked_resources()) == {segment, lockfile}
    finally:
        os.unlink(segment)
        os.unlink(lockfile)
    assert run.leaked_resources() == []


def _result_file(path, ops_per_s, spread=0.01, failed_frac=0.0):
    e2e = {
        m["name"]: {"median": 100.0, "spread": 0.01, "unit": m["unit"]}
        for m in CONTRACT["end_to_end"]
    }
    e2e["ops_per_s"] = {"median": ops_per_s, "spread": spread, "unit": "1/s"}
    e2e["failed_frac"] = {"median": failed_frac, "unit": "1"}
    doc = {"workloads": {"w": {
        "end_to_end": e2e, "per_layer": {}, "floor_memcpy_us": 1.0, "schedule_digest": None,
    }}}
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "ops_per_s")
    within, beyond = 1000.0 * (1 - bound / 2), 1000.0 * (1 - bound - 0.05)
    base = _result_file(tmp_path / "a.json", 1000.0)
    assert run.compare(base, _result_file(tmp_path / "same.json", within)) == 0
    assert "regressed" not in capsys.readouterr().out
    assert run.compare(base, _result_file(tmp_path / "slow.json", beyond)) == 1
    assert "regressed" in capsys.readouterr().out
    noisy = _result_file(tmp_path / "noisy.json", 1000.0, spread=bound + 0.05)
    assert run.compare(noisy, _result_file(tmp_path / "slow2.json", beyond)) == 0
    assert "unresolved" in capsys.readouterr().out
    assert run.compare(base, _result_file(tmp_path / "bad.json", 1000.0, failed_frac=0.1)) == 1
