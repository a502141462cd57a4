"""CI seed-sweep gate and the failing-seeds regression corpus.

Two guarantees on every tier-1 run:

* a widening sweep of seeded deterministic schedules over the three
  §V-D protocol scenarios (mutex handoff, mutex-based RMW, GMR free
  with NULL slices) stays clean under the RMA sanitizer — set
  ``REPRO_SWEEP_SEEDS`` to widen it in CI;
* every entry of ``tests/corpus/failing_seeds.json`` — historical
  ``(seed, plan)`` fault scenarios — replays *bit-identically* (two
  runs, equal digests) and reproduces its recorded outcome, either a
  clean completion or the named typed exception.

``python -m repro.sanitize --sweep`` is the command-line spelling of
the same gate.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import SCENARIOS
from repro.faults.corpus import DEFAULT_CORPUS, load_corpus, replay_entry
from repro.sanitize import main as sanitize_main
from repro.sanitizer.fuzz import fuzz_schedules

SWEEP_SEEDS = int(os.environ.get("REPRO_SWEEP_SEEDS", "6"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seed_sweep_is_clean(name):
    reports = fuzz_schedules(
        SCENARIOS[name], 3, nschedules=SWEEP_SEEDS, base_seed=0
    )
    bad = [r for r in reports if not r.ok or r.violations]
    assert not bad, [(r.seed, r.error, r.violations) for r in bad]
    # distinct seeds genuinely explore distinct interleavings
    assert len({r.digest for r in reports}) == len(reports)


def test_corpus_exists_and_is_well_formed():
    entries = load_corpus()
    assert DEFAULT_CORPUS.name == "failing_seeds.json"
    assert len(entries) >= 5
    names = [e["name"] for e in entries]
    assert len(set(names)) == len(names), "duplicate corpus entry names"
    # the corpus must cover every scenario and both outcome kinds
    assert {e["scenario"] for e in entries} == set(SCENARIOS)
    assert "ok" in {e["expect"] for e in entries}
    assert any(e["expect"] != "ok" for e in entries)


@pytest.mark.parametrize(
    "entry", load_corpus(), ids=lambda e: e["name"]
)
def test_corpus_entry_replays_bit_identically(entry):
    passed, detail = replay_entry(entry)
    assert passed, f"{entry['name']}: {detail}"


def test_sweep_cli_exits_clean(capsys):
    rc = sanitize_main(["--sweep", "--nproc", "3", "--schedules", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "corpus: replaying" in out
    assert "FAIL" not in out
