"""Shared benchmark fixtures: result printing and persistence.

Every bench regenerates one table or figure of the paper and prints the
series (run with ``pytest benchmarks/ --benchmark-only -s`` to see them
inline); the text is also written to ``benchmarks/output/`` so results
survive the run.
"""

from __future__ import annotations

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def emit():
    """Print a result block and persist it to benchmarks/output/<name>.txt."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture
def regenerate_baseline(emit):
    """Full measurement of one registry bench: print it, rewrite its
    committed ``BENCH_*.json``, and assert the bench's own gate checks
    (its floors, where this host can enforce them) on the fresh numbers."""

    from repro.bench import registry

    def _regenerate(bench_name: str) -> None:
        bench = registry.BENCHES[bench_name]
        results = bench.measure(False)
        # output/<x>.txt sits beside BENCH_<x>.json
        emit(pathlib.Path(bench.baseline).stem.removeprefix("BENCH_"),
             bench.format(results))
        assert registry.write_baseline(bench, results).exists()
        outcomes = registry.run_checks(bench, results, results)
        failures = [f for _check, _verdict, found in outcomes for f in found]
        assert not failures, failures

    return _regenerate
