"""Hot-path datapath benchmarks (pack/unpack, strided translation,
conflict check, GMR lookup).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py --benchmark-only -s

The speedup test measures every workload against its retained pre-PR
reference implementation in-process, asserts the acceptance floors
(≥5x on 1024-segment uniform pack/unpack, ≥2x on repeated strided
translation), and rewrites ``benchmarks/BENCH_hotpath.json`` so the perf
trajectory is tracked from this PR on.  The floors, the writer and the
fast regression gate over that file (``python -m repro.bench
--hotpath-smoke``) are the ``hotpath`` entry of
:mod:`repro.bench.registry`.
"""

from __future__ import annotations

import pytest

from repro.bench import hotpath, registry

BENCH = registry.BENCHES["hotpath"]


@pytest.mark.parametrize("name", hotpath.WORKLOADS)
def test_hotpath_optimized(benchmark, name):
    optimized, _baseline = hotpath.WORKLOADS[name]()
    benchmark(optimized)


@pytest.mark.parametrize("name", hotpath.WORKLOADS)
def test_hotpath_reference(benchmark, name):
    _optimized, baseline = hotpath.WORKLOADS[name]()
    benchmark(baseline)


def test_hotpath_speedups_and_write_baseline(regenerate_baseline):
    regenerate_baseline("hotpath")


@pytest.mark.hotpath_smoke
def test_hotpath_smoke():
    """The <60 s regression gate, exposed as a pytest marker too."""
    verdict, report = registry.run_gate(BENCH)
    print(report)
    assert verdict != registry.FAIL, report
