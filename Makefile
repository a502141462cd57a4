# Developer entry points.  Everything here is also runnable directly
# (`python -m repro.lint ...`, `python -m pytest ...`); the Makefile just
# fixes the argument lists CI uses.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-faults test-sanitize test-docs test-e2e lint check

test:
	$(PYTHON) -m pytest -x -q

# Re-run the fault/recovery suite with the ambient injector installed in
# every runtime (the benign plan exercises the whole injection plumbing).
test-faults:
	$(PYTHON) -m pytest -x -q --faults tests/test_faults.py

# Re-run the whole suite with an RmaSanitizer installed in every runtime:
# the "zero false positives over the suite" contract (~45 s; the
# proc-backend tests skip themselves — the sanitizer is thread-only).
test-sanitize:
	$(PYTHON) -m pytest -x -q --sanitize

# Static gate: repro.lint over everything we ship, plus ruff when the
# machine has it (the sandbox image does not bundle ruff; CI does).
lint:
	$(PYTHON) -m repro.lint examples benchmarks src tests
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipped (config in pyproject.toml)"; \
	fi

# Every gate of the bench registry (src/repro/bench/registry.py) is
# `make <name>-smoke`; verdicts are ok / FAIL / skipped(cpu_count=N<M)
# and only FAIL exits non-zero.  (A pattern rule cannot be .PHONY; no
# file is ever named *-smoke, so the recipe always runs.)
#   recover-smoke: every recovery scenario must complete value-correct
#     on the shrunken world and replay bit-identically.
#   mpi3-smoke: deferred issue + per-target flush must beat eager per-op
#     epochs by >= 2x, and coalescing must add >= 1.5x on top.
#   procs-smoke: shared-memory-window throughput must scale >= 2x from 1
#     to 4 ranks (wall-clock floor: skipped on hosts too small to scale),
#     and two ranks accumulating into one slab must keep mean/median op
#     time <= 1.4 (lock waits cost what the holder holds; needs 2 CPUs).
#   proc-recover-smoke: SIGKILL a rank mid-collective; survivors must
#     finish a value-correct checkpoint restore on the shrunken grid and
#     (wall-clock floor) detect the death inside the latency budget.
#   traffic-smoke: every workload's oracle must verify (fault-free and
#     with kills landing mid-traffic), faulted seeds must replay
#     bit-identically, and (wall-clock floor) the proc-backend SIGKILL
#     run must keep goodput >= 0.5x fault-free.
%-smoke:
	$(PYTHON) -m repro.bench --$*-smoke

# Docs-consistency gate: every CLI flag, module path, and relative link
# in README.md, DESIGN.md, and docs/*.md must resolve.
test-docs:
	$(PYTHON) -m pytest -x -q tests/test_docs.py

# Self-tests of the repo's benchmark (benchmarks/e2e, BENCHMARK.json):
# outside tier-1's testpaths, so this is where they are kept green.
test-e2e:
	$(PYTHON) -m pytest benchmarks/e2e -q

check: lint test test-faults test-sanitize test-docs test-e2e lint-smoke sanitize-smoke recover-smoke hotpath-smoke mpi3-smoke procs-smoke proc-recover-smoke traffic-smoke
