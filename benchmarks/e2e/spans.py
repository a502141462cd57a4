"""Outside-in span tracer for the e2e benchmark's traced pass.

The program under test has no span API yet (ROADMAP ``repro.obs``), so
the benchmark records spans from its own side of the fence: the *public*
callables of every layer in :data:`SPANS` are replaced by timing
wrappers.  Work done in private helpers (the backend's lock + copy
inside ``Win.put``) is therefore attributed to the enclosing public
span.  A span's *self* time is its duration minus the time its child
spans cover, so the self times of all spans under one operation sum to
that operation.

State is per thread: a rank thread (thread backend) or the main thread
of a rank process (proc backend) owns one :class:`_RankState`, created
by :func:`start`; helper threads such as the proc backend's pump have
none and fall straight through the wrappers.
"""

from __future__ import annotations

import importlib
import threading
import time

#: span name -> the public callables it covers, as (module, "Class.attr"
#: | "function").  Layers are named after the modules; several callables
#: under one name pool into one span (``ga.access`` = access + release).
SPANS: "dict[str, list[tuple[str, str]]]" = {
    "ga.put": [("repro.ga.array", "GlobalArray.put")],
    "ga.get": [("repro.ga.array", "GlobalArray.get")],
    "ga.acc": [("repro.ga.array", "GlobalArray.acc")],
    "ga.locate": [("repro.ga.distribution", "BlockDistribution.locate")],
    "ga.counter_next": [("repro.ga.counters", "SharedCounter.next")],
    "ga.access": [
        ("repro.ga.array", "GlobalArray.access"),
        ("repro.ga.array", "GlobalArray.release"),
    ],
    "ga.sync": [("repro.ga.array", "GlobalArray.sync")],
    "armci.put_s": [("repro.armci.api", "Armci.put_s")],
    "armci.get_s": [("repro.armci.api", "Armci.get_s")],
    "armci.acc_s": [("repro.armci.api", "Armci.acc_s")],
    "armci.rmw": [("repro.armci.api", "Armci.rmw")],
    "armci.strided_datatype": [("repro.armci.strided", "strided_datatype")],
    "armci.gmr_require": [("repro.armci.gmr", "GmrTable.require")],
    "armci.mutex_lock": [("repro.armci.mutexes", "MutexSet.lock")],
    "armci.mutex_unlock": [("repro.armci.mutexes", "MutexSet.unlock")],
    "armci.barrier": [("repro.armci.api", "Armci.barrier")],
    "armci.dla": [
        ("repro.armci.api", "Armci.access_begin"),
        ("repro.armci.api", "Armci.access_end"),
    ],
    "window.lock": [
        ("repro.mpi.window", "Win.lock"),
        ("repro.mpi.backend_proc", "ProcWin.lock"),
    ],
    "window.unlock": [
        ("repro.mpi.window", "Win.unlock"),
        ("repro.mpi.backend_proc", "ProcWin.unlock"),
    ],
    "window.flush": [("repro.mpi.window", "Win.flush")],
    "window.put": [("repro.mpi.window", "Win.put")],
    "window.get": [("repro.mpi.window", "Win.get")],
    "window.accumulate": [
        ("repro.mpi.window", "Win.accumulate"),
        ("repro.mpi.backend_proc", "ProcWin.accumulate"),
    ],
    "window.fetch_and_op": [
        ("repro.mpi.window", "Win.fetch_and_op"),
        ("repro.mpi.backend_proc", "ProcWin.fetch_and_op"),
    ],
    "datatypes.segment_map": [("repro.mpi.datatypes", "Datatype.segment_map")],
    "datatypes.pack": [("repro.mpi.datatypes", "Datatype.pack")],
    "datatypes.gather": [("repro.mpi.datatypes", "SegmentMap.gather")],
    "datatypes.scatter": [("repro.mpi.datatypes", "SegmentMap.scatter")],
    "comm.barrier": [("repro.mpi.comm", "Comm.barrier")],
    "comm.allreduce": [("repro.mpi.comm", "Comm.allreduce")],
    "comm.send": [
        ("repro.mpi.comm", "Comm.send"),
        ("repro.mpi.backend_proc", "ProcComm.send"),
    ],
    "comm.recv": [("repro.mpi.comm", "Comm.recv")],
    "nwchem.iterate": [("repro.nwchem.ccsd", "CcsdDriver.iterate")],
    "nwchem.tiled_matmul": [("repro.nwchem.ccsd", "tiled_matmul")],
    "sanitizer.hooks": [],  # every RmaSanitizer.on_* — filled in by install()
    "scheduler.fuzz_point": [("repro.mpi.runtime", "Runtime.fuzz_point")],
}

#: callables that are generator functions: the wrapper runs them to
#: exhaustion inside the span (the callers here always iterate fully)
_GENERATORS = {("repro.ga.distribution", "BlockDistribution.locate")}

#: full spans are kept for this many leading operations of each rank ...
SAMPLE_OPS = 200
#: ... up to this many spans (one ccsd_proxy op is ~50 000 of them)
SAMPLE_SPANS = 20_000

_tls = threading.local()
_installed: "list[tuple[object, str, object]]" = []


class _RankState:
    """Aggregates and sampled spans of one rank."""

    __slots__ = ("agg", "stack", "samples", "op_id", "sampling")

    def __init__(self) -> None:
        #: span name -> [calls, total_ns, self_ns]
        self.agg: "dict[str, list[int]]" = {name: [0, 0, 0] for name in SPANS}
        #: open spans, innermost last: [name, child_ns, sample index]
        self.stack: "list[list]" = []
        #: (name, start_ns, end_ns, parent sample index, op id)
        self.samples: "list[tuple | None]" = []
        self.op_id = -1
        self.sampling = False


def _wrap(fn, name: str, eager: bool):
    def wrapper(*args, **kw):
        st = getattr(_tls, "state", None)
        if st is None:
            return fn(*args, **kw)
        stack = st.stack
        if stack and stack[-1][0] == name:
            # ProcWin.accumulate -> Win.accumulate: one span, not two
            return fn(*args, **kw)
        slot = -1
        if st.sampling and len(st.samples) < SAMPLE_SPANS:
            slot = len(st.samples)
            st.samples.append(None)
        frame = [name, 0, slot]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            if eager:
                return iter(list(fn(*args, **kw)))
            return fn(*args, **kw)
        finally:
            dur = time.perf_counter_ns() - t0
            stack.pop()
            a = st.agg[name]
            a[0] += 1
            a[1] += dur
            a[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if slot >= 0:
                parent = stack[-1][2] if stack else -1
                st.samples[slot] = (name, t0, t0 + dur, parent, st.op_id)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _targets():
    """(holder object, attribute, span name, eager) for every wrapped callable."""
    for name, places in SPANS.items():
        for modname, path in places:
            holder = importlib.import_module(modname)
            *owners, attr = path.split(".")
            for owner in owners:
                holder = getattr(holder, owner)
            yield holder, attr, name, (modname, path) in _GENERATORS
    from repro.sanitizer.sanitizer import RmaSanitizer

    for attr in vars(RmaSanitizer):
        if attr.startswith("on_"):
            yield RmaSanitizer, attr, "sanitizer.hooks", False


def install() -> None:
    """Replace every callable in :data:`SPANS` by its timing wrapper.

    Process-wide (class and module attributes); a rank process of the
    proc backend installs for itself after the fork.  Idempotent.
    """
    if _installed:
        return
    for holder, attr, name, eager in _targets():
        orig = vars(holder)[attr]
        if isinstance(orig, (staticmethod, classmethod)):
            raise TypeError(f"{holder.__name__}.{attr}: only plain functions are wrapped")
        setattr(holder, attr, _wrap(orig, name, eager))
        _installed.append((holder, attr, orig))


def uninstall() -> None:
    while _installed:
        holder, attr, orig = _installed.pop()
        setattr(holder, attr, orig)


def start() -> None:
    """Begin recording on the calling thread (a rank)."""
    _tls.state = _RankState()


def begin_op(op_id: int) -> None:
    """Mark the start of operation ``op_id`` of the calling rank."""
    st = _tls.state
    st.op_id = op_id
    st.sampling = op_id < SAMPLE_OPS


def stop() -> dict:
    """End recording; returns this rank's ``{"agg": ..., "samples": ...}``."""
    st = _tls.state
    _tls.state = None
    return {"agg": st.agg, "samples": [s for s in st.samples if s is not None]}


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


def chrome_trace(per_rank: "list[dict]") -> dict:
    """Chrome-trace (``chrome://tracing`` / Perfetto) JSON of the sampled spans."""
    events = []
    for rank, rec in enumerate(per_rank):
        if not rec["samples"]:
            continue
        epoch = min(s[1] for s in rec["samples"])
        for name, t0, t1, parent, op_id in rec["samples"]:
            events.append({
                "name": name, "cat": layer_of(name), "ph": "X",
                "ts": (t0 - epoch) / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": rank, "tid": 0,
                "args": {"op": op_id, "parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def layer_table(per_rank: "list[dict]", ops_per_rank: "list[int]") -> str:
    """Per-rank x per-layer self time in microseconds per operation."""
    layers = sorted({layer_of(s) for s in SPANS})
    lines = ["rank  " + "".join(f"{layer:>11}" for layer in layers) + f"{'sum':>11}"]
    for rank, (rec, nops) in enumerate(zip(per_rank, ops_per_rank)):
        by_layer = dict.fromkeys(layers, 0)
        for span, (_calls, _total, self_ns) in rec["agg"].items():
            by_layer[layer_of(span)] += self_ns
        cells = [by_layer[layer] / 1e3 / max(nops, 1) for layer in layers]
        lines.append(
            f"{rank:>4}  " + "".join(f"{c:>11.2f}" for c in cells) + f"{sum(cells):>11.2f}"
        )
    return "\n".join(lines)
