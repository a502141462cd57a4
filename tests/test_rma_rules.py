"""The RMA access rules as pure functions (:mod:`repro.mpi.rma_rules`).

The rules are called here on plain records, with no runtime, and their
findings carry the texts the window raises; a second set of tests drives
the same cases through :class:`~repro.mpi.window.Win` and checks that what
it raises and reports is the rule's finding, byte for byte.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.mpi import datatypes as dt
from repro.mpi import rma_rules
from repro.mpi.errors import RMAConflictError, RMASyncError
from repro.mpi.rma_rules import (
    FENCE,
    LOCK_ALL,
    RMW,
    Accesses,
    Finding,
    check_nesting,
    find_conflict,
    forget_accesses,
    record_access,
    self_overlap,
)
from repro.mpi.runtime import Runtime
from repro.mpi.window import Win
from repro.sanitizer import RmaSanitizer

FP = dt.SegmentMap.arithmetic(0, 8, 8, 1)  # bytes [0, 8) of the target


def test_the_rule_module_imports_no_runtime():
    tree = ast.parse(pathlib.Path(rma_rules.__file__).read_text())
    banned = ("runtime", "comm", "backend", "window")
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    bad = [
        name for name in imported
        if any(part.startswith(banned) for part in name.split("."))
    ]
    assert not bad, bad


# ---------------------------------------------------------------------------
# nesting: every (epoch record, op) pair
# ---------------------------------------------------------------------------

_FENCE_IN_LOCK = (
    "MPI_Win_fence while holding a passive-target lock: active and passive "
    "epochs may not overlap"
)

#: (origin's epoch record, op) -> (plain text, sanitizer detail), as the
#: window raises and reports them; None: the rule holds
NESTING = {
    (None, "lock"): None,
    (None, "lock_all"): None,
    (None, "fence_sync"): None,
    (0, "lock"): (
        "origin 0 already holds a lock on target 0 of this window (MPI-2 "
        "allows one lock per window per process)",
        "already holds a lock on target 0 of this window (one lock per "
        "window per process)",
    ),
    (0, "lock_all"): (
        "lock_all while already in an epoch",
        "lock_all while holding a lock on target 0 of this window",
    ),
    (0, "fence_sync"): (_FENCE_IN_LOCK, _FENCE_IN_LOCK),
    (LOCK_ALL, "lock"): ("lock() inside a lock_all epoch",) * 2,
    (LOCK_ALL, "lock_all"): (
        "lock_all while already in an epoch",
        "lock_all while already in a lock_all epoch",
    ),
    (LOCK_ALL, "fence_sync"): (_FENCE_IN_LOCK, _FENCE_IN_LOCK),
    (FENCE, "lock"): ("lock() inside an active-target fence epoch",) * 2,
    # not a rule the window enforces by itself: only a sanitizer reports it
    (FENCE, "lock_all"): (None, "lock_all inside an active-target fence epoch"),
    (FENCE, "fence_sync"): None,
}


@pytest.mark.parametrize("rec, op", list(NESTING))
def test_nesting_finding_texts(rec, op):
    found = check_nesting(0, rec, op)
    expected = NESTING[(rec, op)]
    if expected is None:
        assert found is None
    else:
        assert found == Finding("lock-nesting", *expected)


def _open(win, rec):
    if rec == LOCK_ALL:
        win.lock_all()
    elif rec == FENCE:
        win.fence_sync()
    elif rec is not None:
        win.lock(rec)


def _nesting_body(comm, rec, op):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    _open(win, rec)
    try:
        {"lock": lambda: win.lock(0), "lock_all": win.lock_all,
         "fence_sync": win.fence_sync}[op]()
    except RMASyncError as exc:
        return str(exc)
    return None


def _recorded(rt):
    return [
        (v.kind.value, v.op, v.target, v.detail, v.ranges)
        for v in rt.sanitizer.violations
    ]


@pytest.mark.parametrize("rec, op", list(NESTING))
def test_the_window_raises_and_reports_the_nesting_finding(rec, op):
    rt = Runtime(1, watchdog_s=5.0)
    rt.sanitizer = RmaSanitizer(mode="record")
    raised = rt.spmd(_nesting_body, rec, op)[0]
    found = check_nesting(0, rec, op)
    if found is None:
        assert raised is None and _recorded(rt) == []
        return
    assert raised == (None if found.plain is None else str(RMASyncError(found.plain)))
    target = 0 if op == "lock" else -1
    assert _recorded(rt) == [(found.kind, op, target, found.detail, ())]


# ---------------------------------------------------------------------------
# conflicts: every access class, in the same epoch and across origins
# ---------------------------------------------------------------------------

#: an access as the rules see it: (kind, opname)
ACCESS = {
    "put": ("put", None),
    "get": ("get", None),
    "MPI_SUM": ("acc", "MPI_SUM"),
    "MPI_MAX": ("acc", "MPI_MAX"),
    RMW: ("acc", RMW),
}


def _record(rec, access):
    record_access(rec, *ACCESS[access], FP)


def _find(prior, new, cross, strict=True):
    """The finding of a ``new`` access by origin 0 on target 1 after a
    ``prior`` one there, by origin 0 itself or, ``cross``, by origin 1."""
    own = Accesses(0, 1, "shared")
    at = {0: own}
    if cross:
        at[1] = Accesses(1, 1, "shared")
        _record(at[1], prior)
    else:
        _record(own, prior)
    return find_conflict(own, at, *ACCESS[new], FP, strict)


def test_conflict_texts_in_the_same_epoch():
    assert _find("put", "put", False) == Finding(
        "conflict",
        "put conflicts with earlier put in the same epoch (origin 0 -> target 1)",
        "put overlaps an earlier put access in the same epoch",
        ((0, 8),),
    )
    assert _find("get", "MPI_SUM", False) == Finding(
        "conflict",
        "acc conflicts with earlier get in the same epoch (origin 0 -> target 1)",
        "acc overlaps an earlier get access in the same epoch",
        ((0, 8),),
    )
    assert _find("MPI_SUM", "MPI_MAX", False) == Finding(
        "acc-interleave",
        "acc conflicts with earlier acc(MPI_SUM) in the same epoch (origin 0 -> target 1)",
        "acc overlaps an earlier acc(MPI_SUM) access in the same epoch",
        ((0, 8),),
    )


def test_conflict_texts_across_origins():
    assert _find("MPI_SUM", "get", True) == Finding(
        "conflict",
        "get by origin 0 conflicts with concurrent acc(MPI_SUM) by origin 1 on "
        "target 1 (both hold shared locks)",
        "get overlaps an earlier acc(MPI_SUM) access in a concurrent epoch of origin 1",
        ((0, 8),),
    )


def test_atomics_footprints_are_only_reported():
    """An atomic's footprint (class ``rmw``) conflicts like an accumulate,
    but the window has no rule of its own about it: no plain text."""
    assert _find("put", RMW, False) == Finding(
        "conflict", None, "rmw overlaps an earlier put access in the same epoch", ((0, 8),)
    )
    assert _find(RMW, "put", True) == Finding(
        "conflict", None,
        "put overlaps an earlier acc(rmw) access in a concurrent epoch of origin 1",
        ((0, 8),),
    )
    assert _find(RMW, "MPI_SUM", False).kind == "acc-interleave"


@pytest.mark.parametrize("cross", [False, True])
def test_what_may_overlap(cross):
    """Gets with gets and accumulates with accumulates of the same op
    (atomics with atomics); nothing once the epoch completed."""
    for same in ("get", "MPI_SUM", RMW):
        assert _find(same, same, cross) is None
    own = Accesses(0, 1, "shared")
    _record(own, "put")
    forget_accesses(own)
    assert find_conflict(own, {0: own}, "put", None, FP, True) is None


def test_a_relaxed_window_only_reports():
    found = _find("put", "put", True, strict=False)
    assert found.plain is None and found.detail.startswith("put overlaps an earlier put")


def test_disjoint_footprints_do_not_conflict():
    own = Accesses(0, 1, "shared")
    _record(own, "put")
    far = dt.SegmentMap.arithmetic(8, 8, 8, 1)
    assert find_conflict(own, {0: own}, "put", None, far, True) is None


def test_the_search_reads_only_the_epochs_it_is_given(monkeypatch):
    """The cross-origin search walks the target's open epochs, nothing else;
    the origin's own epoch is searched first, and once.  (Each has recorded
    something: one that recorded nothing conflicts with nothing and is not
    searched.)"""
    own = Accesses(0, 1, "shared")
    record_access(own, "put", None, dt.SegmentMap.arithmetic(8, 8, 8, 1))  # not FP
    other = Accesses(2, 1, "shared")
    _record(other, "put")
    seen = []
    real = rma_rules.conflict_class

    def counting(rec, *args):
        seen.append(rec.origin)
        return real(rec, *args)

    monkeypatch.setattr(rma_rules, "conflict_class", counting)
    found = find_conflict(own, {0: own, 2: other}, "get", None, FP, True)
    assert seen == [0, 2] and "origin 2" in found.plain


def test_self_overlap_texts():
    twice = dt.SegmentMap(np.array([0, 4]), np.array([8, 8]))
    msg = "put with self-overlapping target segments within one operation"
    assert self_overlap("put", twice, True) == Finding("conflict", msg, msg)
    assert self_overlap("put", twice, False) == Finding("conflict", None, msg)
    assert self_overlap("acc", twice, True) is None
    assert self_overlap("get", FP, True) is None


def _issue(win, access):
    if access == "put":
        win.put(np.ones(8, np.uint8), 1, 0)
    elif access == "get":
        win.get(np.empty(8, np.uint8), 1, 0)
    elif access == RMW:
        win.fetch_and_op(1, 1, 0)
    else:
        win.accumulate(np.ones(1), 1, 0, op=access)


def _conflict_body(comm, prior, new, cross):
    win, _ = Win.allocate(comm, 64, mpi3=True)
    win.lock_all()
    if comm.rank == (1 if cross else 0):
        _issue(win, prior)
    comm.barrier()
    raised = None
    if comm.rank == 0:
        try:
            _issue(win, new)
        except RMAConflictError as exc:
            raised = str(exc)
    comm.barrier()
    win.unlock_all()
    return raised


@pytest.mark.parametrize("cross", [False, True], ids=["same-epoch", "cross-origin"])
@pytest.mark.parametrize("new", list(ACCESS))
@pytest.mark.parametrize("prior", ["put", "get", "MPI_SUM", RMW])
def test_the_window_raises_and_reports_the_conflict_finding(prior, new, cross):
    rt = Runtime(2, watchdog_s=5.0)
    rt.sanitizer = RmaSanitizer(mode="record")
    raised = rt.spmd(_conflict_body, prior, new, cross)[0]
    found = _find(prior, new, cross)
    if found is None:
        assert raised is None and _recorded(rt) == []
        return
    assert raised == (None if found.plain is None else str(RMAConflictError(found.plain)))
    op = RMW if new == RMW else ACCESS[new][0]
    assert _recorded(rt) == [(found.kind, op, 1, found.detail, found.ranges)]
