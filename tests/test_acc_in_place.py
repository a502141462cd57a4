"""An accumulate combines origin rows into target rows in place.

When nothing filters its payload, ``Win.accumulate`` with a ufunc-backed
op whose origin and target maps pair up row for row runs the ufunc once,
``out=`` the target's rows, reading the origin where it is (a contiguous
side re-cut to the other side's row length).  The packed path —
``_gather_origin`` then ``_accumulate_into`` — is the oracle: the two must
leave the same bytes, for every predefined op, strided or contiguous
sides, origin rows at unaligned addresses, and an origin that overlaps
the very target rows it is combined into (numpy resolves the overlap as
if the origin had been copied first; the packed path copies it).

The second half checks the record a fused op in an epoch of its own
reuses (``Win._move``): every piece starts with it clean.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import LOCK_EXCLUSIVE, LOCK_SHARED, Win
from repro.mpi import datatypes as dt
from repro.mpi import ops as mpi_ops
from repro.mpi import rma_rules
from repro.mpi import window as window_mod
from repro.mpi.errors import RMARangeError
from repro.mpi.runtime import Runtime

#: exposed bytes per rank
_WIN_BYTES = 512

_BASES = {"i4": dt.INT, "i8": dt.LONG, "f8": dt.DOUBLE}
_BITWISE = {"MPI_BAND", "MPI_BOR", "MPI_BXOR"}

#: how the two sides are laid out; "rows differ" pairs two strided sides
#: whose rows have different lengths, which only the packed path can combine
_LAYOUTS = ["both strided", "origin contiguous", "target contiguous", "both contiguous",
            "rows differ"]


@st.composite
def _cases(draw):
    """One accumulate: op, element type, each side's ``(rows, row, stride)``
    in elements (stride None: contiguous), where its bytes start, and how
    it completes."""
    op = draw(st.sampled_from(sorted(mpi_ops.PREDEFINED)))
    base = draw(st.sampled_from(["i4", "i8"] if op in _BITWISE else ["i4", "i8", "f8"]))
    layout = draw(st.sampled_from(_LAYOUTS))
    n, row = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    strided = lambda rows, length: (rows, length, length + draw(st.integers(0, 3)))  # noqa: E731
    target = origin = (1, n * row, None)
    if layout in ("both strided", "origin contiguous"):
        target = strided(n, row)
    if layout in ("both strided", "target contiguous"):
        origin = strided(n, row)
    if layout == "rows differ":
        n, row = draw(st.sampled_from([(2, 3), (3, 2), (4, 2), (2, 4)]))
        target = (n, row, row + draw(st.integers(1, 3)))
        origin = (row, n, n + draw(st.integers(1, 3)))  # n x row elements as row x n
    item = np.dtype(base).itemsize
    # the target at a whole element; its own rank's window also holds the
    # origin when it aliases the target: at a whole element, in or beside
    # the target's rows, else anywhere in a private buffer, at any byte
    alias = draw(st.booleans())
    t_at = draw(st.integers(0, 24)) * item
    o_at = t_at + draw(st.integers(-6, 6)) * item if alias else draw(st.integers(0, 15))
    return {
        "op": op, "base": base, "layout": layout, "target": target, "origin": origin,
        "t_at": t_at, "o_at": max(o_at, 0), "alias": alias,
        "target_rank": 0 if alias else draw(st.integers(0, 1)),
        "mode": draw(st.sampled_from(["flush", "lock", "epoch"])),
        "seed": draw(st.integers(0, 2**16)),
    }


def _datatype(side, base: str):
    rows, row, stride = side
    unit = _BASES[base]
    if stride is None:
        return dt.contiguous(row, unit).commit()
    return dt.vector(rows, row, stride, unit).commit()


def _values(rng, base: str, count: int) -> np.ndarray:
    """Small values every op combines exactly (and no NaN to compare)."""
    return rng.integers(1, 6, count).astype(base)


def _accumulate(win, case, origin, o_type, t_type):
    op, t, disp = case["op"], case["target_rank"], case["t_at"]
    args = (origin, t, disp, op, t_type, 1, o_type, 1)
    if case["mode"] == "flush":  # the mpi3 datapath's standing epoch
        win.lock_all()
        win.accumulate(*args, flush=True)
        win.unlock_all()
    elif case["mode"] == "lock":
        win.accumulate(*args, lock=LOCK_EXCLUSIVE)
    else:
        win.lock(t, LOCK_EXCLUSIVE)
        win.accumulate(*args)
        win.unlock(t)


def _in_place_body(comm, cases):
    """Rank 0 runs every case against the packed oracle; returns how many
    took the packed path and how many should have."""
    win, _ = Win.allocate(comm, _WIN_BYTES, mpi3=True)
    comm.barrier()
    packed, expected_packed = [], 0
    if comm.rank == 0:
        real = window_mod._accumulate_into
        window_mod._accumulate_into = lambda *a: (packed.append(a[4].name), real(*a))[1]
        try:
            for case in cases:
                expected_packed += _check_case(win, case, real)
        finally:
            window_mod._accumulate_into = real
    comm.barrier()
    win.free()
    return len(packed), expected_packed


def _check_case(win, case, accumulate_into) -> int:
    base, item = case["base"], np.dtype(case["base"]).itemsize
    rng = np.random.default_rng(case["seed"])
    t_type, o_type = _datatype(case["target"], base), _datatype(case["origin"], base)
    tbuf = win.exposed_buffer(case["target_rank"])
    tbuf.view(base)[:] = _values(rng, base, _WIN_BYTES // item)
    o_bytes = o_type.extent
    if case["alias"]:
        at = min(case["o_at"], _WIN_BYTES - o_bytes)
        origin = tbuf[at : at + o_bytes]
    else:
        raw = np.zeros(case["o_at"] + o_bytes, np.uint8)
        origin = raw[case["o_at"] :]
        origin[:] = _values(rng, base, o_bytes // item).view(np.uint8)
    if case["layout"] in ("origin contiguous", "both contiguous"):
        o_type = None  # the origin's bytes themselves
    # the oracle: the packed path over copies taken before the op
    segmap = t_type.segment_map(1).shifted(case["t_at"])
    omap = dt.SegmentMap.arithmetic(0, o_bytes, o_bytes, 1) if o_type is None else (
        o_type.segment_map(1)
    )
    want = tbuf.copy()
    data = omap.gather(origin.copy())
    accumulate_into(want, segmap, data, np.dtype(base), mpi_ops.lookup(case["op"]))

    _accumulate(win, case, origin, o_type, t_type)
    np.testing.assert_array_equal(tbuf, want, err_msg=str(case))
    in_place = (
        mpi_ops.lookup(case["op"]).ufunc is not None
        and case["layout"] != "rows differ"
        and win.runtime.faults is None
    )
    return 0 if in_place else 1


@pytest.mark.parametrize("backend", ["thread", "proc"])
@settings(max_examples=30, deadline=None)
@given(cases=st.lists(_cases(), min_size=1, max_size=24))
def test_in_place_accumulate_matches_the_packed_path(backend, cases):
    """The bytes the packed path leaves, on both backends, and the packed
    path runs exactly where the in-place one cannot (a non-ufunc op, rows
    that do not pair up, or an injector that filters the payload)."""
    rt = Runtime(2, backend=backend, watchdog_s=5.0, apply_hooks=backend == "thread")
    packed, expected = rt.spmd(_in_place_body, cases)[0]
    assert packed == expected


# ---------------------------------------------------------------------------
# the epoch record a fused op in an epoch of its own reuses
# ---------------------------------------------------------------------------


def _record_body(comm):
    """Rank 0 runs fused pieces of every kind and mode on both targets —
    between them an unfused epoch and a piece that fails — and snapshots
    the record each piece finds when it is checked against the rules."""
    win, _ = Win.allocate(comm, 256, mpi3=True)
    comm.barrier()
    seen = []
    if comm.rank == 0:
        real = rma_rules.find_conflict

        def admit(epoch, *args):
            seen.append((
                epoch.target, id(epoch), epoch.mode, epoch.op_count,
                epoch.recorded, epoch.puts.count, epoch.gets.count, dict(epoch.accs),
                list(epoch.pending_gets), list(epoch.pending_reqs),
            ))
            return real(epoch, *args)

        rma_rules.find_conflict = admit
        try:
            buf = np.arange(8.0)
            for t in (0, 1, 0, 1):
                for mode in (LOCK_SHARED, LOCK_EXCLUSIVE):
                    win.put(buf, t, 8, lock=mode)
                    win.get(buf, t, 8, lock=mode)
                    win.accumulate(buf, t, 64, lock=mode)
                # an unfused epoch recording and completing several ops
                win.lock(t, LOCK_SHARED)
                win.put(buf, t, 0)
                win.get(np.empty(8), t, 128)
                win.accumulate(buf, t, 192)
                win.unlock(t)
                with pytest.raises(RMARangeError):
                    win.get(buf, t, 250, lock=LOCK_EXCLUSIVE)
        finally:
            rma_rules.find_conflict = real
        assert not any(win._epochs_at) and not win._open
    comm.barrier()
    win.free()
    return seen


def test_the_reused_epoch_record_starts_every_piece_clean():
    """``op_count`` at 0, nothing recorded, nothing pending,
    the piece's own mode — and one record per target for every fused piece,
    however many unfused epochs and failed pieces come between."""
    seen = Runtime(2, watchdog_s=5.0, apply_hooks=False).spmd(_record_body)[0]
    # per target: six fused pieces, then the unfused epoch's three ops (the
    # failing get is rejected before the rules are applied)
    assert len(seen) == 4 * 9
    fused = [s for i, s in enumerate(seen) if i % 9 < 6]
    for i, (_target, _id, mode, *clean) in enumerate(fused):
        assert mode == (LOCK_SHARED, LOCK_EXCLUSIVE)[i % 6 // 3]
        assert clean == [0, 0, 0, 0, {}, [], []], (i, clean)
    assert len({(s[0], s[1]) for s in fused}) == 2
    # the unfused epoch counts its ops as it always did
    assert [s[3] for i, s in enumerate(seen) if i % 9 >= 6] == [0, 1, 2] * 4
