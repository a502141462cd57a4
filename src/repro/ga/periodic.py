"""Periodic patch access: NGA_Periodic_get / _put / _acc.

Stencil and lattice codes address patches that run off the array edges
with wrap-around (torus) semantics; GA provides periodic variants of
the patch operations so the application does not have to split wrapped
requests itself.  Implementation: decompose the requested (possibly
out-of-range) patch into at most ``3^ndim`` in-range pieces per
dimension-combination, then issue the ordinary one-sided patch op for
each piece — every piece becomes the usual per-owner strided ARMCI
traffic underneath.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from ..mpi.errors import ArgumentError
from .array import GlobalArray, patch_bounds


def _axis_pieces(
    lo: int, hi: int, extent: int, wrap: bool = True
) -> Iterator[tuple[int, "int | None", int]]:
    """Split [lo, hi) at the array edges: yields (offset from lo, global lo, len).

    ``lo`` may be negative and ``hi`` may exceed ``extent``.  A stretch
    off the edge wraps around, or with ``wrap=False`` is reported with a
    global lo of None (a clamped boundary: nothing to fetch).
    """
    cursor = lo
    while cursor < hi:
        glob = cursor % extent
        length = min(hi - cursor, extent - glob)
        yield cursor - lo, glob if wrap or 0 <= cursor < extent else None, length
        cursor += length


def patch_pieces(shape: Sequence[int], lo: Sequence[int], hi: Sequence[int], wrap: bool = True):
    """All in-range sub-patches of a request that runs off the edges of an
    array of ``shape`` (cartesian product of the per-axis splits).

    Yields ``(slices into the request, global lo, global hi)``; a piece
    that is off a clamped edge (``wrap=False``) has ``None`` for both.
    """
    per_dim = [list(_axis_pieces(l, h, e, wrap)) for l, h, e in zip(lo, hi, shape)]
    for combo in itertools.product(*per_dim):
        offs, glob_lo, lengths = zip(*combo)
        sl = tuple(slice(o, o + n) for o, n in zip(offs, lengths))
        if None in glob_lo:
            yield sl, None, None
        else:
            yield sl, glob_lo, tuple(g + n for g, n in zip(glob_lo, lengths))


def _request(ga: GlobalArray, lo: Sequence[int], hi: Sequence[int]):
    """A periodic request, validated: ``(shape, its patch_pieces)``.  The
    bounds must be integers, the patch must have the array's rank and at
    most one full wrap per dimension (as in GA), so its pieces are disjoint."""
    lo, hi = patch_bounds(ga.name, lo, hi)
    if len(lo) != ga.ndim or len(hi) != ga.ndim:
        raise ArgumentError(f"{ga.name}: periodic patch rank mismatch")
    for l, h, extent in zip(lo, hi, ga.shape):
        if h - l > extent:
            raise ArgumentError(
                f"periodic patch of {h - l} exceeds the array extent {extent}"
            )
    return tuple(h - l for l, h in zip(lo, hi)), patch_pieces(ga.shape, lo, hi)


def periodic_get(ga: GlobalArray, lo, hi, out: "np.ndarray | None" = None) -> np.ndarray:
    """NGA_Periodic_get: fetch a patch with wrap-around indexing."""
    shape, pieces = _request(ga, lo, hi)
    if out is None:
        out = np.empty(shape, dtype=ga.dtype)
    elif tuple(out.shape) != shape:
        raise ArgumentError(f"{ga.name}: out shape {out.shape} != {shape}")
    for sl, glob_lo, glob_hi in pieces:
        ga.get(glob_lo, glob_hi, out=out[sl])
    return out


def periodic_put(ga: GlobalArray, lo, hi, data: np.ndarray) -> None:
    """NGA_Periodic_put: store a patch with wrap-around indexing."""
    data = np.asarray(data)
    shape, pieces = _request(ga, lo, hi)
    if tuple(data.shape) != shape:
        raise ArgumentError(f"{ga.name}: data shape {data.shape} != {shape}")
    for sl, glob_lo, glob_hi in pieces:
        ga.put(glob_lo, glob_hi, data[sl])


def periodic_acc(
    ga: GlobalArray, lo, hi, data: np.ndarray, alpha: float = 1.0
) -> None:
    """NGA_Periodic_acc: atomic accumulate with wrap-around indexing.

    A patch may wrap onto itself only if the pieces remain disjoint
    (guaranteed by the one-wrap limit), so per-piece accumulates compose
    atomically exactly like the non-periodic operation.
    """
    data = np.asarray(data)
    shape, pieces = _request(ga, lo, hi)
    if tuple(data.shape) != shape:
        raise ArgumentError(f"{ga.name}: data shape {data.shape} != {shape}")
    for sl, glob_lo, glob_hi in pieces:
        ga.acc(glob_lo, glob_hi, data[sl], alpha=alpha)
