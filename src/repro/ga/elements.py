"""Element-list access: GA_Gather / GA_Scatter / GA_Scatter_acc / GA_Read_inc.

These GA calls access *lists of individual elements* rather than
rectangular patches.  Under ARMCI they map onto the generalized I/O
vector operations (§VI-A): elements are grouped by owner and each
owner's group becomes one ``ARMCI_GetV``/``PutV``/``AccV`` whose
segments are single elements — the many-tiny-segments regime where the
method choice (conservative / batched / direct / auto) matters most.

``read_inc`` is GA's element-granularity atomic counter
(``GA_Read_inc``), implemented with ``ARMCI_Rmw`` on the owner.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..mpi.errors import ArgumentError
from .array import GlobalArray


def _element_addr(ga: GlobalArray, index: Sequence[int]) -> tuple[int, int]:
    """(owner rank, byte offset within the owner's block) of one element."""
    owner = ga.dist.owner(index)
    lo, strides = ga.dist.block(owner).lo, ga._block_strides[owner]
    return owner, sum((x - l) * s for x, l, s in zip(index, lo, strides))


def _group_by_owner(ga: GlobalArray, subs: np.ndarray):
    """Group element indices by owner: {owner: (positions, byte offsets)}."""
    if len(subs) == 0:
        return {}  # e.g. a TaskPool rank that drew no task: nothing to move
    if subs.ndim != 2 or subs.shape[1] != ga.ndim:
        raise ArgumentError(
            f"{ga.name}: subscript array must be (n, {ga.ndim}), got {subs.shape}"
        )
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for pos in range(len(subs)):
        owner, off = _element_addr(ga, subs[pos])
        positions, offsets = groups.setdefault(owner, ([], []))
        positions.append(pos)
        offsets.append(off)
    return groups


def gather(ga: GlobalArray, subscripts) -> np.ndarray:
    """GA_Gather: fetch the elements at ``subscripts`` (one-sided).

    ``subscripts`` is an (n, ndim) integer array; returns the n values.
    """
    subs = np.asarray(subscripts, dtype=np.int64)
    out = np.empty(len(subs), dtype=ga.dtype)
    if len(subs) == 0:
        return out
    item = ga.dtype.itemsize
    for owner, (positions, offsets) in _group_by_owner(ga, subs).items():
        base = ga.ptrs[owner]
        buf = np.empty(len(positions), dtype=ga.dtype)
        ga.runtime.getv(
            [base + off for off in offsets],
            buf,
            [i * item for i in range(len(positions))],
            item,
        )
        out[positions] = buf
    return out


def scatter(ga: GlobalArray, subscripts, values) -> None:
    """GA_Scatter: store ``values[i]`` at ``subscripts[i]`` (one-sided).

    Duplicate subscripts are erroneous in GA (last-writer would be
    nondeterministic); the IOV auto method's conflict scan enforces the
    same rule here by degrading to conservative, so we check eagerly.
    """
    subs = np.asarray(subscripts, dtype=np.int64)
    vals = np.ascontiguousarray(values, dtype=ga.dtype)
    if len(vals) != len(subs):
        raise ArgumentError(
            f"{ga.name}: {len(subs)} subscripts vs {len(vals)} values"
        )
    item = ga.dtype.itemsize
    for owner, (positions, offsets) in _group_by_owner(ga, subs).items():
        if len(set(offsets)) != len(offsets):
            raise ArgumentError(
                f"{ga.name}: duplicate subscripts in scatter target rank {owner}"
            )
        local = np.ascontiguousarray(vals[positions])
        base = ga.ptrs[owner]
        ga.runtime.putv(
            local,
            [i * item for i in range(len(positions))],
            [base + off for off in offsets],
            item,
        )


def scatter_acc(ga: GlobalArray, subscripts, values, alpha: float = 1.0) -> None:
    """GA_Scatter_acc: atomic ``ga[subscripts[i]] += alpha * values[i]``."""
    subs = np.asarray(subscripts, dtype=np.int64)
    vals = np.ascontiguousarray(values, dtype=ga.dtype)
    if len(vals) != len(subs):
        raise ArgumentError(
            f"{ga.name}: {len(subs)} subscripts vs {len(vals)} values"
        )
    item = ga.dtype.itemsize
    for owner, (positions, offsets) in _group_by_owner(ga, subs).items():
        local = np.ascontiguousarray(vals[positions])
        base = ga.ptrs[owner]
        ga.runtime.accv(
            local,
            [i * item for i in range(len(positions))],
            [base + off for off in offsets],
            item,
            scale=alpha,
            dtype=ga.dtype,
        )


def read_inc(ga: GlobalArray, index: Sequence[int], inc: int = 1) -> int:
    """GA_Read_inc: atomically read-and-increment one integer element.

    The array must have an 8-byte integer dtype; returns the old value.
    """
    if ga.dtype != np.dtype("i8"):
        raise ArgumentError(
            f"{ga.name}: read_inc requires an i8 array, got {ga.dtype}"
        )
    owner, off = _element_addr(ga, index)
    from ..armci.rmw import FETCH_AND_ADD_LONG

    return ga.runtime.rmw(FETCH_AND_ADD_LONG, ga.ptrs[owner] + off, inc)
