"""Predefined reduction operations for collectives and RMA accumulate.

MPI accumulate is restricted to predefined operations on predefined
datatypes; ``MPI_REPLACE`` turns ``MPI_Accumulate`` into an element-wise
put.  ARMCI's double-precision accumulate (``ARMCI_ACC_DBL``, a scaled
``y += alpha * x``) maps onto ``MPI_SUM`` after the origin scales the
source data — which is exactly what the ARMCI-MPI layer does.

Each op is a small value object wrapping a NumPy ufunc-style callable
operating on (target_view, source_array) pairs.  Ops backed by a real
ufunc update the target in place (``ufunc(t, s, out=t)``): accumulate
is then one read-modify-write pass with no temporary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ArgumentError


@dataclass(frozen=True)
class Op:
    """A predefined MPI reduction operation.

    ``apply(target, source)`` combines ``source`` into ``target`` in
    place; both are NumPy views of equal shape and dtype.
    ``combine(a, b)`` is the pure (non-mutating) form used by the
    reduction-tree collectives.  ``ufunc`` is the NumPy ufunc behind the
    op, or None when there is none (the logical ops, ``MPI_REPLACE``,
    ``MPI_NO_OP``).
    """

    name: str
    _combine: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    commutative: bool = True
    ufunc: "np.ufunc | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fn = self._combine
        object.__setattr__(self, "ufunc", fn if isinstance(fn, np.ufunc) else None)

    def apply(self, target: np.ndarray, source: np.ndarray) -> None:
        if target.shape != source.shape:
            raise ArgumentError(
                f"{self.name}: shape mismatch {target.shape} vs {source.shape}"
            )
        if self.ufunc is not None:
            self.ufunc(target, source, out=target)
        else:
            target[...] = self._combine(target, source)

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._combine(a, b)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _logical(fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    def wrapped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return fn(a.astype(bool), b.astype(bool)).astype(a.dtype)

    return wrapped


SUM = Op("MPI_SUM", np.add)
PROD = Op("MPI_PROD", np.multiply)
MAX = Op("MPI_MAX", np.maximum)
MIN = Op("MPI_MIN", np.minimum)
LAND = Op("MPI_LAND", _logical(np.logical_and))
LOR = Op("MPI_LOR", _logical(np.logical_or))
LXOR = Op("MPI_LXOR", _logical(np.logical_xor))
BAND = Op("MPI_BAND", np.bitwise_and)
BOR = Op("MPI_BOR", np.bitwise_or)
BXOR = Op("MPI_BXOR", np.bitwise_xor)
#: MPI_REPLACE: accumulate's "atomic element-wise put" op (RMA only).
REPLACE = Op("MPI_REPLACE", lambda a, b: b.copy())
#: MPI_NO_OP: fetch without modifying (MPI-3 Get_accumulate / Fetch_and_op).
NO_OP = Op("MPI_NO_OP", lambda a, b: a.copy())

#: All predefined ops, keyed by MPI name.
PREDEFINED = {
    op.name: op
    for op in (SUM, PROD, MAX, MIN, LAND, LOR, LXOR, BAND, BOR, BXOR, REPLACE, NO_OP)
}


def lookup(name_or_op: "str | Op") -> Op:
    """Resolve an op argument that may be an :class:`Op` or an MPI name."""
    if isinstance(name_or_op, Op):
        return name_or_op
    try:
        return PREDEFINED[name_or_op]
    except KeyError:
        raise ArgumentError(f"unknown reduction op {name_or_op!r}") from None
