"""Global Memory Regions: ARMCI ↔ MPI address/rank translation (§V-A, §V-B).

ARMCI exposes a PGAS address space of ``<process id, address>`` pairs;
MPI RMA exposes windows addressed by ``(window, group rank,
displacement)``.  GMR is the intermediate layer the paper introduces to
bridge them:

* every ``ARMCI_Malloc`` creates one :class:`Gmr` — an MPI window plus
  the base-address vector gathered from all group members;
* a **translation table** (:class:`GmrTable`) maps an ARMCI global
  address back to the owning GMR and window displacement;
* ranks translate through the GMR's group: ARMCI ops use absolute ids,
  MPI ops use ranks in the window's group (§V-A);
* freeing follows the leader-election protocol of §V-B, because ranks
  holding a zero-byte (NULL) slice cannot name the allocation they are
  freeing.

Since this is a simulation, "addresses" are virtual: each process owns a
monotonically increasing virtual address space and every allocation gets
an aligned base.  Address 0 is NULL, exactly as in the paper's
description of zero-size slices.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..mpi import window as mpi_window
from ..mpi.errors import ArgumentError
from ..mpi.group import UNDEFINED
from .access_modes import AccessMode
from .groups import ArmciGroup

__all__ = ["GlobalPtr", "Gmr", "GmrTable", "NULL_ADDR"]

#: the NULL global address (returned for zero-size allocation slices)
NULL_ADDR = 0
#: base of the simulated per-process virtual address space (nonzero so
#: that no valid allocation ever collides with NULL)
_VA_BASE = 0x1000


@dataclass(frozen=True, order=True)
class GlobalPtr:
    """An ARMCI global address: ``<process id, address>`` (§IV).

    ``rank`` is an *absolute* ARMCI id.  Pointer arithmetic (`+`/`-`)
    adjusts the address, mirroring how GA computes patch addresses from
    the ARMCI_Malloc base-pointer vector.
    """

    rank: int
    addr: int

    def __add__(self, nbytes: int) -> "GlobalPtr":
        return GlobalPtr(self.rank, self.addr + int(nbytes))

    def __sub__(self, nbytes: int) -> "GlobalPtr":
        return GlobalPtr(self.rank, self.addr - int(nbytes))

    @property
    def is_null(self) -> bool:
        return self.addr == NULL_ADDR

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GlobalPtr(rank={self.rank}, addr={self.addr:#x})"


class Gmr:
    """One global allocation: an MPI window + translation metadata."""

    _next_id = 0

    def __init__(
        self,
        win: mpi_window.Win,
        group: ArmciGroup,
        bases: list[int],
        sizes: list[int],
    ):
        self.win = win
        self.group = group
        #: per-group-rank virtual base address (NULL_ADDR for size 0)
        self.bases = bases
        #: per-group-rank slab size in bytes
        self.sizes = sizes
        self.access_mode = AccessMode.DEFAULT
        self.gmr_id = Gmr._next_id
        Gmr._next_id += 1
        self.freed = False

    # -- translation -------------------------------------------------------------
    def win_rank_of_absolute(self, absolute_id: int) -> int:
        """Absolute ARMCI id -> rank in this GMR's window group (§V-A)."""
        r = self.group.group_rank_of(absolute_id)
        if r == UNDEFINED:
            raise ArgumentError(
                f"process {absolute_id} is not in the group of GMR {self.gmr_id}"
            )
        return r

    def displacement(self, ptr: GlobalPtr) -> tuple[int, int]:
        """Translate a global pointer to ``(window rank, byte displacement)``:
        the one rank translation of an op's target (§V-A)."""
        win_rank = self.win_rank_of_absolute(ptr.rank)
        base = self.bases[win_rank]
        if base == NULL_ADDR:
            raise ArgumentError(
                f"pointer into a zero-size slice of GMR {self.gmr_id} on "
                f"process {ptr.rank}"
            )
        disp = ptr.addr - base
        if not 0 <= disp <= self.sizes[win_rank]:
            raise ArgumentError(
                f"pointer {ptr} outside allocation "
                f"[{base:#x}, {base + self.sizes[win_rank]:#x}) of GMR {self.gmr_id}"
            )
        return win_rank, disp

    def contains(self, rank_absolute: int, addr: int) -> bool:
        r = self.group.group_rank_of(rank_absolute)
        if r == UNDEFINED:
            return False
        base = self.bases[r]
        return base != NULL_ADDR and base <= addr < base + self.sizes[r]

    def base_ptrs(self) -> list[GlobalPtr]:
        """The ARMCI_Malloc return value: base pointer per group rank."""
        return [
            GlobalPtr(self.group.absolute_id(r), self.bases[r])
            for r in range(self.group.size)
        ]

    def local_slab(self) -> np.ndarray:
        """This process's raw slab bytes (no access-rights implication)."""
        return self.win.exposed_buffer(self.group.rank)

    def snapshot_local(self, absolute_id: int) -> "np.ndarray | None":
        """Copy of ``absolute_id``'s slab bytes, or ``None`` for non-members
        and NULL (zero-size) slices.

        The recovery protocol snapshots every surviving slab through this
        before teardown can recycle the window memory — on the proc
        backend the bytes live in a shared-memory segment that rebuild
        will replace, so the copy (not a view) is load-bearing.
        """
        r = self.group.group_rank_of(absolute_id)
        if r == UNDEFINED or not self.sizes[r]:
            return None
        return np.array(self.win.exposed_buffer(r), dtype=np.uint8, copy=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gmr id={self.gmr_id} group={self.group.size} sizes={self.sizes}>"


class GmrTable:
    """The translation table: global address -> owning GMR (§V-A).

    Lookup is by (absolute process id, address): per process we keep the
    allocation bases sorted, so a lookup is one bisect plus a bounds
    check — O(log #allocations), mirroring the real implementation's
    balanced lookup structure.

    On top of the bisect, the table remembers the **last-hit GMR per
    process** with that process's slab range: ARMCI traffic is bursty —
    long op runs against one allocation (every segment of an IOV or
    strided transfer resolves to the same GMR) — so the hot entry answers
    most lookups with a single bounds check and no rank translation.  Hot
    entries are dropped on :meth:`unregister`, so a freed allocation can
    never serve a lookup even if a later allocation reuses its virtual
    address range.
    """

    def __init__(self) -> None:
        # absolute id -> sorted list of (base, gmr)
        self._by_rank: dict[int, list[tuple[int, Gmr]]] = {}
        self._all: list[Gmr] = []
        self._next_va: dict[int, int] = {}
        # absolute id -> (most recently hit GMR, its slab's [lo, hi) on that
        # process) (invalidated on unregister)
        self._hot: dict[int, tuple[Gmr, int, int]] = {}
        # absolute id -> [(slab, gmr)] of its non-empty slabs: what the
        # §V-E.1 probe walks; dropped for a GMR's members when it comes or goes
        self._slabs: dict[int, list[tuple[np.ndarray, Gmr]]] = {}

    # -- virtual address space -----------------------------------------------------
    def allocate_va(self, absolute_id: int, nbytes: int, alignment: int) -> int:
        """Reserve an aligned virtual range on ``absolute_id``; 0 bytes -> NULL."""
        if nbytes == 0:
            return NULL_ADDR
        cursor = self._next_va.get(absolute_id, _VA_BASE)
        base = (cursor + alignment - 1) & ~(alignment - 1)
        self._next_va[absolute_id] = base + nbytes
        return base

    # -- registration ----------------------------------------------------------------
    def register(self, gmr: Gmr) -> None:
        for r in range(gmr.group.size):
            base = gmr.bases[r]
            if base == NULL_ADDR:
                continue  # NULL entries are not lookup targets (§V-B)
            absolute = gmr.group.absolute_id(r)
            entries = self._by_rank.setdefault(absolute, [])
            bisect.insort(entries, (base, gmr), key=lambda e: e[0])
            self._slabs.pop(absolute, None)
        self._all.append(gmr)

    def unregister(self, gmr: Gmr) -> None:
        for r in range(gmr.group.size):
            base = gmr.bases[r]
            if base == NULL_ADDR:
                continue
            absolute = gmr.group.absolute_id(r)
            entries = self._by_rank.get(absolute, [])
            self._by_rank[absolute] = [e for e in entries if e[1] is not gmr]
            self._slabs.pop(absolute, None)
        self._all.remove(gmr)
        # a stale hot entry must never resolve a reused address range
        for rank in [r for r, hot in self._hot.items() if hot[0] is gmr]:
            del self._hot[rank]

    # -- lookup -----------------------------------------------------------------------
    def lookup(self, absolute_id: int, addr: int) -> "Gmr | None":
        """GMR owning ``addr`` on process ``absolute_id``, or None."""
        if addr == NULL_ADDR:
            return None
        hot = self._hot.get(absolute_id)
        if hot is not None and hot[1] <= addr < hot[2]:
            return hot[0]
        return self._lookup_bisect(absolute_id, addr)

    def _lookup_bisect(self, absolute_id: int, addr: int) -> "Gmr | None":
        """The uncached bisect lookup (hot-path benchmark baseline)."""
        entries = self._by_rank.get(absolute_id, [])
        i = bisect.bisect_right(entries, addr, key=lambda e: e[0]) - 1
        if i < 0:
            return None
        base, gmr = entries[i]
        if gmr.contains(absolute_id, addr):
            size = gmr.sizes[gmr.group.group_rank_of(absolute_id)]
            self._hot[absolute_id] = (gmr, base, base + size)
            return gmr
        return None

    def lookup_ptr(self, ptr: GlobalPtr) -> "Gmr | None":
        return self.lookup(ptr.rank, ptr.addr)

    def require(self, ptr: GlobalPtr) -> Gmr:
        gmr = self.lookup(ptr.rank, ptr.addr)
        if gmr is None:
            raise ArgumentError(f"{ptr} does not fall in any registered GMR")
        return gmr

    def find_local_buffer(
        self, absolute_id: int, arr: np.ndarray, gmrs: "Iterable[Gmr] | None" = None
    ) -> "Gmr | None":
        """Detect whether ``arr`` aliases window memory on this process.

        This is the §V-E.1 check: a *local* communication buffer that is
        itself exposed in an MPI window must be staged, or ARMCI-MPI
        would need two simultaneous locks on one window (erroneous) or
        two windows (deadlock-prone).  Aliasing is a property of the
        address, so every call probes ``arr`` itself (``np.shares_memory``,
        exact); only which slabs this process exposes is tabulated.
        """
        if gmrs is not None:
            slabs = self._local_slabs(absolute_id, gmrs)
        else:
            slabs = self._slabs.get(absolute_id)
            if slabs is None:
                slabs = self._slabs[absolute_id] = self._local_slabs(absolute_id, self.gmrs)
        for slab, gmr in slabs:
            if np.shares_memory(arr, slab):
                return gmr
        return None

    @staticmethod
    def _local_slabs(absolute_id: int, gmrs: "Iterable[Gmr]") -> "list[tuple[np.ndarray, Gmr]]":
        """``(slab, gmr)`` for every non-empty slab ``absolute_id`` exposes."""
        slabs = []
        for gmr in gmrs:
            r = gmr.group.group_rank_of(absolute_id)
            if r != UNDEFINED and gmr.sizes[r]:
                slabs.append((gmr.win.exposed_buffer(r), gmr))
        return slabs

    def check_consistent(self) -> None:
        """Assert table invariants (used by fault-injection tests).

        After any sequence of registers/unregisters — including an abort
        path taken mid-free — the table must hold: every live GMR is
        indexed under each nonzero base exactly once, no per-rank entry
        refers to a freed GMR, and no hot entry points outside ``_all``.
        Raises :class:`AssertionError` on violation.
        """
        live = set(id(g) for g in self._all)
        for g in self._all:
            assert not g.freed, f"freed GMR {g.gmr_id} still registered"
        for absolute, entries in self._by_rank.items():
            bases = [b for b, _ in entries]
            assert bases == sorted(bases), f"unsorted bases for rank {absolute}"
            for base, gmr in entries:
                assert base != NULL_ADDR, "NULL base indexed"
                assert id(gmr) in live, (
                    f"rank {absolute} entry {base:#x} refers to "
                    f"unregistered GMR {gmr.gmr_id}"
                )
        for rank, (gmr, _lo, _hi) in self._hot.items():
            assert id(gmr) in live, (
                f"hot entry for rank {rank} refers to unregistered "
                f"GMR {gmr.gmr_id}"
            )

    @property
    def gmrs(self) -> list[Gmr]:
        return list(self._all)

    def __len__(self) -> int:
        return len(self._all)
