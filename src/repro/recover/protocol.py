"""The ARMCI recovery protocol: ack -> shrink -> per-GMR agree -> rebuild.

Every survivor calls :func:`recover` after catching a failure error
(:class:`~repro.mpi.errors.TargetFailedError` or a subclass) from any
operation.  Survivors may arrive from *different* call sites — one from
a poisoned barrier, another from a put to the dead rank — and the
protocol re-synchronises them:

1. **Acknowledge** (:meth:`~repro.mpi.comm.Comm.failure_ack`): disarms
   the dead-rank quarantine for this rank and, under a deterministic
   schedule, re-serialises the survivors so the rest of the recovery
   replays bit-identically from the seed.
2. **Snapshot**: each survivor copies its local slab of every live GMR
   before anything is torn down.
3. **Shrink** (:meth:`~repro.mpi.comm.Comm.shrink`): a fresh,
   densely re-ranked communicator of the survivors, from which a fresh
   :class:`~repro.armci.Armci` runtime is built.
4. **Per-GMR consensus**: for each allocation, in ``gmr_id`` order,
   survivors vote through :meth:`~repro.mpi.comm.Comm.agree` whether it
   can be rebuilt.  The vote is computable identically everywhere — a
   GMR is rebuildable iff some survivor holds a non-NULL slice (the
   §V-B rule: only such a member can *name* the allocation) and no dead
   member held data.  Consensus, not local judgement, decides: a single
   dissent (``rebuild=False``, or a divergent view of the dead set)
   aborts the rebuild on **all** ranks, so no rank ever waits on a
   collective the others skipped.
5. **Rebuild or retire**: on a rebuild verdict the surviving members
   re-allocate the same per-rank sizes on the shrunken (sub)group and
   re-seed the new slabs from step 2's snapshots.  Either way the old
   GMR is retired: unregistered from the translation table (which also
   evicts its last-hit cache entries), its window and mutex window
   force-invalidated, and mutexes owned by dead ranks reclaimed.
   Because retirement recycles window state, the global strided/IOV
   datatype caches are cleared too — a datatype memoised against a
   retired window must never be replayed against its replacement.

The returned :class:`RecoveryReport` is per-rank deterministic (it
shows up unchanged in seeded replays) and records enough to audit the
decision for every allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..armci import iov, strided
from ..armci.api import Armci
from ..armci.gmr import Gmr
from ..mpi.errors import CommRevokedError

__all__ = ["GmrOutcome", "RecoveryReport", "recover"]


@dataclass(frozen=True)
class GmrOutcome:
    """What recovery decided for one allocation.

    ``action`` is ``"rebuilt"`` or ``"aborted"``; ``lost`` lists the old
    absolute ids of dead members whose slice was non-NULL (the reason an
    abort verdict was reached, empty on rebuild); ``new_ptrs`` holds the
    rebuilt allocation's base pointers (``None`` on abort, and on
    survivors outside the rebuilt subgroup); ``copied_bytes`` is the
    calling rank's re-seeded slab size.
    """

    gmr_id: int
    action: str
    lost: tuple = ()
    new_ptrs: "tuple | None" = None
    copied_bytes: int = 0


@dataclass(frozen=True)
class RecoveryReport:
    """Audit record of one :func:`recover` round (old absolute ids).

    ``rank_map`` maps each survivor's old absolute id to its new one on
    the shrunken world; ``reclaimed_mutexes`` lists
    ``(gmr_id, host, mutex, dead_holder)`` for every mutex ownership
    entry swept by :meth:`~repro.armci.mutexes.MutexSet.reclaim`.
    """

    failed: tuple
    survivors: tuple
    rank_map: tuple
    gmrs: tuple = field(default_factory=tuple)
    reclaimed_mutexes: tuple = ()

    def summary(self) -> str:
        rebuilt = sum(1 for g in self.gmrs if g.action == "rebuilt")
        return (
            f"recovered from failure of rank(s) {list(self.failed)}: "
            f"{len(self.survivors)} survivors, "
            f"{rebuilt}/{len(self.gmrs)} allocation(s) rebuilt, "
            f"{len(self.reclaimed_mutexes)} mutex(es) reclaimed"
        )


def _local_parties(comm) -> int:
    """How many of ``comm``'s ranks live in this OS process.

    ``comm.size`` on the thread backend; on the proc backend each child
    runtime hosts exactly the ranks in ``runtime.local_ranks``, and
    rendezvous bookkeeping in ``runtime.shared`` must only wait for
    those.
    """
    return sum(1 for w in comm.group.members if comm.runtime.hosts(w))


def recover(armci: Armci, *, rebuild: bool = True) -> "tuple[Armci, RecoveryReport]":
    """Collective (over the survivors): rebuild the ARMCI runtime.

    Returns ``(new_armci, report)``.  The old runtime is retired — its
    windows invalidated, its table emptied — and must not be used again;
    the caller continues on ``new_armci``, whose world is the shrunken,
    densely re-ranked communicator.  With ``rebuild=False`` every
    allocation is retired without reconstruction (data-free restart).
    """
    world = armci.world
    rt = world.runtime
    my_old = world.rank

    # 1. acknowledge the failures; under a deterministic schedule this is
    #    also where the survivors are re-serialised onto the seeded token
    world.failure_ack()

    # mpi3 datapath: queued nonblocking ops can never complete on the
    # wounded world (its windows are about to be invalidated), so every
    # survivor discards its own queues — outstanding NbHandles fail
    # consistently with a revoke error instead of hanging or half-issuing
    if armci._flush_mode:
        armci._nbq.discard(
            CommRevokedError(
                "nonblocking operation abandoned by recovery: its queue "
                "was discarded when the wounded world was retired"
            )
        )

    # 2. snapshot local slabs before any teardown can recycle them
    with rt.cond:
        dead_world = frozenset(rt.dead_ranks)
        old_gmrs = sorted(armci.table.gmrs, key=lambda g: g.gmr_id)
        snapshots: dict[int, np.ndarray] = {}
        for gmr in old_gmrs:
            snap = gmr.snapshot_local(my_old)
            if snap is not None:
                snapshots[gmr.gmr_id] = snap

    failed_old = tuple(
        r for r in range(world.size) if world.group.world_rank(r) in dead_world
    )
    survivors_old = tuple(r for r in range(world.size) if r not in failed_old)

    # 3. shrink and build the fresh runtime on the survivor communicator
    newcomm = world.shrink()
    rank_map = {
        old: newcomm.group.rank_of_world(world.group.world_rank(old))
        for old in survivors_old
    }
    with rt.cond:
        new_armci = newcomm._coll.run(
            newcomm.rank,
            "armci_recover_init",
            None,
            lambda _c: Armci(
                newcomm, armci.config, armci.strict, armci.datapath
            ),
        )

    # cross-rank scratch: mutex reclamation happens once (first thread
    # in wins) but every rank's report must list the same sweep
    scratch_key = ("recover_scratch", newcomm.context_id)
    with rt.cond:
        state = rt.shared.setdefault(scratch_key, {"reclaimed": [], "departed": 0})

    # 4/5. per-GMR consensus and rebuild-or-retire, in gmr_id order
    outcomes = []
    for gmr in old_gmrs:
        outcomes.append(
            _process_gmr(
                armci, new_armci, gmr, snapshots.get(gmr.gmr_id),
                failed_old, rank_map, rebuild, state,
            )
        )

    # datatypes memoised against retired windows must not outlive them
    strided.strided_datatype_cache_clear()
    iov.iov_datatype_cache_clear()

    with rt.cond:
        armci._finalized = True

    new_armci.barrier()
    with rt.cond:
        reclaimed = tuple(sorted(state["reclaimed"]))
        state["departed"] += 1
        # on the proc backend the scratch dict is a per-process replica:
        # only the ranks hosted here will ever mark their departure
        if state["departed"] >= _local_parties(newcomm):
            rt.shared.pop(scratch_key, None)

    report = RecoveryReport(
        failed=failed_old,
        survivors=survivors_old,
        rank_map=tuple(sorted(rank_map.items())),
        gmrs=tuple(outcomes),
        reclaimed_mutexes=reclaimed,
    )
    return new_armci, report


def _process_gmr(
    armci: Armci,
    new_armci: Armci,
    gmr: Gmr,
    snapshot: "np.ndarray | None",
    failed_old: tuple,
    rank_map: dict,
    rebuild: bool,
    state: dict,
) -> GmrOutcome:
    """Consensus + rebuild/retire for one allocation (all survivors call)."""
    newcomm = new_armci.world
    my_old = armci.world.rank
    members_old = gmr.group.members_absolute()
    lost = tuple(
        a for gr, a in enumerate(members_old) if a in failed_old and gmr.sizes[gr]
    )
    surviving = [a for a in members_old if a not in failed_old]

    # Rebuildable iff a survivor holds a non-NULL slice (§V-B: only such
    # a member can name the allocation) and no data died with a member.
    # The inputs are globally visible, so every flag agrees — but the
    # *decision* still goes through consensus: one dissent aborts
    # everywhere, and no survivor can be left waiting on a rebuild
    # collective the others skipped.
    can_rebuild = bool(rebuild and surviving and not lost)
    verdict = newcomm.agree(1 if can_rebuild else 0)

    new_ptrs = None
    copied = 0
    if verdict:
        new_members = sorted(rank_map[a] for a in surviving)
        if new_members == list(range(new_armci.nproc)):
            sub = new_armci.world_group
        else:
            sub = new_armci.world_group.create_subgroup(new_members)
        if sub is not None:
            nbytes = gmr.sizes[members_old.index(my_old)]
            ptrs = new_armci.malloc(nbytes, group=sub)
            if nbytes:
                myptr = ptrs[sub.rank]
                buf = new_armci.access_begin(myptr, nbytes)
                buf[:] = snapshot
                new_armci.access_end(myptr)
                copied = nbytes
            new_ptrs = tuple(ptrs)

    _retire_gmr(armci, gmr, state)
    return GmrOutcome(
        gmr_id=gmr.gmr_id,
        action="rebuilt" if verdict else "aborted",
        lost=lost,
        new_ptrs=new_ptrs,
        copied_bytes=copied,
    )


def _retire_gmr(armci: Armci, gmr: Gmr, state: dict) -> None:
    """Idempotent teardown of a retired GMR (first rank thread in wins).

    Unregistering also evicts the translation table's last-hit cache
    entries for this GMR, so a recycled address range can never resolve
    through a stale hot pointer.
    """
    rt = armci.world.runtime
    mset = None
    with rt.cond:
        if not gmr.freed:
            armci.table.unregister(gmr)
            gmr.freed = True
            mset = armci._gmr_mutexes.pop(gmr.gmr_id, None)
    gmr.win.invalidate()
    if mset is not None:
        swept = mset.reclaim()
        with rt.cond:
            state["reclaimed"].extend(
                (gmr.gmr_id, host, mutex, holder) for host, mutex, holder in swept
            )
            mset._destroyed = True
        mset._win.invalidate()
