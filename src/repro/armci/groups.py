"""ARMCI process groups and absolute-id translation (§IV, §V-A).

ARMCI communication operations address *absolute* process ids (ranks in
the ARMCI world group), never group ranks; group ranks must be converted
with ``absolute_id`` (the paper's ``ARMCI_Absolute_id``).  Groups are
created two ways:

* **collectively** over a parent group — implemented directly with MPI
  communicator creation (``comm.create``/``comm.split``);
* **noncollectively** — only the members participate.  MPI-2 has no such
  primitive, so we use the recursive intercommunicator creation-and-merge
  algorithm of Dinan et al. (EuroMPI'11) that the paper adopts: the
  member list is split in half, each half recursively builds an
  intracommunicator, the two halves' leaders connect with
  ``create_intercomm`` over the world bridge, and ``merge`` yields the
  combined intracommunicator — O(log n) merge levels.
"""

from __future__ import annotations

from typing import Sequence

from ..mpi.comm import Comm
from ..mpi.errors import ArgumentError, RankError
from ..mpi.group import UNDEFINED

#: tag namespace reserved for noncollective group construction traffic
_NONCOLL_TAG_BASE = 700_000


class ArmciGroup:
    """A group of ARMCI processes, backed by an MPI communicator."""

    def __init__(self, comm: Comm, world: Comm):
        self.comm = comm
        self.world = world
        #: absolute id -> group rank, tabulated once (several lookups per op)
        self._rank_of = [comm.group.rank_of_world(w) for w in world.group.members]

    # -- identity ------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def rank(self) -> int:
        """Calling process's rank within this group."""
        return self.comm.rank

    def absolute_id(self, group_rank: int) -> int:
        """ARMCI_Absolute_id: group rank -> rank in the ARMCI world group."""
        world_rank = self.comm.group.world_rank(group_rank)
        absolute = self.world.group.rank_of_world(world_rank)
        if absolute == UNDEFINED:
            raise RankError(
                f"group member {group_rank} is not in the ARMCI world group"
            )
        return absolute

    def group_rank_of(self, absolute_id: int) -> int:
        """Inverse translation; :data:`~repro.mpi.group.UNDEFINED` if absent."""
        if 0 <= absolute_id < len(self._rank_of):
            return self._rank_of[absolute_id]
        # not an ARMCI id: the untabulated translation raises its RankError
        return self.comm.group.rank_of_world(self.world.group.world_rank(absolute_id))

    def members_absolute(self) -> list[int]:
        """Absolute ids of all members, in group-rank order."""
        return [self.absolute_id(r) for r in range(self.size)]

    def contains(self, absolute_id: int) -> bool:
        return self.group_rank_of(absolute_id) != UNDEFINED

    # -- collective creation ---------------------------------------------------
    def create_subgroup(self, absolute_members: Sequence[int]) -> "ArmciGroup | None":
        """Collective (over this group) creation of a subgroup.

        All members of this group must call; processes outside
        ``absolute_members`` receive ``None``.
        """
        world_ranks = [self.world.group.world_rank(a) for a in absolute_members]
        subgroup = self.comm.group  # validate membership below
        for w in world_ranks:
            if not self.comm.group.contains_world(w):
                raise ArgumentError(
                    f"absolute id for world rank {w} is not in the parent group"
                )
        from ..mpi.group import Group

        newcomm = self.comm.create(Group(world_ranks))
        if newcomm is None:
            return None
        return ArmciGroup(newcomm, self.world)

    def split(self, color: int, key: int = 0) -> "ArmciGroup | None":
        """Collective split (convenience; maps to MPI_Comm_split)."""
        sub = self.comm.split(color, key)
        return None if sub is None else ArmciGroup(sub, self.world)

    # -- noncollective creation ---------------------------------------------------
    def create_noncollective(
        self, absolute_members: Sequence[int], tag_seed: int = 0
    ) -> "ArmciGroup":
        """Noncollective group creation: only the members call this.

        ``absolute_members`` must be identical (same order) on every
        caller and must include the caller.  Non-members do *not*
        participate — the property that lets GA build groups without
        global synchronisation.
        """
        members = list(absolute_members)
        if len(set(members)) != len(members):
            raise ArgumentError(f"duplicate members: {members}")
        members_world = [self.world.group.world_rank(a) for a in members]
        comm = _recursive_create(self.world, members_world, tag_seed)
        return ArmciGroup(comm, self.world)

    def duplicate(self) -> "ArmciGroup":
        return ArmciGroup(self.comm.dup(), self.world)

    def barrier(self) -> None:
        self.comm.barrier()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArmciGroup size={self.size}>"


def _recursive_create(world: Comm, members: list[int], tag_seed: int) -> Comm:
    """EuroMPI'11 recursive intercomm create-and-merge (members only).

    ``members`` are world ranks in the agreed order.  Each recursion
    level pairs the two halves of the member list; tags are derived from
    the (seed, depth, position) triple so concurrent constructions with
    different seeds do not cross-match.
    """
    me = world.rank

    def build(sub: list[int], depth: int, pos: int) -> Comm:
        if len(sub) == 1:
            # singleton intracommunicator: trivially "collective" over one
            from ..mpi.group import Group

            with world.runtime.cond:
                # a singleton never exchanges messages: any id unique in
                # this process will do
                cid = ("self", world.runtime.alloc_context_id())
                return Comm(world.runtime, Group([me]), cid)
        mid = len(sub) // 2
        left, right = sub[:mid], sub[mid:]
        if me in left:
            local = build(left, depth + 1, pos * 2)
            remote_leader = right[0]
            high = False
        else:
            local = build(right, depth + 1, pos * 2 + 1)
            remote_leader = left[0]
            high = True
        tag = _NONCOLL_TAG_BASE + tag_seed * 1024 + depth * 32 + pos
        inter = local.create_intercomm(
            0, world, world.group.rank_of_world(remote_leader), tag
        )
        return inter.merge(high=high)

    if me not in members:
        raise ArgumentError(f"rank {me} is not in {members}")
    return build(members, 0, 0)
