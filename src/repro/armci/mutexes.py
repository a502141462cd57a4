"""ARMCI mutexes via the Latham et al. RMA queueing algorithm (§V-D).

Each process hosts ``count`` mutexes; mutex ``m`` on host ``h`` is backed
by a byte vector ``B[0..nproc-1]`` in ``h``'s slice of an MPI window.

* **lock**: within ONE exclusive epoch, set ``B[me] = 1`` and fetch all
  other entries (the put and the get do not overlap, so this is a legal
  epoch).  If every other entry is 0 the lock is acquired; otherwise the
  process is now *enqueued* and blocks in an ``MPI_Recv`` from a
  wildcard source — waiting locally, generating **no network traffic**.
* **unlock**: within one exclusive epoch, set ``B[me] = 0`` and fetch the
  rest; scan circularly starting at ``me + 1`` (fairness); if a waiter is
  found, forward the mutex with a zero-byte notification message.

The handoff message *is* the lock transfer: the dequeued process owns
the mutex without touching the byte vector again.

Behind the byte vectors each host's slice carries one aligned ``int32``
per mutex, the *holder record* (0 = free, else holder's rank + 1): who
to forward the mutex for when a rank dies.  It lives in the window so
that every process — thread or forked — reads and writes the one copy,
with a plain store, the moment ownership changes.
"""

from __future__ import annotations

import numpy as np

from ..mpi import datatypes as dt
from ..mpi.comm import Comm
from ..mpi.errors import ArgumentError, OpTimeoutError, TargetFailedError
from ..mpi.p2p import ANY_SOURCE
from ..mpi.runtime import RankFailedError
from ..mpi.window import LOCK_EXCLUSIVE, Win

__all__ = ["MutexHolderFailed", "MutexSet"]

#: tag space for mutex handoff notifications (one tag per mutex index)
_HANDOFF_TAG_BASE = 800_000

#: handoff payload marker: the previous holder died mid-critical-section
_HOLDER_DIED = "MUTEX_HOLDER_DIED"

#: what a lock (1) or an unlock (0) stores in its own entry of a vector
_BITS = (np.zeros(1, dtype=np.uint8), np.ones(1, dtype=np.uint8))


def _cells_offset(count: int, nproc: int) -> int:
    """Byte offset of a slice's holder records: past the vectors, 4-aligned."""
    return -(-count * nproc // 4) * 4


class MutexHolderFailed(TargetFailedError):
    """The previous holder of a mutex died inside its critical section.

    Raised by :meth:`MutexSet.lock` in the *next waiter* after the
    runtime's recovery hook repaired the Latham byte vector and forwarded
    the handoff on the dead holder's behalf.  The catching rank **owns
    the mutex** when this is raised: the protected state may be
    inconsistent (the holder died mid-update), so the waiter must decide
    — re-validate and continue, or unlock and give up — but either way
    it must eventually call :meth:`MutexSet.unlock`.

    Attributes: ``mutex``/``host`` identify the mutex, ``dead_rank`` is
    the failed holder's rank in the mutex communicator.
    """

    def __init__(self, mutex: int, host: int, dead_rank: int):
        super().__init__(
            f"holder (rank {dead_rank}) of mutex {mutex} hosted on {host} "
            "died in its critical section; you now hold the repaired mutex"
        )
        self.mutex = mutex
        self.host = host
        self.dead_rank = dead_rank


class MutexSet:
    """``count`` mutexes hosted on every process of a communicator."""

    def __init__(self, comm: Comm, count: int, win: Win):
        self.comm = comm
        self.count = count
        self._win = win
        self._destroyed = False
        #: rank -> the indexed type of its lock/unlock epochs (one
        #: instance may serve every rank thread, so keyed, built once each)
        self._others_ts: "dict[int, dt.Datatype | None]" = {}
        # each rank constructs its own MutexSet around the ONE shared
        # window, so the death hook is per-window, not per-instance
        rt = comm.runtime
        hooked = ("mutex_hooked", win.win_id)
        with rt.cond:
            if hooked not in rt.shared:
                rt.shared[hooked] = True
                rt.add_death_hook(self._on_rank_death)

    def _holder_cells(self, host: int) -> np.ndarray:
        """``host``'s holder records, one ``int32`` per mutex (a live view)."""
        off = _cells_offset(self.count, self.comm.size)
        cells = self._win.exposed_buffer(host)[off : off + 4 * self.count]
        return cells.view(np.int32)

    def holder(self, host: int, mutex: int) -> "int | None":
        """Rank currently on record as owning ``mutex`` on ``host``."""
        cell = int(self._holder_cells(host)[mutex])
        return cell - 1 if cell else None

    def _on_rank_death(self, world_rank: int) -> None:
        """Latham byte-vector repair for a failed rank (under runtime cond).

        Models a surviving recovery agent: clears every bit the dead
        rank set (its queue entries and, if it held a mutex, its holder
        bit), then — for each mutex it held — rescans the vector from
        the dead rank's successor and forwards the handoff with a
        :data:`_HOLDER_DIED` payload so the next waiter wakes with a
        structured :class:`MutexHolderFailed` diagnosis.
        """
        if self._destroyed:
            return
        group = self.comm.group
        if not group.contains_world(world_rank):
            return
        dead = group.rank_of_world(world_rank)
        n = self.comm.size
        # 1. clear every bit the dead rank set, on every host's vector
        for host in range(n):
            vec = self._win.exposed_buffer(host)
            for mutex in range(self.count):
                vec[mutex * n + dead] = 0
        # 2. forward each mutex the dead rank held to its next waiter
        rt = self.comm.runtime
        for host in range(n):
            vec = self._win.exposed_buffer(host)
            cells = self._holder_cells(host)
            for mutex in np.flatnonzero(cells == dead + 1).tolist():
                base = mutex * n
                for step in range(1, n):
                    j = (dead + step) % n
                    if vec[base + j]:
                        # on the proc backend this hook runs in EVERY
                        # surviving process (each pump marks the death);
                        # only the process hosting waiter j injects the
                        # handoff into its local p2p replica — and moves
                        # the shared record, so the others still find it
                        dst_world = group.world_rank(j)
                        if rt.hosts(dst_world):
                            cells[mutex] = j + 1
                            self.comm._p2p.post_send(
                                world_rank,
                                dst_world,
                                _HANDOFF_TAG_BASE + host * self.count + mutex,
                                (_HOLDER_DIED, dead),
                            )
                        break
                else:
                    cells[mutex] = 0

    def reclaim(self) -> "list[tuple[int, int, int]]":
        """Reclaim ownership of every mutex whose holder has died.

        Belt-and-braces sweep for the recovery protocol: the death hook
        repairs vectors and forwards handoffs *at death time*, but a
        holder entry can outlive the hook when the death hook chain was
        cut short (e.g. a second failure during repair) or when the dead
        holder had no waiter to forward to yet the entry was re-created
        by an in-flight lock.  After this sweep no dead rank owns a
        mutex.  Returns ``(host, mutex, dead_holder_rank)`` triples for
        every reclaimed entry (ranks in the mutex communicator).
        """
        rt = self.comm.runtime
        reclaimed: list[tuple[int, int, int]] = []
        with rt.cond:
            group = self.comm.group
            dead = {
                group.rank_of_world(w)
                for w in rt.dead_ranks
                if group.contains_world(w)
            }
            if not dead:
                return reclaimed
            for host in range(self.comm.size):
                cells = self._holder_cells(host)
                for mutex in np.flatnonzero(cells).tolist():
                    holder = int(cells[mutex]) - 1
                    if holder in dead:
                        cells[mutex] = 0
                        reclaimed.append((host, mutex, holder))
        return reclaimed

    @classmethod
    def create(cls, comm: Comm, count: int) -> "MutexSet":
        """Collective creation (ARMCI_Create_mutexes)."""
        if count < 0:
            raise ArgumentError(f"negative mutex count {count}")
        # isolate handoff traffic from application messages
        mcomm = comm.dup()
        # the byte vectors, then (4-aligned) the holder records
        local = np.zeros(
            _cells_offset(count, comm.size) + 4 * count, dtype=np.uint8
        )
        win = Win.create(mcomm, local)
        return cls(mcomm, count, win)

    def destroy(self) -> None:
        """Collective destruction (ARMCI_Destroy_mutexes)."""
        self.comm.barrier()
        self._win.free()
        self._destroyed = True

    # -- the algorithm -----------------------------------------------------------
    def _check(self, mutex: int, host: int) -> None:
        if self._destroyed:
            raise ArgumentError("mutex set already destroyed")
        if not 0 <= mutex < self.count:
            raise ArgumentError(f"mutex {mutex} not in [0, {self.count})")
        if not 0 <= host < self.comm.size:
            raise ArgumentError(f"mutex host {host} not in [0, {self.comm.size})")

    def _others_datatype(self, me: int) -> "dt.Datatype | None":
        """Indexed type covering B[0..nproc-1] except entry ``me``."""
        if me not in self._others_ts:
            disps = [i for i in range(self.comm.size) if i != me]
            self._others_ts[me] = (
                dt.indexed_block(1, disps, dt.BYTE).commit() if disps else None
            )
        return self._others_ts[me]

    def _epoch(self, mutex: int, host: int, me: int, bit: int) -> "np.ndarray | None":
        """One exclusive epoch on ``host``: ``B[me] <- bit`` and fetch all
        other entries of ``mutex``'s vector (the put and the get do not
        overlap, so this is a legal epoch).  Returns them, entry ``me``
        left out, or None when ``me`` is alone."""
        n = self.comm.size
        others_t = self._others_datatype(me)
        waiting = None if others_t is None else np.zeros(n - 1, dtype=np.uint8)
        self._win.lock(host, LOCK_EXCLUSIVE)
        self._win.put(_BITS[bit], host, mutex * n + me)
        if waiting is not None:
            self._win.get(waiting, host, mutex * n, target_datatype=others_t)
        self._win.unlock(host)
        return waiting

    def _note_holder(self, host: int, mutex: int, holder: "int | None") -> None:
        """Record a holder change, under ``runtime.cond``.

        One aligned store into ``host``'s slice of the mutex window —
        the memory every process's death hook repairs the vectors in, so
        survivors see an acquisition made in another process at once.
        """
        with self.comm.runtime.cond:
            self._holder_cells(host)[mutex] = 0 if holder is None else holder + 1

    def _await_handoff(self, req, mutex: int, host: int) -> None:
        """Wait for the handoff message with per-op timeout + bounded retry.

        Each attempt waits up to the runtime's ``op_timeout_s`` (when
        configured), then sleeps a seeded exponential backoff before
        re-waiting; after ``op_retries`` attempts the final
        :class:`OpTimeoutError` propagates to the caller, which
        withdraws the queued request.
        """
        rt = self.comm.runtime
        attempt = 0
        with rt.cond:
            while True:
                try:
                    rt.wait_for(
                        lambda: req._done,
                        timeout_s=rt.op_timeout_s,
                        what=f"mutex {mutex}@{host} handoff",
                    )
                    return
                except OpTimeoutError:
                    if attempt >= rt.op_retries:
                        raise
                    rt.backoff(attempt)
                    attempt += 1
                except RankFailedError:
                    # proc backend: a peer death poisons every wait in
                    # this process, but the death hook may already have
                    # forwarded the handoff to us — an owned mutex must
                    # not be dropped on the floor
                    if req._done:
                        return
                    raise

    def lock(self, mutex: int, host: int) -> None:
        """Acquire mutex ``mutex`` hosted on process ``host`` (blocking).

        May raise :class:`MutexHolderFailed` — the calling rank then
        *owns* the repaired mutex and must still unlock it — or
        :class:`~repro.mpi.errors.OpTimeoutError` after the bounded
        retry budget, in which case the request has been withdrawn and
        nothing is owned.
        """
        self._check(mutex, host)
        me = self.comm.rank
        waiting = self._epoch(mutex, host, me, 1)
        if waiting is not None and waiting.any():
            # enqueued: wait locally for the handoff (§V-D), bounded by
            # the per-op timeout and seeded-backoff retry budget
            tag = _HANDOFF_TAG_BASE + host * self.count + mutex
            req = self.comm.irecv(tag=tag)
            try:
                self._await_handoff(req, mutex, host)
            except OpTimeoutError:
                # withdraw (trylock-style): clear our bit, then check
                # whether a handoff won the race — the posted receive
                # would already have matched it
                self._epoch(mutex, host, me, 0)
                done, _ = req.test()
                if not done:
                    raise
            status = req.wait()
            self._note_holder(host, mutex, me)
            payload = status.payload
            if isinstance(payload, tuple) and payload and payload[0] == _HOLDER_DIED:
                raise MutexHolderFailed(mutex, host, payload[1])
            return
        self._note_holder(host, mutex, me)

    def trylock(self, mutex: int, host: int) -> bool:
        """Nonblocking acquire; on failure the request is *withdrawn*.

        Not part of the paper's ARMCI surface but trivially expressible
        in the same algorithm: if others are waiting, clear our entry
        again (one more exclusive epoch) instead of blocking.  Note the
        withdrawal can race a handoff; the algorithm stays correct
        because the unlocker scans the vector under the exclusive lock
        after we cleared our bit — but a handoff already sent must be
        consumed, so trylock drains a pending notification if the clear
        lost the race.
        """
        self._check(mutex, host)
        me = self.comm.rank
        waiting = self._epoch(mutex, host, me, 1)
        if waiting is None or not waiting.any():
            self._note_holder(host, mutex, me)
            return True
        # Withdraw: clear our bit under an exclusive epoch, THEN check for
        # a handoff.  A handoff can only have been sent by an unlocker
        # whose exclusive epoch observed our bit set — i.e. an epoch that
        # serialised *before* our clear — so after the clear the message,
        # if any, is already visible and the check is race-free.
        tag = _HANDOFF_TAG_BASE + host * self.count + mutex
        self._epoch(mutex, host, me, 0)
        if self.comm.iprobe(tag=tag) is not None:
            self.comm.recv(source=ANY_SOURCE, tag=tag)
            self._note_holder(host, mutex, me)
            return True  # the handoff won the race: we own the mutex
        return False

    def unlock(self, mutex: int, host: int) -> None:
        """Release the mutex, forwarding it to the next waiter if any."""
        self._check(mutex, host)
        me = self.comm.rank
        n = self.comm.size
        waiting = self._epoch(mutex, host, me, 0)
        if waiting is None:
            self._note_holder(host, mutex, None)
            return
        # reconstruct the full vector (entry `me` removed by the datatype)
        full = np.zeros(n, dtype=np.uint8)
        full[[i for i in range(n) if i != me]] = waiting
        # fairness: scan circularly starting at me+1 (§V-D)
        for step in range(1, n):
            j = (me + step) % n
            if full[j]:
                # the handoff message IS the lock transfer: ownership
                # moves to j at send time (recovery relies on this)
                self._note_holder(host, mutex, j)
                self.comm.send(
                    b"",
                    dest=j,
                    tag=_HANDOFF_TAG_BASE + host * self.count + mutex,
                )
                return
        self._note_holder(host, mutex, None)
