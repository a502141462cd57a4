"""The transport of one proc-backend rank process.

:class:`_ProcChildBackend` is the backend a rank's private
:class:`~repro.mpi.runtime.Runtime` *replica* delegates to: it writes
messages to the peers' inbox pipes (:mod:`repro.mpi.mailbox`), creates
the window segments, and applies what arrives in this rank's inbox to the
local p2p engines and registries.

* **Who reads the inbox**: one thread at a time (``Inbox.reading``).  A
  rank blocked in ``Runtime.wait_for`` reads its own inbox
  (:meth:`_ProcChildBackend.idle`), so a message wakes the thread that
  waits for it; otherwise the pump thread (:func:`_pump`) does, so
  messages still land while the rank computes or waits on a lock.

* **Failure detection**: every child re-stamps a per-rank *heartbeat
  lease* (pid + monotonic timestamp) in a parent-created shared-memory
  segment from its pump thread; peers whose lease goes stale past
  ``Runtime.suspect_after`` are probed directly (with exponential
  backoff) and declared dead only when their pid is gone or a zombie —
  so a SIGSTOPped rank is *stalled*, never falsely killed, and a
  SIGKILLed one is detected by survivors themselves, well before the
  parent's ``join_timeout`` backstop and independent of the parent.
* **Fault tolerance** (ULFM surface): ``revoke``/``agree``/``shrink``
  are :class:`~repro.mpi.comm.Comm`'s, the same code as on threads.
  What this backend adds is that a peer is in another process: a
  revoke, a vote to a remote coordinator and a result to a remote voter
  travel as ``("ft", ...)`` messages (:meth:`_ProcChildBackend.send_ctl`),
  and the pump hands them to the process's communicator registry
  (``runtime.registry``), which decides the rounds this process
  coordinates.  ``Runtime.failure_ack`` clears the peer-death poisoning
  in each surviving process, which is what lets ``repro.recover``
  rebuild in place.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable

import numpy as np

from ..backoff import BackoffPolicy
from . import mailbox
from .backend import RuntimeBackend
from .comm import Comm
from .errors import InternalError, OpTimeoutError, TargetFailedError
from .group import Group
from .p2p import P2PEngine
from .proc_comm import ProcComm
from .proc_win import _SLOT, ProcWin, _segment_array, _table_offset
from .runtime import RankFailedError, Runtime


_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without the resource tracker adopting it.

    CPython (before 3.13's ``track=`` parameter) registers every attach
    with the shared resource tracker, whose per-name *set* semantics mean
    the matching unregisters from several attaching processes can race —
    the second ``remove`` of the same name makes the tracker process print
    a KeyError traceback.  Swapping ``register`` out for the duration of
    the constructor is process-local (each rank is its own process) and
    lock-guarded, so the creator's registration stays the only one the
    tracker ever sees.
    """
    with _ATTACH_LOCK:
        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = orig


def _hb_segment_name(run_id: str) -> str:
    return f"repro-{run_id}-hb"


def _pid_alive(pid: int) -> bool:
    """True if ``pid`` exists and is not a zombie.

    ``os.kill(pid, 0)`` alone is not a liveness probe here: a SIGKILLed
    sibling stays a zombie until the *parent* reaps it, and signal 0
    succeeds on zombies.  The ``/proc`` state field disambiguates.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid recycled to another user
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            data = f.read()
        # the state field follows the parenthesised comm, which may
        # itself contain spaces or parens — split on the LAST ')'
        return not data.rpartition(b")")[2].lstrip().startswith(b"Z")
    except OSError:  # pragma: no cover - non-Linux: trust the signal probe
        return True


#: how long the pump leaves the inbox to the rank's own thread before it
#: looks again (or, if the thread held it all along, sleeps until it lets
#: go): the longest a message that arrives right after a wait, while the
#: rank computes, waits to be applied
_GRACE_S = 1e-3


def _pump(backend: "_ProcChildBackend", runtime: "Runtime", stop) -> None:
    """Drain this rank's inbox while the rank is not waiting; police liveness.

    Each loop iteration either finds the inbox taken by the rank's own
    thread, which reads it while it waits (:meth:`_ProcChildBackend.idle`),
    and leaves it to that thread for :data:`_GRACE_S` (through one long
    wait, until it lets go or a tick passes), or waits on the pipe for at
    most a tick and routes the p2p/control/fault-tolerance messages that
    arrived; it then re-stamps this rank's heartbeat lease and scans the
    peers' leases — the pump is the per-rank progress/liveness thread the
    async-progress designs in PAPERS.md argue for, so detection keeps
    working while the application thread is blocked (or never blocks).
    """
    inbox = backend.inbox
    while not stop.is_set():
        if inbox.reading.locked():
            # the rank's own thread reads it while it waits, and a rank
            # that waited once often waits again at once: look again after
            # a grace, or, through one longer wait, once it lets go
            inbox.wait_let_go(_GRACE_S, backend._tick)
        elif inbox.wait(backend._tick):
            # apply every arrived message before the liveness scan so
            # ordered control traffic (rank_done) lands before a probe
            # could misread a silent slot
            backend.read_now(runtime)
        try:
            backend.heartbeat_tick(runtime)
        except BaseException as exc:  # noqa: BLE001 - pump must survive
            with runtime.cond:
                runtime.death_hook_errors.append(exc)


class _ProcChildBackend(RuntimeBackend):
    """The backend a child-process runtime replica delegates to."""

    name = "proc"

    def __init__(
        self, rank: int, nproc: int, outbox: mailbox.Outbox,
        run_id: str, heartbeat_s: float = 0.05, suspect_after: float = 1.0,
    ):
        self.rank = rank
        self.nproc = nproc
        #: the write ends of every rank's inbox, then of the result channel
        self.outbox = outbox
        #: this rank's own inbox (read by whichever thread holds
        #: ``inbox.reading``: :meth:`idle` or the pump)
        self.inbox: "mailbox.Inbox | None" = None
        self.run_id = run_id
        self.runtime: "Runtime | None" = None
        #: ctx key -> P2PEngine replica (guarded by runtime.cond)
        self.engines: dict[Any, P2PEngine] = {}
        #: ctx key -> messages that arrived before the engine registered
        self.stash: dict[Any, list[tuple]] = {}
        #: per-context window sequence numbers (window tokens must agree
        #: across processes, so they derive from the comm's structural
        #: key + creation order, not the per-runtime ``win_id`` counter)
        self._win_seq: dict[Any, int] = {}
        self._windows: list["ProcWin"] = []
        #: ranks that announced a *clean* finish (stop heartbeating them)
        self.done_ranks: set[int] = set()
        # -- heartbeat lease state (pump thread only) --
        self.heartbeat_s = heartbeat_s
        self.suspect_after = suspect_after
        #: the pump's longest wait on its inbox, and a sender's on a full pipe
        self._tick = min(0.05, max(heartbeat_s, 0.005))
        self.hb_view: "np.ndarray | None" = None
        self._beat_ns = max(int(heartbeat_s * 1e9), 1_000_000)
        self._last_beat = 0
        #: pid-probe intervals for a suspected peer: start at one beat,
        #: double per probe, cap at 1 s (ns units, no jitter — the pump
        #: thread must stay wall-clock deterministic for a given lease)
        self._probe_backoff = BackoffPolicy(
            base=float(self._beat_ns), factor=2.0, cap=1e9, jitter=1.0
        )
        #: suspected rank -> [next_probe_ns, probe_attempt]
        self._suspect: dict[int, list[int]] = {}

    # -- RuntimeBackend ------------------------------------------------------
    def spmd(self, runtime, fn, args, join_timeout):
        raise InternalError("nested spmd inside a proc-backend rank")

    def make_world(self, runtime: "Runtime") -> "Comm":
        return ProcComm(runtime, Group(range(self.nproc)), ("w",))

    def win_create(self, comm, local, disp_unit, strict, mpi3):
        token = self._win_token(comm)
        me = comm.rank
        nbytes = local if isinstance(local, int) else local.nbytes
        # the exposed bytes, then the footprint table: a new name, so the
        # kernel's zero fill is all of it (an allocation copies nothing,
        # and every footprint slot reads free)
        own = shared_memory.SharedMemory(
            name=self._segment_name(token, me), create=True,
            size=_table_offset(nbytes) + comm.size * _SLOT.size,
        )
        if not isinstance(local, int) and nbytes:
            np.ndarray((nbytes,), dtype=np.uint8, buffer=own.buf)[:] = local
        # the allgather is also the barrier guaranteeing every segment
        # exists before any peer attaches
        contribs = comm.allgather((nbytes, disp_unit))
        buffers: list[np.ndarray] = []
        tables: list[tuple[memoryview, int, int]] = []
        units: list[int] = []
        for r in range(comm.size):
            nbytes, unit = contribs[r]
            if r == me:
                seg = own
            else:
                # attach untracked so only the creator unlinks
                seg = _attach_untracked(self._segment_name(token, r))
            buffers.append(_segment_array(seg, nbytes))
            # this process's own descriptor of the segment: its locks
            tables.append((seg.buf, _table_offset(nbytes), seg._fd))
            units.append(unit)
        win = ProcWin(
            comm, buffers, units, strict=strict, mpi3=mpi3,
            segment=own, tables=tables, creator_rank=me,
        )
        self._windows.append(win)
        return win

    def idle(self, runtime: "Runtime", timeout: float) -> bool:
        """Wait in ``Runtime.wait_for`` by reading this rank's own inbox.

        The waiting thread takes the inbox (``Inbox.reading``), waits on the
        pipe with ``runtime.cond`` let go, and dispatches what it read
        before letting the inbox go, so messages apply in pipe order and no
        frame is split between two readers.  A ``notify_progress`` while it
        waits (the pump's death verdict, another thread) wakes it through
        ``runtime.wake_reader``.  While the pump holds the inbox it sleeps
        on the condition instead, at most a tick: the pump's dispatch
        notifies.
        """
        inbox, lock = self.inbox, runtime.giant_lock
        deadline = time.monotonic() + timeout
        while True:
            if not inbox.reading.acquire(blocking=False):
                if runtime.sleep(min(timeout, self._tick)):
                    return True
            else:
                try:
                    runtime._sleepers += 1
                    runtime.wake_reader = inbox.wake
                    saved = lock._release_save()  # as Condition.wait does
                    try:
                        got = inbox.wait(timeout, wakeable=True)
                        msgs = self.read_inbox(runtime) if got else ()
                    finally:
                        lock._acquire_restore(saved)
                        runtime._sleepers -= 1
                        runtime.wake_reader = None
                    self.apply(runtime, msgs)
                finally:
                    inbox.let_go()
                if got:
                    return True
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                return False

    # -- child-side plumbing -------------------------------------------------
    def read_inbox(self, runtime: "Runtime") -> list:
        """Every message complete in this rank's pipe (the caller holds
        ``inbox.reading``); a failed read is recorded, not raised."""
        try:
            return self.inbox.read()
        except BaseException as exc:  # noqa: BLE001 - readers must survive
            with runtime.cond:
                runtime.death_hook_errors.append(exc)
            return []

    def apply(self, runtime: "Runtime", msgs: list) -> None:
        """:meth:`dispatch` each message in order (the caller holds
        ``inbox.reading``); a failed one is recorded, not raised."""
        for msg in msgs:
            try:
                self.dispatch(runtime, msg)
            except BaseException as exc:  # noqa: BLE001 - readers must survive
                with runtime.cond:
                    runtime.death_hook_errors.append(exc)

    def register_engine(self, key: Any, engine: P2PEngine) -> None:
        """Publish an engine replica; replay messages that beat it here.

        Must be called with ``runtime.cond`` held (communicator
        construction paths already do).
        """
        self.engines[key] = engine
        for src, dst, tag, payload in self.stash.pop(key, ()):
            engine.post_send(src, dst, tag, payload)

    def send_to(self, dst_world: int, msg: tuple) -> None:
        """Write ``msg`` to rank ``dst_world``'s inbox: a data send.

        While the pipe is full it waits like any blocking call: it gives
        up, before the frame's first byte only, once ``runtime.failed`` is
        set (:class:`RankFailedError`) or once the pipe has taken nothing
        for ``op_timeout_s`` (:class:`OpTimeoutError`).
        """
        try:
            self._write(dst_world, msg, self._give_up_send)
        except TargetFailedError:
            # the destination left; if a peer's death is why, this rank's
            # inbox holds the news already (the parent announces a death
            # to every rank at once), and that failure is what it reports
            self.read_now(self.runtime, wait_s=self._tick)
            if self.runtime.failed is not None:
                raise RankFailedError(
                    f"rank failed elsewhere: {self.runtime.failed!r}"
                ) from None
            raise

    def read_now(self, runtime: "Runtime", wait_s: float = 0.0) -> None:
        """Apply what this rank's inbox holds now; if another thread is
        reading it, wait up to ``wait_s`` for that thread to be done (with
        ``runtime.cond`` let go: that thread applies under it)."""
        inbox = self.inbox
        if not inbox.reading.acquire(blocking=False):
            if not wait_s:
                return
            with runtime.released():
                if not inbox.reading.acquire(timeout=wait_s):
                    return
        try:
            self.apply(runtime, self.read_inbox(runtime))
        finally:
            inbox.let_go()

    def _give_up_send(self, dst: int, since: float) -> None:
        rt = self.runtime
        if rt.failed is not None:
            raise RankFailedError(f"rank failed elsewhere: {rt.failed!r}")
        if rt.op_timeout_s is not None and time.monotonic() - since >= rt.op_timeout_s:
            raise OpTimeoutError(
                f"send to rank {dst} timed out after {rt.op_timeout_s}s "
                "(inbox full, reader stalled but alive?)"
            )

    def send_ctl(self, dst_world: int, msg: tuple, timeout_s: "float | None" = None) -> None:
        """Write a fault-tolerance message (vote, result, revoke) to rank
        ``dst_world``'s inbox.

        These run while peers die, so ``runtime.failed`` does not end the
        wait for room: only the reader's exit (:class:`TargetFailedError`)
        does, or, with ``timeout_s``, that long without room before the
        frame's first byte (:class:`OpTimeoutError`).
        """
        def give_up(dst: int, since: float) -> None:
            if timeout_s is not None and time.monotonic() - since >= timeout_s:
                raise OpTimeoutError(
                    f"{msg[1]} to rank {dst} timed out after {timeout_s}s"
                )

        self._write(dst_world, msg, give_up)

    def _write(self, dst_world: int, msg: tuple, give_up: Callable) -> None:
        """Write ``msg`` as one frame from this thread, with ``runtime.cond``
        let go: collectives and the pump's FT results send under it, and a
        send waiting for room must not stop this process's pump."""
        with self.runtime.released():
            try:
                self.outbox.write(dst_world, mailbox.encode(msg), self._tick, give_up)
            except BrokenPipeError:
                raise TargetFailedError(
                    f"send to failed rank {dst_world}: its inbox has no reader"
                ) from None

    def _win_token(self, comm: "Comm") -> str:
        """Deterministic cross-process window identity.

        Same structural context key + same per-comm creation ordinal on
        every member ⇒ same token ⇒ same segment names.
        """
        key = comm.context_id
        seq = self._win_seq.get(key, 0)
        self._win_seq[key] = seq + 1
        return f"{zlib.crc32(repr(key).encode()) & 0xFFFFFFFF:08x}.{seq}"

    def _segment_name(self, token: str, rank: int) -> str:
        return f"repro-{self.run_id}-{token}-r{rank}"

    def release_windows(self) -> None:
        for win in self._windows:
            win._release_segments()

    # -- heartbeat failure detector -----------------------------------------
    def attach_heartbeat(self, seg: shared_memory.SharedMemory) -> None:
        """Map the run's lease segment and stamp our own slot."""
        self.hb_view = np.ndarray((self.nproc, 2), dtype=np.int64, buffer=seg.buf)
        now = time.monotonic_ns()
        self.hb_view[self.rank, 0] = os.getpid()
        self.hb_view[self.rank, 1] = now
        self._last_beat = now

    def heartbeat_tick(self, runtime: "Runtime") -> None:
        """Refresh our lease; suspect, probe, and declare stale peers.

        Runs on the pump thread each loop iteration.  A peer whose lease
        is stale past ``suspect_after`` is *suspected* and its pid
        probed with exponential backoff; only a pid that is gone (or a
        zombie awaiting the parent's reap) is declared dead.  A present
        pid with a stale lease — a SIGSTOPped or wedged rank — stays
        merely suspected forever: stall is not death, and the
        ``join_timeout`` backstop owns that verdict.
        """
        hb = self.hb_view
        if hb is None:
            return
        now = time.monotonic_ns()
        if now - self._last_beat >= self._beat_ns:
            hb[self.rank, 1] = now
            self._last_beat = now
        suspect_ns = max(int(self.suspect_after * 1e9), 2 * self._beat_ns)
        for r in range(self.nproc):
            if r == self.rank or r in self.done_ranks:
                continue
            if r in runtime.dead_ranks:  # benign unlocked read (GIL)
                continue
            pid, beat = int(hb[r, 0]), int(hb[r, 1])
            if pid == 0 or beat == 0:
                continue  # not started yet (fork/attach still in flight)
            if now - beat <= suspect_ns:
                self._suspect.pop(r, None)
                continue
            st = self._suspect.get(r)
            if st is None:
                st = self._suspect[r] = [now, 0]
            if now < st[0]:
                continue
            st[1] += 1
            st[0] = now + int(self._probe_backoff.delay(st[1]))
            if _pid_alive(pid):
                continue
            stale = (now - beat) / 1e9
            self._declare_dead(
                runtime, r,
                f"heartbeat lease stale for {stale:.2f}s and pid {pid} is gone",
            )

    def _declare_dead(self, runtime: "Runtime", dead: int, detail: str) -> None:
        """Local death verdict: mark (the death hooks repair, and re-drive
        the open ``agree``/``shrink`` rounds) and poison."""
        with runtime.cond:
            if dead == self.rank or dead in runtime.dead_ranks:
                return
            runtime.mark_dead(dead)
            if runtime.failed is None:
                runtime.failed = RankFailedError(
                    f"rank {dead} process died ({detail})"
                )
            runtime.notify_progress()

    # -- pump dispatch -------------------------------------------------------
    def dispatch(self, runtime: "Runtime", msg: tuple) -> None:
        """Apply one inbox message (the inbox's reader: :meth:`idle` or
        the pump)."""
        kind = msg[0]
        if kind == "p2p":
            _, key, src, dst, tag, payload = msg
            with runtime.giant_lock:
                engine = self.engines.get(key)
                if engine is None:
                    # the matching communicator replica is not
                    # constructed yet on this rank; stash until its
                    # engine registers
                    self.stash.setdefault(key, []).append(
                        (src, dst, tag, payload)
                    )
                else:
                    engine.post_send(src, dst, tag, payload)
        elif kind == "ctl":
            sub = msg[1]
            if sub == "rank_dead":
                _, _, dead, detail = msg
                self._declare_dead(runtime, dead, detail)
            elif sub == "rank_done":
                _, _, done, dead = msg
                self.done_ranks.add(done)
                # the deaths it knew: a peer that finds its inbox closed
                # learns why from what arrived before it closed
                for r in dead:
                    self._declare_dead(runtime, r, f"rank {done} finished knowing it dead")
        elif kind == "ft":
            registry = runtime.registry
            with runtime.cond:
                if msg[1] == "revoke":
                    registry.revoke(msg[2])
                elif msg[1] == "vote":
                    registry.vote(*msg[2:])
                elif msg[1] == "result":
                    registry.decided(*msg[2:])
