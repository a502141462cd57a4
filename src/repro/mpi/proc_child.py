"""The transport of one proc-backend rank process.

:class:`_ProcChildBackend` is the backend a rank's private
:class:`~repro.mpi.runtime.Runtime` *replica* delegates to: it writes
messages to the peers' inbox pipes (:mod:`repro.mpi.mailbox`), creates
the window segments, and is driven by a pump thread (:func:`_pump`) that
drains this rank's inbox into the local p2p engines.

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
from .proc_win import _SLOT, ProcWin, _LockFiles, _table_offset
from .runtime import RankFailedError, Runtime
from .window import _local_exposure_view


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


def _pump(
    backend: "_ProcChildBackend", runtime: "Runtime", inbox: mailbox.Inbox, stop
) -> None:
    """Drain this rank's inbox pipe into the local replicas; police liveness.

    Each loop iteration waits on the pipe for at most a heartbeat tick
    and routes the p2p/control/fault-tolerance messages that arrived; it
    then re-stamps this rank's heartbeat lease and scans the peers'
    leases — the pump is the per-rank progress/liveness thread the
    async-progress designs in PAPERS.md argue for, so detection keeps
    working while the application thread is blocked (or never blocks).
    """
    while not stop.is_set():
        msgs = []
        try:
            if inbox.wait(backend._tick):
                msgs = inbox.read()
        except BaseException as exc:  # noqa: BLE001 - pump must survive
            with runtime.cond:
                runtime.death_hook_errors.append(exc)
        for msg in msgs:
            # apply every arrived message before the liveness scan so
            # ordered control traffic (rank_done) lands before a probe
            # could misread a silent slot
            try:
                backend.dispatch(runtime, msg)
            except BaseException as exc:  # noqa: BLE001 - pump must survive
                with runtime.cond:
                    runtime.death_hook_errors.append(exc)
        try:
            backend.heartbeat_tick(runtime)
        except BaseException as exc:  # noqa: BLE001 - pump must survive
            with runtime.cond:
                runtime.death_hook_errors.append(exc)


class _ProcChildBackend(RuntimeBackend):
    """The backend a child-process runtime replica delegates to."""

    name = "proc"

    def __init__(
        self, rank: int, nproc: int, outbox: mailbox.Outbox, lockdir: str,
        run_id: str, heartbeat_s: float = 0.05, suspect_after: float = 1.0,
    ):
        self.rank = rank
        self.nproc = nproc
        #: the write ends of every rank's inbox, then of the result channel
        self.outbox = outbox
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
        #: this process's descriptors of the windows' lock files
        self._lock_files = _LockFiles(lockdir)
        #: ranks that announced a *clean* finish (stop heartbeating them)
        self.done_ranks: set[int] = set()
        # -- heartbeat lease state (pump thread only) --
        self.heartbeat_s = heartbeat_s
        self.suspect_after = suspect_after
        #: the pump's longest wait on its inbox, and a sender's on a full pipe
        self._tick = min(0.05, max(heartbeat_s, 0.005))
        self.hb_view: "np.ndarray | None" = None
        self._hb_seg = None
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
        view = _local_exposure_view(local)
        token = self._win_token(comm)
        me = comm.rank
        # the exposed bytes, then the footprint table (zeroed: all free)
        own = shared_memory.SharedMemory(
            name=self._segment_name(token, me), create=True,
            size=_table_offset(view.nbytes) + comm.size * _SLOT.size,
        )
        if view.nbytes:
            np.ndarray((view.nbytes,), dtype=np.uint8, buffer=own.buf)[:] = view
        # the allgather is also the barrier guaranteeing every segment
        # exists before any peer attaches
        contribs = comm.allgather((view.nbytes, disp_unit))
        buffers: list[np.ndarray] = []
        tables: list[tuple[memoryview, int]] = []
        units: list[int] = []
        segments: list[shared_memory.SharedMemory] = []
        for r in range(comm.size):
            nbytes, unit = contribs[r]
            if r == me:
                seg = own
            else:
                # attach untracked so only the creator unlinks
                seg = _attach_untracked(self._segment_name(token, r))
            buffers.append(np.ndarray((nbytes,), dtype=np.uint8, buffer=seg.buf))
            tables.append((seg.buf, _table_offset(nbytes)))
            units.append(unit)
            segments.append(seg)
        win = ProcWin(
            comm, buffers, units, strict=strict, mpi3=mpi3,
            segments=segments, tables=tables, creator_rank=me, token=token,
            lock_files=self._lock_files,
        )
        self._windows.append(win)
        return win

    # -- child-side plumbing -------------------------------------------------
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
        rt = self.runtime

        def give_up(dst: int, since: float) -> None:
            if rt.failed is not None:
                raise RankFailedError(f"rank failed elsewhere: {rt.failed!r}")
            if rt.op_timeout_s is not None and time.monotonic() - since >= rt.op_timeout_s:
                raise OpTimeoutError(
                    f"send to rank {dst} timed out after {rt.op_timeout_s}s "
                    "(inbox full, reader stalled but alive?)"
                )

        self._write(dst_world, msg, give_up)

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
        every member ⇒ same token ⇒ same segment names and lock files.
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
    def attach_heartbeat(self, name: str) -> None:
        """Attach the parent's lease segment and stamp our own slot."""
        seg = _attach_untracked(name)
        self._hb_seg = seg
        self.hb_view = np.ndarray((self.nproc, 2), dtype=np.int64, buffer=seg.buf)
        now = time.monotonic_ns()
        self.hb_view[self.rank, 0] = os.getpid()
        self.hb_view[self.rank, 1] = now
        self._last_beat = now

    def release_heartbeat(self) -> None:
        self.hb_view = None
        if self._hb_seg is not None:
            try:
                self._hb_seg.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
            self._hb_seg = None

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
        """Apply one inbox message (pump thread)."""
        kind = msg[0]
        if kind == "p2p":
            _, key, src, dst, tag, payload = msg
            with runtime.cond:
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
                self.done_ranks.add(msg[2])
        elif kind == "ft":
            registry = runtime.registry
            with runtime.cond:
                if msg[1] == "revoke":
                    registry.revoke(msg[2])
                elif msg[1] == "vote":
                    registry.vote(*msg[2:])
                elif msg[1] == "result":
                    registry.decided(*msg[2:])
