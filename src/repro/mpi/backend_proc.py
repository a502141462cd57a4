"""Process-parallel runtime backend: one OS process per rank.

``Runtime(nproc, backend="proc")`` escapes the GIL: every rank is a
forked child process, window memory lives in
``multiprocessing.shared_memory`` segments (the MPI-3
``MPI_Win_allocate_shared`` analogue from Hammond et al., PAPERS.md),
and puts/gets are true cross-process memory traffic.  The moving parts:

* **Parent** (:class:`ProcBackend`): creates one inbox pipe per rank and
  a result pipe (:mod:`repro.mpi.mailbox`), forks the children, then
  runs a monitor loop — collecting per-rank results, broadcasting a
  ``rank_dead`` control message when a child exits abnormally (so
  survivors raise :class:`~repro.mpi.runtime.RankFailedError`, the
  cross-process analogue of ``mark_dead``), driving an optional
  proc-capable fault injector (``repro.faults.proc`` — real ``SIGKILL``
  / ``SIGSTOP``+``SIGCONT`` / delayed starts), and enforcing
  ``join_timeout`` as the deadlock backstop (the thread watchdog cannot
  see other processes).
* **Child** (:func:`_child_main`): builds a private :class:`Runtime`
  *replica* (``apply_hooks=False`` — ambient sanitizer/fuzzer/fault
  hooks must not silently duplicate into processes they cannot
  observe), a :class:`ProcComm` world, and a pump thread that drains
  this rank's inbox pipe into the local p2p engines.
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
* **Messaging** (:class:`ProcComm`): a send pickles the payload and
  writes it, from the sender's thread, as one frame to the destination's
  inbox pipe; the destination's pump injects it into the
  :class:`~repro.mpi.p2p.P2PEngine` replica registered under the
  message's context id (the structural tuple both backends use).
* **Collectives** (:class:`_ProcCollEngine`): gather-to-root /
  broadcast over a reserved p2p engine; every process then runs the
  ``compute`` step on the full contribution dict, so collectives that
  construct unpicklable objects (communicators, windows, ARMCI
  registries) build a consistent per-process replica — contributions
  are inserted in rank order to keep replicas deterministic.
* **Windows** (:class:`ProcWin`): each rank's exposure is copied into a
  shared-memory segment all peers attach; the window's one lock
  primitive is an ``fcntl.flock`` per target (shared/exclusive), so
  ``lock`` takes one and MPI-3 ``lock_all`` a shared one on every
  target, and the atomic ops (``accumulate``/``fetch_and_op``/
  ``compare_and_swap``) *reserve their byte footprint* in a per-target
  table so they are atomic across processes even inside shared epochs,
  while ones on disjoint bytes run at the same time (like real MPI,
  conflicting plain put/put under shared locks is the user's race,
  atomics are the runtime's job).

What the proc backend does **not** support — by design, raising typed
errors rather than misbehaving: the deterministic scheduler and fuzzer,
the RMA sanitizer, *thread-style* fault plans (``repro.faults.plan``
schedules faults at deterministic fuzz points, which do not exist
across processes; the wall-clock subset in ``repro.faults.proc`` is
accepted instead), and intercommunicators.  ``docs/backends.md`` has
the full matrix.
"""

from __future__ import annotations

import fcntl
import itertools
import os
import shutil
import struct
import tempfile
import threading
import time
import traceback
import zlib
from multiprocessing import connection, get_context, resource_tracker, shared_memory
from typing import Any, Callable

import numpy as np

from ..backoff import FLOCK_WAIT, BackoffPolicy
from ..faults.proc import sweep_stale_segments
from . import mailbox
from .backend import RuntimeBackend
from .comm import Comm
from .errors import (
    CommError,
    CommRevokedError,
    InternalError,
    OpTimeoutError,
    ProgressDeadlockError,
    TagError,
    TargetFailedError,
)
from .group import Group
from .p2p import ANY_SOURCE, P2PEngine, Request
from .runtime import RankFailedError, Runtime, _tls, current_proc
from .window import LOCK_EXCLUSIVE, Win, _local_exposure_view

__all__ = ["ProcBackend", "ProcComm", "ProcWin"]

#: every operation the thread backend supports but this one rejects
#: carries this hint in its error message
_THREAD_ONLY = "is thread-backend only (see docs/backends.md); use backend='thread'"

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


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

class _LockFiles:
    """One rank process's open window-lock files: a descriptor per lock
    file instead of an ``open``/``close`` per acquisition.

    Built after the fork, so every descriptor is this process's *own*
    open file description (one inherited over ``fork`` would be shared
    with the parent and exclude nobody) and the kernel still drops a dead
    rank's flocks.  A descriptor is taken out of the cache while its
    flock is held and returned by :meth:`release`, so whatever is cached
    is unheld and closing the least recently used one to stay under
    :data:`BOUND` is always safe — hundreds of live windows x targets
    cannot walk into ``RLIMIT_NOFILE``.
    """

    #: cached (= idle) descriptors per process, over all its windows
    BOUND = 64

    def __init__(self, lockdir: str):
        self._dir = lockdir
        #: (window token, target, kind) -> unheld descriptor, LRU first
        self._idle: dict[tuple[str, int, str], int] = {}

    def take(self, key: tuple[str, int, str]) -> int:
        fd = self._idle.pop(key, None)
        if fd is None:
            path = os.path.join(self._dir, "%s.t%d.%s" % key)
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        return fd

    def release(self, key: tuple[str, int, str], fd: int, held: bool = True) -> None:
        """Cache a descriptor, unlocking it first if it ``held`` its flock
        (``held=False``: its nonblocking probe failed)."""
        if held:
            fcntl.flock(fd, fcntl.LOCK_UN)
        self._idle[key] = fd
        if len(self._idle) > self.BOUND:
            os.close(self._idle.pop(next(iter(self._idle))))

    def forget(self, token: str) -> None:
        """Close every cached descriptor of one window (it was freed)."""
        for key in [k for k in self._idle if k[0] == token]:
            os.close(self._idle.pop(key))


class ProcBackend(RuntimeBackend):
    """One forked OS process per rank; true multi-core parallelism."""

    name = "proc"

    _run_counter = itertools.count()

    def spmd(
        self,
        runtime: "Runtime",
        fn: Callable[..., Any],
        args: tuple,
        join_timeout: float,
    ) -> list[Any]:
        if runtime.schedule is not None:
            raise InternalError(f"the deterministic scheduler {_THREAD_ONLY}")
        if runtime.sanitizer is not None:
            raise InternalError(f"the RMA sanitizer {_THREAD_ONLY}")
        injector = None
        if runtime.faults is not None:
            if not getattr(runtime.faults, "proc_capable", False):
                raise InternalError(
                    f"fault injection via repro.faults.plan {_THREAD_ONLY}; "
                    "cross-process faults use repro.faults.proc"
                )
            injector = runtime.faults
        nproc = runtime.nproc
        ctx = get_context("fork")
        run_id = f"{os.getpid()}x{next(self._run_counter)}"
        # named after the run, as its segments are, so a leak check can
        # tell this process's leftovers from a concurrent run's
        lockdir = tempfile.mkdtemp(prefix=f"repro-proc-{run_id}-")
        # one inbox pipe per rank, then the result channel to this process
        pipes = [os.pipe2(os.O_NONBLOCK | os.O_CLOEXEC) for _ in range(nproc + 1)]
        ends = {fd for pair in pipes for fd in pair}
        outbox = None
        # per-rank heartbeat leases: nproc slots of (pid, monotonic_ns),
        # created zeroed here so every child can attach before its peers
        # have written anything
        hb_seg = shared_memory.SharedMemory(
            name=_hb_segment_name(run_id), create=True, size=max(16 * nproc, 16)
        )
        delays = injector.startup_delays(nproc) if injector is not None else {}
        cfg = (
            runtime.nproc,
            runtime.watchdog_s,
            runtime.op_timeout_s,
            runtime.op_retries,
            runtime.seed,
            runtime.heartbeat_s,
            runtime.suspect_after,
            delays,
        )
        children = [
            ctx.Process(
                target=_child_main,
                args=(r, cfg, fn, args, pipes, lockdir, run_id),
                name=f"rank-{r}",
                daemon=True,
            )
            for r in range(nproc)
        ]
        try:
            for p in children:
                p.start()
            # keep the inboxes' write ends and the results' read end: a
            # dead rank's inbox then has no reader, and writes to it fail
            for fd in [r for r, _ in pipes[:nproc]] + [pipes[nproc][1]]:
                os.close(fd)
                ends.discard(fd)
            outbox = mailbox.Outbox([w for _, w in pipes[:nproc]], lockdir)
            if injector is not None:
                injector.start(children)
            results, errors, died = self._monitor(
                children, outbox, mailbox.Inbox(pipes[nproc][0]),
                join_timeout, injector,
            )
        finally:
            if injector is not None:
                # un-stall before terminating: a SIGSTOPped child cannot
                # handle SIGTERM
                injector.finish(children)
            # teardown grace derived from the caller's deadlock budget
            # rather than a magic constant; clamped so a generous
            # join_timeout doesn't turn teardown into a second hang
            join_grace = max(1.0, min(join_timeout / 4.0, 30.0))
            for p in children:
                if p.is_alive():
                    p.terminate()
            for p in children:
                p.join(timeout=join_grace)
            for p in children:
                if p.is_alive():  # ignored SIGTERM (wedged/stopped): escalate
                    p.kill()
                    p.join(timeout=join_grace)
            if outbox is not None:
                outbox.close()
            for fd in ends:
                os.close(fd)
            shutil.rmtree(lockdir, ignore_errors=True)
            try:
                hb_seg.close()
                # re-register before unlink (idempotent) in case the
                # teardown sweep of a concurrent run already consumed the
                # tracker entry; unlink's own unregister then always finds
                # it instead of warning
                resource_tracker.register(hb_seg._name, "shared_memory")
                hb_seg.unlink()
            except Exception:  # pragma: no cover - teardown best effort
                pass
            # killed children never ran their unlink paths: sweep every
            # segment of this run so an abnormal exit leaks nothing and
            # the resource tracker has nothing to warn about
            sweep_stale_segments(None, pattern=f"repro-{run_id}-*")
        # error precedence mirrors the thread backend: the original
        # failure (any non-secondary exception) outranks the
        # RankFailedError/TargetFailedError echoes it caused elsewhere —
        # including CommRevokedError, which is how a revoke-triggering
        # failure manifests in the ranks that didn't cause it.
        primary = {
            r: e
            for r, e in errors.items()
            if not isinstance(
                e, (RankFailedError, TargetFailedError, CommRevokedError)
            )
        }
        if primary:
            raise primary[min(primary)]
        if died and not errors:
            missing = [
                r for r in range(nproc) if r not in died and r not in results
            ]
            if not missing:
                # every survivor completed: a recovered run.  Results for
                # dead ranks are None — the shrunken grid finished the job.
                return [results.get(r) for r in range(nproc)]
        if died:
            r = min(died)
            raise RankFailedError(
                f"rank {r} process died without reporting a result "
                f"(exit code {died[r]})"
            )
        if errors:
            raise errors[min(errors)]
        return [results[r] for r in range(nproc)]

    def _monitor(
        self,
        children: list,
        outbox: mailbox.Outbox,
        inbox: mailbox.Inbox,
        join_timeout: float,
        injector=None,
    ) -> tuple[dict[int, Any], dict[int, BaseException], dict[int, "int | None"]]:
        """Collect results, detect silent deaths, broadcast ``rank_dead``.

        Sleeps until a result arrives or a pending child exits; with a
        fault injector (it fires from here), for at most 50 ms at a time.
        """
        results: dict[int, Any] = {}
        errors: dict[int, BaseException] = {}
        died: dict[int, "int | None"] = {}
        pending = set(range(len(children)))
        deadline = time.monotonic() + join_timeout

        def give_up(dst: int, since: float) -> None:
            # a child's full inbox: keep the injector firing, and give up
            # at the deadlock backstop
            if injector is not None:
                injector.poll(children)
            if time.monotonic() > deadline:
                raise ProgressDeadlockError(
                    f"rank {dst} stopped reading its inbox within join_timeout="
                    f"{join_timeout}s (proc-backend deadlock backstop)"
                )

        def announce(rank: int, detail: str) -> None:
            pending.discard(rank)
            frame = mailbox.encode(("ctl", "rank_dead", rank, detail))
            for other in pending:
                try:
                    outbox.write(other, frame, 0.05, give_up)
                except BrokenPipeError:
                    pass  # exited too: its own verdict comes next

        while pending:
            now = time.monotonic()
            if now > deadline:
                raise ProgressDeadlockError(
                    f"rank processes {sorted(pending)} did not finish within "
                    f"join_timeout={join_timeout}s (proc-backend deadlock backstop)"
                )
            if injector is not None:
                injector.poll(children)
            watch = [children[r].sentinel for r in pending]
            connection.wait(
                watch if inbox.eof else [*watch, inbox.fd],
                deadline - now if injector is None else 0.05,
            )
            # a child has written its whole result before it exits, so
            # read the pipe after noting which children stopped
            stopped = [r for r in pending if not children[r].is_alive()]
            for rank, status, payload in inbox.read():
                if status == "ok":
                    pending.discard(rank)
                    results[rank] = payload
                    continue
                exc = (
                    payload
                    if isinstance(payload, BaseException)
                    else InternalError(f"rank {rank} failed: {payload}")
                )
                errors[rank] = exc
                # a raised child is as dead to its peers as a killed
                # one: it exits without serving further collectives
                announce(rank, f"raised {type(exc).__name__}")
            for r in stopped:
                if r in pending:
                    died[r] = children[r].exitcode
                    announce(r, f"exit code {children[r].exitcode}")
        return results, errors, died

    def make_world(self, runtime: "Runtime") -> "Comm":
        raise InternalError(
            "the proc backend's world communicator exists only inside "
            "rank processes (call it via spmd)"
        )

    def win_create(self, comm, local, disp_unit, strict, mpi3):
        raise InternalError(
            "proc-backend windows are created inside rank processes "
            "(call Win.create from spmd code)"
        )


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

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


def _child_main(
    rank: int,
    cfg: tuple,
    fn: Callable[..., Any],
    args: tuple,
    pipes: list[tuple[int, int]],
    lockdir: str,
    run_id: str,
) -> None:
    (
        nproc, watchdog_s, op_timeout_s, op_retries, seed,
        heartbeat_s, suspect_after, delays,
    ) = cfg
    # read only this rank's inbox: then a dead rank's inbox has no reader,
    # and writing to it fails at once
    for i, (r, _) in enumerate(pipes):
        if i != rank:
            os.close(r)
    backend = _ProcChildBackend(
        rank, nproc, mailbox.Outbox([w for _, w in pipes], lockdir), lockdir,
        run_id, heartbeat_s=heartbeat_s, suspect_after=suspect_after,
    )
    runtime = Runtime(
        nproc,
        watchdog_s=watchdog_s,
        op_timeout_s=op_timeout_s,
        op_retries=op_retries,
        seed=seed,
        backend=backend,
        apply_hooks=False,
        heartbeat_s=heartbeat_s,
        suspect_after=suspect_after,
    )
    # only this rank lives in this process: acknowledgement-based
    # recovery must not wait on the other ranks' replicas
    runtime.local_ranks = {rank}
    backend.runtime = runtime
    try:
        backend.attach_heartbeat(_hb_segment_name(run_id))
    except Exception:  # pragma: no cover - no shm: parent monitor still detects
        backend.hb_view = None
    _tls.proc = runtime.procs[rank]
    # built before the pump starts: a peer's revoke or vote is applied to
    # the registry that comes with the world
    world = Comm._world(runtime)
    stop = threading.Event()
    pump = threading.Thread(
        target=_pump, args=(backend, runtime, mailbox.Inbox(pipes[rank][0]), stop),
        name=f"pump-{rank}", daemon=True,
    )
    pump.start()
    status, payload = "ok", None
    try:
        if delays and rank in delays:
            # injected startup delay (repro.faults.proc); the pump is
            # already heartbeating, so peers see a slow rank, not a dead one
            time.sleep(delays[rank])
        payload = fn(world, *args)
    except BaseException as exc:  # noqa: BLE001 - marshalled to the parent
        # pickling drops __traceback__; carry the formatted one as a note
        try:
            exc.add_note(f"[rank {rank} traceback]\n{traceback.format_exc()}")
        except Exception:
            pass
        status, payload = "err", exc
    finally:
        try:
            frame = mailbox.encode((rank, status, payload))
        except Exception:
            # an unpicklable result: degrade to a description
            if status == "ok":
                status = "err"
                payload = (
                    f"rank {rank} returned an unpicklable result of type "
                    f"{type(payload).__name__}"
                )
            else:
                payload = f"{type(payload).__name__}: {payload}"
            frame = mailbox.encode((rank, status, payload))
        # clean up BEFORE reporting: once the result is posted the
        # parent may consider this child done and terminate stragglers,
        # which must not race the shared-memory unlinks
        stop.set()
        pump.join(timeout=1.0)
        backend.release_windows()
        backend.release_heartbeat()
        # tell peers this rank *finished* (stopped heartbeating on
        # purpose) before the parent can observe the exit
        for other in range(nproc):
            if other != rank:
                try:
                    backend.send_to(other, ("ctl", "rank_done", rank))
                except Exception:  # the peer is gone
                    pass
        # the parent reads until every rank reported: wait as long as it takes
        backend.outbox.write(nproc, frame, backend._tick)


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

# ---------------------------------------------------------------------------
# communicators
# ---------------------------------------------------------------------------

class ProcComm(Comm):
    """Per-process communicator replica: :class:`Comm` whose p2p and
    collectives run over the inbox pipes.

    Everything else — ``dup``/``split``/``create``, ``revoke``/``agree``/
    ``shrink`` — is :class:`Comm`'s, run on this process's replica.
    """

    def __init__(self, runtime: "Runtime", group: Group, ctx_key: tuple):
        super().__init__(runtime, group, ctx_key)
        self._backend: _ProcChildBackend = runtime.backend
        with runtime.cond:
            self._backend.register_engine(ctx_key, self._p2p)
        self._coll = _ProcCollEngine(self)

    # -- p2p -----------------------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self.runtime.check_self_alive()
        self._check_revoked()
        if tag < 0:
            raise TagError(f"send tag must be >= 0, got {tag}")
        dst_world = self.group.world_rank(dest)
        me = current_proc().rank
        if dst_world == me:
            with self.runtime.cond:
                self._p2p.post_send(me, dst_world, tag, payload)
            return
        with self.runtime.cond:
            if dst_world in self.runtime.dead_ranks:
                raise TargetFailedError(
                    f"send to failed rank {dest} (world {dst_world})"
                )
        # pickled into the pipe before this returns: the sender may reuse
        # its buffer at once
        self._backend.send_to(
            dst_world, ("p2p", self.context_id, me, dst_world, tag, payload)
        )

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        self.send(payload, dest, tag)
        with self.runtime.cond:
            req = Request(self._p2p)
            req._finish(None)
        return req

    # -- unsupported surfaces --------------------------------------------------
    def create_intercomm(self, *args: Any, **kw: Any):
        raise CommError(f"Comm.create_intercomm {_THREAD_ONLY}")


class _ProcCollEngine:
    """Gather-to-root / broadcast collectives over a reserved p2p engine.

    Compatible with :class:`~repro.mpi.collectives.CollectiveEngine.run`:
    called with the giant (process-local) lock held; returns
    ``compute(contribs)`` where ``contribs`` maps comm rank ->
    contribution.  *Every* process runs ``compute`` — object-building
    collectives (``armci_malloc``, ``win_free``) construct
    per-process replicas, which is exactly what a distributed runtime
    needs.  Contributions are inserted in rank order so dict-iteration
    dependent computes stay deterministic across processes.
    """

    def __init__(self, comm: ProcComm):
        self.comm = comm
        self._backend = comm._backend
        key = (comm.context_id, "__coll__")
        self._key = key
        self._p2p = P2PEngine(comm.runtime, key)
        with comm.runtime.cond:
            self._backend.register_engine(key, self._p2p)
        #: collective ordinal; doubles as the message tag so mismatched
        #: call sequences hang (-> join_timeout) instead of cross-matching
        self._seq = 0

    def run(
        self,
        rank: int,
        kind: str,
        contribution: Any,
        compute: Callable[[dict[int, Any]], Any],
    ) -> Any:
        rt = self.comm.runtime
        rt.check_self_alive()
        self.comm._check_revoked()
        seq = self._seq
        self._seq += 1
        size = self.comm.size
        if size == 1:
            return compute({0: contribution})
        me_world = current_proc().rank
        root_world = self.comm.group.world_rank(0)
        if rank == 0:
            arrived: dict[int, tuple[str, Any]] = {}
            for _ in range(size - 1):
                req = self._p2p.post_recv(me_world, ANY_SOURCE, seq, None)
                rt.wait_for(
                    lambda: req._done, what=f"collective {kind} (gather)"
                )
                if req._error is not None:
                    raise req._error
                peer_rank, peer_kind, peer_contrib = req._status.payload
                arrived[peer_rank] = (peer_kind, peer_contrib)
            contribs: dict[int, Any] = {0: contribution}
            for r in range(1, size):
                peer_kind, peer_contrib = arrived[r]
                if peer_kind != kind:
                    exc = InternalError(
                        f"collective mismatch: rank 0 in {kind!r}, "
                        f"rank {r} in {peer_kind!r}"
                    )
                    for r2 in range(1, size):
                        self._send(self.comm.group.world_rank(r2), seq, exc)
                    raise exc
                contribs[r] = peer_contrib
            blob = [(r, contribs[r]) for r in range(size)]
            for r in range(1, size):
                self._send(self.comm.group.world_rank(r), seq, (kind, blob))
        else:
            # post the receive first: the send lets go of runtime.cond, and
            # a revoke landing meanwhile fails posted receives (but drops
            # a result that arrived unmatched)
            req = self._p2p.post_recv(me_world, root_world, seq, None)
            self._send(root_world, seq, (rank, kind, contribution))
            rt.wait_for(lambda: req._done, what=f"collective {kind} (result)")
            if req._error is not None:
                raise req._error
            payload = req._status.payload
            if isinstance(payload, BaseException):
                raise payload
            root_kind, blob = payload
            if root_kind != kind:
                raise InternalError(
                    f"collective mismatch: rank {rank} in {kind!r}, "
                    f"rank 0 in {root_kind!r}"
                )
            contribs = {}
            for r, c in blob:
                contribs[r] = c
        return compute(contribs)

    def _send(self, dst_world: int, tag: int, payload: Any) -> None:
        me = current_proc().rank
        if dst_world == me:
            self._p2p.post_send(me, dst_world, tag, payload)
        else:
            self._backend.send_to(
                dst_world, ("p2p", self._key, me, dst_world, tag, payload)
            )

    def fail_all(self, exc: BaseException) -> None:
        self._p2p.fail_all(exc)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

#: one slot of a target's footprint table, the last footprint its origin
#: reserved there: its bounding box ``[lo, hi)`` (a quick test that
#: mostly settles disjointness), then its ``(step, seg_len, n)`` rows
#: from ``lo`` (all zero: none reserved yet)
_SLOT = struct.Struct("5q")


def _table_offset(nbytes: int) -> int:
    """Where a target's footprint table starts in its segment: after the
    exposed bytes, 8-byte aligned."""
    return -(-nbytes // 8) * 8


def _slots_overlap(a: tuple, b: tuple) -> bool:
    """Whether two footprint slots may share a byte.

    Exact when either is one row or both share a step (every GA piece of
    one array); otherwise the bounding boxes decide, which errs only
    towards "overlap" (as does reserving the bounding box of a footprint
    that is no progression).  Row ``i`` of ``a`` meets row ``j`` of ``b``
    iff ``-seg_len_b < d + k*step < seg_len_a`` with ``d = lo_b - lo_a``
    and ``k = j - i``, so the footprints meet iff that window of ``k``
    meets ``[1 - n_a, n_b - 1]``.
    """
    a0, a1, sa, la, na = a
    b0, b1, sb, lb, nb = b
    if b0 >= a1 or a0 >= b1:
        return False
    if na > 1 and nb > 1 and sa != sb:
        return True
    step = sa if na > 1 else sb
    d = b0 - a0
    return max(1 - na, -((lb + d - 1) // step)) <= min(nb - 1, (la - d - 1) // step)


def _try_flock(fd: int, op: int) -> "bool | None":
    """One nonblocking ``flock``: True if granted, None if held elsewhere."""
    try:
        fcntl.flock(fd, op)
    except OSError:
        return None
    return True


class _Reservation:
    """This origin's reservations on one target: the context manager
    :meth:`ProcWin._atomic_section` hands out, one per target, reused by
    every atomic op there (a rank process runs one op at a time, and none
    nests), with the slot of the op it guards."""

    __slots__ = ("win", "target_rank", "akey", "bkey", "buf", "mine", "peers", "slot", "fd")

    def __init__(
        self, win: "ProcWin", target_rank: int, buf: memoryview, table: int, nranks: int
    ):
        me, size, token = win._creator_rank, _SLOT.size, win._token
        self.win, self.target_rank, self.buf = win, target_rank, buf
        #: the ``.atomic`` and own busy lock keys
        self.akey, self.bkey = (token, target_rank, "atomic"), (token, target_rank, "busy%d" % me)
        #: the own slot's offset and every other origin's ``(rank, slot offset)``
        self.mine = table + me * size
        self.peers = [(r, table + r * size) for r in range(nranks) if r != me]
        self.slot: "tuple | None" = None
        self.fd: "int | None" = None

    def __enter__(self) -> None:
        if self.slot is not None:
            self.fd = self.attempt() or self.win._wait(
                self.attempt, "atomic reservation", self.target_rank
            )

    def __exit__(self, *exc) -> None:
        fd, self.fd = self.fd, None
        if fd is not None:
            self.win._lock_files.release(self.bkey, fd)

    def attempt(self) -> "int | None":
        """One attempt at reserving :attr:`slot`: the held busy flock's
        descriptor, or None when ``.atomic`` or an overlapping reservation
        is held elsewhere."""
        files, slot = self.win._lock_files, self.slot
        afd = files.take(self.akey)
        try:
            fcntl.flock(afd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            files.release(self.akey, afd, held=False)
            return None
        try:
            lo, hi = slot[0], slot[1]
            for origin, theirs in self.peers:
                other = _SLOT.unpack_from(self.buf, theirs)
                if (
                    other[0] < hi and lo < other[1]  # the bounding boxes first
                    and _slots_overlap(slot, other)
                    and self.win._busy(self.target_rank, origin)
                ):
                    return None
            _SLOT.pack_into(self.buf, self.mine, *slot)
            bfd = files.take(self.bkey)
            # granted at once: a peer probes it only under .atomic
            fcntl.flock(bfd, fcntl.LOCK_EX)
            return bfd
        finally:
            files.release(self.akey, afd)


class ProcWin(Win):
    """A window whose memory is shared-memory segments, locks are flocks.

    Every rule and all epoch bookkeeping are :class:`Win`'s, kept
    process-local; this class supplies only where the memory lives and
    what a lock is.  The *mutual exclusion* between processes comes from
    three families of ``fcntl.flock`` files under the run's lock
    directory, held through this process's :class:`_LockFiles`
    descriptors and always taken in the order ``.lock`` → ``.atomic`` →
    busy, so they cannot deadlock:

    * ``<token>.t<target>.lock`` — the passive-target epoch lock, taken
      by :meth:`_acquire` (``LOCK_SH``/``LOCK_EX`` mirroring
      shared/exclusive) for ``lock`` and, shared, on every target for
      ``lock_all``, like ``MPI_Win_lock_all``.
    * ``<token>.t<target>.atomic`` — guards the target's *footprint
      table* (one :data:`_SLOT` per origin, after the exposed bytes of
      its segment) for the few syscalls it takes to reserve a footprint.
    * ``<token>.t<target>.busy<origin>`` — held by ``origin`` while it
      runs the read-modify-write of an accumulate/fetch_and_op/
      compare_and_swap whose footprint its slot records.

    So atomics are atomic across processes even inside shared epochs
    (like real MPI, conflicting plain put/put under shared locks is the
    user's race, atomics are the runtime's job), and ones with disjoint
    footprints run at the same time: see :meth:`_atomic_section`.
    """

    # Win's own functions, not overrides: named here only because the e2e
    # benchmark's span tracer (benchmarks/e2e/spans.py) wraps them by
    # looking them up in this class's namespace
    lock, unlock = Win.lock, Win.unlock
    accumulate, fetch_and_op = Win.accumulate, Win.fetch_and_op

    def __init__(
        self,
        comm: Comm,
        buffers: list[np.ndarray],
        disp_units: list[int],
        strict: bool = True,
        mpi3: bool = False,
        *,
        segments: list,
        tables: "list[tuple[memoryview, int]]",
        creator_rank: int,
        token: str,
        lock_files: _LockFiles,
    ):
        super().__init__(comm, buffers, disp_units, strict=strict, mpi3=mpi3)
        self._segments = segments
        self._creator_rank = creator_rank
        self._token = token
        self._lock_files = lock_files
        self._released = False
        #: per target, this origin's reservation there
        self._reservations = [
            _Reservation(self, t, buf, table, len(tables))
            for t, (buf, table) in enumerate(tables)
        ]

    # -- the lock primitive --------------------------------------------------
    def _wait(self, attempt: Callable[[], Any], what: str, target_rank: int) -> Any:
        """Repeat ``attempt`` — a nonblocking probe that returns a result,
        or None while what it waits for is held elsewhere — until it
        succeeds, and return its result.  Called after a first attempt
        failed, so a free lock never pays for the loop.

        Waits under ``runtime.cond`` (entered here, whether or not the
        caller holds it) and sleeps in ``runtime.sleep`` (a wait on the
        condition), which lets go of it for the pump thread.  A survivor
        stuck behind a dead peer's lock still observes ``runtime.failed``
        (set by the pump on a ``rank_dead`` message or a heartbeat
        verdict) and raises :class:`RankFailedError`.  A *dead* holder's
        flock self-reclaims (the kernel drops it); a *stalled*
        (SIGSTOPped) holder keeps it, and with ``op_timeout_s`` set the
        wait gives up with :class:`OpTimeoutError` — one deadline for the
        whole wait, however many attempts it makes.  Attempts come along
        :data:`~repro.backoff.FLOCK_WAIT`, so a wait costs about what the
        holder holds, not a flat 2 ms.
        """
        rt = self.runtime
        deadline = (
            None if rt.op_timeout_s is None
            else time.monotonic() + rt.op_timeout_s
        )
        with rt.giant_lock:
            for n in itertools.count():
                if rt.failed is not None:
                    raise RankFailedError(f"rank failed elsewhere: {rt.failed!r}")
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise OpTimeoutError(
                        f"win {self.win_id} {what} (target {target_rank}) "
                        f"timed out after {rt.op_timeout_s}s (holder "
                        "stalled but alive?)"
                    )
                # a progress notification wakes the wait early; the
                # next attempt still comes on the curve
                wake = now + FLOCK_WAIT.delay(n)
                while (left := wake - time.monotonic()) > 0:
                    rt.sleep(left)
                result = attempt()
                if result is not None:
                    return result

    def _acquire(self, origin: int, target_rank: int, mode: str) -> tuple:
        """Take ``target_rank``'s epoch flock; returns the ``(key,
        descriptor)`` pair that ``_LockFiles.release`` takes back."""
        key = (self._token, target_rank, "lock")
        fd = self._lock_files.take(key)
        op = (fcntl.LOCK_EX if mode == LOCK_EXCLUSIVE else fcntl.LOCK_SH) | fcntl.LOCK_NB
        try:
            _try_flock(fd, op) or self._wait(
                lambda: _try_flock(fd, op), "lock flock", target_rank
            )
        except BaseException:
            self._lock_files.release(key, fd)
            raise
        return key, fd

    def _release(self, epoch) -> None:
        self._lock_files.release(*epoch.lock)

    def _atomic_section(self, target_rank: int, slot: "tuple | None") -> "_Reservation":
        """``with`` block in which this origin holds a reservation of the
        ``slot`` rows of ``target_rank``'s memory (the op's footprint, as
        the op derived it: see ``window._footprint_slot``).

        Entering reserves — inside the origin's epoch, so the locks are
        taken in the order ``.lock`` → ``.atomic`` → busy — under the
        target's ``.atomic`` flock: if the slot of another origin
        overlaps (:func:`_slots_overlap`) and that origin's busy flock is
        held — probed without blocking — it lets ``.atomic`` go and
        tries again along the one deadline of
        :meth:`_wait`; otherwise it writes its own slot, takes its own
        busy flock and lets ``.atomic`` go.  The read-modify-write then
        runs outside any shared lock, and leaving is a single
        ``flock(LOCK_UN)`` of the busy file: releasing through the kernel
        lock, not a store to shared memory, is what orders the RMW before
        a later reserver's read on every architecture.  A slot is never
        cleared: a finished — or dead, the kernel drops its flocks —
        origin's slot reads as free because its busy flock is.  A
        zero-byte footprint reserves nothing.

        Rejected, do not redo: a *publish-then-check* reservation (write
        the own slot, flock the own busy file, then read the peers'
        slots, with no ``.atomic``) took a reservation from 7.1 to 4.1 µs
        on the 2-CPU reference host, but two origins that publish at once
        must each see the other's slot, which needs a store→load fence
        between the write and the reads.  A kernel flock orders only as
        release/acquire, so on a weakly ordered CPU both could read the
        other's slot stale and run overlapping read-modify-writes.
        """
        res = self._reservations[target_rank]
        res.slot = slot
        return res

    def _busy(self, target_rank: int, origin: int) -> bool:
        """Whether ``origin`` holds its busy flock on ``target_rank``: a
        nonblocking shared probe, let go at once."""
        files = self._lock_files
        key = (self._token, target_rank, "busy%d" % origin)
        fd = files.take(key)
        if _try_flock(fd, fcntl.LOCK_SH | fcntl.LOCK_NB):
            files.release(key, fd)
            return False
        files.release(key, fd, held=False)
        return True

    # -- teardown ------------------------------------------------------------
    def free_with(self, on_free) -> Any:
        result = super().free_with(on_free)
        self._release_segments()
        return result

    def invalidate(self) -> None:
        super().invalidate()
        self._release_segments()

    def _release_segments(self) -> None:
        """Detach the shared-memory segments; the creator unlinks its own.

        Peers' mappings stay valid after an unlink (POSIX), so a rank
        finishing early never pulls memory out from under survivors —
        only *new* attachments become impossible, and window creation is
        collective, so there are none.
        """
        if self._released:
            return
        self._released = True
        self._lock_files.forget(self._token)
        self._buffers = [np.empty(0, dtype=np.uint8) for _ in self._buffers]
        self._reservations = []
        segments, self._segments = self._segments, []
        for r, seg in enumerate(segments):
            if r == self._creator_rank:
                try:
                    # the parent's teardown sweep can consume the
                    # (set-valued) tracker entry before this unlink's own
                    # unregister arrives; re-registering is idempotent and
                    # keeps the tracker from warning
                    resource_tracker.register(seg._name, "shared_memory")
                    seg.unlink()
                except FileNotFoundError:
                    pass
            try:
                seg.close()
            except BufferError:
                # a live external view (user-held local_view) pins the
                # mapping; the OS reclaims it at process exit
                pass
