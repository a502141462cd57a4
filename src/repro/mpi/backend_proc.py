"""Process-parallel runtime backend: one OS process per rank.

``Runtime(nproc, backend="proc")`` escapes the GIL: every rank is a
forked child process, window memory lives in
``multiprocessing.shared_memory`` segments (the MPI-3
``MPI_Win_allocate_shared`` analogue from Hammond et al., PAPERS.md),
and puts/gets are true cross-process memory traffic.  A rank process's
parts are :mod:`~repro.mpi.proc_child`, :mod:`~repro.mpi.proc_comm` and
:mod:`~repro.mpi.proc_win`; this module launches and monitors them.

* **Parent** (:class:`ProcBackend`): creates one inbox pipe per rank, a
  result pipe (:mod:`repro.mpi.mailbox`) and the run's shared-memory
  segment (the heartbeat leases; its byte ``i`` is also pipe ``i``'s
  write lock, so a run makes no file outside ``/dev/shm``), forks the
  children, then runs a monitor loop — collecting per-rank results,
  broadcasting a ``rank_dead`` control message when a child exits
  abnormally (so survivors raise
  :class:`~repro.mpi.runtime.RankFailedError`, the cross-process
  analogue of ``mark_dead``), delivering an installed
  fault plan's ``after_s`` kills and stalls as real ``SIGKILL`` /
  ``SIGSTOP``+``SIGCONT`` (``repro.faults.proc``), and enforcing
  ``join_timeout`` as the deadlock backstop (the thread watchdog cannot
  see other processes).
* **Child** (:func:`_child_main`): builds a private :class:`Runtime`
  *replica* (``apply_hooks=False`` — ambient sanitizer/fuzzer/fault
  hooks must not silently duplicate into processes they cannot
  observe), a :class:`ProcComm` world, and a pump thread that drains
  this rank's inbox pipe into the local p2p engines.

What the proc backend does **not** support — by design, raising typed
errors rather than misbehaving: the deterministic scheduler and fuzzer,
the RMA sanitizer, the fault-plan entries keyed to fuzz points or RMA
op counts (``point=`` kills and stalls, corrupt/drop, delay — fuzz
points do not exist across processes; ``FaultInjector.begin_run``
names the entry), and intercommunicators.  ``docs/backends.md`` has
the full matrix.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import traceback
from multiprocessing import connection, get_context, resource_tracker, shared_memory
from typing import Any, Callable

from ..faults.proc import ProcSignals, sweep_stale_segments
from . import mailbox
from .backend import RuntimeBackend
from .comm import Comm
from .errors import CommRevokedError, InternalError, ProgressDeadlockError, TargetFailedError
from .proc_child import _attach_untracked, _hb_segment_name, _ProcChildBackend, _pump
from .proc_comm import _THREAD_ONLY, ProcComm
from .proc_win import ProcWin
from .runtime import RankFailedError, Runtime, _tls

__all__ = ["ProcBackend", "ProcComm", "ProcWin"]


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
        faults = runtime.faults
        if faults is not None:
            # rejects the entries only threads run, and ranks the run lacks
            faults.begin_run(runtime)
        nproc = runtime.nproc
        ctx = get_context("fork")
        # names this run's segments, so a leak check can tell this
        # process's leftovers from a concurrent run's
        run_id = f"{os.getpid()}x{next(self._run_counter)}"
        # one inbox pipe per rank, then the result channel to this process
        pipes = [os.pipe2(os.O_NONBLOCK | os.O_CLOEXEC) for _ in range(nproc + 1)]
        ends = {fd for pair in pipes for fd in pair}
        locks = signals = None
        # the run's segment: per-rank heartbeat leases, nproc slots of
        # (pid, monotonic_ns), created zeroed here so every child can
        # attach before its peers have written anything; its byte i is
        # also pipe i's write lock (mailbox.Outbox)
        hb_seg = shared_memory.SharedMemory(
            name=_hb_segment_name(run_id), create=True, size=max(16 * nproc, 16)
        )
        # one CPU per rank when the ranks fill the usable CPUs exactly (an
        # MPI launcher's binding to cores): left to itself the scheduler
        # runs a rank woken by a peer's message on the peer's CPU, and two
        # ranks then share one CPU while the other idles.  With CPUs to
        # spare nothing is bound: a bound rank's BLAS threads would share
        # its one CPU, and concurrent runs would all pile onto the first
        usable = sorted(os.sched_getaffinity(0))
        cpus = usable if nproc == len(usable) else [None] * nproc
        cfg = (
            runtime.nproc,
            runtime.watchdog_s,
            runtime.op_timeout_s,
            runtime.op_retries,
            runtime.seed,
            runtime.heartbeat_s,
            runtime.suspect_after,
        )
        children = [
            ctx.Process(
                target=_child_main,
                args=(r, cfg, fn, args, pipes, run_id, cpus[r]),
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
            # locked through an attachment of its own: every child shares
            # the creating descriptor's locks, inherited over the fork
            locks = _attach_untracked(hb_seg.name)
            outbox = mailbox.Outbox([w for _, w in pipes[:nproc]], locks._fd)
            if faults is not None and not faults.plan.empty:
                signals = ProcSignals(faults.plan, faults.events, children)
            results, errors, died = self._monitor(
                children, outbox, mailbox.Inbox(pipes[nproc][0]),
                join_timeout, signals,
            )
        finally:
            if signals is not None:
                # un-stall before terminating: a SIGSTOPped child cannot
                # handle SIGTERM
                signals.finish()
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
            if locks is not None:
                locks.close()
            for fd in ends:
                os.close(fd)
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
        if died and results and not errors:
            missing = [
                r for r in range(nproc) if r not in died and r not in results
            ]
            if not missing:
                # every survivor completed (and there was one): a recovered
                # run.  Results for dead ranks are None — the shrunken grid
                # finished the job.
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
        signals: "ProcSignals | None" = None,
    ) -> tuple[dict[int, Any], dict[int, BaseException], dict[int, "int | None"]]:
        """Collect results, detect silent deaths, broadcast ``rank_dead``.

        Sleeps until a result arrives or a pending child exits; with a
        fault plan's signals to deliver (they fire from here), for at
        most 50 ms at a time.
        """
        results: dict[int, Any] = {}
        errors: dict[int, BaseException] = {}
        died: dict[int, "int | None"] = {}
        pending = set(range(len(children)))
        deadline = time.monotonic() + join_timeout

        def give_up(dst: int, since: float) -> None:
            # a child's full inbox: keep the signals firing, and give up
            # at the deadlock backstop
            if signals is not None:
                signals.poll()
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
            if signals is not None:
                signals.poll()
            watch = [children[r].sentinel for r in pending]
            connection.wait(
                watch if inbox.eof else [*watch, inbox.fd],
                deadline - now if signals is None else 0.05,
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


def _child_main(
    rank: int,
    cfg: tuple,
    fn: Callable[..., Any],
    args: tuple,
    pipes: list[tuple[int, int]],
    run_id: str,
    cpu: "int | None",
) -> None:
    (
        nproc, watchdog_s, op_timeout_s, op_retries, seed,
        heartbeat_s, suspect_after,
    ) = cfg
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # before the pump: it inherits it
    # read only this rank's inbox: then a dead rank's inbox has no reader,
    # and writing to it fails at once
    for i, (r, _) in enumerate(pipes):
        if i != rank:
            os.close(r)
    # the run's segment, attached after the fork: this process's own
    # descriptor, so its pipe write locks exclude the other processes'
    run_seg = _attach_untracked(_hb_segment_name(run_id))
    backend = _ProcChildBackend(
        rank, nproc, mailbox.Outbox([w for _, w in pipes], run_seg._fd),
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
    backend.inbox = mailbox.Inbox(pipes[rank][0], wakeable=True)
    backend.attach_heartbeat(run_seg)
    _tls.proc = runtime.procs[rank]
    # built before the pump starts: a peer's revoke or vote is applied to
    # the registry that comes with the world
    world = Comm._world(runtime)
    stop = threading.Event()
    pump = threading.Thread(
        target=_pump, args=(backend, runtime, stop),
        name=f"pump-{rank}", daemon=True,
    )
    pump.start()
    status, payload = "ok", None
    try:
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
        # stop heartbeating; the segment stays mapped for the writes below
        backend.hb_view = None
        # tell peers this rank *finished* (stopped heartbeating on
        # purpose), and which ranks it knew dead, before the parent can
        # observe the exit
        done = ("ctl", "rank_done", rank, sorted(runtime.dead_ranks))
        for other in range(nproc):
            if other != rank:
                try:
                    backend.send_to(other, done)
                except Exception:  # the peer is gone
                    pass
        # the parent reads until every rank reported: wait as long as it takes
        backend.outbox.write(nproc, frame, backend._tick)
