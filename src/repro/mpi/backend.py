"""Runtime execution backends: how simulated ranks map onto the OS.

The :class:`~repro.mpi.runtime.Runtime` delegates three decisions to a
pluggable backend object (and, through :meth:`RuntimeBackend.idle`, how
a blocked rank waits):

* **spmd** — how the N rank bodies execute (threads under the giant
  lock, or one OS process per rank),
* **make_world** — what the world communicator is (the plain shared
  :class:`~repro.mpi.comm.Comm`, or a process-local replica that routes
  messages through OS queues),
* **win_create** — where window memory lives (the caller's NumPy arrays
  or ``np.zeros``, or ``multiprocessing.shared_memory`` segments every
  rank attaches).

``backend="thread"`` (the default, :class:`ThreadBackend`) is the
deterministic path every checking layer is built on: ranks are threads
sharing one address space, so the sanitizer, the schedule fuzzer, fault
injection, and the watchdog all see every rank's state.  The
``backend="proc"`` alternative (:mod:`repro.mpi.backend_proc`) trades
those cross-rank checks for true multi-core parallelism.  See
``docs/backends.md`` for the full comparison.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .comm import Comm
    from .runtime import Runtime
    from .window import Win

__all__ = ["RuntimeBackend", "ThreadBackend", "BACKENDS", "resolve_backend"]


class RuntimeBackend(ABC):
    """The three extension points a rank-execution backend provides."""

    #: short identifier (``"thread"`` / ``"proc"``) used in config
    #: validation and error messages
    name: str = "abstract"

    @abstractmethod
    def spmd(
        self,
        runtime: "Runtime",
        fn: Callable[..., Any],
        args: tuple,
        join_timeout: float,
    ) -> list[Any]:
        """Run ``fn(comm, *args)`` on every rank; return per-rank results."""

    @abstractmethod
    def make_world(self, runtime: "Runtime") -> "Comm":
        """Build the world communicator ``spmd`` hands to every rank."""

    @abstractmethod
    def win_create(
        self,
        comm: "Comm",
        local: "np.ndarray | int",
        disp_unit: int,
        strict: bool,
        mpi3: bool,
    ) -> "Win":
        """Collective window creation, the body of ``Win.create`` and
        ``Win.allocate``: ``local`` is this rank's flat byte view to
        expose (``Win.create``) or the byte count of zeroed memory for
        the backend to allocate (``Win.allocate``)."""

    def idle(self, runtime: "Runtime", timeout: float) -> bool:
        """How a rank blocked in :meth:`Runtime.wait_for` waits for progress
        (called with ``runtime.cond`` held, which it lets go meanwhile): up
        to ``timeout`` seconds, False only if nothing woke it.  Here, a
        sleep on the condition until the next ``notify_progress``."""
        return runtime.sleep(timeout)


class ThreadBackend(RuntimeBackend):
    """Ranks as OS threads under the giant lock (the deterministic path).

    This is the historical runtime verbatim: one shared address space,
    every MPI state transition linearised by ``runtime.cond``, windows
    aliasing the caller's NumPy buffers.  The deterministic scheduler,
    the RMA sanitizer, and the fault injector all assume this backend —
    they observe and steer *all* ranks from one process.
    """

    name = "thread"

    def make_world(self, runtime: "Runtime") -> "Comm":
        from .comm import Comm
        from .group import Group

        return Comm(runtime, Group(range(runtime.nproc)), ("w",))

    def spmd(
        self,
        runtime: "Runtime",
        fn: Callable[..., Any],
        args: tuple,
        join_timeout: float,
    ) -> list[Any]:
        from .comm import Comm  # deferred: comm.py imports runtime
        from .runtime import Proc, RankFailedError, RankKilledError, _tls
        from .errors import ProgressDeadlockError

        world = Comm._world(runtime)
        results: list[Any] = [None] * runtime.nproc
        if runtime.schedule is not None:
            runtime.schedule.begin_run(runtime)
        if runtime.faults is not None:
            runtime.faults.begin_run(runtime)

        def body(proc: "Proc") -> None:
            _tls.proc = proc
            try:
                if runtime.schedule is not None:
                    with runtime.cond:
                        runtime.schedule.thread_started(proc.rank)
                results[proc.rank] = fn(world, *args)
            except RankKilledError as exc:
                # injected death: record it on the proc but do not poison
                # the run — survivors must be able to finish (or raise
                # their own typed TargetFailedError).
                with runtime.cond:
                    proc.exception = exc
                    runtime.mark_dead(proc.rank)
            except BaseException as exc:  # noqa: BLE001 - propagated to caller
                with runtime.cond:
                    proc.exception = exc
                    if runtime.failed is None and not isinstance(exc, RankFailedError):
                        runtime.failed = exc
                    runtime.notify_progress()
            finally:
                with runtime.cond:
                    proc.finished = True
                    if runtime.schedule is not None:
                        runtime.schedule.thread_finished(proc.rank)
                    runtime._maybe_clear_dead_stall()
                    runtime.notify_progress()
                _tls.proc = None

        threads = [
            threading.Thread(target=body, args=(p,), name=f"rank-{p.rank}", daemon=True)
            for p in runtime.procs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=join_timeout)
        if any(t.is_alive() for t in threads):
            with runtime.cond:
                if runtime.failed is None:
                    runtime.failed = ProgressDeadlockError(
                        "rank threads did not finish within join_timeout"
                    )
                runtime._deadlocked = True
                runtime.notify_progress()
            # grace period scales with the caller's patience budget instead
            # of a hard-coded constant: a long join_timeout implies a slow
            # workload whose poisoned ranks also need longer to unwind
            grace = max(1.0, min(join_timeout / 4.0, 30.0))
            for t in threads:
                t.join(timeout=grace)
        if runtime.failed is not None:
            raise runtime.failed
        for p in runtime.procs:
            if p.exception is not None and not isinstance(p.exception, RankKilledError):
                raise p.exception
        return results

    def win_create(
        self,
        comm: "Comm",
        local: "np.ndarray | int",
        disp_unit: int,
        strict: bool,
        mpi3: bool,
    ) -> "Win":
        from .window import Win

        view = np.zeros(local, dtype=np.uint8) if isinstance(local, int) else local
        contribs = comm.allgather((view, disp_unit))

        def build() -> "Win":
            buffers = [c[0] for c in contribs]
            units = [c[1] for c in contribs]
            return Win(comm, buffers, units, strict=strict, mpi3=mpi3)

        # second rendezvous so every rank shares ONE Win object
        with comm.runtime.cond:
            win = comm._coll.run(comm.rank, "win_create", None, lambda _c: build())
        return win


def _proc_backend() -> RuntimeBackend:
    from .backend_proc import ProcBackend

    return ProcBackend()


#: backend registry: name -> zero-argument factory
BACKENDS: dict[str, Callable[[], RuntimeBackend]] = {
    "thread": ThreadBackend,
    "proc": _proc_backend,
}


def resolve_backend(spec: "str | RuntimeBackend | None") -> RuntimeBackend:
    """Resolve a backend spec (name, instance, or None) to an instance."""
    if spec is None:
        return ThreadBackend()
    if isinstance(spec, RuntimeBackend):
        return spec
    factory = BACKENDS.get(spec)
    if factory is None:
        from .errors import ArgumentError

        raise ArgumentError(
            f"unknown runtime backend {spec!r}; expected one of "
            f"{sorted(BACKENDS)} or a RuntimeBackend instance"
        )
    return factory()
