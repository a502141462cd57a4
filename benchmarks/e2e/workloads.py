"""Workload table, seeded inputs, rank programs and oracles of the e2e benchmark.

Load model (all workloads): a closed loop.  The SPMD ranks are the
clients; each of :data:`NRANKS` ranks issues its next operation when the
previous one returns, and the parent only waits.  Inputs come from
``numpy.random.default_rng([seed, rank])``; the program under test sees
only the generated operations.

Patch workloads never race: rank ``r`` works only inside its private
*column* band ``[r*BAND, (r+1)*BAND)``, which spans both owners' row
blocks (grid ``[2, 1]``), because concurrent overlapping puts under the
mpi3 shared ``lock_all`` are an ``RMAConflictError``.  That also gives
the oracle: each rank replays its own stream in numpy and the global
array must equal the replay exactly (integer-valued data).

Calibrated time.  The reference sandbox shares its two vCPUs with other
tenants: identical runs differ by 10-15 % and drift by 30 % over minutes,
and a pure-Python loop slows down by the same factor at the same moment.
CPU-bound workloads therefore run a fixed :func:`calibrate` kernel
between ops (every ``calib_every`` ops, under 1 % of the time) and divide
each op's wall time by the host-speed factor measured around it.  A
calibrated second is a wall second on a host where the kernel takes
:data:`CALIB_REF_S`.  That halves the run-to-run spread.  The one
workload whose op time is sleeps and polls, not CPU, stays in wall time.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

import spans
from repro.armci import Armci
from repro.ga import GlobalArray, SharedCounter, fill
from repro.mpi.window import Win
from repro.nwchem import CcsdDriver, CcsdProblem
from repro.nwchem.reference import coupling_matrix, denominator_matrix, ring_ccd_dense

#: never more ranks than cores on the 2-core reference host
NRANKS = 2
ROWS = COLS = 2048
HALF = ROWS // NRANKS  # rows per owner block
BAND = COLS // NRANKS  # private column band per rank
FILL = 1.0
POOL = 8  # distinct payload patches per rank
POST_GETS = 64
GET, PUT, ACC = 0, 1, 2
#: energies must match the dense reference to this relative tolerance
ENERGY_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "patch" | "nxtval" | "ccsd"
    backend: str
    datapath: str
    #: ops per rank in each section (untraced, traced) of the traced pass;
    #: a constant, so span call counts repeat exactly for a seed
    trace_ops: int
    #: cap on ops per rank in the time-bounded section of the untraced pass
    max_ops: int
    #: back-to-back set-up cycles behind ``setup_s`` (0.1 to 2 s in all)
    setup_cycles: int
    #: ops between two host-speed samples; 0 = report plain wall time
    calib_every: int
    patch: int = 0
    op_cycle: tuple = ()
    #: run under the deterministic scheduler with the RMA sanitizer
    checked: bool = False


WORKLOADS = [
    Workload(
        "small_proc_mpi3",
        "2 KiB get/put/acc on proc+mpi3: pure per-op software overhead of the production config",
        "patch", "proc", "mpi3", trace_ops=4000, max_ops=400_000,
        setup_cycles=30, calib_every=16, patch=16, op_cycle=(GET, PUT, ACC),
    ),
    Workload(
        "small_thread_mpi2",
        "same op stream on thread+mpi2: swaps epoch mechanism and backend under the same ga/armci",
        "patch", "thread", "mpi2", trace_ops=2500, max_ops=250_000,
        setup_cycles=100, calib_every=16, patch=16, op_cycle=(GET, PUT, ACC),
    ),
    Workload(
        "small_checked_thread",
        "same stream under the deterministic scheduler + RmaSanitizer: prices the checking hooks",
        "patch", "thread", "mpi3", trace_ops=2000, max_ops=200_000,
        setup_cycles=100, calib_every=16, patch=16, op_cycle=(GET, PUT, ACC), checked=True,
    ),
    Workload(
        "large_getput_proc",
        "2 MiB get/put on proc+mpi3 (cache-resident): bytes dominate, per-op overhead must not show",
        "patch", "proc", "mpi3", trace_ops=1000, max_ops=100_000,
        setup_cycles=30, calib_every=4, patch=512, op_cycle=(GET, PUT),
    ),
    Workload(
        "large_acc_proc",
        "2 MiB acc on proc+mpi3: the same copy layers used as read-modify-write",
        "patch", "proc", "mpi3", trace_ops=80, max_ops=10_000,
        setup_cycles=30, calib_every=1, patch=512, op_cycle=(ACC,),
    ),
    Workload(
        "nxtval_proc_mpi2",
        "shared-counter storm on proc+mpi2: pure synchronisation (mutex RMW, p2p handoff, flock)",
        "nxtval", "proc", "mpi2", trace_ops=1000, max_ops=150_000,
        setup_cycles=100, calib_every=0,
    ),
    Workload(
        "ccsd_proxy",
        "CCSD proxy iterations on proc+mpi3: how much of a layer gain survives dilution by compute",
        "ccsd", "proc", "mpi3", trace_ops=2, max_ops=60,
        setup_cycles=20, calib_every=1,
    ),
]
BY_NAME = {w.name: w for w in WORKLOADS}


# ---------------------------------------------------------------------------
# rank programs: setup -> op(i) ... -> verify -> teardown
# ---------------------------------------------------------------------------


class Program:
    """What the rank bodies drive: ``setup -> populate -> op(i)... -> verify -> teardown``."""

    def populate(self) -> None:
        """Untimed initialisation of the data ``setup`` allocated."""


class PatchProgram(Program):
    """Round-robin ``ga.get/put/acc`` of square patches inside the rank's band."""

    def __init__(self, wl: Workload, seed: int, rank: int, n_ops: int):
        self.wl, self.rank = wl, rank
        p = wl.patch
        rng = np.random.default_rng([seed, rank])
        self.kinds = np.resize(np.array(wl.op_cycle), n_ops).tolist()
        self.rows = _row_origins(rng, n_ops, p, rank).tolist()
        self.cols = (rank * BAND + rng.integers(0, BAND - p + 1, n_ops)).tolist()
        self.picks = rng.integers(0, POOL, n_ops).tolist()
        self.pool = rng.integers(-4, 5, (POOL, p, p)).astype("f8")
        post = np.random.default_rng([seed, rank, 1])
        self.post_rows = _row_origins(post, POST_GETS, p, rank).tolist()
        self.post_cols = (rank * BAND + post.integers(0, BAND - p + 1, POST_GETS)).tolist()
        self.buf = np.empty((p, p), dtype="f8")
        self.bytes_per_op = p * p * 8
        self.armci = self.ga = None

    def setup(self, comm) -> None:
        self.armci = Armci.init(comm, datapath=self.wl.datapath)
        self.ga = GlobalArray.create(self.armci, (ROWS, COLS), "f8")
        self.armci.barrier()

    def populate(self) -> None:
        """The initial fill: the first touch of the array's pages.  Kept out
        of ``setup`` (and so out of ``setup_s``) because on the thread
        backend it is 8192 page faults through the hypervisor, which took
        9 ms, 170 ms or 1.2 s per cycle depending on the host's mood."""
        fill(self.ga, FILL)

    def teardown(self) -> None:
        self.ga.destroy()
        self.armci.finalize()

    def op(self, i: int) -> None:
        r, c, p = self.rows[i], self.cols[i], self.wl.patch
        kind = self.kinds[i]
        if kind == GET:
            self.ga.get((r, c), (r + p, c + p), out=self.buf)
        elif kind == PUT:
            self.ga.put((r, c), (r + p, c + p), self.pool[self.picks[i]])
        else:
            self.ga.acc((r, c), (r + p, c + p), self.pool[self.picks[i]])

    def replay(self, n_done: int) -> np.ndarray:
        """The rank's band after its first ``n_done`` ops, computed in numpy."""
        band = np.full((ROWS, BAND), FILL)
        p, c0 = self.wl.patch, self.rank * BAND
        for i in range(n_done):
            kind = self.kinds[i]
            if kind == GET:
                continue
            r, c = self.rows[i], self.cols[i] - c0
            if kind == PUT:
                band[r : r + p, c : c + p] = self.pool[self.picks[i]]
            else:
                band[r : r + p, c : c + p] += self.pool[self.picks[i]]
        return band

    def floor_us(self) -> float:
        """Median numpy strided copy of one patch between local arrays."""
        local = np.full((ROWS, BAND), FILL)
        p, c0 = self.wl.patch, self.rank * BAND
        times = []
        for i in range(min(200, len(self.rows))):
            r, c = self.rows[i], self.cols[i] - c0
            t0 = time.perf_counter()
            self.buf[...] = local[r : r + p, c : c + p]
            times.append(time.perf_counter() - t0)
        return float(np.median(times)) * 1e6

    def verify(self, n_done: int) -> dict:
        band = self.replay(n_done)
        p, c0 = self.wl.patch, self.rank * BAND
        self.armci.barrier()
        mismatches = 0
        for r, c in zip(self.post_rows, self.post_cols):
            got = self.ga.get((r, c), (r + p, c + p))
            mismatches += not np.array_equal(got, band[r : r + p, c - c0 : c - c0 + p])
        final = self.ga.get((0, c0), (ROWS, c0 + BAND))
        mismatches += not np.array_equal(final, band)
        return {"mismatches": int(mismatches)}


def _row_origins(rng, n: int, p: int, rank: int) -> np.ndarray:
    """Row origins: 1/3 entirely local, 1/3 entirely remote, 1/3 straddling
    the owner boundary (two ``put_s`` pieces — the paper's Fig. 2 case)."""
    place = rng.integers(0, 3, n)
    u = rng.integers(0, 1 << 30, n)
    inside = u % (HALF - p + 1)
    return np.where(
        place == 0, rank * HALF + inside,
        np.where(place == 1, (1 - rank) * HALF + inside, HALF - p + 1 + u % (p - 1)),
    )


class NxtvalProgram(Program):
    """Both ranks draw tickets from one rank-0-hosted shared counter."""

    bytes_per_op = 8

    def __init__(self, wl: Workload, seed: int, rank: int, n_ops: int):
        self.wl = wl
        self.tickets: "list[int]" = []
        self.armci = self.counter = None

    def setup(self, comm) -> None:
        self.armci = Armci.init(comm, datapath=self.wl.datapath)
        self.counter = SharedCounter(self.armci, host=0)
        self.counter.reset()

    def teardown(self) -> None:
        self.counter.destroy()
        self.armci.finalize()

    def op(self, i: int) -> None:
        self.tickets.append(self.counter.next())

    def floor_us(self) -> float:
        """A local fetch-and-add on a numpy int64 cell."""
        cell = np.zeros(1, dtype="i8")
        reps = 1000
        t0 = time.perf_counter()
        for _ in range(reps):
            old = int(cell[0])
            cell[0] = old + 1
        return (time.perf_counter() - t0) / reps * 1e6

    def verify(self, n_done: int) -> dict:
        self.armci.barrier()
        return {"tickets": self.tickets}


def ticket_errors(per_rank_tickets: "list[list[int]]") -> int:
    """Tickets of all ranks must be exactly ``range(total)``: count the misses."""
    drawn = np.sort(np.concatenate([np.asarray(t, dtype="i8") for t in per_rank_tickets]))
    return int(np.count_nonzero(drawn != np.arange(len(drawn))))


class CcsdProgram(Program):
    """One op = one ``CcsdDriver.iterate()`` (collective across the ranks)."""

    NO, NV, TILE = 8, 96, 64

    def __init__(self, wl: Workload, seed: int, rank: int, n_ops: int):
        self.wl, self.seed = wl, seed
        self.problem = CcsdProblem(no=self.NO, nv=self.NV, tile=self.TILE, seed=seed)
        self.energies: "list[float]" = []
        self.armci = self.driver = None
        n, tile = self.problem.n, self.TILE
        ntiles = -(-n // tile)
        # computed, not measured: per contraction, every C tile fetches
        # 2*ntiles panels and accumulates once; plus 5 owner-block gets
        total = 2 * ntiles * ntiles * (2 * ntiles + 1) * tile * tile * 8 + 5 * n * n * 8
        self.bytes_per_op = total // NRANKS

    def setup(self, comm) -> None:
        self.armci = Armci.init(comm, datapath=self.wl.datapath)
        self.driver = CcsdDriver(self.armci, self.problem)

    def teardown(self) -> None:
        self.driver.destroy()
        self.armci.finalize()

    def op(self, i: int) -> None:
        self.energies.append(self.driver.iterate())

    def floor_us(self) -> float:
        """One dense single-process iteration of the same problem in numpy."""
        v = coupling_matrix(self.NO, self.NV, self.problem.strength, self.seed)
        d = denominator_matrix(self.NO, self.NV)
        t = v / d
        t0 = time.perf_counter()
        w = v @ t
        t = (v + w + w.T + w @ t) / d
        float(np.sum(v * t))
        return (time.perf_counter() - t0) * 1e6

    def verify(self, n_done: int) -> dict:
        return {"energies": self.energies}


def energy_errors(per_rank_energies: "list[list[float]]", seed: int) -> int:
    """Energies (of any rank) off the dense reference's by > ENERGY_RTOL."""
    got = np.asarray(per_rank_energies)
    ref = ring_ccd_dense(
        CcsdProgram.NO, CcsdProgram.NV, iterations=got.shape[1], seed=seed
    )[2]
    return int(np.count_nonzero(np.abs(got - ref) > ENERGY_RTOL * np.abs(ref)))


PROGRAMS = {"patch": PatchProgram, "nxtval": NxtvalProgram, "ccsd": CcsdProgram}


# ---------------------------------------------------------------------------
# rank bodies
# ---------------------------------------------------------------------------


#: the calibration kernel's time on the quiet reference host
CALIB_REF_S = 6e-6
_CAL_SRC = np.ones((16, 16))
_CAL_DST = np.zeros((16, 16))


def _kernel() -> float:
    t0 = time.perf_counter()
    for i in range(8):
        _CAL_DST[i : i + 8, :] = _CAL_SRC[i : i + 8, :]
    d = {}
    for i in range(40):
        d[i] = i * i
    return time.perf_counter() - t0


def calibrate() -> float:
    """One host-speed sample: interpreter + small-numpy-call work, the mix
    the GA stack is made of.  The first pass re-warms the caches the ops
    evicted; the faster of the next two is robust to a preemption."""
    _kernel()
    return min(_kernel(), _kernel())


def speed_factors(samples: "list[float]", every: int, n_ops: int) -> np.ndarray:
    """Per-op host-speed factor from the samples taken around each block of
    ``every`` ops (one before the first block, one after every block)."""
    if not every:
        return np.ones(n_ops)
    c = np.asarray(samples) / CALIB_REF_S
    block = (c[:-1] + c[1:]) / 2
    if len(block) >= 5:  # median of 5 neighbours smooths single bad samples
        padded = np.pad(block, 2, mode="edge")
        block = np.median(np.lib.stride_tricks.sliding_window_view(padded, 5), axis=1)
    return block[np.minimum(np.arange(n_ops) // every, len(block) - 1)]


def _run_section(prog, comm, first: int, n_max: int, seconds, traced: bool) -> dict:
    """Closed loop over ops ``first..``; bounded by ``n_max`` ops and, when
    ``seconds`` is given, by the wall clock.  Collective programs agree on
    the stop through rank 0.

    Returns the ops done, each op's wall latency and its host-speed factor.
    """
    every = prog.wl.calib_every
    collective = seconds is not None and prog.wl.kind == "ccsd"
    lat = np.empty(n_max)
    samples = [calibrate()] if every else []
    deadline = time.perf_counter() + seconds if seconds is not None else float("inf")
    done = 0
    while done < n_max:
        if traced:
            spans.begin_op(done)
        t0 = time.perf_counter()
        prog.op(first + done)
        t1 = time.perf_counter()
        lat[done] = t1 - t0
        done += 1
        if every and done % every == 0:
            samples.append(calibrate())
        stop = t1 >= deadline
        if collective:
            stop = comm.bcast_obj(stop, root=0)
        if stop:
            break
    if every and done % every:
        samples.append(calibrate())
    return {"ops": done, "lat_s": lat[:done].copy(), "speed": speed_factors(samples, every, done)}


def rank_main(comm, wl: Workload, seed: int, seconds, scale: float) -> dict:
    """One rank of the measured job.

    ``seconds`` given: the untraced pass — warm-up, then one time-bounded
    section.  ``seconds`` None: the traced pass — warm-up, one untraced
    section and one traced section of ``trace_ops`` ops each, so the
    tracing overhead comes from one run.
    """
    traced_pass = seconds is None
    n_fixed = max(1, int(wl.trace_ops * scale))
    warm = max(1, n_fixed // 10)
    n_timed = n_fixed if traced_pass else max(1, int(wl.max_ops * scale))
    n_stream = warm + n_timed + (n_fixed if traced_pass else 0)
    prog = PROGRAMS[wl.kind](wl, seed, comm.rank, n_stream)
    out: dict = {"bytes_per_op": prog.bytes_per_op}
    prog.setup(comm)
    try:
        prog.populate()
        out["floor_us"] = prog.floor_us()
        out["win_create_us"] = _win_create_us(comm) if traced_pass else 0.0
        _run_section(prog, comm, 0, warm, None, False)
        comm.barrier()
        cpu0 = time.process_time()
        out["timed"] = _run_section(prog, comm, warm, n_timed, seconds, False)
        out["cpu_s"] = time.process_time() - cpu0
        total = warm + out["timed"]["ops"]
        if traced_pass:
            # install between two barriers: on the thread backend the
            # wrappers are process-wide, so no rank may be mid-section
            comm.barrier()
            if comm.rank == 0 or wl.backend == "proc":
                spans.install()
            comm.barrier()
            spans.start()
            out["traced"] = _run_section(prog, comm, total, n_fixed, None, True)
            out["trace"] = spans.stop()
            total += out["traced"]["ops"]
        out.update(prog.verify(total))
    finally:
        prog.teardown()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _win_create_us(comm) -> float:
    """Median wall time of one collective ``Win.allocate`` of 4 KiB."""
    times = []
    for _ in range(10):
        comm.barrier()
        t0 = time.perf_counter()
        win, _local = Win.allocate(comm, 4096)
        times.append(time.perf_counter() - t0)
        win.free()
    return float(np.median(times)) * 1e6


def setup_main(comm, wl: Workload, seed: int, cycles: int) -> "list[float]":
    """Back-to-back set-up cycles: init -> the workload's allocations -> ready.

    Returns this rank's time per cycle; destroy/finalize is untimed.  On the
    thread backend a cycle is 0.3 ms of in-process Python, as CPU-bound as
    the ops, so it is reported in calibrated time like them.  On the proc
    backend it is cross-process wake-ups and fresh shared-memory pages,
    which the calibration kernel does not track: plain wall time.
    """
    calibrated = wl.backend == "thread"
    times = []
    for _ in range(cycles):
        prog = PROGRAMS[wl.kind](wl, seed, comm.rank, 1)
        comm.barrier()
        before = calibrate() if calibrated else CALIB_REF_S
        t0 = time.perf_counter()
        prog.setup(comm)
        elapsed = time.perf_counter() - t0
        after = calibrate() if calibrated else CALIB_REF_S
        times.append(elapsed / ((before + after) / 2 / CALIB_REF_S))
        prog.teardown()
    return times


def empty_main(comm) -> None:
    """Body of the empty job that ``backend.spawn_s`` times."""
