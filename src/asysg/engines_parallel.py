"""Real multithreaded engines with staleness instrumentation.

con-threads is a parameter-server layout: the master (calling thread) is the
only writer, owns the version counter, and publishes immutable snapshot pairs
that workers read whole, so a pull can never observe a torn vector.  Workers
compute one M-sample gradient per push and hold at most one unapplied push at
a time, which keeps single-worker staleness inside {0, 1}.

incon-threads is the lock-free layout: the vector lives in one shared array,
workers copy it without any whole-vector guarantee (torn reads are the point),
compute only the entry of the M-sample gradient sum that the update moves
(`coordinate_gradient_sum`), and write back that single coordinate through an
add that CPython's GIL makes indivisible (one C-level call).  A shared claim
counter defines the global iteration index, so the run applies exactly K
coordinate writes no matter how threads interleave.  Checkpoint rows land
exactly on the grid {0, c, 2c, ..., K} (c = checkpoint_every): the worker whose
write is the j*c-th to land copies the vector itself, unsynchronized, so that
row may be torn as well.

Both engines record through `core.Recorder`: a row is stamped (k, t, copy of
x) at snapshot time and its f and gradient are evaluated after the run, so the
t column excludes checkpoint evaluation.  Holding the copies until then costs
rows x n x 8 bytes of peak memory (about 1 MB for the 46,380-parameter MLP at
three rows), plus (K+1) x 8 bytes for the delay log and K x M x 8 bytes for
the replay log of sample indices (trace meta "pushes" or "entries").

Both engines run their workers inside one `_WorkerPool`.  While workers run,
it caps numpy's bundled OpenBLAS at max(1, cores // workers) threads
(`core.blas_threads`), so that concurrent BLAS calls do not start more
threads than there are cores, and restores the previous count before the
recorder evaluates its rows; trace meta "blas_threads" names the cap (None
where BLAS has no thread control).  The MLP's full-data pass holds BLAS at one
thread itself and restores the count it found, so a row evaluated while
workers still run (a stall's trace) leaves the cap in place.
No thread polls: the master blocks on its push queue, parameter-server
workers on their slots, the lock-free caller on the join.  A failing worker
wakes them all at once and the run raises its failure.  A run is hung when
one `_STALL_LIMIT` window passes with no push reaching the master, or no
write landing.

Delay accounting: one delay per applied update, stored in `Recorder.delays`
at the update's ordinal j (1..K), with the contributing worker's id at index j
of a parallel array; row k reports the running max up to j = k, and
`delay_stats` reads both arrays after the run.  In con-threads the delay of
update k+1 is k minus the master version its push was computed at.  In
incon-threads it is the number of other writes that landed between the
worker's read (the applied-write count just before its copy) and its own
write: delay is labelled after the read, the perturbed-iterate convention
(Mania et al., arXiv 1507.06970).
"""
from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EngineError,
    Recorder,
    RunConfig,
    Trace,
    blas_threads,
    cpu_count,
    derive_stream,
    require_mode,
)
from .engines_sim import resolve_gamma

_STALL_LIMIT = 120.0  # seconds: the only timed wait; a window without progress means a hung run


# ------------------------------------------------------------ delay statistics

@dataclass(frozen=True)
class DelayStats:
    """Observed staleness of applied contributions: max, histogram, per-worker means."""

    max_observed: int
    histogram: dict[int, int] = field(default_factory=dict)
    per_worker_mean: dict[int, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.histogram.values())

    def mean(self) -> float:
        if not self.histogram:
            return 0.0
        return sum(d * c for d, c in self.histogram.items()) / self.total

    def to_dict(self) -> dict:
        return {
            "max_observed": self.max_observed,
            "mean": self.mean(),
            "total": self.total,
            "histogram": {str(d): c for d, c in sorted(self.histogram.items())},
            "per_worker_mean": {str(w): m for w, m in sorted(self.per_worker_mean.items())},
        }


def delay_stats(delays, workers=None) -> DelayStats:
    """Build DelayStats from one delay per applied update.

    `workers` optionally gives the contributing worker id of each update,
    enabling the per-worker means.  A negative delay, an update applied before
    the version it read, rejects the whole log.
    """
    d = np.asarray(delays, dtype=np.int64)
    if workers is not None and len(workers) != len(d):
        raise ValueError(f"{len(d)} delays but {len(workers)} worker ids")
    if (d < 0).any():
        raise ValueError(f"corrupt delay log: negative delay {int(d.min())}")
    counts = np.bincount(d)
    per_worker: dict[int, float] = {}
    if workers is not None:
        ids = np.asarray(workers, dtype=np.int64)
        n, total = np.bincount(ids), np.bincount(ids, weights=d)
        per_worker = {int(w): float(total[w] / n[w]) for w in np.flatnonzero(n)}
    return DelayStats(
        max_observed=max(len(counts) - 1, 0),
        histogram={int(v): int(counts[v]) for v in np.flatnonzero(counts)},
        per_worker_mean=per_worker,
    )


# ------------------------------------------------------------ worker pool

class _WorkerPool:
    """Own the workers' lifecycle.  Entering caps BLAS (`blas_threads`, None
    where uncapped) and starts `count` threads running target(w).  A failing
    worker sets `stop` and calls `wake`, which must release every wait the
    engine and its workers block in.  Leaving stops, wakes, joins, restores
    BLAS and raises the first failure.  Threads start in `__enter__`, so bind
    the pool to its name before entering it.
    """

    def __init__(self, target, count: int, wake, rec: Recorder):
        self.stop = threading.Event()
        self.errors: list[tuple[int, BaseException]] = []
        self.threads = [threading.Thread(target=self._guard, args=(target, w), daemon=True)
                        for w in range(count)]
        self.wake, self.rec = wake, rec
        self.blas_threads: int | None = None

    def __enter__(self):
        self._blas = blas_threads(max(1, cpu_count() // len(self.threads)))
        self.blas_threads = self._blas.__enter__()
        for t in self.threads:
            t.start()
        return self

    def _guard(self, target, w):
        try:
            target(w)
        except BaseException as exc:  # propagate to the master, whatever it is
            self.errors.append((w, exc))
            self.stop.set()
            self.wake()

    def wait(self, timeout) -> bool:
        """Join every thread within `timeout` seconds in all; True once all have exited."""
        deadline = time.perf_counter() + timeout
        for t in self.threads:
            t.join(timeout=max(0.0, deadline - time.perf_counter()))
        return all(not t.is_alive() for t in self.threads)

    def __exit__(self, exc_type, exc, tb):
        self.stop.set()
        self.wake()
        exited = self.wait(_STALL_LIMIT)
        self._blas.__exit__(None, None, None)
        if self.errors:
            w, err = self.errors[0]
            if isinstance(err, EngineError):  # already names the fault and carries its rows
                raise err
            raise EngineError(f"worker {w} failed: {err!r}", self.rec.trace()) from err
        if exc is None and not exited:  # a stall raised in the block keeps its own message
            raise EngineError("workers did not exit after stop", self.rec.trace())


# ------------------------------------------------------------ parameter server

def run_param_server(p, cfg: RunConfig) -> tuple[Trace, DelayStats]:
    """Consistent-read asynchronous SG through a master/worker star.

    The master is the sole writer: it pops one M-sample push per update, steps
    x functionally, and republishes an immutable (version, snapshot) pair, so
    versions form the gapless sequence 0..K and every pull sees one complete
    vector.  A push's delay is (update index at apply) - (version at pull).
    Workers keep at most one unapplied push outstanding, so a single worker can
    only ever be 0 or 1 versions behind.

    Trace meta "pushes" lists the (version, sample indices) of every applied
    push in apply order and "x_final" is the last iterate, so
    `engines_sim.replay_con_updates` rebuilds the run exactly on one thread
    (the MLP's bits match only under the same BLAS thread count,
    meta "blas_threads").
    """
    require_mode(cfg, "con-threads")
    gamma = resolve_gamma(cfg, p)
    x = p.x1
    published = [(0, x.copy())]  # single-slot publish; item load is one bytecode
    pushes: queue.SimpleQueue = queue.SimpleQueue()  # unbounded: a slot admits one queued push per worker
    slots = [threading.Semaphore(1) for _ in range(cfg.workers)]

    def worker(w: int):
        rng = derive_stream(cfg.seeds, w, "sample")
        while not pool.stop.is_set():
            version, snap = published[0]
            xis = rng.integers(1, p.sample_count + 1, size=cfg.M)
            gsum = p.batch_gradient_sum(snap, xis)
            slots[w].acquire()  # previous push must land first
            pushes.put((w, version, xis, gsum))

    def wake():
        pushes.put(None)  # before the slots: a push a released worker adds lands behind it
        for slot in slots:
            slot.release()

    rec = Recorder(p, cfg, gamma)
    who = np.zeros(cfg.K + 1, dtype=np.int64)  # worker id of each update, beside rec.delays
    log: list[tuple[int, np.ndarray]] = []
    pool = _WorkerPool(worker, cfg.workers, wake, rec)
    with pool:
        for k in range(cfg.K):
            if rec.due(k):
                rec.snap(k, x)
            try:
                push = pushes.get(timeout=_STALL_LIMIT)
            except queue.Empty:
                raise EngineError(f"no worker push within {_STALL_LIMIT}s at update {k}", rec.trace()) from None
            if push is None:  # a worker failed: leave without row K, the pool raises it
                break
            w, version, xis, gsum = push
            rec.delays[k + 1], who[k + 1] = k - version, w
            log.append((version, xis))
            x = x - gamma * gsum  # fresh array: earlier snapshots stay intact
            published[0] = (k + 1, x)
            slots[w].release()
        else:
            rec.snap(cfg.K, x)
    trace = rec.finish()
    trace.meta.update(blas_threads=pool.blas_threads, pushes=log, x_final=x)
    return trace, delay_stats(rec.delays[1:], workers=who[1:])


# ------------------------------------------------------------ lock-free shared memory

def run_lockfree_shared(p, cfg: RunConfig) -> tuple[Trace, DelayStats]:
    """Inconsistent-read asynchronous SG on one shared vector, no locks.

    Workers claim global iteration numbers from a shared counter, draw one
    coordinate i uniformly, copy x with no whole-vector guarantee, compute entry
    i of the M-sample gradient sum alone (`coordinate_gradient_sum`), and add
    -gamma * g_i into coordinate i as a single indivisible operation.  The
    run ends after exactly K claimed iterations, hence exactly K coordinate
    writes.  Each landed write then draws its ordinal 1..K; the worker whose
    ordinal is a multiple of checkpoint_every snapshots x on the spot, possibly
    torn, so row k is taken once k writes have landed.  Row max_delay_observed
    is the running max of the delays of writes 1..k, filled in after the run.
    The calling thread joins the workers one `_STALL_LIMIT` window at a time
    and declares the run hung when a whole window lands no write, so a stall
    is detected between one and two windows after the last write.

    Trace meta "entries" lists the (coordinate, sample indices) of every write
    in landing order and "x_final" is the last iterate; with workers=1,
    `engines_sim.replay_incon_updates` rebuilds the run exactly.
    """
    require_mode(cfg, "incon-threads")
    if cfg.K >= 2**62:
        raise ValueError("K too large for the shared iteration counter")
    gamma = resolve_gamma(cfg, p)
    x = p.x1
    claims = itertools.count()          # next() is one atomic fetch-and-add under the GIL
    # (ordinal, perf_counter reading) of each landed write: next() is one C call,
    # so under the GIL rows stamped in ordinal order are stamped in time order too
    landed = zip(itertools.count(1), iter(time.perf_counter, None))
    applied = np.zeros(1, dtype=np.int64)  # count of landed coordinate writes
    who = np.zeros(cfg.K + 1, dtype=np.int64)  # worker id of each write, beside rec.delays
    entries: list[tuple[int, np.ndarray]] = []
    rec = Recorder(p, cfg, gamma)

    def worker(w: int):
        rng_s = derive_stream(cfg.seeds, w, "sample")
        rng_c = derive_stream(cfg.seeds, w, "coord")
        while not pool.stop.is_set():
            k = next(claims)
            if k >= cfg.K:
                return
            i = int(rng_c.integers(p.n))  # own stream: drawing it first changes no draw
            v_read = int(applied[0])
            snap = x.copy()             # torn-capable: writers may land mid-copy
            xis = rng_s.integers(1, p.sample_count + 1, size=cfg.M)
            delta = -(gamma * p.coordinate_gradient_sum(snap, xis, i))
            np.add.at(x, i, delta)      # indivisible single-coordinate add
            v_apply = int(applied[0])
            np.add.at(applied, 0, 1)
            ordinal, stamp = next(landed)
            rec.delays[ordinal], who[ordinal] = v_apply - v_read, w
            entries.append((i, xis))
            if ordinal < cfg.K and rec.due(ordinal):
                rec.snap(ordinal, x, at=stamp)

    rec.snap(0, x)
    pool = _WorkerPool(worker, cfg.workers, lambda: None, rec)  # workers never block: nothing to wake
    with pool:
        last_seen = 0
        while not pool.wait(_STALL_LIMIT):  # a failing worker sets stop, so all exit
            done = int(applied[0])
            if done == last_seen:
                raise EngineError(f"no write applied within {_STALL_LIMIT}s", rec.trace())
            last_seen = done
    if int(applied[0]) != cfg.K:
        raise EngineError(f"applied {int(applied[0])} writes, expected {cfg.K}", rec.trace())
    rec.snap(cfg.K, x)  # quiescent: exact final iterate
    trace = rec.finish()
    trace.meta.update(blas_threads=pool.blas_threads, entries=entries, x_final=x,
                      snapshots="rows are copied by the writing worker, unsynchronized, and may be torn")
    return trace, delay_stats(rec.delays[1:], workers=who[1:])
