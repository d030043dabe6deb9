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
three rows).

While workers run, both engines cap numpy's bundled OpenBLAS at
max(1, cores // workers) threads, so that concurrent BLAS calls do not start
more threads than there are cores; the previous count is restored before the
recorder evaluates its rows, and trace meta "blas_threads" names the cap (None
where the BLAS library offers no thread control and nothing was changed).

Delay accounting: every applied contribution logs (version at pull, version at
apply).  In con-threads versions are master updates; in incon-threads they are
applied-write counts sampled from the shared counter around each worker's
read-compute-write cycle.
"""
from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EngineError,
    Recorder,
    RunConfig,
    Trace,
    derive_stream,
    require_mode,
)
from .engines_sim import resolve_gamma

_POLL = 0.02          # seconds: wait quantum for queue/semaphore/observer loops
_STALL_LIMIT = 120.0  # seconds without progress before the run is declared hung


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


def delay_stats(pairs, workers=None) -> DelayStats:
    """Build DelayStats from (pull-version, apply-version) pairs.

    `workers` optionally gives the contributing worker id for each pair, enabling
    the per-worker means.  A pair with apply < pull is a causality violation and
    rejects the whole log.
    """
    pairs = list(pairs)
    if workers is not None:
        workers = list(workers)
        if len(workers) != len(pairs):
            raise ValueError(f"{len(pairs)} pairs but {len(workers)} worker ids")
    hist: Counter[int] = Counter()
    per_worker: dict[int, list[int]] = {}
    for idx, (pull, apply_) in enumerate(pairs):
        if apply_ < pull:
            raise ValueError(f"corrupt delay log: apply version {apply_} < pull version {pull}")
        d = int(apply_ - pull)
        hist[d] += 1
        if workers is not None:
            per_worker.setdefault(int(workers[idx]), []).append(d)
    return DelayStats(
        max_observed=max(hist) if hist else 0,
        histogram=dict(hist),
        per_worker_mean={w: sum(ds) / len(ds) for w, ds in per_worker.items()},
    )


# ------------------------------------------------------------ shared helpers

class _WorkerPool:
    """Start threads, collect first failure, stop and join everyone."""

    def __init__(self):
        self.stop = threading.Event()
        self.errors: list[tuple[int, BaseException]] = []
        self.threads: list[threading.Thread] = []

    def launch(self, target, count):
        for w in range(count):
            t = threading.Thread(target=self._guard, args=(target, w), daemon=True)
            self.threads.append(t)
            t.start()

    def _guard(self, target, w):
        try:
            target(w)
        except BaseException as exc:  # propagate to the master, whatever it is
            self.errors.append((w, exc))
            self.stop.set()

    def failed(self) -> bool:
        return bool(self.errors)

    def shutdown(self, timeout=_STALL_LIMIT):
        self.stop.set()
        deadline = time.perf_counter() + timeout
        for t in self.threads:
            t.join(timeout=max(0.0, deadline - time.perf_counter()))
        return all(not t.is_alive() for t in self.threads)

    def raise_failure(self, rec: Recorder):
        w, exc = self.errors[0]
        if isinstance(exc, EngineError):  # already names the fault and carries its rows
            raise exc
        raise EngineError(f"worker {w} failed: {exc!r}", rec.trace()) from exc


@contextlib.contextmanager
def _blas_cap(workers: int):
    """Cap OpenBLAS at max(1, cores // workers) threads inside the block, then restore.

    Yields the cap, or None when numpy's BLAS exports no OpenBLAS thread control;
    the block then runs with BLAS threading untouched.
    """
    try:  # dlsym on the extension module's handle also searches the libraries it links
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        yield None
        return
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cap = max(1, cores // workers)
    before = get_threads()
    set_threads(cap)
    try:
        yield cap
    finally:
        set_threads(before)


# ------------------------------------------------------------ parameter server

def run_param_server(p, cfg: RunConfig) -> tuple[Trace, DelayStats]:
    """Consistent-read asynchronous SG through a master/worker star.

    The master is the sole writer: it pops one M-sample push per update, steps
    x functionally, and republishes an immutable (version, snapshot) pair, so
    versions form the gapless sequence 0..K and every pull sees one complete
    vector.  A push's delay is (update index at apply) - (version at pull).
    Workers keep at most one unapplied push outstanding, so a single worker can
    only ever be 0 or 1 versions behind.  BLAS is capped while workers run (see
    the module docstring).
    """
    require_mode(cfg, "con-threads")
    gamma = resolve_gamma(cfg, p)
    x = p.x1
    published = [(0, x.copy())]  # single-slot publish; item load is one bytecode
    pushes: queue.SimpleQueue = queue.SimpleQueue()  # unbounded: a slot admits one queued push per worker
    slots = [threading.Semaphore(1) for _ in range(cfg.workers)]
    pool = _WorkerPool()

    def worker(w: int):
        rng = derive_stream(cfg.seeds, w, "sample")
        while not pool.stop.is_set():
            version, snap = published[0]
            xis = rng.integers(1, p.sample_count + 1, size=cfg.M)
            gsum = p.batch_gradient_sum(snap, xis)
            while not slots[w].acquire(timeout=_POLL):  # previous push must land first
                if pool.stop.is_set():
                    return
            pushes.put((w, version, gsum))

    rec = Recorder(p, cfg, gamma)
    log_pairs: list[tuple[int, int]] = []
    log_workers: list[int] = []
    max_delay = 0
    with _blas_cap(cfg.workers) as blas_threads:
        pool.launch(worker, cfg.workers)
        try:
            for k in range(cfg.K):
                if rec.due(k):
                    rec.snap(k, x, max_delay)
                waited = 0.0
                while True:
                    try:
                        w, version, gsum = pushes.get(timeout=_POLL)
                        break
                    except queue.Empty:
                        if pool.failed():
                            pool.shutdown()
                            pool.raise_failure(rec)
                        waited += _POLL
                        if waited > _STALL_LIMIT:
                            pool.shutdown()
                            raise EngineError(f"no worker push within {_STALL_LIMIT}s at update {k}", rec.trace())
                log_pairs.append((version, k))
                log_workers.append(w)
                max_delay = max(max_delay, k - version)
                x = x - gamma * gsum  # fresh array: earlier snapshots stay intact
                published[0] = (k + 1, x)
                slots[w].release()
            rec.snap(cfg.K, x, max_delay)
        finally:
            clean = pool.shutdown()
    if pool.failed():
        pool.raise_failure(rec)
    if not clean:
        raise EngineError("workers did not exit after stop", rec.trace())
    trace = rec.finish()
    trace.meta["blas_threads"] = blas_threads
    return trace, delay_stats(log_pairs, workers=log_workers)


# ------------------------------------------------------------ lock-free shared memory

def run_lockfree_shared(p, cfg: RunConfig, collect_entries: bool = False) -> tuple[Trace, DelayStats]:
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

    With collect_entries=True and workers=1 the trace meta carries the
    (coordinate, sample indices) sequence for exact replay through the
    simulator's update arithmetic.  BLAS is capped while workers run (see the
    module docstring).
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
    delays = np.zeros(cfg.K + 1, dtype=np.int64)  # delay of the write with each ordinal
    pool = _WorkerPool()
    per_worker_pairs: list[list[tuple[int, int]]] = [[] for _ in range(cfg.workers)]
    entries: list[tuple[int, list[int]]] = []
    rec = Recorder(p, cfg, gamma, delays=delays)

    def worker(w: int):
        rng_s = derive_stream(cfg.seeds, w, "sample")
        rng_c = derive_stream(cfg.seeds, w, "coord")
        pairs = per_worker_pairs[w]
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
            pairs.append((v_read, v_apply))
            delays[ordinal] = v_apply - v_read
            if collect_entries:
                entries.append((i, [int(v) for v in xis]))
            if ordinal < cfg.K and rec.due(ordinal):
                rec.snap(ordinal, x, at=stamp)

    rec.snap(0, x)
    with _blas_cap(cfg.workers) as blas_threads:
        pool.launch(worker, cfg.workers)
        last_seen, last_move = 0, time.perf_counter()
        while any(t.is_alive() for t in pool.threads):
            if pool.failed():
                break
            done = int(applied[0])
            if done != last_seen:
                last_seen, last_move = done, time.perf_counter()
            elif time.perf_counter() - last_move > _STALL_LIMIT:
                pool.shutdown()
                raise EngineError(f"no write applied within {_STALL_LIMIT}s", rec.trace())
            time.sleep(_POLL)
        clean = pool.shutdown()
    if pool.failed():
        pool.raise_failure(rec)
    if not clean:
        raise EngineError("workers did not exit after stop", rec.trace())
    if int(applied[0]) != cfg.K:
        raise EngineError(f"applied {int(applied[0])} writes, expected {cfg.K}", rec.trace())
    rec.snap(cfg.K, x)  # quiescent: exact final iterate
    trace = rec.finish()
    trace.meta["blas_threads"] = blas_threads
    trace.meta["snapshots"] = "rows are copied by the writing worker, unsynchronized, and may be torn"
    if collect_entries:
        trace.meta["entries"] = entries
    trace.meta["x_final"] = x

    pairs = [pr for worker_pairs in per_worker_pairs for pr in worker_pairs]
    ids = [w for w, worker_pairs in enumerate(per_worker_pairs) for _ in worker_pairs]
    return trace, delay_stats(pairs, workers=ids)
