"""Shared domain types, deterministic stream derivation, the bounded history buffer,
the run recorder, and the process's CPU and BLAS thread controls.  The recorder
does every engine's run bookkeeping (step size, delay cap, rows, per-update log
and its delay summary), so an engine keeps only its update rule.

Parameter vectors are plain 1-D float64 numpy arrays throughout the package.
Coordinate indices are 0-based; sample indices xi are 1-based (xi in {1..N}).
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import theory

MODES = ("serial", "con-sim", "incon-sim", "incon-sparse-sim", "con-threads", "incon-threads")
SIM_MODES = ("serial", "con-sim", "incon-sim", "incon-sparse-sim")
# the one asynchrony model each simulator mode requires; every other mode refuses both
MODEL_OF_MODE = {"con-sim": "delay_model", "incon-sim": "read_model", "incon-sparse-sim": "read_model"}

GAMMA_KINDS = ("constant", "corollary2", "corollary4")
# the largest K whose per-update log (K+1 int64s, `Recorder`) numpy can shape
K_MAX = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize - 1

try:  # dlsym on numpy's extension module handle also searches the libraries it links
    _blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    _blas_get, _blas_set = _blas.scipy_openblas_get_num_threads64_, _blas.scipy_openblas_set_num_threads64_
    _blas_get.argtypes, _blas_get.restype = [], ctypes.c_int
    _blas_set.argtypes, _blas_set.restype = [ctypes.c_int], None
except (AttributeError, OSError):  # no OpenBLAS thread control: BLAS threading is left untouched
    _blas_get = _blas_set = None


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def blas_threads():
    """Hold numpy's bundled OpenBLAS at one thread inside the block, then restore
    the count found on entry, so holds nest.  The count is process-wide.
    Yields 1, or None where BLAS has no thread control (nothing is set)."""
    if _blas_set is None:
        yield None
        return
    before = _blas_get()
    _blas_set(1)
    try:
        yield 1
    finally:
        _blas_set(before)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the derivation rule (worker id, purpose tag) -> stream."""

    master_seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, int):
            raise ValueError(f"master_seed must be an integer, got {type(self.master_seed).__name__}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in 64 unsigned bits, got {self.master_seed}")


def _purpose_tag(purpose: str) -> int:
    # hash() is salted per process; blake2s gives a stable 64-bit tag
    return int.from_bytes(hashlib.blake2s(purpose.encode("utf-8"), digest_size=8).digest(), "big")


def derive_stream(seeds: SeedSpec, worker: int, purpose: str) -> np.random.Generator:
    """Derive the independent random stream for (worker, purpose).

    Counter-based (Philox) so streams are stateless jumps keyed by
    (master_seed, worker, purpose); identical inputs always yield the
    identical stream and distinct (worker, purpose) pairs yield
    independently seeded ones.
    """
    if worker < 0:
        raise ValueError(f"worker must be >= 0, got {worker}")
    ss = np.random.SeedSequence(seeds.master_seed, spawn_key=(worker, _purpose_tag(purpose)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GammaRule:
    """Steplength rule: a fixed constant or one of the derived constant rules."""

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GAMMA_KINDS:
            raise ValueError(f"gamma kind must be one of {GAMMA_KINDS}, got {self.kind!r}")
        if self.kind == "constant":
            if self.value is None:
                raise ValueError("constant gamma rule requires a value")
            if not math.isfinite(self.value) or self.value < 0:
                raise ValueError(f"value must be finite and >= 0, got {self.value}")
        elif self.value is not None:
            raise ValueError(f"gamma rule {self.kind!r} takes no value")

    @classmethod
    def constant(cls, value: float) -> "GammaRule":
        return cls("constant", float(value))

    @classmethod
    def corollary2(cls) -> "GammaRule":
        return cls("corollary2")

    @classmethod
    def corollary4(cls) -> "GammaRule":
        return cls("corollary4")


def resolve_gamma(cfg: "RunConfig", p) -> float:
    """Turn the configured steplength rule into the constant used by the run."""
    rule: GammaRule = cfg.gamma
    if rule.kind == "constant":
        return float(rule.value)
    if rule.kind == "corollary2":
        return theory.steplength_corollary2(p.gap, cfg.M, p.L, cfg.K, p.sigma_sq)
    # corollary4; l_s takes size-1 supports at T=0, where L_T would degenerate
    return theory.steplength_corollary4(p.gap, p.n, cfg.K, p.l_s(cfg.T), cfg.M, math.sqrt(p.sigma_sq))


class HistoryRing:
    """Bounded buffer of the last horizon+1 appended items; item j lives in slot
    j mod (horizon+1).  The consistent-read simulator keeps iterate x_j there.

    `get` does not check its index.  Its caller keeps the window: after item
    k_now is appended, get(j) returns item j for every j in
    [max(0, k_now - horizon), k_now], and any other j returns another item.
    """

    def __init__(self, horizon: int):
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        self._slots: list[Any] = [None] * (horizon + 1)
        self._count = 0  # number of items appended

    def append(self, item: Any) -> None:
        """Store item under the next index."""
        self._slots[self._count % len(self._slots)] = item
        self._count += 1

    def get(self, j: int):
        """Item j, for j inside the window the caller keeps."""
        return self._slots[j % len(self._slots)]


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the problem: mode, budget, schedule, asynchrony knobs.
    `T` bounds every simulator delay; the threaded modes accept it but do not yet
    bound staleness by it, so theory figures at T assume a bound those runs lack."""

    mode: str
    K: int
    M: int = 1
    gamma: GammaRule = GammaRule.constant(0.01)
    T: int = 0
    workers: int = 1
    delay_model: Any = None  # engines_sim.DelayModel, required by con-sim, refused elsewhere
    read_model: Any = None   # engines_sim.ReadModel, required by the incon sims, refused elsewhere
    checkpoint_every: int = 1
    seeds: SeedSpec = field(default_factory=lambda: SeedSpec(0))

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if not 1 <= self.K <= K_MAX:
            raise ValueError(f"K must be in [1, {K_MAX}], the most a per-update log can hold, got {self.K}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.T < 0:
            raise ValueError(f"T must be >= 0, got {self.T}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.mode in SIM_MODES and self.workers != 1:
            raise ValueError(f"sim mode {self.mode!r} requires workers=1, got {self.workers}")
        if not isinstance(self.gamma, GammaRule):
            raise ValueError("gamma must be a GammaRule")
        if not isinstance(self.seeds, SeedSpec):
            raise ValueError("seeds must be a SeedSpec")
        # the consistent rule takes delays, the inconsistent rules take read sets
        wanted = MODEL_OF_MODE.get(self.mode)
        for name in ("delay_model", "read_model"):
            model = getattr(self, name)
            if model is None and name == wanted:
                raise ValueError(f"{name} is required in mode {self.mode!r}")
            if model is not None and name != wanted:
                raise ValueError(f"{name} is not taken by mode {self.mode!r}")
            if model is not None:
                model.validate(self.T)

    def fingerprint(self) -> str:
        """Config identity used to refuse mixing traces from different setups (seed excluded)."""
        dm = getattr(self.delay_model, "describe", lambda: "none")()
        rm = getattr(self.read_model, "describe", lambda: "none")()
        g = f"{self.gamma.kind}:{self.gamma.value}"
        return f"{self.mode}|K={self.K}|M={self.M}|gamma={g}|T={self.T}|w={self.workers}|dm={dm}|rm={rm}"


@dataclass(frozen=True)
class TraceRow:
    k: int
    t: float
    f: float
    gradsq: float
    gamma: float
    max_delay_observed: int


class Trace:
    """Checkpoint records of one run, in iteration order, plus free-form run metadata."""

    def __init__(self, rows: list[TraceRow] | None = None, meta: dict[str, Any] | None = None):
        self.rows: list[TraceRow] = list(rows) if rows else []
        self.meta: dict[str, Any] = dict(meta) if meta else {}

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]

    def rows_excluding_time(self) -> list[tuple]:
        """Row tuples without the wall-time field, for bit-identity comparisons."""
        return [(r.k, r.f, r.gradsq, r.gamma, r.max_delay_observed) for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and self.rows == other.rows

    def validate(self, delay_cap: int | None = None) -> None:
        """Check row ordering, finiteness, signs, a running-max delay column, and
        (for sim modes) the hard delay cap."""
        for prev, cur in zip(self.rows, self.rows[1:]):
            if cur.k <= prev.k:
                raise ValueError(f"trace rows not strictly increasing in k: {prev.k} then {cur.k}")
            if cur.t < prev.t:
                raise ValueError(f"trace time went backwards at k={cur.k}")
            if cur.max_delay_observed < prev.max_delay_observed:
                raise ValueError(f"max_delay_observed fell at k={cur.k}")
        for r in self.rows:
            if not all(map(math.isfinite, (r.t, r.f, r.gradsq, r.gamma))):
                raise ValueError(f"non-finite trace values at k={r.k}")
            if min(r.gradsq, r.gamma, r.max_delay_observed) < 0:
                raise ValueError(f"negative gradsq, gamma or max_delay_observed at k={r.k}")
            if delay_cap is not None and r.max_delay_observed > delay_cap:
                raise ValueError(
                    f"observed delay {r.max_delay_observed} exceeds bound {delay_cap} at k={r.k}"
                )


def require_mode(cfg: "RunConfig", mode: str) -> None:
    if cfg.mode != mode:
        raise ValueError(f"config mode is {cfg.mode!r}, engine needs {mode!r}")


class EngineError(RuntimeError):
    """Run failure inside an engine; carries whatever trace was recorded before it."""

    def __init__(self, message: str, trace: "Trace | None" = None):
        super().__init__(message)
        self.trace = trace


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


class Recorder:
    """The run recorder of every engine: snapshots during the run, evaluation afterwards.

    Before the clock starts it resolves `gamma` and takes `delay_cap`: T in the
    simulator modes, none in the threaded modes, which do not yet bound
    staleness.  It owns the checkpoint grid {0, c, ..., K}, c =
    checkpoint_every: engines pass every iterate to `snap(k, x)`, which stamps
    (k, t, a copy of x) for a grid k below K, and evaluates nothing, so the t
    column measures optimisation alone.  Each engine also keeps one per-update
    log here: entry j of `delays` is the delay of its j-th applied update and
    entry j of `worker_ids` the worker that applied it (entry 0 of both stays
    0; an engine without staleness writes no delay, a simulator no worker id).
    Both are trace meta "delays" and "worker_ids"; `delay_stats()` summarises
    them.  `finish(x, **meta)` stamps row K from the final iterate, keeps that
    row's copy as trace meta "x_final", adds the engine's own keys, evaluates
    each snapshot through one `value_and_gradient` call, in k order, and
    returns the trace validated against the cap; row k reports
    max(delays[:k+1]).  A k = 0 snapshot whose bytes equal x1 reads the
    problem's cached `value_and_gradient_at_x1` instead, so the start point is
    evaluated once per problem, however many runs it serves.  Every snapshot
    is kept until then: peak memory grows by rows x n x 8 bytes, plus (K+1) x
    16 for the per-update log.  A non-finite iterate, objective or gradient
    norm raises EngineError carrying the rows evaluated before it.
    """

    def __init__(self, p, cfg: RunConfig):
        self.p = p
        self.gamma = resolve_gamma(cfg, p)
        self.delay_cap = cfg.T if cfg.mode in SIM_MODES else None
        self.delays = np.zeros(cfg.K + 1, dtype=np.int64)
        self.worker_ids = np.zeros(cfg.K + 1, dtype=np.int64)
        self.K, self.every = cfg.K, cfg.checkpoint_every
        self.meta = {
            "mode": cfg.mode,
            "problem": p.name,
            "seed": cfg.seeds.master_seed,
            "gamma": self.gamma,
            "workers": cfg.workers,
            "config_fingerprint": f"{p.fingerprint()}|{cfg.fingerprint()}",
            "delays": self.delays,
            "worker_ids": self.worker_ids,
        }
        self._snaps: list[tuple[int, float, np.ndarray]] = []
        self.t0 = time.perf_counter()

    def snap(self, k: int, x: np.ndarray) -> None:
        """Stamp row k if k is on the grid and below K, else nothing; row K is `finish`'s."""
        if k % self.every == 0 and k < self.K:
            self._stamp(k, x)

    def _stamp(self, k: int, x: np.ndarray) -> None:
        t = time.perf_counter() - self.t0
        x = x.copy()
        if not np.isfinite(x).all():
            raise EngineError(f"non-finite iterate at k={k}", self.trace())
        self._snaps.append((k, t, x))

    def trace(self) -> Trace:
        """Evaluate the snapshots taken so far, in k order."""
        running = np.maximum.accumulate(self.delays)
        rows: list[TraceRow] = []
        for k, t, x in sorted(self._snaps, key=lambda s: s[0]):
            if k == 0 and x.tobytes() == self.p.x1.tobytes():
                f, g = self.p.value_and_gradient_at_x1()
            else:
                f, g = self.p.value_and_gradient(x)
            gradsq = float(g @ g)
            if not (math.isfinite(f) and math.isfinite(gradsq)):
                raise EngineError(f"non-finite objective or gradient at k={k}", Trace(rows, self.meta))
            rows.append(TraceRow(k=k, t=t, f=f, gradsq=gradsq, gamma=self.gamma,
                                 max_delay_observed=int(running[k])))
        return Trace(rows, self.meta)

    def finish(self, x: np.ndarray, **meta) -> Trace:
        """Stamp row K from the final iterate `x`, add the engine's meta keys, then
        evaluate every row and validate the trace against the delay cap."""
        self._stamp(self.K, x)
        self.meta.update(x_final=self._snaps[-1][2], **meta)
        trace = self.trace()
        trace.validate(delay_cap=self.delay_cap)
        return trace

    def delay_stats(self) -> DelayStats:
        """The summary of updates 1..K in the per-update log, with their worker ids."""
        return delay_stats(self.delays[1:], workers=self.worker_ids[1:])
