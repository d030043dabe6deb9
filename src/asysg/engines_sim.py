"""Single-threaded, bit-reproducible simulators of both asynchronous update rules.

Asynchrony is injected through explicit delay/read models drawn from dedicated
streams, so replaying a config+seed reproduces every float exactly.  Summation
order is fixed: minibatch gradients accumulate left to right over m = 1..M
(consecutive samples that share a read point are evaluated in one oracle call,
which preserves that order for the loop-based oracles).  The inconsistent-read
rule reads one entry of that sum, so it asks each read group for the entry alone
(`coordinate_gradient_sum`) and adds the scalars in the same group order; with
the default oracle, which takes the entry from the full batch sum, the result is
the same float as entry i of the vector sum.  The sparse variant draws its
coordinate from the whole gradient's support and keeps the vector sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

import numpy as np

from . import theory
from .core import (
    EngineError,
    GammaRule,
    HistoryRing,
    Recorder,
    RunConfig,
    Trace,
    derive_stream,
    require_mode,
)


# ------------------------------------------------------------ delay / read models

@dataclass(frozen=True)
class DelayModel:
    """Per-(k, m) staleness rule for consistent reads: fixed(tau), uniform over 0..T,
    or the round-robin cyclic pattern tau = k mod (T+1)."""

    kind: str
    tau: int = 0

    KINDS = ("fixed", "uniform", "cyclic")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"delay model kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.tau < 0:
            raise ValueError(f"delay tau must be >= 0, got {self.tau}")

    def validate(self, T: int) -> None:
        if self.kind == "fixed" and self.tau > T:
            raise ValueError(f"fixed delay tau={self.tau} exceeds bound T={T}")

    def describe(self) -> str:
        return f"fixed({self.tau})" if self.kind == "fixed" else self.kind

    def draw(self, rng: np.random.Generator, k: int, M: int, T: int) -> list[int]:
        if self.kind == "fixed":
            return [self.tau] * M
        if self.kind == "uniform":
            return [int(t) for t in rng.integers(0, T + 1, size=M)]
        return [k % (T + 1)] * M  # cyclic

    @classmethod
    def fixed(cls, tau: int) -> "DelayModel":
        return cls("fixed", tau)

    @classmethod
    def uniform(cls) -> "DelayModel":
        return cls("uniform")

    @classmethod
    def cyclic(cls) -> "DelayModel":
        return cls("cyclic")


@dataclass(frozen=True)
class ReadModel:
    """Which past update deltas each inconsistent read misses.

    prefix(tau): J(k, m) = {k-1, ..., k-tau_eff}, the tau most recent updates.
    random-subset(p): every j in the window {k-T .. k-1} is missed independently
    with probability p.
    """

    kind: str
    tau: int = 0
    p: float = 0.5

    KINDS = ("prefix", "random-subset")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"read model kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.tau < 0:
            raise ValueError(f"prefix tau must be >= 0, got {self.tau}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"inclusion probability must be in [0, 1], got {self.p}")

    def validate(self, T: int) -> None:
        if self.kind == "prefix" and self.tau > T:
            raise ValueError(f"prefix tau={self.tau} exceeds bound T={T}")

    def describe(self) -> str:
        return f"prefix({self.tau})" if self.kind == "prefix" else f"random-subset(p={self.p})"

    def draw(self, rng: np.random.Generator, k: int, M: int, T: int) -> list[tuple[int, ...]]:
        """M read sets, each an ascending tuple inside [max(0, k-T), k-1]."""
        if self.kind == "prefix":
            tau_eff = min(self.tau, T, k)
            J = tuple(range(k - tau_eff, k))
            return [J] * M
        lo = max(0, k - T)
        window = range(lo, k)
        out = []
        for _ in range(M):
            mask = rng.random(len(window)) < self.p
            out.append(tuple(j for j, hit in zip(window, mask) if hit))
        return out

    @classmethod
    def prefix(cls, tau: int) -> "ReadModel":
        return cls("prefix", tau=tau)

    @classmethod
    def random_subset(cls, p: float) -> "ReadModel":
        return cls("random-subset", p=p)


# ------------------------------------------------------------ shared machinery

def resolve_gamma(cfg: RunConfig, p) -> float:
    """Turn the configured steplength rule into the constant used by the run."""
    rule: GammaRule = cfg.gamma
    if rule.kind == "constant":
        return float(rule.value)
    if rule.kind == "corollary2":
        return theory.steplength_corollary2(p.gap, cfg.M, p.L, cfg.K, p.sigma_sq)
    # corollary4; the support-restricted constant degenerates at T=0, use size-1 supports
    L_T = p.l_s(max(cfg.T, 1))
    return theory.steplength_corollary4(p.gap, p.n, cfg.K, L_T, cfg.M, math.sqrt(p.sigma_sq))


def _grouped_grad_sum(p, reads: Iterable, xis: np.ndarray, i: int | None = None):
    """Accumulate sum_m G(read_m, xi_m) left to right, batching consecutive equal reads.

    `reads` yields one (key, x) pair per m; consecutive entries with the same key
    share one oracle call, so the fixed-delay case is a single call on the whole
    minibatch, bit-identical to the serial path.  With a coordinate i the sum is
    of entry i alone: one coordinate_gradient_sum scalar per group, added in the
    same order as the vectors.
    """
    acc = np.zeros(p.n) if i is None else 0.0
    pairs = list(enumerate(reads))
    for _, group in groupby(pairs, key=lambda e: e[1][0]):
        group = list(group)
        x_read = group[0][1][1]
        idx = [m for m, _ in group]
        if i is None:
            acc += p.batch_gradient_sum(x_read, xis[idx])
        else:
            acc += p.coordinate_gradient_sum(x_read, xis[idx], i)
    return acc


# ------------------------------------------------------------ serial baseline

def run_serial_sg(p, cfg: RunConfig) -> Trace:
    """Plain minibatch SG: x <- x - gamma * sum_m G(x; xi_m), checkpointed on cadence."""
    require_mode(cfg, "serial")
    gamma = resolve_gamma(cfg, p)
    rng_sample = derive_stream(cfg.seeds, 0, "sample")
    x = p.x1
    rec = Recorder(p, cfg, gamma)
    for k in range(cfg.K):
        if rec.due(k):
            rec.snap(k, x)
        xis = rng_sample.integers(1, p.sample_count + 1, size=cfg.M)
        g = p.batch_gradient_sum(x, xis)
        x = x - gamma * g
    rec.snap(cfg.K, x)
    return rec.finish(delay_cap=0)


# ------------------------------------------------------------ consistent-read simulator

def run_asysg_con_sim(p, cfg: RunConfig) -> Trace:
    """Consistent-read updates x_{k+1} = x_k - gamma * sum_m G(x_{k - tau_{k,m}}; xi_{k,m}).

    Every gradient is evaluated at a true past iterate held in the history ring;
    drawn delays are clamped to the available history while k < T and must never
    exceed T.  Sample draws consume the same stream as the serial engine, so the
    all-zero-delay case reproduces it bit for bit.
    """
    require_mode(cfg, "con-sim")
    dm = cfg.delay_model
    gamma = resolve_gamma(cfg, p)
    rng_sample = derive_stream(cfg.seeds, 0, "sample")
    rng_delay = derive_stream(cfg.seeds, 0, "delay")

    x = p.x1
    ring = HistoryRing(cfg.T)
    ring.append(x)
    rec = Recorder(p, cfg, gamma)
    max_delay = 0
    for k in range(cfg.K):
        if rec.due(k):
            rec.snap(k, x, max_delay)
        xis = rng_sample.integers(1, p.sample_count + 1, size=cfg.M)
        taus = dm.draw(rng_delay, k, cfg.M, cfg.T)
        if any(t < 0 or t > cfg.T for t in taus):
            raise EngineError(f"delay model produced tau outside [0, {cfg.T}]: {taus}", rec.trace())
        eff = [min(t, k) for t in taus]  # warm-up clamp
        max_delay = max(max_delay, max(eff))
        reads = [(tau, ring.get(k - tau, k)) for tau in eff]
        acc = _grouped_grad_sum(p, reads, xis)
        x = x - gamma * acc
        ring.append(x)
    rec.snap(cfg.K, x, max_delay)
    return rec.finish(delay_cap=cfg.T)


# ------------------------------------------------------------ inconsistent-read simulators

def sparse_coordinate_update(g: np.ndarray, gamma: float, i: int) -> float:
    """Signed delta applied to coordinate i by the sparse rule: -gamma * nnz(g) * g_i."""
    nnz = int(np.count_nonzero(g))
    return -(gamma * nnz * g[i])


def _run_incon(p, cfg: RunConfig, sparse: bool, collect_log: bool):
    rm = cfg.read_model
    gamma = resolve_gamma(cfg, p)
    rng_sample = derive_stream(cfg.seeds, 0, "sample")
    rng_coord = derive_stream(cfg.seeds, 0, "coord")
    rng_read = derive_stream(cfg.seeds, 0, "read")

    x = p.x1
    ring = HistoryRing(cfg.T)  # per-iteration single-coordinate deltas (i_j, delta_j)
    rec = Recorder(p, cfg, gamma)
    log: list[dict] | None = [] if collect_log else None
    max_delay = 0
    skips = 0
    for k in range(cfg.K):
        if rec.due(k):
            rec.snap(k, x, max_delay)
        xis = rng_sample.integers(1, p.sample_count + 1, size=cfg.M)
        if not sparse:
            i_k = int(rng_coord.integers(p.n))  # uniform coordinate, drawn before gradients
        Js = rm.draw(rng_read, k, cfg.M, cfg.T)
        lo = max(0, k - cfg.T)
        reads = []
        prev_J, xhat = None, None
        for J in Js:
            if len(J) > cfg.T or any(j < lo or j >= k for j in J):
                raise EngineError(f"read set {J} outside window [{lo}, {k - 1}]", rec.trace())
            if J:
                max_delay = max(max_delay, k - min(J))
            if J != prev_J:  # equal read sets reconstruct bitwise-equal vectors; share one
                xhat = x.copy()
                for j in reversed(J):  # roll back the missed updates, newest first
                    i_j, d_j = ring.get(j, k)
                    xhat[i_j] -= d_j
                prev_J = J
            reads.append((J, xhat))

        if sparse:  # the coordinate is drawn from the gradient's support: needs all of it
            acc = _grouped_grad_sum(p, reads, xis)
            support = np.flatnonzero(acc)
            if len(support) == 0:
                skips += 1  # zero aggregate gradient: skip, x untouched
                ring.append((0, 0.0))
                if log is not None:
                    log.append({"k": k, "xis": [int(v) for v in xis], "i": 0,
                                "J": [tuple(J) for J in Js], "delta": 0.0})
                continue
            i_k = int(support[rng_coord.integers(len(support))])
            delta = sparse_coordinate_update(acc, gamma, i_k)
        else:
            delta = -(gamma * _grouped_grad_sum(p, reads, xis, i_k))
        x[i_k] += delta
        ring.append((i_k, delta))
        if log is not None:
            log.append({"k": k, "xis": [int(v) for v in xis], "i": i_k, "J": [tuple(J) for J in Js], "delta": delta})
    rec.snap(cfg.K, x, max_delay)
    trace = rec.finish(delay_cap=cfg.T)
    trace.meta["sparse_skips"] = skips
    if log is not None:
        trace.meta["log"] = log
    trace.meta["x_final"] = x
    return trace


def run_asysg_incon_sim(p, cfg: RunConfig, collect_log: bool = False) -> Trace:
    """Inconsistent-read updates: one uniformly chosen coordinate of x moves per
    iteration, by -gamma times that coordinate of the minibatch gradient taken at
    x_hat = x_k minus the read set's missed single-coordinate deltas."""
    require_mode(cfg, "incon-sim")
    return _run_incon(p, cfg, sparse=False, collect_log=collect_log)


def run_asysg_incon_sparse_sim(p, cfg: RunConfig, collect_log: bool = False) -> Trace:
    """Sparse variant: the coordinate is uniform over the aggregated gradient's
    support and the step is scaled by the support size; zero gradients skip."""
    require_mode(cfg, "incon-sparse-sim")
    return _run_incon(p, cfg, sparse=True, collect_log=collect_log)


def replay_incon_updates(p, gamma: float, entries: list[tuple[int, list[int]]]) -> np.ndarray:
    """Drive the inconsistent-read update rule with a forced (i, xis) sequence and
    empty read sets; returns the final iterate.  This is the log-replay oracle for
    the single-worker lock-free engine."""
    x = p.x1
    for i, xis in entries:
        x[i] += -(gamma * p.coordinate_gradient_sum(x, np.asarray(xis, dtype=int), i))
    return x
