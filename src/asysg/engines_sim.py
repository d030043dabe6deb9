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

Draws come in blocks: one RNG call per stream covers up to DRAW_BLOCK
iterations (samples as a (B, M) array, delays, incon-sim coordinates, and
random-subset read masks as a (B, M, T) array), so the number of numpy calls
per update falls while the drawn arrays stay bounded whatever K is.  The bits
do not change, because each stream is a Philox generator of its own and
numpy fills a block in the same order, from the same generator state, as it
fills consecutive per-iteration calls of the block's rows
(`tests/test_core.py` pins this for every shape used here).  Two draws stay
per iteration: read masks of the warm-up iterations k < T, whose windows are
narrower, and the sparse variant's coordinate, whose range is the support of
the gradient just computed.  Each iteration's delays and read masks are
checked against its window once; con-sim then reads its ring's slots unchecked,
and the incon simulators read each missed update from their log (below).

Each simulator keeps only its update rule; `core.Recorder` resolves gamma,
caps every delay at T and stores the trace.  Each update's delay goes into the
recorder's per-update log (trace meta "delays"; "worker_ids" stays 0 on one
simulated worker).  The inconsistent-read simulators also hand `finish` each
update's coordinate and signed delta as meta "coords" and "deltas", indexed
like "delays" (a sparse skip records coordinate 0 and delta 0.0); with the
seed's streams these arrays fix every iterate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    EngineError,
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
        """Refuse a tau above the run's bound T; the message names the RunConfig field."""
        if self.kind == "fixed" and self.tau > T:
            raise ValueError(f"delay_model.tau={self.tau} exceeds bound T={T}")

    def describe(self) -> str:
        return f"fixed({self.tau})" if self.kind == "fixed" else self.kind

    def draw_block(self, rng: np.random.Generator, k0: int, B: int, M: int, T: int) -> np.ndarray:
        """Delays of iterations k0 .. k0+B-1 as a (B, M) integer array; row b is
        bit for bit what B draws of one iteration each would give."""
        if self.kind == "fixed":
            return np.full((B, M), self.tau)
        if self.kind == "uniform":
            return rng.integers(0, T + 1, size=(B, M))
        return np.broadcast_to(((k0 + np.arange(B)) % (T + 1))[:, None], (B, M))  # cyclic

    def draw(self, rng: np.random.Generator, k: int, M: int, T: int) -> list[int]:
        """The M delays of iteration k."""
        return self.draw_block(rng, k, 1, M, T)[0].tolist()

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
            raise ValueError(f"p must be a probability in [0, 1], got {self.p}")

    def validate(self, T: int) -> None:
        """Refuse a tau above the run's bound T; the message names the RunConfig field."""
        if self.kind == "prefix" and self.tau > T:
            raise ValueError(f"read_model.tau={self.tau} exceeds bound T={T}")

    def describe(self) -> str:
        return f"prefix({self.tau})" if self.kind == "prefix" else f"random-subset(p={self.p})"

    def draw_block(self, rng: np.random.Generator, k0: int, B: int, M: int, T: int) -> np.ndarray:
        """Read sets of iterations k0 .. k0+B-1 as a (B, M, w) boolean array over the
        window of w = min(k0, T) updates: entry t is True when the read misses update
        k - w + t.  Every iteration of a block must have the same window, so B > 1
        needs k0 >= T.  Row b is bit for bit what B draws of one iteration each give."""
        w = min(k0, T)
        if B > 1 and k0 < T:
            raise ValueError(f"a block of {B} iterations from k0={k0} < T={T} spans windows of several widths")
        if self.kind == "prefix":
            masks = np.zeros((B, M, w), dtype=bool)
            masks[..., w - min(self.tau, w):] = True  # the tau most recent updates
            return masks
        return rng.random((B, M, w)) < self.p

    def draw(self, rng: np.random.Generator, k: int, M: int, T: int) -> list[tuple[int, ...]]:
        """M read sets, each an ascending tuple inside [max(0, k-T), k-1]."""
        masks = self.draw_block(rng, k, 1, M, T)[0]
        lo = k - masks.shape[1]
        return [tuple(lo + int(t) for t in np.flatnonzero(row)) for row in masks]

    @classmethod
    def prefix(cls, tau: int) -> "ReadModel":
        return cls("prefix", tau=tau)

    @classmethod
    def random_subset(cls, p: float) -> "ReadModel":
        return cls("random-subset", p=p)


# ------------------------------------------------------------ shared machinery

DRAW_BLOCK = 1024  # iterations per RNG call: the drawn arrays stay this small whatever K is


def _blocks(K: int) -> Iterator[tuple[int, int]]:
    """[k0, k1) of each draw block of a K-iteration run."""
    for k0 in range(0, K, DRAW_BLOCK):
        yield k0, min(k0 + DRAW_BLOCK, K)


def _runs(keys: list) -> Iterator[tuple[int, int]]:
    """[a, b) of each run of equal consecutive keys, in order.

    The samples of one run read the same point and share one oracle call, so the
    fixed-delay case is a single call on the whole minibatch, bit-identical to
    the serial path, and summing the runs' results in order keeps the left to
    right order over m.
    """
    a = 0
    for b in range(1, len(keys)):
        if keys[b] != keys[a]:
            yield a, b
            a = b
    yield a, len(keys)


# ------------------------------------------------------------ serial baseline

def run_serial_sg(p, cfg: RunConfig) -> Trace:
    """Plain minibatch SG: x <- x - gamma * sum_m G(x; xi_m), checkpointed on cadence."""
    require_mode(cfg, "serial")
    rng_sample = derive_stream(cfg.seeds, 0, "sample")
    x = p.x1
    rec = Recorder(p, cfg)
    gamma = rec.gamma
    for k0, k1 in _blocks(cfg.K):
        S = rng_sample.integers(1, p.sample_count + 1, size=(k1 - k0, cfg.M))
        for k, xis in zip(range(k0, k1), S):
            if rec.due(k):
                rec.snap(k, x)
            g = p.batch_gradient_sum(x, xis)  # a new array: ours to change
            g *= gamma
            x = x - g
    return rec.finish(x)


# ------------------------------------------------------------ consistent-read simulator

def run_asysg_con_sim(p, cfg: RunConfig) -> Trace:
    """Consistent-read updates x_{k+1} = x_k - gamma * sum_m G(x_{k - tau_{k,m}}; xi_{k,m}).

    Every gradient is evaluated at a true past iterate held in the history ring;
    drawn delays are clamped to the available history while k < T and must never
    exceed T.  Sample draws consume the same stream as the serial engine, so the
    all-zero-delay case reproduces it bit for bit.  The first run's sum is the
    accumulator, scaled by gamma in place, as the serial engine scales its one sum.
    """
    require_mode(cfg, "con-sim")
    dm, M, T = cfg.delay_model, cfg.M, cfg.T
    rng_sample = derive_stream(cfg.seeds, 0, "sample")
    rng_delay = derive_stream(cfg.seeds, 0, "delay")

    x = p.x1
    ring = HistoryRing(T)
    ring.append(x)
    rec = Recorder(p, cfg)
    gamma = rec.gamma
    for k0, k1 in _blocks(cfg.K):
        S = rng_sample.integers(1, p.sample_count + 1, size=(k1 - k0, M))
        D = dm.draw_block(rng_delay, k0, k1 - k0, M, T).tolist()
        for k, xis, taus in zip(range(k0, k1), S, D):
            if rec.due(k):
                rec.snap(k, x)
            if min(taus) < 0 or max(taus) > T:
                raise EngineError(f"delay model produced tau outside [0, {T}]: {taus}", rec.trace())
            if k < T:
                taus = [min(t, k) for t in taus]  # warm-up clamp
            rec.delays[k + 1] = max(taus)
            runs = _runs(taus)  # 0 <= tau <= min(k, T): iterate k - tau is in the ring
            a, b = next(runs)
            acc = p.batch_gradient_sum(ring[k - taus[a]], xis[a:b])  # a new array: ours to change
            for a, b in runs:
                acc += p.batch_gradient_sum(ring[k - taus[a]], xis[a:b])
            acc *= gamma
            x = x - acc
            ring.append(x)
    return rec.finish(x)


# ------------------------------------------------------------ inconsistent-read simulators

def sparse_coordinate_update(g: np.ndarray, gamma: float, i: int) -> float:
    """Signed delta applied to coordinate i by the sparse rule: -gamma * nnz(g) * g_i."""
    nnz = int(np.count_nonzero(g))
    return -(gamma * nnz * g[i])


def _read_masks(rm, rng: np.random.Generator, k0: int, k1: int, M: int, T: int) -> list[np.ndarray]:
    """The (M, min(k, T)) read masks of iterations k0 .. k1-1: one draw per warm-up
    iteration (k < T, whose windows are narrower), one block draw for the rest."""
    warm = [rm.draw_block(rng, k, 1, M, T)[0] for k in range(k0, min(k1, T))]
    full = max(k0, T)
    return warm + (list(rm.draw_block(rng, full, k1 - full, M, T)) if full < k1 else [])


def _run_incon(p, cfg: RunConfig, sparse: bool):
    rm, M, T = cfg.read_model, cfg.M, cfg.T
    rng_sample = derive_stream(cfg.seeds, 0, "sample")
    rng_coord = derive_stream(cfg.seeds, 0, "coord")
    rng_read = derive_stream(cfg.seeds, 0, "read")

    x = p.x1
    rec = Recorder(p, cfg)
    gamma = rec.gamma
    coords, deltas = [0], [0.0]  # coordinate and delta of update j at entry j, like rec.delays
    skips = 0
    for k0, k1 in _blocks(cfg.K):
        S = rng_sample.integers(1, p.sample_count + 1, size=(k1 - k0, M))
        if not sparse:  # uniform coordinates, drawn before the gradients
            C = rng_coord.integers(p.n, size=k1 - k0).tolist()
        R = _read_masks(rm, rng_read, k0, k1, M, T)
        for b, k in enumerate(range(k0, k1)):
            if rec.due(k):
                rec.snap(k, x)
            xis = S[b]
            w = min(k, T)
            lo = k - w
            if R[b].shape != (M, w):
                raise EngineError(f"read masks of shape {R[b].shape} do not cover the window "
                                  f"[{lo}, {k - 1}] for {M} reads", rec.trace())
            rows = R[b].tolist()
            if not sparse:
                i_k = C[b]
            acc = np.zeros(p.n) if sparse else 0.0
            deepest = 0  # how far back this iteration's reads miss updates
            for a, e in _runs(rows):  # equal read sets reconstruct the same vector: share it
                row, xhat = rows[a], x
                if True in row:
                    deepest = max(deepest, w - row.index(True))
                    xhat = x.copy()
                    for t in range(w - 1, -1, -1):  # roll back the missed updates, newest first
                        if row[t]:  # iteration lo + t made update lo + t + 1
                            c = coords[lo + t + 1]
                            xhat[c] = xhat.item(c) - deltas[lo + t + 1]  # a float, not a numpy scalar
                if sparse:  # the coordinate is drawn from the gradient's support: needs all of it
                    acc += p.batch_gradient_sum(xhat, xis[a:e])
                else:
                    acc += p.coordinate_gradient_sum(xhat, xis[a:e], i_k)
            rec.delays[k + 1] = deepest

            if not sparse:
                delta = -(gamma * acc)
                x[i_k] = x.item(i_k) + delta
            else:
                support = np.flatnonzero(acc)
                if len(support) == 0:  # zero aggregate gradient: skip, x untouched
                    skips += 1
                    i_k, delta = 0, 0.0
                else:
                    i_k = int(support[rng_coord.integers(len(support))])
                    delta = sparse_coordinate_update(acc, gamma, i_k)
                    x[i_k] = x.item(i_k) + delta
            coords.append(i_k)
            deltas.append(delta)
    return rec.finish(x, sparse_skips=skips, coords=np.array(coords), deltas=np.array(deltas))


def run_asysg_incon_sim(p, cfg: RunConfig) -> Trace:
    """Inconsistent-read updates: one uniformly chosen coordinate of x moves per
    iteration, by -gamma times that coordinate of the minibatch gradient taken at
    x_hat = x_k minus the read set's missed single-coordinate deltas."""
    require_mode(cfg, "incon-sim")
    return _run_incon(p, cfg, sparse=False)


def run_asysg_incon_sparse_sim(p, cfg: RunConfig) -> Trace:
    """Sparse variant: the coordinate is uniform over the aggregated gradient's
    support and the step is scaled by the support size; zero gradients skip."""
    require_mode(cfg, "incon-sparse-sim")
    return _run_incon(p, cfg, sparse=True)
