"""The benchmark's three workloads: what each builds, runs and checks.

A workload is set up, then runs rounds (the runner may set it up again
between rounds to time the set-up).  A round is a fixed list of operations; an operation is one engine
run plus its trace write, followed by checks against computations made here
with plain numpy or against properties the method must have.  An operation
fails if it raises or if any of its checks fails.  Before each operation the
host reference loop is timed (`hostref`), and the rates are reported at the
reference speed those loops give over the run.
"""
from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback

import numpy as np

import hostref
from asysg import engines_parallel, engines_sim, harness, problems, theory
from asysg.core import GammaRule, RunConfig, SeedSpec, Trace

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclasses.dataclass
class Op:
    """One engine run: its timing, outputs and check verdicts."""

    label: str
    workers: int
    K: int
    seconds: float = 0.0          # engine call plus trace write
    trace: Trace | None = None
    stats: engines_parallel.DelayStats | None = None
    f_level: float = math.nan     # the f that f_final reads for this op
    off_grid: int = 0
    ref: list[float] = dataclasses.field(default_factory=list)  # host loop times before it
    error: str | None = None
    wrong: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.wrong

    def expect(self, cond, what: str) -> None:
        if not cond:
            self.wrong.append(what)


def round_seed(seed: int, r: int) -> int:
    """Master seed of round r, derived from the workload seed alone."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0])


def grid_miss(trace: Trace, K: int, every: int) -> int:
    """Rows off the grid {0, every, 2*every, ..., K} plus grid points with no row."""
    want = set(range(0, K, every)) | {K}
    got = {r.k for r in trace.rows}
    return len(want ^ got)


def host_scale(rounds: list[list[Op]]) -> float:
    """Host slowness over these rounds: median reference loop time / its reference value."""
    return hostref.scale([t for ops in rounds for op in ops for t in op.ref])


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    name = ""
    problem_cls: type = object
    n = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None  # the runner sets a Tracer or NullTracer per pass
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)

    def csv_path(self, label: str) -> str:
        return os.path.join(OUT_DIR, "traces", f"{self.name}.{label}.csv")

    def timed_run(self, op: Op, engine, p, cfg: RunConfig, zero_times: bool) -> None:
        """Engine call plus trace write, as `asysg run` pays them per replicate."""
        path = self.csv_path(op.label)
        with self.tracer.timed():
            t0 = time.perf_counter()
            out = engine(p, cfg)
            trace, op.stats = out if isinstance(out, tuple) else (out, None)
            if zero_times:  # simulator traces are written with a zeroed clock
                trace = Trace([dataclasses.replace(r, t=0.0) for r in trace.rows], meta=trace.meta)
            harness.write_trace_csv(trace, path)
            op.seconds = time.perf_counter() - t0
        op.trace = trace
        op.expect(harness.read_trace_csv(path).rows == trace.rows, "trace CSV read back differs")

    def run_op(self, op: Op, body) -> Op:
        op.ref = hostref.sample()
        with self.tracer.span(f"op.{op.label}.w{op.workers}"):
            try:
                body(op)
            except Exception:  # an operation that raises is counted failed, the run goes on
                op.error = traceback.format_exc(limit=3)
        op.trace = None  # kept rounds must not grow the process's peak memory
        return op


# ------------------------------------------------------------ quad-sims

class QuadSims(Workload):
    """Serial baseline, con-sim and incon-sim on the shipped 20-dim noisy quadratic."""

    name = "quad-sims"
    problem_cls = problems.NoisyQuadratic
    n, kappa, sigma, N = 20, 10.0, 1.0, 64
    K, M, T, every = 20_000, 4, 4, 10
    p_miss = 0.5
    K_short = 200
    slack = 1.25

    def setup(self) -> None:
        p = problems.make_noisy_quadratic(n=self.n, kappa=self.kappa, sigma=self.sigma,
                                          N=self.N, seed=0)
        self.report = theory.build_theory_report(
            gap=p.gap, M=self.M, L=p.L, K=self.K, sigma_sq=p.sigma_sq, T=self.T, n=p.n,
            L_T=p.l_s(self.T), L_max=p.L_max, constants_estimated=p.constants_estimated)
        self.p = p

    def prepare_checks(self) -> None:
        # the instance as documented: Q = diag(linspace(1/kappa, 1, n)), x* = 0
        self.diag = np.linspace(1.0 / self.kappa, 1.0, self.n)

    def cfg(self, mode: str, r: int, **kw) -> RunConfig:
        base = dict(K=self.K, M=self.M, checkpoint_every=self.every,
                    seeds=SeedSpec(round_seed(self.seed, r)))
        base.update(kw)
        return RunConfig(mode=mode, **base)

    def round(self, r: int) -> list[Op]:
        return [
            self.run_op(Op("serial", 1, self.K), lambda op: self.serial(op, r)),
            self.run_op(Op("con-sim", 1, self.K), lambda op: self.con(op, r)),
            self.run_op(Op("incon-sim", 1, self.K), lambda op: self.incon(op, r)),
        ]

    def common_checks(self, op: Op, cap: int) -> None:
        rows = op.trace.rows
        op.expect(grid_miss(op.trace, self.K, self.every) == 0, "rows off the checkpoint grid")
        op.expect(all(row.max_delay_observed <= cap for row in rows), f"observed delay above T={cap}")

    def serial(self, op: Op, r: int) -> None:
        self.timed_run(op, engines_sim.run_serial_sg, self.p,
                       self.cfg("serial", r, gamma=GammaRule.corollary2()), zero_times=True)
        self.common_checks(op, 0)
        # con-sim with every delay fixed at 0 is the serial method, bit for bit
        short = dict(K=self.K_short, gamma=GammaRule.corollary2())
        ref = engines_sim.run_serial_sg(self.p, self.cfg("serial", r, **short))
        con0 = engines_sim.run_asysg_con_sim(self.p, self.cfg(
            "con-sim", r, T=self.T, delay_model=engines_sim.DelayModel.fixed(0), **short))
        op.expect(con0.rows_excluding_time() == ref.rows_excluding_time(),
                  "con-sim with delay 0 differs from serial")

    def con(self, op: Op, r: int) -> None:
        self.timed_run(op, engines_sim.run_asysg_con_sim, self.p, self.cfg(
            "con-sim", r, T=self.T, gamma=GammaRule.corollary2(),
            delay_model=engines_sim.DelayModel.uniform()), zero_times=True)
        self.common_checks(op, self.T)
        op.expect(op.trace.rows[0].gamma == self.report.gamma_eq9, "gamma differs from gamma_eq9")
        self.bound_checks(op, ("bound_eq11",))
        op.f_level = self.noise_floor(op.trace)

    def incon(self, op: Op, r: int) -> None:
        self.timed_run(op, engines_sim.run_asysg_incon_sim, self.p, self.cfg(
            "incon-sim", r, T=self.T, gamma=GammaRule.corollary4(),
            read_model=engines_sim.ReadModel.random_subset(self.p_miss)), zero_times=True)
        self.common_checks(op, self.T)
        op.expect(op.trace.rows[0].gamma == self.report.gamma_eq17, "gamma differs from gamma_eq17")
        self.bound_checks(op, ("bound_eq16", "bound_eq42", "bound_eq19"))
        x = op.trace.meta["x_final"]
        last = op.trace.rows[-1]
        op.expect(close(0.5 * float(np.sum(self.diag * x * x)), last.f, 1e-12),
                  "last-row f differs from f(x_final)")
        op.expect(close(float(np.sum((self.diag * x) ** 2)), last.gradsq, 1e-12),
                  "last-row gradsq differs from |grad f(x_final)|^2")
        op.f_level = self.noise_floor(op.trace)

    def bound_checks(self, op: Op, keys) -> None:
        comparisons = harness.bound_report([op.trace], self.report, tolerance=self.slack)["comparisons"]
        for key in keys:
            op.expect(key in comparisons, f"{key} unavailable at K={self.K}")
            op.expect(comparisons.get(key, {}).get("pass"), f"{key} fails at slack {self.slack}")

    def noise_floor(self, trace: Trace) -> float:
        """Mean f over the second half of the rows: the level a run settled at.

        A single last row of a converged noisy quadratic spreads 25-40 % from
        seed to seed; the mean over a thousand rows does not.
        """
        tail = [row.f for row in trace.rows if row.k >= self.K // 2]
        return float(np.mean(tail))

    def end_to_end(self, rounds: list[list[Op]]) -> dict[str, float]:
        """`updates_per_s_1w` takes all three calls of a round, each on one thread.

        The serial call alone is a sixth of a round, too little time to give a
        rate that holds still from run to run on a shared host.
        """
        rate, rate_1w, level = [], [], []
        for ops in rounds:
            _, con, incon = ops
            if all(op.ok for op in ops):
                rate_1w.append(sum(op.K for op in ops) / sum(op.seconds for op in ops))
            if con.ok and incon.ok:
                rate.append((con.K + incon.K) / (con.seconds + incon.seconds))
                level.append(math.sqrt(con.f_level * incon.f_level))
        # the level is no timing and has no outliers; a mean wastes fewer rounds
        scale = host_scale(rounds)
        return {"updates_per_s": median(rate) * scale, "updates_per_s_1w": median(rate_1w) * scale,
                "f_final": float(np.mean(level)) if level else math.nan}


# ------------------------------------------------------------ mlp on threads

def mlp_loss(theta: np.ndarray, widths, X: np.ndarray, Y: np.ndarray, chunk: int = 4096) -> float:
    """0.5 * sum of squared residuals of the documented net: per layer a
    (fan_in x fan_out) weight block then fan_out biases, tanh hidden, linear out.

    Rows go through in chunks, so the check's temporaries stay far below any
    allocation of the program and cannot set the process's peak memory.
    """
    layers, pos = [], 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        W = theta[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        layers.append((W, theta[pos:pos + fan_out]))
        pos += fan_out
    total = 0.0
    for lo in range(0, len(X), chunk):
        A = X[lo:lo + chunk]
        for li, (W, b) in enumerate(layers):
            Z = A @ W + b
            A = Z if li == len(layers) - 1 else np.tanh(Z)
        R = A - Y[lo:lo + chunk]
        total += float(np.einsum("ij,ij->", R, R))
    return 0.5 * total


class MlpThreads(Workload):
    """The 46,380-parameter desk-scale MLP, a 1-worker then a 2-worker run."""

    problem_cls = problems.SyntheticMlp
    n = problems.MlpSpec().param_count
    instance_seed = 0  # one fixed network; the workload seed drives the runs
    K, M, every = 2000, 32, 1000
    gamma = 0.0
    mode = ""
    probe_dirs = 4
    probe_h = 1e-5

    def setup(self) -> None:
        self.p = None  # drop the previous instance before building the next
        self.p = problems.make_synthetic_mlp(seed=self.instance_seed)

    def prepare_checks(self) -> None:
        p = self.p
        self.widths = p.widths
        self.f_x1 = self.f(p.x1)

    def f(self, x: np.ndarray) -> float:
        return mlp_loss(x, self.widths, self.p.X, self.p.Y) / self.p.sample_count

    def oracle_check(self, op: Op, r: int) -> None:
        """batch_gradient_sum against central differences of mlp_loss on 32 samples."""
        p = self.p
        rng = np.random.default_rng([self.seed, r, 1])
        xis = rng.integers(1, p.sample_count + 1, size=self.M)
        x = p.x1 + 0.1 * rng.standard_normal(p.n) / math.sqrt(p.n)
        X, Y = p.X[xis - 1], p.Y[xis - 1]
        g = p.batch_gradient_sum(x, xis)
        h = self.probe_h
        for _ in range(self.probe_dirs):
            v = rng.standard_normal(p.n)
            v /= np.linalg.norm(v)
            fd = (mlp_loss(x + h * v, self.widths, X, Y) - mlp_loss(x - h * v, self.widths, X, Y)) / (2 * h)
            # scaled by |g|, not by |g @ v|: a v nearly orthogonal to g leaves
            # only the difference quotient's rounding error, which is not tiny
            op.expect(abs(float(g @ v) - fd) <= 1e-5 * max(1.0, float(np.linalg.norm(g))),
                      "batch gradient disagrees with central differences")

    def cfg(self, r: int, workers: int) -> RunConfig:
        # T is left unset: the threaded engines do not bound staleness
        return RunConfig(mode=self.mode, K=self.K, M=self.M, gamma=GammaRule.constant(self.gamma),
                         workers=workers, checkpoint_every=self.every,
                         seeds=SeedSpec(round_seed(self.seed, r)))

    def round(self, r: int) -> list[Op]:
        return [self.run_op(Op(f"{self.mode}-w{w}", w, self.K),
                            lambda op, w=w: self.threads(op, r, w)) for w in (1, 2)]

    def threads(self, op: Op, r: int, workers: int) -> None:
        self.timed_run(op, self.run_engine, self.p, self.cfg(r, workers), zero_times=False)
        rows = op.trace.rows
        op.expect(rows[0].k == 0 and rows[-1].k == self.K, "first or last row missing")
        op.expect(close(rows[0].f, self.f_x1, 1e-10), "row 0 f differs from f(x1)")
        op.expect(op.stats.total == self.K, f"delay log holds {op.stats.total} entries, not K")
        op.off_grid = grid_miss(op.trace, self.K, self.every)
        op.f_level = rows[-1].f
        self.engine_checks(op, workers)
        if workers == 1:
            self.oracle_check(op, r)

    def end_to_end(self, rounds: list[list[Op]]) -> dict[str, float]:
        one = [ops[0] for ops in rounds if ops[0].ok]
        two = [ops[1] for ops in rounds if ops[1].ok]
        scale = host_scale(rounds)
        return {"updates_per_s": median([op.K / op.seconds for op in two]) * scale,
                "updates_per_s_1w": median([op.K / op.seconds for op in one]) * scale,
                "f_final": median([op.f_level for op in two])}


class MlpConThreads(MlpThreads):
    name = "mlp-con-threads"
    mode = "con-threads"
    gamma = 0.001  # f(x1) ~ 107 falls to ~ 69 within K updates

    def run_engine(self, p, cfg: RunConfig):
        return engines_parallel.run_param_server(p, cfg)

    def engine_checks(self, op: Op, workers: int) -> None:
        op.expect(op.off_grid == 0, "parameter-server rows off the checkpoint grid")
        op.expect(op.f_level < self.f_x1, "f did not fall below f(x1)")
        if workers == 1:
            op.expect(set(op.stats.histogram) <= {0, 1}, "1-worker delays outside {0, 1}")


class MlpInconThreads(MlpThreads):
    name = "mlp-incon-threads"
    mode = "incon-threads"
    # one coordinate moves per update; a last-layer bias (curvature ~1 per
    # sample) is scaled by 1 - gamma * M = 0.36 per step, which is stable
    gamma = 0.02

    def run_engine(self, p, cfg: RunConfig):
        return engines_parallel.run_lockfree_shared(p, cfg)

    def engine_checks(self, op: Op, workers: int) -> None:
        # the final row is taken after every worker has stopped, so it is exact
        op.expect(close(op.trace.rows[-1].f, self.f(op.trace.meta["x_final"]), 1e-10),
                  "last-row f differs from f(x_final)")
        if workers == 1:
            op.expect(op.stats.max_observed == 0, "1-worker lock-free delay above 0")


WORKLOADS = {w.name: w for w in (QuadSims, MlpConThreads, MlpInconThreads)}


def median(values) -> float:
    return float(np.median(values)) if values else math.nan
