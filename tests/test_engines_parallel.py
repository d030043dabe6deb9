"""Threaded-engine tests: delay accounting, conservation, rebuilding runs from
the recorder's per-update log, stress tests for the lock-free write primitive,
and statistical comparisons against the simulators."""
import itertools
import json
import os
import threading
import time

import numpy as np
import pytest
from test_problems import _openblas_threads

from asysg import engines_parallel, theory
from asysg.core import EngineError, GammaRule, RunConfig, SeedSpec, blas_threads, delay_stats, derive_stream
from asysg.engines_parallel import run_lockfree_shared, run_param_server
from asysg.engines_sim import DelayModel, ReadModel, run_asysg_con_sim, run_asysg_incon_sim
from asysg.problems import MlpSpec, make_noisy_quadratic, make_synthetic_mlp


def tcfg(mode, K, M=1, gamma=0.05, T=0, workers=1, seed=0, every=1):
    return RunConfig(mode=mode, K=K, M=M, gamma=GammaRule.constant(gamma), T=T,
                     workers=workers, checkpoint_every=every, seeds=SeedSpec(seed))


# ------------------------------------------------------------ delay statistics

def test_delay_stats_examples():
    s = delay_stats([0, 1, 2])
    assert s.max_observed == 2
    assert s.histogram == {0: 1, 1: 1, 2: 1}
    assert s.total == 3
    assert s.mean() == 1.0


def test_delay_stats_empty():
    s = delay_stats([])
    assert s.max_observed == 0
    assert s.histogram == {}
    assert s.total == 0
    assert s.mean() == 0.0


def test_delay_stats_corrupt_log():
    with pytest.raises(ValueError, match="corrupt"):
        delay_stats([0, -2])


def test_delay_stats_per_worker():
    s = delay_stats([0, 2, 1], workers=[0, 1, 1])
    assert s.per_worker_mean == {0: 0.0, 1: 1.5}
    assert s.mean() == 1.0
    with pytest.raises(ValueError):
        delay_stats([0], workers=[0, 1])


def test_delay_stats_to_dict_roundtrip_keys():
    d = delay_stats(np.array([1]), workers=np.array([3])).to_dict()
    assert d == {"max_observed": 1, "mean": 1.0, "total": 1,
                 "histogram": {"1": 1}, "per_worker_mean": {"3": 1.0}}
    assert json.loads(json.dumps(d)) == d           # plain ints and floats, not numpy scalars


# ------------------------------------------------------------ parameter server

def test_param_server_single_worker_delay_set():
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    trace, stats = run_param_server(p, tcfg("con-threads", K=150, M=2, workers=1, every=50))
    assert stats.total == 150                       # one push applied per update
    assert set(stats.histogram) <= {0, 1}           # single worker lags at most one version
    assert trace.rows[0].k == 0 and trace.rows[-1].k == 150
    trace.validate()


def test_param_server_multiworker_conservation():
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    trace, stats = run_param_server(p, tcfg("con-threads", K=200, M=4, workers=3, every=40))
    assert stats.total == 200                       # K pushes of M samples each
    assert set(stats.per_worker_mean) <= {0, 1, 2}
    assert trace.rows[-1].k == 200
    assert all(r.gamma == 0.05 for r in trace.rows)
    deltas = trace.column("max_delay_observed")
    assert deltas == sorted(deltas)                 # running max is monotone
    assert trace.rows[-1].max_delay_observed == stats.max_observed
    trace.validate()


def test_param_server_zero_gamma_freezes():
    p = make_noisy_quadratic(n=5, sigma=1.0, N=8)
    trace, stats = run_param_server(p, tcfg("con-threads", K=80, gamma=0.0, workers=2, every=20))
    f1 = p.objective(p.x1)
    assert all(r.f == f1 for r in trace.rows)       # x never moves
    assert stats.total == 80
    assert stats.histogram


def test_param_server_statistically_matches_consim_uniform():
    # spec example: one worker behaves like the simulator with delays uniform on {0, 1}
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    K, M, gamma = 300, 2, 0.05
    finals_srv, finals_sim = [], []
    for seed in range(10):
        tr, _ = run_param_server(p, tcfg("con-threads", K=K, M=M, gamma=gamma,
                                         workers=1, seed=seed, every=K))
        finals_srv.append(tr.rows[-1].gradsq)
        sim = run_asysg_con_sim(p, RunConfig(
            mode="con-sim", K=K, M=M, gamma=GammaRule.constant(gamma), T=1,
            delay_model=DelayModel.uniform(), checkpoint_every=K, seeds=SeedSpec(seed)))
        finals_sim.append(sim.rows[-1].gradsq)
    ratio = np.mean(finals_srv) / np.mean(finals_sim)
    assert 1 / 3 <= ratio <= 3


def test_param_server_cor2_gamma_respects_bound():
    # calibrate T from an observed run, then check the corollary bound at that T.
    # The threshold is 4 M L gap / sigma^2 (T+1)^2: sigma = 8 makes the coefficient 1/2,
    # so thread-scheduling delays up to T = 199 stay within the 20,000-update cap.
    # gamma M (T+1) = 1/(2L) and the noise floor / bound ratio do not depend on sigma.
    p = make_noisy_quadratic(n=20, sigma=8.0, N=64)
    M, workers = 8, 4
    _, cal = run_param_server(p, tcfg("con-threads", K=150, M=M, gamma=0.01,
                                      workers=workers, every=150))
    T_obs = cal.max_observed
    K = theory.k_threshold_corollary2(p.gap, M, p.L, p.sigma_sq, T_obs)
    if K > 20_000:
        pytest.skip(f"observed delay {T_obs} pushes the threshold to K={K}")
    gamma = theory.steplength_corollary2(p.gap, M, p.L, K, p.sigma_sq)
    finals = []
    for seed in range(10):
        tr, _ = run_param_server(p, tcfg("con-threads", K=K, M=M, gamma=gamma,
                                         workers=workers, seed=seed, every=K))
        finals.append(tr.rows[-1].gradsq)
    bound = theory.bound_con(p.gap, M, p.L, K, p.sigma_sq, T_obs, gamma, variant="cor2")
    assert np.mean(finals) <= bound


def _small_problem(problem):
    if problem == "quadratic":
        return make_noisy_quadratic(n=8, sigma=1.0, N=8)
    if problem == "mlp-default":  # default widths: 1 and 2 BLAS threads round M=32 batches differently
        return make_synthetic_mlp(MlpSpec(sample_count=64), seed=1)
    return make_synthetic_mlp(MlpSpec(widths=(8, 6, 3), sample_count=64), seed=1)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("problem", ["quadratic", "mlp", "mlp-default"])
def test_param_server_replay_is_bitexact(problem, workers):
    # the master is the only writer and each worker's pushes land in the order it
    # drew their samples: update j is a pure function of its delay, its worker id
    # and that worker's next draw, so the recorder's two logs rebuild every iterate.
    # Workers compute at one BLAS thread on any host, and so does the rebuild
    p = _small_problem(problem)
    gamma, K, M = (0.001, 200, 32) if problem == "mlp-default" else (0.05, 200, 2)
    trace, stats = run_param_server(p, tcfg("con-threads", K=K, M=M, gamma=gamma,
                                            workers=workers, every=1))
    delays, ids = trace.meta["delays"], trace.meta["worker_ids"]
    assert len(delays) == len(ids) == K + 1
    streams = [derive_stream(SeedSpec(0), w, "sample") for w in range(workers)]
    xs = [p.x1]
    with blas_threads():
        for k in range(K):
            xis = streams[ids[k + 1]].integers(1, p.sample_count + 1, size=M)
            xs.append(xs[k] - gamma * p.batch_gradient_sum(xs[k - delays[k + 1]], xis))
    assert xs[K].tobytes() == trace.meta["x_final"].tobytes()  # bytes: a -0.0 entry counts
    running = np.maximum.accumulate(delays)
    assert [r.k for r in trace.rows] == list(range(K + 1))
    for r in trace.rows:
        f, g = p.value_and_gradient(xs[r.k])
        assert (r.f, r.gradsq, r.max_delay_observed) == (f, float(g @ g), running[r.k])
    assert stats.max_observed == running[-1]


class _FailingProblem:
    """Gradient oracle that blows up after a set number of batch calls."""

    name = "failing"

    def __init__(self, inner, after):
        self.inner = inner
        self.n = inner.n
        self.sample_count = inner.sample_count
        self.gap, self.L, self.sigma_sq = inner.gap, inner.L, inner.sigma_sq
        self.calls = itertools.count()
        self.after = after

    @property
    def x1(self):
        return self.inner.x1

    def objective(self, x):
        return self.inner.objective(x)

    def full_gradient(self, x):
        return self.inner.full_gradient(x)

    def value_and_gradient(self, x):
        return self.inner.value_and_gradient(x)

    def value_and_gradient_at_x1(self):
        return self.inner.value_and_gradient_at_x1()

    def l_s(self, s):
        return self.inner.l_s(s)

    def _count_call(self):
        if next(self.calls) >= self.after:
            raise RuntimeError("oracle failure injected")

    def batch_gradient_sum(self, x, xis):
        self._count_call()
        return self.inner.batch_gradient_sum(x, xis)

    def coordinate_gradient_sum(self, x, xis, i):
        self._count_call()
        return self.inner.coordinate_gradient_sum(x, xis, i)


def test_param_server_worker_failure_surfaces():
    p = _FailingProblem(make_noisy_quadratic(n=5, sigma=1.0, N=8), after=10)
    with pytest.raises(EngineError, match="oracle failure injected") as exc:
        run_param_server(p, tcfg("con-threads", K=500, M=2, workers=2, every=1))
    assert exc.value.trace is not None
    assert len(exc.value.trace) >= 1


class _StallingProblem(_FailingProblem):
    """Gradient oracle that sleeps 1.5 s on every batch call after a set number,
    then returns by itself."""

    def _count_call(self):
        if next(self.calls) >= self.after:
            time.sleep(1.5)


@pytest.mark.parametrize("engine,mode,stall", [
    (run_param_server, "con-threads", "no worker push within"),
    (run_lockfree_shared, "incon-threads", "no write applied within"),
], ids=["con-threads", "incon-threads"])
def test_threaded_engines_report_a_stall(monkeypatch, engine, mode, stall):
    monkeypatch.setattr(engines_parallel, "_STALL_LIMIT", 0.3)
    p = _StallingProblem(make_noisy_quadratic(n=5, sigma=1.0, N=8), after=20)
    with pytest.raises(EngineError, match=stall) as exc:
        engine(p, tcfg(mode, K=500, M=1, workers=2, every=10))
    assert exc.value.trace is not None
    assert len(exc.value.trace) >= 1


# ------------------------------------------------------------ lock-free shared memory

@pytest.mark.parametrize("every", [1, 2000])
def test_lockfree_applies_exactly_k_writes(every):
    p = make_noisy_quadratic(n=20, sigma=1.0, N=64)
    K = 10_000
    trace, stats = run_lockfree_shared(p, tcfg("incon-threads", K=K, M=1,
                                               gamma=0.02, workers=4, every=every))
    assert stats.total == K                         # one coordinate write per claim
    assert [r.k for r in trace.rows] == list(range(0, K, every)) + [K]
    assert trace.rows[0].f == p.objective(p.x1)
    assert trace.rows[-1].max_delay_observed == stats.max_observed
    trace.validate()                                # t stays monotone with 4 snapshotting workers


@pytest.mark.parametrize("problem", ["quadratic", "mlp"])
def test_lockfree_single_worker_replay_is_bitexact(problem):
    # one worker is quiescent between claims and draws from worker 0's streams,
    # as the simulator does: the run is incon-sim with prefix(0) reads and T = 0
    p = _small_problem(problem)
    for every in (1, 50):
        kw = dict(K=200, M=2, gamma=GammaRule.constant(0.05), checkpoint_every=every, seeds=SeedSpec(0))
        trace, stats = run_lockfree_shared(p, RunConfig(mode="incon-threads", workers=1, **kw))
        sim = run_asysg_incon_sim(p, RunConfig(mode="incon-sim", T=0, read_model=ReadModel.prefix(0), **kw))
        assert trace.rows_excluding_time() == sim.rows_excluding_time()
        assert trace.meta["x_final"].tobytes() == sim.meta["x_final"].tobytes()
        assert stats.max_observed == 0              # quiescent between every claim


def test_lockfree_zero_gamma_freezes():
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    trace, stats = run_lockfree_shared(p, tcfg("incon-threads", K=500, gamma=0.0,
                                               workers=3, every=100))
    assert np.array_equal(trace.meta["x_final"], p.x1)
    assert stats.total == 500


def test_lockfree_descends_with_concurrency():
    p = make_noisy_quadratic(n=20, sigma=0.5, N=64)
    trace, _ = run_lockfree_shared(p, tcfg("incon-threads", K=4000, M=2, gamma=0.05,
                                           workers=2, every=1000))
    assert trace.rows[-1].f < 0.5 * trace.rows[0].f


def test_lockfree_worker_failure_surfaces():
    p = _FailingProblem(make_noisy_quadratic(n=5, sigma=1.0, N=8), after=25)
    with pytest.raises(EngineError, match="oracle failure injected") as exc:
        run_lockfree_shared(p, tcfg("incon-threads", K=5000, M=1, workers=2, every=1000))
    assert exc.value.trace is not None


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("engine,mode", [(run_param_server, "con-threads"),
                                         (run_lockfree_shared, "incon-threads")],
                         ids=["con-threads", "incon-threads"])
def test_threaded_engines_surface_a_failure_promptly(monkeypatch, engine, mode, workers):
    # a thread that blocks with no wake-up on failure would sit out the whole window
    monkeypatch.setattr(engines_parallel, "_STALL_LIMIT", 60.0)
    p = _FailingProblem(make_noisy_quadratic(n=5, sigma=1.0, N=8), after=10)
    start = time.perf_counter()
    with pytest.raises(EngineError, match="oracle failure injected"):
        engine(p, tcfg(mode, K=500, M=1, workers=workers, every=100))
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("engine,mode", [(run_param_server, "con-threads"),
                                         (run_lockfree_shared, "incon-threads")])
def test_threaded_engines_cap_blas_then_restore(engine, mode):
    # one BLAS thread per worker at every worker count, whatever the host's cores
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    seen = {"oracle": set(), "eval": set()}
    for name, phase in [("batch_gradient_sum", "oracle"), ("coordinate_gradient_sum", "oracle"),
                        ("value_and_gradient", "eval")]:
        inner = getattr(p, name)
        setattr(p, name, lambda *a, inner=inner, phase=phase:
                seen[phase].add(_openblas_threads()) or inner(*a))
    before = _openblas_threads()
    cap = None if before is None else 1
    for workers in (1, 2):
        seen["oracle"].clear()
        seen["eval"].clear()
        trace, _ = engine(p, tcfg(mode, K=50, workers=workers, every=25))
        assert trace.meta["blas_threads"] == cap
        assert seen == {"oracle": {cap}, "eval": {before}}
        assert _openblas_threads() == before


# ------------------------------------------------------------ write-primitive stress

@pytest.mark.slow
def test_hammer_no_lost_updates():
    # criterion-9 primitive: concurrent indivisible adds on one coordinate
    arr = np.zeros(1)
    writes_each, threads = 250_000, 4

    def hammer():
        for _ in range(writes_each):
            np.add.at(arr, 0, 1.0)

    ts = [threading.Thread(target=hammer) for _ in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert arr[0] == float(writes_each * threads)   # exact: integers below 2^53


def test_torn_reads_see_only_committed_values():
    # writers oscillate the coordinate between integers 0..W by paired +1/-1 adds;
    # readers must only ever observe one of those committed values
    arr = np.zeros(1)
    W, flips, reads = 3, 60_000, 120_000
    bad = []

    def writer():
        for _ in range(flips):
            np.add.at(arr, 0, 1.0)
            np.add.at(arr, 0, -1.0)

    def reader():
        for _ in range(reads):
            v = float(arr[0])
            if not (v.is_integer() and 0.0 <= v <= W):
                bad.append(v)
                return

    ws = [threading.Thread(target=writer) for _ in range(W)]
    rs = [threading.Thread(target=reader) for _ in range(2)]
    for t in ws + rs:
        t.start()
    for t in ws + rs:
        t.join()
    assert bad == []
    assert arr[0] == 0.0                            # paired adds cancel exactly


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="throughput check needs >= 4 cores")
def test_lockfree_throughput_scales():
    from asysg.problems import make_synthetic_mlp

    p = make_synthetic_mlp()
    K, M = 120, 32

    def rate(workers):
        trace, _ = run_lockfree_shared(p, tcfg("incon-threads", K=K, M=M, gamma=1e-3,
                                               workers=workers, every=K))
        return K / max(trace.rows[-1].t - trace.rows[0].t, 1e-9)

    assert rate(4) >= 2.0 * rate(1)
