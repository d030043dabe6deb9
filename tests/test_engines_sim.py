"""Simulator tests: hand-computed rollouts, degeneracy bit-identity against the
serial engine, and independent full-history replays of the inconsistent-read runs."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asysg import engines_sim, theory
from asysg.core import EngineError, GammaRule, RunConfig, SeedSpec, derive_stream, resolve_gamma
from asysg.engines_sim import (
    DelayModel,
    ReadModel,
    run_asysg_con_sim,
    run_asysg_incon_sim,
    run_asysg_incon_sparse_sim,
    run_serial_sg,
    sparse_coordinate_update,
)
from asysg.problems import NoisyQuadratic, make_noisy_quadratic


def quad_1d(sigma: float = 0.0) -> NoisyQuadratic:
    return NoisyQuadratic(np.array([[1.0]]), np.zeros(1), sigma, 2, np.array([1.0]))


def cfg_for(mode, K, M=1, gamma=0.5, T=0, seed=0, every=1, dm=None, rm=None):
    return RunConfig(
        mode=mode, K=K, M=M, gamma=GammaRule.constant(gamma), T=T,
        delay_model=dm, read_model=rm, checkpoint_every=every, seeds=SeedSpec(seed),
    )


# ------------------------------------------------------------ delay / read models

def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel("fixed", tau=-1)
    with pytest.raises(ValueError):
        DelayModel("bogus")
    with pytest.raises(ValueError):
        DelayModel.fixed(3).validate(2)
    DelayModel.fixed(2).validate(2)
    DelayModel.uniform().validate(0)
    DelayModel.cyclic().validate(5)


def test_delay_model_draws():
    rng = derive_stream(SeedSpec(7), 0, "delay")
    assert DelayModel.fixed(2).draw(rng, k=9, M=4, T=5) == [2, 2, 2, 2]
    assert DelayModel.cyclic().draw(rng, k=9, M=2, T=3) == [1, 1]  # 9 mod 4
    assert DelayModel.cyclic().draw(rng, k=4, M=1, T=3) == [0]


@given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_uniform_delays_within_bound(seed, T, k):
    rng = derive_stream(SeedSpec(seed), 0, "delay")
    taus = DelayModel.uniform().draw(rng, k=k, M=8, T=T)
    assert len(taus) == 8
    assert all(0 <= t <= T for t in taus)


def test_read_model_validation():
    with pytest.raises(ValueError):
        ReadModel("prefix", tau=-1)
    with pytest.raises(ValueError):
        ReadModel("bogus")
    with pytest.raises(ValueError):
        ReadModel.random_subset(1.5)
    with pytest.raises(ValueError):
        ReadModel.prefix(4).validate(3)
    ReadModel.prefix(3).validate(3)


def test_prefix_read_sets():
    rng = derive_stream(SeedSpec(0), 0, "read")
    rm = ReadModel.prefix(2)
    assert rm.draw(rng, k=5, M=2, T=4) == [(3, 4), (3, 4)]
    assert rm.draw(rng, k=1, M=1, T=4) == [(0,)]   # clamped to available history
    assert rm.draw(rng, k=0, M=1, T=4) == [()]
    assert ReadModel.prefix(4).draw(rng, k=3, M=1, T=4) == [(0, 1, 2)]


@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 40),
       st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_random_subset_within_window(seed, T, k, p_inc):
    rng = derive_stream(SeedSpec(seed), 0, "read")
    Js = ReadModel.random_subset(p_inc).draw(rng, k=k, M=3, T=T)
    lo = max(0, k - T)
    for J in Js:
        assert len(J) <= T
        assert list(J) == sorted(J)
        assert all(lo <= j < k for j in J)


def test_random_subset_extremes():
    rng = derive_stream(SeedSpec(3), 0, "read")
    assert ReadModel.random_subset(0.0).draw(rng, k=9, M=2, T=4) == [(), ()]
    assert ReadModel.random_subset(1.0).draw(rng, k=9, M=1, T=4) == [(5, 6, 7, 8)]


# ------------------------------------------------------------ serial baseline

def test_serial_hand_rollout():
    # x: 1 -> 0.5 -> 0.25 -> 0.125 under x <- x - 0.5 x
    tr = run_serial_sg(quad_1d(), cfg_for("serial", K=3))
    assert tr.column("k") == [0, 1, 2, 3]
    assert tr.column("f") == [0.5, 0.125, 0.03125, 0.0078125]
    assert tr.column("gradsq") == [1.0, 0.25, 0.0625, 0.015625]
    assert tr.column("max_delay_observed") == [0, 0, 0, 0]


def test_serial_checkpoint_cadence():
    tr = run_serial_sg(quad_1d(), cfg_for("serial", K=10, every=4))
    assert tr.column("k") == [0, 4, 8, 10]


def test_engines_reject_wrong_mode():
    p = quad_1d()
    with pytest.raises(ValueError):
        run_serial_sg(p, cfg_for("con-sim", K=2, dm=DelayModel.fixed(0)))
    with pytest.raises(ValueError):
        run_asysg_con_sim(p, cfg_for("serial", K=2))
    with pytest.raises(ValueError):
        run_asysg_incon_sim(p, cfg_for("serial", K=2))


# ------------------------------------------------------------ consistent-read sim

def test_con_sim_staleness_hand_rollout():
    # fixed delay 1: reads lag one update once history exists
    # x: 1 -> 0.5 -> 0.0 -> -0.25
    tr = run_asysg_con_sim(quad_1d(), cfg_for("con-sim", K=3, T=1, dm=DelayModel.fixed(1)))
    assert tr.column("f") == [0.5, 0.125, 0.0, 0.03125]
    assert tr.column("gradsq") == [1.0, 0.25, 0.0, 0.0625]
    assert tr.column("max_delay_observed") == [0, 0, 1, 1]


def test_con_sim_warmup_clamp_hand_rollout():
    # fixed delay 2 with clamping while k < 2: x: 1 -> 0.5 -> 0 -> -0.5 -> -0.75
    tr = run_asysg_con_sim(quad_1d(), cfg_for("con-sim", K=4, T=2, dm=DelayModel.fixed(2)))
    assert tr.column("f") == [0.5, 0.125, 0.0, 0.125, 0.28125]
    assert tr.column("max_delay_observed") == [0, 0, 1, 2, 2]


@pytest.mark.parametrize("dm", [DelayModel.fixed(0), DelayModel.uniform()])
def test_con_sim_zero_delay_is_bitwise_serial(dm):
    # T=0 forces every read to the current iterate, whatever the model
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    a = run_serial_sg(p, cfg_for("serial", K=25, M=3, gamma=0.1, seed=11))
    b = run_asysg_con_sim(p, cfg_for("con-sim", K=25, M=3, gamma=0.1, T=0, seed=11, dm=dm))
    assert a.rows_excluding_time() == b.rows_excluding_time()


def test_con_sim_deterministic_and_seed_sensitive():
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    kw = dict(K=30, M=2, gamma=0.1, T=3, dm=DelayModel.uniform())
    a = run_asysg_con_sim(p, cfg_for("con-sim", seed=5, **kw))
    b = run_asysg_con_sim(p, cfg_for("con-sim", seed=5, **kw))
    c = run_asysg_con_sim(p, cfg_for("con-sim", seed=6, **kw))
    assert a.rows_excluding_time() == b.rows_excluding_time()
    assert a.column("f") != c.column("f")


@pytest.mark.parametrize("dm,T,exact", [
    (DelayModel.uniform(), 3, False),  # mixed delays regroup the float sum
    (DelayModel.cyclic(), 4, True),    # one read point per iteration: bitwise
    (DelayModel.fixed(2), 2, True),
])
def test_con_sim_matches_full_history_replay(dm, T, exact):
    """Independent replay: keep every iterate in a plain list, re-draw the same
    delay/sample streams, evaluate each sample at its true past iterate."""
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    K, M, gamma, seed = 30, 4, 0.1, 17
    tr = run_asysg_con_sim(p, cfg_for("con-sim", K=K, M=M, gamma=gamma, T=T, seed=seed, dm=dm))

    rng_s = derive_stream(SeedSpec(seed), 0, "sample")
    rng_d = derive_stream(SeedSpec(seed), 0, "delay")
    xs = [p.x1]
    worst_delay = 0
    for k in range(K):
        xis = rng_s.integers(1, p.sample_count + 1, size=M)
        taus = dm.draw(rng_d, k, M, T)
        acc = np.zeros(p.n)
        for m in range(M):
            tau = min(taus[m], k)
            worst_delay = max(worst_delay, tau)
            acc += p.stochastic_gradient(xs[k - tau], int(xis[m]))
        xs.append(xs[k] - gamma * acc)

    f_ref = p.objective(xs[K])
    g = p.full_gradient(xs[K])
    if exact:
        assert tr.rows[-1].f == f_ref
        assert tr.rows[-1].gradsq == float(g @ g)
    else:
        assert tr.rows[-1].f == pytest.approx(f_ref, rel=1e-12)
        assert tr.rows[-1].gradsq == pytest.approx(float(g @ g), rel=1e-12, abs=1e-15)
    assert tr.rows[-1].max_delay_observed == worst_delay


def test_con_sim_rejects_delay_above_bound():
    class RogueDelays:
        def validate(self, T):
            pass

        def describe(self):
            return "rogue"

        def draw(self, rng, k, M, T):
            return [T + 1] * M

        def draw_block(self, rng, k0, B, M, T):
            return np.full((B, M), T + 1)

    with pytest.raises(EngineError) as exc:
        run_asysg_con_sim(quad_1d(), cfg_for("con-sim", K=5, T=2, dm=RogueDelays()))
    assert exc.value.trace is not None
    assert len(exc.value.trace) >= 1


def test_con_sim_requires_delay_model():
    with pytest.raises(ValueError, match="delay_model is required"):
        cfg_for("con-sim", K=2, T=1)


def test_con_sim_trace_respects_delay_cap():
    p = make_noisy_quadratic(n=4, sigma=0.5, N=8)
    tr = run_asysg_con_sim(p, cfg_for("con-sim", K=40, M=2, gamma=0.1, T=5,
                                      dm=DelayModel.uniform(), seed=3))
    tr.validate(delay_cap=5)
    assert max(tr.column("max_delay_observed")) <= 5


# ------------------------------------------------------------ inconsistent-read sim

def _redraw(p, cfg):
    """(k, samples, read sets) of every iteration, drawn again from the seed's
    streams with one call per iteration; tests/test_core.py pins these calls to
    the engines' block draws."""
    rng_s = derive_stream(cfg.seeds, 0, "sample")
    rng_r = derive_stream(cfg.seeds, 0, "read")
    for k in range(cfg.K):
        xis = rng_s.integers(1, p.sample_count + 1, size=cfg.M)
        yield k, xis, cfg.read_model.draw(rng_r, k, cfg.M, cfg.T)


def _coord_draws(p, cfg):
    """The non-sparse rule's coordinates, one draw per iteration."""
    rng_c = derive_stream(cfg.seeds, 0, "coord")
    return [int(rng_c.integers(p.n)) for _ in range(cfg.K)]


def _replay_incon_log(p, cfg, trace, sparse=False, exact=True):
    """Replay a run against the definition: samples and read sets drawn again,
    read vectors rebuilt from full stored iterates, gradients re-summed per
    sample, deltas re-derived; the engine's iterates come from its per-update
    arrays meta "coords" and "deltas".  Returns the worst per-coordinate gap
    between the delta-based reconstruction and the full-history one.  Delta
    equality is bitwise when every sample of an iteration shares one read set
    (flat and grouped sums coincide), within 1e-12 otherwise.  Each update's
    delay, and so each row's max_delay_observed, must be the deepest miss,
    k - min(J), over the read sets of its iteration."""
    gamma = cfg.gamma.value
    coords, deltas = trace.meta["coords"], trace.meta["deltas"]
    assert len(coords) == len(deltas) == cfg.K + 1
    if not sparse:
        assert coords[1:].tolist() == _coord_draws(p, cfg)
    xs = [p.x1]
    deepest = [0]
    worst = 0.0
    for k, xis, Js in _redraw(p, cfg):
        i, delta = int(coords[k + 1]), deltas[k + 1]
        deepest.append(max((k - J[0] for J in Js if J), default=0))
        x_k = xs[k]
        acc = np.zeros(p.n)
        for m, J in enumerate(Js):
            xhat = x_k.copy()
            for j in reversed(J):
                xhat[coords[j + 1]] -= deltas[j + 1]
            xref = x_k.copy()
            for j in J:
                xref -= xs[j + 1] - xs[j]
            worst = max(worst, float(np.max(np.abs(xhat - xref))))
            acc += p.stochastic_gradient(xhat, int(xis[m]))
        if sparse and not np.any(acc):
            assert i == 0 and delta == 0.0
            xs.append(x_k.copy())
            continue
        dref = sparse_coordinate_update(acc, gamma, i) if sparse else -(gamma * acc[i])
        if exact:
            assert dref == delta  # same floats, same operations
        else:
            assert dref == pytest.approx(delta, rel=1e-12, abs=1e-15)
        x_next = x_k.copy()
        x_next[i] += delta
        xs.append(x_next)
    assert trace.meta["delays"].tolist() == deepest
    running = np.maximum.accumulate(deepest)
    assert trace.column("max_delay_observed") == [int(running[r.k]) for r in trace.rows]
    assert np.array_equal(xs[-1], trace.meta["x_final"])
    return worst


@pytest.mark.parametrize("rm,exact", [
    (ReadModel.prefix(3), True),
    (ReadModel.random_subset(0.5), False),
])
def test_incon_sim_matches_full_history_reference(rm, exact):
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    cfg = cfg_for("incon-sim", K=40, M=3, gamma=0.1, T=3, seed=23, rm=rm)
    worst = _replay_incon_log(p, cfg, run_asysg_incon_sim(p, cfg), exact=exact)
    assert worst <= 1e-12


def test_incon_sim_prefix0_matches_sync_reference():
    # tau=0 reads see the live iterate; replicate the whole run stream-for-stream
    p = make_noisy_quadratic(n=5, sigma=1.0, N=8)
    K, M, gamma, seed = 30, 3, 0.2, 9
    tr = run_asysg_incon_sim(
        p, cfg_for("incon-sim", K=K, M=M, gamma=gamma, T=0, seed=seed, rm=ReadModel.prefix(0)))

    rng_s = derive_stream(SeedSpec(seed), 0, "sample")
    rng_c = derive_stream(SeedSpec(seed), 0, "coord")
    x = p.x1
    coords = []
    for _ in range(K):
        xis = rng_s.integers(1, p.sample_count + 1, size=M)
        i = int(rng_c.integers(p.n))
        coords.append(i)
        acc = p.batch_gradient_sum(x, xis)
        x[i] += -(gamma * acc[i])
    assert tr.meta["coords"][1:].tolist() == coords
    assert np.array_equal(x, tr.meta["x_final"])
    assert tr.rows[-1].f == p.objective(x)


def test_incon_sim_single_coordinate_updates_and_bounded_age():
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    T = 4
    cfg = cfg_for("incon-sim", K=50, M=2, gamma=0.1, T=T, seed=31, rm=ReadModel.random_subset(0.6))
    tr = run_asysg_incon_sim(p, cfg)
    tr.validate(delay_cap=T)
    coords, deltas = tr.meta["coords"], tr.meta["deltas"]
    assert len(coords) == len(deltas) == 51
    assert coords[1:].tolist() == _coord_draws(p, cfg)
    x = p.x1
    for k, _, Js in _redraw(p, cfg):
        for J in Js:
            assert all(max(0, k - T) <= j < k for j in J)
        x_next = x.copy()
        x_next[coords[k + 1]] += deltas[k + 1]   # one coordinate moves per iteration
        assert np.count_nonzero(x_next != x) <= 1
        x = x_next
    assert np.array_equal(x, tr.meta["x_final"])


def test_incon_sim_deterministic_and_seed_sensitive():
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    kw = dict(K=30, M=2, gamma=0.1, T=3, rm=ReadModel.random_subset(0.5))
    a = run_asysg_incon_sim(p, cfg_for("incon-sim", seed=4, **kw))
    b = run_asysg_incon_sim(p, cfg_for("incon-sim", seed=4, **kw))
    c = run_asysg_incon_sim(p, cfg_for("incon-sim", seed=5, **kw))
    assert a.rows_excluding_time() == b.rows_excluding_time()
    assert a.column("f") != c.column("f")


def test_incon_sim_requires_read_model():
    with pytest.raises(ValueError, match="read_model is required"):
        cfg_for("incon-sim", K=2, T=1)


def test_incon_sim_rejects_read_set_outside_window():
    class RogueReads:
        def validate(self, T):
            pass

        def describe(self):
            return "rogue"

        def draw(self, rng, k, M, T):
            return [(k,)] * M  # j = k is not a past update

        def draw_block(self, rng, k0, B, M, T):
            # one column too many: the last one would be j = k, not a past update
            return np.ones((B, M, min(k0, T) + 1), dtype=bool)

    with pytest.raises(EngineError):
        run_asysg_incon_sim(quad_1d(), cfg_for("incon-sim", K=3, T=2, rm=RogueReads()))


# ------------------------------------------------------------ sparse variant

def test_sparse_coordinate_update_examples():
    g = np.array([3.0, 0.0, 4.0])
    assert sparse_coordinate_update(g, 0.5, 2) == -4.0   # nnz 2: -(0.5 * 2 * 4)
    assert sparse_coordinate_update(g, 0.5, 0) == -3.0
    dense = np.ones(5)
    assert sparse_coordinate_update(dense, 0.1, 3) == -0.5  # nnz n scales by n


def test_sparse_update_unbiased_over_support():
    rng = np.random.default_rng(0)
    gamma = 0.3
    for _ in range(100):
        g = rng.normal(size=12)
        g[rng.random(12) < 0.4] = 0.0
        support = np.flatnonzero(g)
        if len(support) == 0:
            continue
        mean_step = np.zeros(12)
        for i in support:
            mean_step[i] += sparse_coordinate_update(g, gamma, int(i))
        mean_step /= len(support)
        assert np.max(np.abs(mean_step - (-gamma) * g)) <= 1e-12


def test_sparse_sim_skips_zero_gradient():
    # start at the minimizer with no noise: every aggregated gradient is exactly zero
    p = NoisyQuadratic(np.diag([1.0, 2.0]), np.zeros(2), 0.0, 2, np.zeros(2))
    tr = run_asysg_incon_sparse_sim(
        p, cfg_for("incon-sparse-sim", K=5, M=2, gamma=0.1, T=0, rm=ReadModel.prefix(0)))
    assert tr.meta["sparse_skips"] == 5
    assert np.array_equal(tr.meta["x_final"], np.zeros(2))
    assert tr.meta["coords"].tolist() == [0] * 6 and tr.meta["deltas"].tolist() == [0.0] * 6


@pytest.mark.parametrize("rm,exact", [
    (ReadModel.prefix(2), True),
    (ReadModel.random_subset(0.5), False),
])
def test_sparse_sim_matches_full_history_reference(rm, exact):
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    # gamma 0.02: support-size scaling multiplies steps by up to n
    cfg = cfg_for("incon-sparse-sim", K=40, M=3, gamma=0.02, T=2, seed=29, rm=rm)
    worst = _replay_incon_log(p, cfg, run_asysg_incon_sparse_sim(p, cfg), sparse=True, exact=exact)
    assert worst <= 1e-12


def test_sparse_sim_descends_on_noiseless_quadratic():
    p = NoisyQuadratic(np.diag([0.5, 1.0, 2.0]), np.zeros(3), 0.0, 2, np.ones(3))
    tr = run_asysg_incon_sparse_sim(
        p, cfg_for("incon-sparse-sim", K=60, M=1, gamma=0.05, T=0, rm=ReadModel.prefix(0)))
    assert tr.rows[-1].f < 0.2 * tr.rows[0].f


# ------------------------------------------------------------ block draws

_BLOCK_CASES = {
    "serial": ("serial", {}),
    "con-uniform": ("con-sim", {"dm": DelayModel.uniform()}),
    "con-cyclic": ("con-sim", {"dm": DelayModel.cyclic()}),
    "con-fixed": ("con-sim", {"dm": DelayModel.fixed(4)}),
    "incon-prefix": ("incon-sim", {"rm": ReadModel.prefix(6)}),
    "incon-random-subset": ("incon-sim", {"rm": ReadModel.random_subset(0.5)}),
    "incon-sparse": ("incon-sparse-sim", {"rm": ReadModel.random_subset(0.5)}),
}
_ENGINE_OF = {"serial": run_serial_sg, "con-sim": run_asysg_con_sim,
              "incon-sim": run_asysg_incon_sim, "incon-sparse-sim": run_asysg_incon_sparse_sim}


@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_block_length_leaves_runs_unchanged(case, monkeypatch):
    """Blocks of 1 and of 7 iterations (7 does not divide K and is shorter than
    the T=9 warm-up) give the same run as the default block."""
    mode, models = _BLOCK_CASES[case]
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    T = 0 if mode == "serial" else 9
    cfg = cfg_for(mode, K=45, M=3, gamma=0.01 if mode == "incon-sparse-sim" else 0.05,
                  T=T, seed=19, **models)

    def run():
        tr = _ENGINE_OF[mode](p, cfg)
        logs = {key: tr.meta[key].tobytes() for key in ("delays", "worker_ids", "coords", "deltas", "x_final")
                if key in tr.meta}
        return tr.rows_excluding_time(), logs

    rows, logs = run()
    assert len(rows) == 46
    for block in (1, 7):
        monkeypatch.setattr(engines_sim, "DRAW_BLOCK", block)
        b_rows, b_logs = run()
        assert b_rows == rows
        assert b_logs == logs


# ------------------------------------------------------------ quadratic oracles, engine level

class _TextbookQuadratic(NoisyQuadratic):
    """The quadratic's oracles as defined, sample by sample: G(x; xi) = Q(x - x*) + z_xi,
    summed left to right from a zero vector; the coordinate oracle reads its entry
    off that vector.  No gradient is shared between samples or calls."""

    def batch_gradient_sum(self, x, xis):
        x = self._check_x(x)
        acc = np.zeros(self.n)
        for xi in np.asarray(xis, dtype=int).tolist():
            xi = self._check_xi(xi)
            z = np.zeros(self.n)
            if self.sigma:
                z[((xi - 1) // 2) % self.n] = self.sigma if xi % 2 else -self.sigma
            acc += self.Q @ (x - self.x_star) + z
        return acc

    def coordinate_gradient_sum(self, x, xis, i):
        return float(self.batch_gradient_sum(x, xis)[self._check_coord(i)])


_PIN_CASES = {
    "serial": ("serial", {}),
    "con-uniform": ("con-sim", {"dm": DelayModel.uniform()}),
    "con-cyclic": ("con-sim", {"dm": DelayModel.cyclic()}),
    "con-fixed": ("con-sim", {"dm": DelayModel.fixed(4)}),
    "incon-prefix": ("incon-sim", {"rm": ReadModel.prefix(4)}),
    "incon-random-subset": ("incon-sim", {"rm": ReadModel.random_subset(0.5)}),
    "incon-sparse": ("incon-sparse-sim", {"rm": ReadModel.random_subset(0.5)}),
}


@pytest.mark.parametrize("case", list(_PIN_CASES))
def test_quadratic_runs_are_the_textbook_oracles_runs_bitwise(case):
    """Every simulator on a dense Q with x* off the origin, at T=4, M=4: the shipped
    oracles (gradient once per read point, noise added in place) give the runs of
    the textbook ones bit for bit, and so does a second run on the warm cache."""
    mode, models = _PIN_CASES[case]
    rng = np.random.default_rng(37)
    A = rng.standard_normal((6, 6))
    x_star = rng.standard_normal(6)
    x_star[2] = -0.0
    args = (A @ A.T / 6 + 0.1 * np.eye(6), x_star, 1.0, 16, x_star + rng.standard_normal(6))
    cfg = cfg_for(mode, K=120, M=4, gamma=0.005 if mode == "incon-sparse-sim" else 0.02,
                  T=0 if mode == "serial" else 4, seed=41, **models)
    fast = NoisyQuadratic(*args)

    def run(p):
        tr = _ENGINE_OF[mode](p, cfg)
        logs = {key: tr.meta[key].tobytes() for key in ("x_final", "delays", "coords", "deltas")
                if key in tr.meta}
        return tr.rows_excluding_time(), logs

    want = run(_TextbookQuadratic(*args))
    assert len(want[0]) == 121
    assert run(fast) == want
    assert run(fast) == want


# ------------------------------------------------------------ gamma resolution

def test_resolve_gamma_constant_and_corollary2():
    p = make_noisy_quadratic(n=6, sigma=1.0, N=8)
    assert resolve_gamma(cfg_for("serial", K=10, gamma=0.25), p) == 0.25
    cfg = RunConfig(mode="serial", K=100, M=4, gamma=GammaRule.corollary2(), seeds=SeedSpec(0))
    assert resolve_gamma(cfg, p) == theory.steplength_corollary2(p.gap, 4, p.L, 100, p.sigma_sq)


def test_resolve_gamma_corollary4_support_width():
    # off-diagonal Q so the support-restricted constants differ: L_1 = sqrt(5), L_2 = 3
    p = NoisyQuadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2), 1.0, 4,
                       np.array([1.0, 0.0]))
    base = dict(mode="incon-sim", K=50, M=2, gamma=GammaRule.corollary4(),
                read_model=ReadModel.prefix(0), seeds=SeedSpec(0))
    g0 = resolve_gamma(RunConfig(T=0, **base), p)
    g2 = resolve_gamma(RunConfig(T=2, **base), p)
    s = math.sqrt(p.sigma_sq)
    assert g0 == theory.steplength_corollary4(p.gap, 2, 50, math.sqrt(5.0), 2, s)
    assert g2 == theory.steplength_corollary4(p.gap, 2, 50, 3.0, 2, s)
    assert g0 != g2
