"""Acceptance suite: the ten binding checks, each against an independent oracle
or a pinned tolerance.

Conventions used throughout: trace rows at k = 0 .. K-1 are the iterates the
convergence statements average over (the row at k = K is the final point and is
excluded from those metrics); "bit-identical" comparisons exclude the wall-time
column, which is the one nondeterministic field of a simulator trace.
"""
import math
import os
import statistics
import threading
import time
from itertools import combinations

import numpy as np
import pytest

from asysg import theory
from asysg.core import GammaRule, RunConfig, SeedSpec, derive_stream
from asysg.engines_parallel import run_lockfree_shared
from asysg.engines_sim import (
    DelayModel,
    ReadModel,
    run_asysg_con_sim,
    run_asysg_incon_sim,
    run_serial_sg,
    sparse_coordinate_update,
)
from asysg.harness import ergodic_average, iterations_to_target
from asysg.problems import make_least_squares, make_noisy_quadratic, make_synthetic_mlp


def cfg(mode, K, seed=0, **kw):
    return RunConfig(mode=mode, K=K, seeds=SeedSpec(seed), **kw)


# =====================================================================
# 1. Degeneracy equivalence: con-sim with fixed tau = 0 is bitwise the
#    serial run, for 20 random configs on both problem families.
# =====================================================================

def test_criterion_1_degeneracy_equivalence():
    rng = np.random.default_rng(20240501)
    for trial in range(20):
        if trial % 2 == 0:
            p = make_noisy_quadratic(n=int(rng.integers(2, 21)),
                                     sigma=float(rng.uniform(0.2, 2.0)),
                                     N=int(rng.integers(2, 33)) * 2,
                                     seed=int(rng.integers(1000)))
        else:
            p = make_least_squares(n=int(rng.integers(2, 13)),
                                   N=int(rng.integers(10, 60)),
                                   seed=int(rng.integers(1000)))
        K = int(rng.integers(10, 10_001))
        common = dict(
            K=K,
            M=int(rng.integers(1, 5)),
            gamma=GammaRule.constant(float(rng.uniform(0.001, 0.05))),
            checkpoint_every=int(rng.integers(1, K // 5 + 2)),
            seed=int(rng.integers(10_000)),
        )
        serial = run_serial_sg(p, cfg("serial", **common))
        con = run_asysg_con_sim(
            p, cfg("con-sim", T=0, delay_model=DelayModel.fixed(0), **common))
        assert con.rows_excluding_time() == serial.rows_excluding_time(), (
            f"trial {trial}: fixed tau=0 trace differs from serial")


# =====================================================================
# 2. Inconsistent-read reconstruction: the engine's delta-rollback
#    iterates match a full-history reference that keeps every snapshot
#    and subtracts true iterate differences, to 1e-12 per coordinate.
# =====================================================================

def _reference_incon(p, c, coords):
    """Brute-force reference: x_hat(k) = x_k - sum_{j in J} (x_{j+1} - x_j),
    all snapshots kept, gradients summed one sample at a time.  Samples and
    read sets are drawn again from the seed's streams, one call per iteration
    (tests/test_core.py pins these calls to the engine's block draws); update
    k moves the engine's coordinate coords[k + 1]."""
    rng_s = derive_stream(c.seeds, 0, "sample")
    rng_r = derive_stream(c.seeds, 0, "read")
    gamma = c.gamma.value
    xs = [p.x1]
    for k in range(c.K):
        xis = rng_s.integers(1, p.sample_count + 1, size=c.M)
        x = xs[-1]
        acc = np.zeros(p.n)
        masks = c.read_model.draw(rng_r, k, 1, c.M, c.T)[0]
        for m, row in enumerate(masks):
            xhat = x.copy()
            for j in k - masks.shape[1] + np.flatnonzero(row):
                xhat -= xs[j + 1] - xs[j]
            acc += p.stochastic_gradient(xhat, int(xis[m]))
        i = int(coords[k + 1])
        nxt = x.copy()
        nxt[i] += -(gamma * acc[i])
        xs.append(nxt)
    return xs


def test_criterion_2_incon_reconstruction():
    rng = np.random.default_rng(20240502)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 11))
        if trial % 2 == 0:
            p = make_noisy_quadratic(n=n, sigma=float(rng.uniform(0.2, 1.5)),
                                     N=16, seed=int(rng.integers(1000)))
            gamma = 0.02
        else:
            p = make_least_squares(n=n, N=24, seed=int(rng.integers(1000)))
            gamma = 0.002
        T = int(rng.integers(0, 5))
        if trial % 4 < 2:
            rm = ReadModel.prefix(int(rng.integers(0, T + 1)))
        else:
            rm = ReadModel.random_subset(float(rng.uniform(0.2, 1.0)))
        c = cfg("incon-sim", K=int(rng.integers(20, 201)), M=int(rng.integers(1, 4)),
                gamma=GammaRule.constant(gamma), T=T, read_model=rm,
                checkpoint_every=50, seed=int(rng.integers(10_000)))
        trace = run_asysg_incon_sim(p, c)
        coords, deltas = trace.meta["coords"], trace.meta["deltas"]
        rng_c = derive_stream(c.seeds, 0, "coord")
        assert coords[1:].tolist() == [int(rng_c.integers(p.n)) for _ in range(c.K)]

        xs_ref = _reference_incon(p, c, coords)
        # engine-side iterates, replayed bitwise from the recorded deltas
        x_eng = p.x1
        assert np.array_equal(x_eng, xs_ref[0])
        for step in range(1, c.K + 1):
            x_eng = x_eng.copy()
            x_eng[coords[step]] += deltas[step]
            diff = float(np.max(np.abs(x_eng - xs_ref[step])))
            worst = max(worst, diff)
            assert diff <= 1e-12, f"trial {trial} step {step}: {diff}"
        assert np.array_equal(x_eng, trace.meta["x_final"])
    assert worst <= 1e-12


# =====================================================================
# 3. Theorem-1 bound respected on the noisy quadratic with derived
#    steplength, threshold iteration count, and fixed tau = T delays.
# =====================================================================

def _theorem_rows(trace):
    return trace.rows[:-1]


@pytest.mark.parametrize("T", [0, 2, 8])
def test_criterion_3_theorem1_bound(T):
    p = make_noisy_quadratic(n=20, kappa=10, sigma=1.0, N=64, gap=1.0, seed=0)
    M = 1
    K = theory.k_threshold_corollary2(p.gap, M, p.L, p.sigma_sq, T)
    gamma = theory.steplength_corollary2(p.gap, M, p.L, K, p.sigma_sq)
    bound_min = theory.bound_con(p.gap, M, p.L, K, p.sigma_sq, T, gamma, "cor2")
    bound_erg = theory.bound_con(p.gap, M, p.L, K, p.sigma_sq, T, gamma, "thm1-const")

    mins, ergs = [], []
    for seed in range(30):
        c = cfg("con-sim", K=K, M=M, gamma=GammaRule.constant(gamma), T=T,
                delay_model=DelayModel.fixed(T), checkpoint_every=1, seed=seed)
        rows = _theorem_rows(run_asysg_con_sim(p, c))
        gs = [r.gradsq for r in rows]
        mins.append(min(gs))
        ergs.append(ergodic_average(gs, [r.gamma for r in rows]))

    mean_min = sum(mins) / len(mins)
    mean_erg = sum(ergs) / len(ergs)
    assert mean_min <= 1.25 * bound_min, (T, K, gamma, mean_min, bound_min)
    assert mean_erg <= 1.25 * bound_erg, (T, K, gamma, mean_erg, bound_erg)


# =====================================================================
# 4. Theorem-3 bound respected: incon-sim with prefix reads at the
#    derived steplength and threshold iteration count.
# =====================================================================

@pytest.mark.parametrize("T", [0, 2])
def test_criterion_4_theorem3_bound(T):
    p = make_noisy_quadratic(n=20, kappa=10, sigma=1.0, N=64, gap=1.0, seed=0)
    M = 1
    L_T = p.l_s(max(T, 1))
    K = theory.k_threshold_corollary4(p.gap, L_T, M, p.n, T, p.sigma_sq)
    gamma = theory.steplength_corollary4(p.gap, p.n, K, L_T, M, math.sqrt(p.sigma_sq))
    b16 = theory.bound_incon(p.gap, p.n, K, M, T, L_T, p.L_max, p.sigma_sq, gamma, "thm3")
    b42 = theory.bound_incon(p.gap, p.n, K, M, T, L_T, p.L_max, p.sigma_sq, gamma,
                             "thm3-appendix")
    bound_erg = max(b16, b42)
    bound_min = theory.bound_incon(p.gap, p.n, K, M, T, L_T, p.L_max, p.sigma_sq,
                                   gamma, "cor4")

    mins, ergs = [], []
    for seed in range(30):
        c = cfg("incon-sim", K=K, M=M, gamma=GammaRule.constant(gamma), T=T,
                read_model=ReadModel.prefix(T), checkpoint_every=1, seed=seed)
        rows = _theorem_rows(run_asysg_incon_sim(p, c))
        gs = [r.gradsq for r in rows]
        mins.append(min(gs))
        ergs.append(ergodic_average(gs, [r.gamma for r in rows]))

    mean_min = sum(mins) / len(mins)
    mean_erg = sum(ergs) / len(ergs)
    assert mean_erg <= 1.25 * bound_erg, (T, K, gamma, mean_erg, bound_erg)
    assert mean_min <= 1.25 * bound_min, (T, K, gamma, mean_min, bound_min)


# =====================================================================
# 5. Linear speedup in iterations: with the derived steplength, the
#    iteration count to a fixed target barely depends on the delay.
# =====================================================================

def test_criterion_5_linear_speedup_in_iterations():
    p = make_noisy_quadratic(n=20, kappa=10, sigma=1.0, N=64, gap=1.0, seed=0)
    M = 1
    # one budget for every T, sized for the largest delay
    K = theory.k_threshold_corollary2(p.gap, M, p.L, p.sigma_sq, 16)
    gamma = theory.steplength_corollary2(p.gap, M, p.L, K, p.sigma_sq)
    epsilon = 2.0 * theory.bound_con(p.gap, M, p.L, K, p.sigma_sq, 16, gamma, "cor2")

    medians = {}
    for T in (0, 4, 16):
        iters = []
        for seed in range(10):
            c = cfg("con-sim", K=K, M=M, gamma=GammaRule.constant(gamma), T=T,
                    delay_model=DelayModel.fixed(T), checkpoint_every=1, seed=seed)
            hit = iterations_to_target(run_asysg_con_sim(p, c), epsilon)
            assert hit is not None, f"T={T} seed={seed} never reached {epsilon}"
            iters.append(hit)
        medians[T] = statistics.median(iters)

    base = medians[0]
    assert base > 0
    for T in (4, 16):
        assert medians[T] <= 2.0 * base, (medians, epsilon)
        assert medians[T] >= base / 2.0, (medians, epsilon)


# =====================================================================
# 6. Corollary consistency: derived steplength at the threshold budget
#    always satisfies the matching steplength condition.
# =====================================================================

def test_criterion_6_corollary_consistency():
    rng = np.random.default_rng(20240506)
    violations = []
    for trial in range(1000):
        gap = float(10.0 ** rng.uniform(-3, 3))
        M = int(rng.integers(1, 65))
        L = float(10.0 ** rng.uniform(-3, 3))
        sigma_sq = float(10.0 ** rng.uniform(-3, 3))
        T = int(rng.integers(0, 65))

        K = theory.k_threshold_corollary2(gap, M, L, sigma_sq, T)
        gamma9 = theory.steplength_corollary2(gap, M, L, K, sigma_sq)
        if not theory.check_condition_thm1(gamma9, L, M, T):
            violations.append(("eq7", gap, M, L, sigma_sq, T, K, gamma9))

        n = int(rng.integers(1, 10_001))
        L_T = L
        L_max = L_T * float(rng.uniform(0.2, 1.0))
        K4 = theory.k_threshold_corollary4(gap, L_T, M, n, T, sigma_sq)
        gamma17 = theory.steplength_corollary4(gap, n, K4, L_T, M, math.sqrt(sigma_sq))
        if not theory.check_condition_thm3(gamma17, M, T, L_T, L_max, n):
            violations.append(("eq15", gap, M, L_T, L_max, sigma_sq, T, n, K4, gamma17))
    assert violations == [], violations[:5]


# =====================================================================
# 7. Smoothness-constant oracle: support-restricted constants against
#    an independent brute force over column submatrices.
# =====================================================================

def _brute_L_s(Q, s):
    best = 0.0
    for S in combinations(range(Q.shape[0]), s):
        best = max(best, float(np.linalg.norm(Q[:, S], 2)))
    return best


def test_criterion_7_smoothness_constants_brute_force():
    rng = np.random.default_rng(20240507)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n))
        Q = (A + A.T) / 2.0
        if trial % 3 == 0:
            Q = A @ A.T  # positive semidefinite variety
        consts = theory.constants_quadratic(Q)

        assert consts.L == pytest.approx(float(np.linalg.norm(Q, 2)), abs=1e-10)
        assert consts.L_max == pytest.approx(float(np.abs(np.diag(Q)).max()), abs=1e-10)
        for s in range(1, n + 1):
            assert consts.L_s[s] == pytest.approx(_brute_L_s(Q, s), abs=1e-10), (trial, s)
        # ordering: coordinate constant <= restricted <= full
        for s in range(1, n + 1):
            assert consts.L_max <= consts.L_s[s] + 1e-12
            assert consts.L_s[s] <= consts.L + 1e-12


# =====================================================================
# 8. Sparse-rule unbiasedness: averaging the support-scaled update over
#    all support choices recovers the plain gradient step.
# =====================================================================

def test_criterion_8_sparse_unbiasedness():
    rng = np.random.default_rng(20240508)
    gamma = 0.37
    for trial in range(100):
        n = int(rng.integers(1, 51))
        g = rng.standard_normal(n)
        g[rng.random(n) < 0.4] = 0.0
        support = np.flatnonzero(g)
        if len(support) == 0:
            continue
        avg = np.zeros(n)
        for i in support:
            avg[i] += sparse_coordinate_update(g, gamma, int(i)) / len(support)
        assert float(np.max(np.abs(avg - (-gamma * g)))) <= 1e-12, trial


# =====================================================================
# 9. Lock-free stress: exact write conservation under 4 workers, and the
#    single-coordinate hammer loses none of a million increments.
# =====================================================================

def test_criterion_9_lockfree_conservation():
    p = make_noisy_quadratic(n=30, sigma=0.5, N=32, seed=3)
    K = 10_000
    c = cfg("incon-threads", K=K, M=2, gamma=GammaRule.constant(0.002),
            workers=4, checkpoint_every=2500, seed=42)
    trace, stats = run_lockfree_shared(p, c)
    assert trace.rows[-1].k == K
    assert stats.total == K  # one logged delay pair per applied write
    assert sum(stats.histogram.values()) == K


@pytest.mark.slow
def test_criterion_9_hammer_loses_nothing():
    arr = np.zeros(1)
    per_thread, threads = 250_000, 4

    def slam():
        for _ in range(per_thread):
            np.add.at(arr, 0, 1.0)

    ts = [threading.Thread(target=slam) for _ in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert arr[0] == float(per_thread * threads)  # exactly 1e6, zero lost


# =====================================================================
# 10. Desk-scale network: the full 46,380-parameter model trains under
#     the lock-free engine, the 10-seed median objective decreasing
#     along the run for 1, 2, and 4 workers; iteration speedup is
#     checked only where real cores exist to provide it.
# =====================================================================

MLP_K = 12_000
MLP_GAMMA = 1e-3
MLP_M = 32
MLP_SEEDS = 10


@pytest.fixture(scope="module")
def mlp_problem():
    return make_synthetic_mlp(seed=0)


def _run_mlp(p, workers, seed, checkpoint_every=MLP_K // 2):
    c = cfg("incon-threads", K=MLP_K, M=MLP_M, gamma=GammaRule.constant(MLP_GAMMA),
            workers=workers, checkpoint_every=checkpoint_every, seed=seed)
    trace, _ = run_lockfree_shared(p, c)
    return trace


def _value_at(trace, field, k):
    """Field value at the row for checkpoint k; lock-free rows land exactly on the grid."""
    (row,) = [r for r in trace.rows if r.k == k]
    return getattr(row, field)


@pytest.mark.slow
def test_criterion_10_mlp_objective_decreases(mlp_problem):
    p = mlp_problem
    assert p.n == 46_380
    assert p.spec.widths == (400, 100, 50, 20, 10)

    grid = (0, MLP_K // 2, MLP_K)
    for workers in (1, 2, 4):
        per_seed = []
        for seed in range(MLP_SEEDS):
            trace = _run_mlp(p, workers, seed)
            assert trace.rows[0].k == 0
            assert trace.rows[-1].k == MLP_K
            per_seed.append([_value_at(trace, "f", g) for g in grid])
        medians = [statistics.median(vals[gi] for vals in per_seed)
                   for gi in range(len(grid))]
        for a, b in zip(medians, medians[1:]):
            assert b <= a, (workers, grid, medians)
        assert medians[-1] < medians[0], (workers, medians)


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="iteration speedup needs at least 4 physical cores; "
                           "a single-CPU host serializes the workers")
def test_criterion_10_mlp_iteration_speedup(mlp_problem):
    p = mlp_problem
    serial = [_run_mlp(p, 1, seed, checkpoint_every=250) for seed in range(MLP_SEEDS)]
    epsilon = statistics.median(
        _value_at(t, "gradsq", MLP_K // 2) for t in serial)

    med_serial = statistics.median(
        iterations_to_target(t, epsilon) or MLP_K for t in serial)
    par_hits = []
    for seed in range(MLP_SEEDS):
        t = _run_mlp(p, 4, seed, checkpoint_every=250)
        hit = iterations_to_target(t, epsilon)
        assert hit is not None, f"4-worker seed {seed} never reached {epsilon}"
        par_hits.append(hit)
    med_par = statistics.median(par_hits)

    speedup = (med_serial / med_par) * 4.0
    assert speedup >= 2.4, (med_serial, med_par, speedup)
