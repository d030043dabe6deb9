from __future__ import annotations

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from asysg import core, problems
from asysg.core import MODES, SIM_MODES, GammaRule, RunConfig, SeedSpec, delay_stats, derive_stream
from asysg.cli import ENGINES
from asysg.engines_parallel import run_param_server
from asysg.engines_sim import DelayModel, ReadModel, run_serial_sg
from asysg.problems import (
    LeastSquares,
    MlpSpec,
    NoisyQuadratic,
    Problem,
    SyntheticMlp,
    estimate_lipschitz,
    estimate_sigma_sq,
    make_least_squares,
    make_noisy_quadratic,
    make_synthetic_mlp,
)


# ------------------------------------------------------------ noisy quadratic

def _identity_quadratic(sigma=1.0, N=8):
    n = 2
    return NoisyQuadratic(np.eye(n), np.zeros(n), sigma, N, x1=np.array([3.0, 4.0]))


def test_quadratic_gradient_identity():
    p = _identity_quadratic(sigma=0.0)
    g = p.full_gradient(np.array([3.0, 4.0]))
    assert np.array_equal(g, [3.0, 4.0])
    assert float(g @ g) == 25.0
    assert np.array_equal(p.full_gradient(p.x_star), [0.0, 0.0])


def _pair_noise(p, xi):
    """z_xi by the documented rule: pair (xi-1)//2 moves coordinate pair mod n,
    +sigma for odd xi and -sigma for even; all +0.0 when sigma = 0."""
    z = np.zeros(p.n)
    if p.sigma:
        z[((xi - 1) // 2) % p.n] = p.sigma if xi % 2 else -p.sigma
    return z


def test_quadratic_noise_pairs_cancel_exactly():
    p = _identity_quadratic(sigma=1.7, N=12)
    acc = np.zeros(p.n)
    for xi in range(1, p.sample_count + 1):
        z = _pair_noise(p, xi)
        assert p.stochastic_gradient(p.x_star, xi).tobytes() == z.tobytes()  # grad f(x*) = 0
        acc += z  # left-to-right, pairs cancel bitwise
    assert np.array_equal(acc, np.zeros(p.n))
    everything = p.batch_gradient_sum(p.x_star, np.arange(1, p.sample_count + 1))
    assert everything.tobytes() == np.zeros(p.n).tobytes()


def test_quadratic_unbiased_mean_of_samples():
    p = _identity_quadratic(sigma=2.0, N=16)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(p.n) * 3
        mean = p.batch_gradient_sum(x, np.arange(1, p.sample_count + 1)) / p.sample_count
        assert np.max(np.abs(mean - p.full_gradient(x))) <= 1e-12


def test_quadratic_variance_exact():
    p = _identity_quadratic(sigma=2.0, N=16)
    # at x* the gradient is zero, so G - grad f recovers z bitwise and the mean is exact
    assert estimate_sigma_sq(p, p.x_star, p.sample_count) == 4.0
    for xi in range(1, 17):
        z = p.stochastic_gradient(p.x_star, xi) - p.full_gradient(p.x_star)
        assert float(z @ z) == 4.0
    # away from x* the floating-point reconstruction of z costs a rounding step
    x = np.array([0.3, -1.2])
    assert estimate_sigma_sq(p, x, p.sample_count) == pytest.approx(4.0, rel=1e-12)


def test_quadratic_lipschitz_pairs():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 5))
    Q = A @ A.T / 5
    p = NoisyQuadratic(Q, np.zeros(5), 1.0, 8, x1=np.ones(5))
    for _ in range(50):
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        lhs = np.linalg.norm(p.full_gradient(x) - p.full_gradient(y))
        assert lhs <= p.L * np.linalg.norm(x - y) * (1 + 1e-10)


def test_quadratic_constants_ordering():
    p = make_noisy_quadratic(n=6, kappa=4.0, sigma=1.0, N=16, gap=1.0)
    assert p.L_max <= p.l_s(1) + 1e-12
    assert p.l_s(1) <= p.l_s(3) + 1e-12 <= p.L + 2e-12


def test_support_constants_enumerate_once(monkeypatch):
    from asysg import problems

    calls = []
    real = problems.constants_quadratic
    monkeypatch.setattr(problems, "constants_quadratic",
                        lambda *a, **kw: calls.append(kw["s_values"]) or real(*a, **kw))
    for p in (make_noisy_quadratic(n=8), make_least_squares(n=6, N=20)):
        calls.clear()
        assert p.l_s(3) == p.l_s(3)
        assert calls == [[3]]

def test_quadratic_validation():
    p = _identity_quadratic()
    with pytest.raises(ValueError):
        p.full_gradient(np.zeros(3))
    with pytest.raises(ValueError):
        NoisyQuadratic(np.eye(2), np.zeros(2), 1.0, 7, np.zeros(2))  # odd N
    with pytest.raises(ValueError):
        NoisyQuadratic(-np.eye(2), np.zeros(2), 1.0, 8, np.zeros(2))  # not PSD


def _signed_points(p, rng, count):
    """Points with some entries -0.0 and some exactly x*, so signed zeros reach the oracle."""
    for _ in range(count):
        x = rng.standard_normal(p.n)
        x[rng.random(p.n) < 0.3] = -0.0
        x[rng.random(p.n) < 0.2] = 0.0
        yield x
    yield p.x_star.copy()
    yield -0.0 * np.ones(p.n)


def _assert_oracles_are_the_per_sample_loop(p, x, batches):
    for xis in batches:
        loop = np.zeros(p.n)
        for xi in xis:  # the definition: left to right over the samples
            g = p.Q @ (x - p.x_star) + _pair_noise(p, int(xi))
            assert p.stochastic_gradient(x, int(xi)).tobytes() == g.tobytes()
            loop += g
        got = p.batch_gradient_sum(x, xis)
        assert np.array_equal(got, loop)
        assert np.array_equal(np.signbit(got), np.signbit(loop))
        assert got.tobytes() == loop.tobytes()
        for i in range(p.n):
            c = p.coordinate_gradient_sum(x, xis, i)
            assert c == loop[i] and np.signbit(c) == np.signbit(loop[i])


@pytest.mark.parametrize("sigma", [0.0, 1.7])
def test_quadratic_batch_sum_is_the_per_sample_loop_bitwise(sigma):
    """Both oracles against the definition, on a diagonal Q with x* = 0 and on a
    dense Q whose x* holds nonzero and -0.0 entries.  Every point is asked twice,
    then again after one of its coordinates changes in place, so a read-point
    cache that served a changed point, or a shortcut that assumed x* = 0, fails."""
    p = NoisyQuadratic(np.diag(np.linspace(0.2, 1.0, 5)), np.zeros(5), sigma, 12, np.ones(5))
    rng = np.random.default_rng(21)
    A = rng.standard_normal((5, 5))
    dense = NoisyQuadratic(A @ A.T / 5, np.array([0.7, -0.0, -1.3, 0.0, -0.0]), sigma, 12, np.ones(5))
    batches = [np.arange(1, p.sample_count + 1)[:0], np.array([3, 3, 3, 4]), np.array([1, 12, 1, 2, 12])]
    batches += [rng.integers(1, p.sample_count + 1, size=M) for M in (1, 4, 32)]
    for q in (p, dense):
        for x in _signed_points(q, rng, 8):
            for _ in range(2):
                _assert_oracles_are_the_per_sample_loop(q, x, batches)
            x[rng.integers(q.n)] += 0.5  # the same array, other bytes
            _assert_oracles_are_the_per_sample_loop(q, x, batches)


def test_quadratic_oracles_agree_across_threads():
    """Four threads share one problem, and so its read-point cache, on more points
    than the cache keeps: some shared, some a thread's own array set equal to a
    shared point and then changed in place.  Every answer must be the bytes one
    thread gets from a fresh problem, and no call may raise."""
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 6))
    args = (A @ A.T / 6, rng.standard_normal(6), 1.3, 16, np.ones(6))
    p = NoisyQuadratic(*args)
    shared = [rng.standard_normal(6) for _ in range(3 * NoisyQuadratic._READ_POINTS_KEPT)]
    batches = [rng.integers(1, 17, size=M) for M in (1, 3, 4)]

    def work(seed):
        r = np.random.default_rng(seed)
        own = np.empty(6)
        calls = []
        for step in range(6000):
            if step % 3 == 0:
                x = shared[r.integers(len(shared))]
            elif step % 3 == 1:
                x = own
                x[:] = shared[r.integers(len(shared))]  # a repeat, through another array
            else:
                x = own
                x[r.integers(6)] += 0.25  # changed in place since the last call
            xis, i = batches[r.integers(len(batches))], int(r.integers(6))
            calls.append((x.copy(), xis, i, p.batch_gradient_sum(x, xis).tobytes(),
                          p.coordinate_gradient_sum(x, xis, i)))
        return calls

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over often, inside the oracles too
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(work, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    ref = NoisyQuadratic(*args)
    for calls in results:
        for x, xis, i, batch, coord in calls:
            assert ref.batch_gradient_sum(x, xis).tobytes() == batch
            assert ref.coordinate_gradient_sum(x, xis, i).hex() == coord.hex()


def test_quadratic_oracles_reject_bad_indices():
    p = _identity_quadratic(N=8)
    for xis in ([0, 1], [1, p.sample_count + 1]):
        with pytest.raises(ValueError, match="sample index"):
            p.batch_gradient_sum(p.x1, xis)
        with pytest.raises(ValueError, match="sample index"):
            p.coordinate_gradient_sum(p.x1, xis, 0)
    with pytest.raises(ValueError, match="coordinate"):
        p.coordinate_gradient_sum(p.x1, [1], p.n)


def _quadratic_value_and_gradient(p, x):
    d = x - p.x_star
    Qd = p.Q @ d
    return 0.5 * float(d @ Qd), Qd


def _least_squares_value_and_gradient(p, x):
    r = p.A @ x - p.b
    return 0.5 * float(r @ r) / p.sample_count, p.A.T @ r / p.sample_count


@pytest.mark.parametrize("make, reference",
                         [(lambda: make_noisy_quadratic(n=7, N=16), _quadratic_value_and_gradient),
                          (lambda: make_least_squares(n=5, N=20), _least_squares_value_and_gradient)],
                         ids=["quadratic", "least_squares"])
def test_value_and_gradient_is_objective_and_full_gradient_bitwise(make, reference):
    p = make()
    rng = np.random.default_rng(4)
    for x in [p.x1] + [p.x1 + rng.standard_normal(p.n) for _ in range(5)]:
        f_ref, g_ref = reference(p, x)
        f, g = p.value_and_gradient(x)
        assert f == f_ref and g.tobytes() == g_ref.tobytes()
        assert p.objective(x) == f_ref
        assert p.full_gradient(x).tobytes() == g_ref.tobytes()
    with pytest.raises(ValueError):
        p.value_and_gradient(np.zeros(p.n + 1))


def test_make_noisy_quadratic_gap_exact():
    p = make_noisy_quadratic(n=20, kappa=10.0, sigma=1.0, N=64, gap=1.0)
    assert p.gap == pytest.approx(1.0, abs=1e-12)
    assert p.L == pytest.approx(1.0, abs=1e-12)
    assert p.sigma_sq == 1.0


# ------------------------------------------------------------ least squares

def test_least_squares_mean_equals_full_gradient():
    A = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-1.0, 1.0]])
    b = np.array([1.0, 0.0, -2.0, 0.5])
    p = LeastSquares(A, b, x1=np.zeros(2))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(2)
        mean = sum(p.stochastic_gradient(x, xi) for xi in range(1, 5)) / 4
        assert np.max(np.abs(mean - p.full_gradient(x))) <= 1e-12


def test_least_squares_batch_sum_is_the_row_loop_bitwise():
    p = make_least_squares(n=6, N=30, seed=4)
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = p.x1 + rng.standard_normal(p.n)
        for xis in (np.array([], dtype=int), np.array([7]), np.array([3, 3, 30, 1]),
                    rng.integers(1, p.sample_count + 1, size=32)):
            loop = np.zeros(p.n)
            for xi in xis:  # one row dot product per sample, left to right
                a = p.A[xi - 1]
                loop += a * (float(a @ x) - p.b[xi - 1])
            assert p.batch_gradient_sum(x, xis).tobytes() == loop.tobytes()
    for xis in ([0, 1], [1, p.sample_count + 1]):
        with pytest.raises(ValueError, match="sample index"):
            p.batch_gradient_sum(p.x1, xis)


def test_least_squares_sigma_sq_two_sample_oracle():
    # hand oracle: A = I2, b = (1, 2), x = 0 gives deviations (-+0.5, +-1), both norms 1.25
    p = LeastSquares(np.eye(2), np.array([1.0, 2.0]), x1=np.zeros(2))
    assert estimate_sigma_sq(p, np.zeros(2), 2) == 1.25


def test_least_squares_gap_positive_and_finite():
    p = make_least_squares(n=6, N=30, seed=1)
    assert p.gap > 0
    assert math.isfinite(p.L) and p.L > 0
    assert p.L_max <= p.L + 1e-12


def test_least_squares_fd_gradient():
    p = make_least_squares(n=4, N=12, seed=2)
    x = np.array([0.2, -0.4, 1.0, 0.1])
    h = 1e-5
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (p.objective(x + e) - p.objective(x - e)) / (2 * h)
        assert fd == pytest.approx(p.full_gradient(x)[i], rel=1e-7)


# ------------------------------------------------------------ synthetic MLP

def test_mlp_spec_param_count():
    assert MlpSpec().param_count == 46_380
    assert MlpSpec(widths=(4, 3, 2), sample_count=10).param_count == 4 * 3 + 3 * 2 + 3 + 2


def test_mlp_default_dimension():
    p = make_synthetic_mlp(MlpSpec(sample_count=64), seed=0)
    assert p.n == 46_380
    assert p.x1.shape == (46_380,)


def test_mlp_deterministic_per_seed():
    a = make_synthetic_mlp(MlpSpec(sample_count=64), seed=9)
    b = make_synthetic_mlp(MlpSpec(sample_count=64), seed=9)
    assert np.array_equal(a.X[0], b.X[0])
    assert np.array_equal(a.Y[0], b.Y[0])
    assert np.array_equal(a.x1, b.x1)
    c = make_synthetic_mlp(MlpSpec(sample_count=64), seed=10)
    assert not np.array_equal(a.X[0], c.X[0])


def test_mlp_objective_at_teacher_matches_noise_level():
    spec = MlpSpec(sample_count=10_000, noise_std=0.7)
    p = make_synthetic_mlp(spec, seed=4)
    expected = 0.5 * spec.widths[-1] * spec.noise_std**2
    assert p.objective(p.theta_star) == pytest.approx(expected, rel=0.10)


def test_mlp_fd_gradient_50_coordinates():
    p = make_synthetic_mlp(MlpSpec(sample_count=128), seed=1)
    rng = np.random.default_rng(17)
    x = p.x1 + 0.05 * rng.standard_normal(p.n)
    g = p.full_gradient(x)
    # fd is ill-conditioned where the exact coordinate is ~0; probe well-scaled ones
    eligible = np.flatnonzero(np.abs(g) >= 1e-3 * np.max(np.abs(g)))
    coords = rng.choice(eligible, size=50, replace=False)
    h = 1e-5
    worst = 0.0
    for i in coords:
        e = np.zeros(p.n)
        e[i] = h
        fd = (p.objective(x + e) - p.objective(x - e)) / (2 * h)
        worst = max(worst, abs(fd - g[i]) / abs(g[i]))
    assert worst < 1e-4


def test_mlp_unbiased_over_all_samples():
    p = make_synthetic_mlp(MlpSpec(sample_count=512), seed=2)
    x = p.x1
    acc = np.zeros(p.n)
    for xi in range(1, p.sample_count + 1):
        acc += p.stochastic_gradient(x, xi)
    mean = acc / p.sample_count
    assert np.max(np.abs(mean - p.full_gradient(x))) <= 1e-8


def test_mlp_batch_sum_matches_per_sample_loop():
    p = make_synthetic_mlp(MlpSpec(sample_count=64), seed=3)
    xis = np.array([5, 1, 63, 5, 20])
    x = p.x1
    batch = p.batch_gradient_sum(x, xis)
    loop = sum(p.stochastic_gradient(x, int(xi)) for xi in xis)
    scale = np.max(np.abs(loop)) or 1.0
    assert np.max(np.abs(batch - loop)) <= 1e-9 * scale


def test_mlp_coordinate_gradient_matches_batch_entry():
    p = make_synthetic_mlp(MlpSpec(sample_count=64), seed=6)
    rng = np.random.default_rng(8)
    x = p.x1 + 0.05 * rng.standard_normal(p.n)
    xis = rng.integers(1, p.sample_count + 1, size=32)
    g = p.batch_gradient_sum(x, xis)
    coords = [int(i) for i in rng.integers(0, p.n, size=100)]
    for _, fan_out, start, w_end in p._layout:
        coords += [start, w_end - 1, w_end, w_end + fan_out - 1]  # first/last weight, bias
    worst = max(abs(p.coordinate_gradient_sum(x, xis, i) - g[i]) for i in coords)
    assert worst <= 1e-12 * np.max(np.abs(g))


def test_coordinate_gradient_validation():
    p = make_synthetic_mlp(MlpSpec(widths=(4, 3, 2), sample_count=10), seed=0)
    for i in (-1, p.n):
        with pytest.raises(ValueError, match="coordinate"):
            p.coordinate_gradient_sum(p.x1, [1, 2], i)
    for xis in ([0, 1], [1, p.sample_count + 1]):
        with pytest.raises(ValueError, match="sample index"):
            p.coordinate_gradient_sum(p.x1, xis, 0)


@pytest.mark.parametrize("make", [lambda: make_noisy_quadratic(n=7, N=16),
                                  lambda: make_least_squares(n=5, N=20)],
                         ids=["quadratic", "least_squares"])
def test_default_coordinate_gradient_is_batch_entry_bitwise(make):
    p = make()
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = p.x1 + rng.standard_normal(p.n)
        xis = rng.integers(1, p.sample_count + 1, size=3)
        g = p.batch_gradient_sum(x, xis)
        assert [p.coordinate_gradient_sum(x, xis, i) for i in range(p.n)] == g.tolist()
    with pytest.raises(ValueError, match="coordinate"):
        p.coordinate_gradient_sum(p.x1, [1], p.n)


def _mlp_outputs(p, theta):
    """net(X) for every sample by one unchunked forward pass, written out here."""
    A, pos = p.X, 0
    for li, (fan_in, fan_out) in enumerate(zip(p.widths, p.widths[1:])):
        W = theta[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        A = A @ W + theta[pos : pos + fan_out]
        pos += fan_out
        if li < len(p.widths) - 2:
            A = np.tanh(A)
    return A


def _openblas_threads():
    """numpy's OpenBLAS thread count, or None where it exports no thread control."""
    return core._blas_get() if core._blas_get is not None else None


def test_mlp_value_and_gradient_is_one_chunked_pass():
    # more samples than one evaluation chunk, so the chunk sums are exercised;
    # the reference is one sequential pass over all samples at once
    p = make_synthetic_mlp(MlpSpec(widths=(10, 5, 2), sample_count=20_000), seed=4)
    assert p.sample_count > p._EVAL_CHUNK
    x = p.x1 + 0.01
    f, g = p.value_and_gradient(x)
    resid = _mlp_outputs(p, x) - p.Y
    f_ref = 0.5 * float(np.sum(resid * resid)) / p.sample_count
    g_ref = p.batch_gradient_sum(x, np.arange(1, p.sample_count + 1)) / p.sample_count
    assert abs(f - f_ref) <= 1e-12 * f_ref
    assert np.max(np.abs(g - g_ref)) <= 1e-12 * float(np.max(np.abs(g_ref)))
    assert p.objective(x) == f and p.full_gradient(x).tobytes() == g.tobytes()


def test_mlp_pass_bits_do_not_depend_on_thread_count(monkeypatch):
    p = make_synthetic_mlp(MlpSpec(widths=(10, 5, 2), sample_count=20_000), seed=4)
    x = p.x1 + 0.01
    out = {}
    for threads in (1, 2):
        monkeypatch.setattr(problems, "cpu_count", lambda threads=threads: threads)
        f, g = p.value_and_gradient(x)
        out[threads] = (f, g.tobytes())
    assert out[1] == out[2]


def test_mlp_pass_pins_blas_and_restores_it_when_a_chunk_raises(monkeypatch):
    p = make_synthetic_mlp(MlpSpec(widths=(10, 5, 2), sample_count=9_000), seed=4)
    inner, seen, calls = p._loss_and_grad, set(), []

    def chunk(*args):
        seen.add(_openblas_threads())
        calls.append(1)
        if fail and len(calls) == 2:
            raise RuntimeError("chunk failure injected")
        return inner(*args)

    monkeypatch.setattr(p, "_loss_and_grad", chunk)
    before = _openblas_threads()
    set_count = core._blas_set or (lambda count: None)
    set_count(2)  # a count other than the pass's own, around a row evaluated mid-run
    try:
        cap = _openblas_threads()
        fail = False
        p.value_and_gradient(p.x1)
        assert _openblas_threads() == cap
        fail = True
        calls.clear()
        with pytest.raises(RuntimeError, match="chunk failure injected"):
            p.value_and_gradient(p.x1 + 0.01)
        assert _openblas_threads() == cap
    finally:
        set_count(before)
    assert _openblas_threads() == before
    assert seen == ({1} if before is not None else {None})


def test_mlp_targets_match_one_unchunked_pass():
    spec = MlpSpec(widths=(10, 5, 2), sample_count=12_000, noise_std=0.5)
    p = make_synthetic_mlp(spec, seed=7)
    assert p.sample_count > p._BUILD_CHUNK
    noise = derive_stream(SeedSpec(7), 0, "mlp-noise").standard_normal((p.sample_count, 2))
    assert p.Y.tobytes() == (_mlp_outputs(p, p.theta_star) + spec.noise_std * noise).tobytes()


@pytest.mark.parametrize("make", [lambda: make_noisy_quadratic(n=7, N=16),
                                  lambda: make_synthetic_mlp(MlpSpec(widths=(6, 4, 2), sample_count=300), seed=2)],
                         ids=["quadratic", "mlp"])
def test_start_point_is_evaluated_once_per_problem(make):
    p = make()
    vars(p).get("_cache", {}).pop("x1", None)  # the quadratic fills it while it is built
    starts = []
    inner = p.value_and_gradient
    p.value_and_gradient = lambda x: starts.append(x.tobytes() == p.x1.tobytes()) or inner(x)
    cfg = RunConfig(mode="serial", K=20, M=2, gamma=GammaRule.constant(0.01), checkpoint_every=10)
    runs = [run_serial_sg(p, cfg), run_param_server(p, dataclasses.replace(cfg, mode="con-threads"))[0]]
    assert starts.count(True) == 1
    f1, g1 = inner(p.x1)
    for trace in runs:
        assert trace.rows[0].f == f1 and trace.rows[0].gradsq == float(g1 @ g1)
    assert p.value_and_gradient_at_x1()[1].tobytes() == g1.tobytes()


def test_cached_start_gradient_is_read_only():
    p = make_synthetic_mlp(MlpSpec(widths=(6, 4, 2), sample_count=300), seed=2)
    f, g = p.value_and_gradient_at_x1()
    kept = g.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        g[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        g *= 2.0
    assert p.value_and_gradient_at_x1()[1].tobytes() == kept
    assert p.value_and_gradient_at_x1()[0] == f == p.gap


def test_mlp_estimated_constants_positive():
    p = make_synthetic_mlp(MlpSpec(sample_count=256), seed=5)
    assert p.constants_estimated
    assert p.gap > 0
    assert p.sigma_sq > 0
    l1 = p.l_s(1)
    assert math.isfinite(l1) and l1 > 0


# ------------------------------------------------------------ estimators

def test_estimate_sigma_sq_exact_on_quadratic():
    p = _identity_quadratic(sigma=1.0, N=10)
    assert estimate_sigma_sq(p, p.x1, 10) == 1.0


def test_estimate_sigma_sq_budget_validation():
    p = _identity_quadratic()
    with pytest.raises(ValueError):
        estimate_sigma_sq(p, p.x1, 0)
    with pytest.raises(ValueError):
        estimate_sigma_sq(p, p.x1, p.sample_count + 1)


def test_estimate_lipschitz_bounded_by_truth_on_quadratic():
    p = make_noisy_quadratic(n=8, kappa=5.0, sigma=0.5, N=16, gap=1.0)
    est = estimate_lipschitz(p)
    assert 0 < est <= p.L * (1 + 1e-9)
    est1 = estimate_lipschitz(p, s=1)
    assert est1 <= p.l_s(1) * (1 + 1e-9)


# ------------------------------------------------------------ the oracle contract

@pytest.mark.parametrize("make", [lambda: make_noisy_quadratic(n=4, N=8),
                                  lambda: make_least_squares(n=3, N=10),
                                  lambda: make_synthetic_mlp(MlpSpec(widths=(4, 3, 2), sample_count=10))],
                         ids=["quadratic", "least_squares", "mlp"])
def test_stochastic_gradient_rejects_samples_outside_1_to_N(make):
    p = make()
    for xi in (0, -1, p.sample_count + 1):
        with pytest.raises(ValueError, match="sample index"):
            p.stochastic_gradient(p.x1, xi)


class _MinimalProblem(Problem):
    """Implements only the contract: value_and_gradient, batch_gradient_sum and l_s.

    f(x) = (1/N) sum_xi 0.5 |x - c_xi|^2, so G(x; xi) = x - c_xi, L = L_s = 1 and
    f is minimal at the mean centre, where it equals sigma^2 / 2.
    """

    name = "minimal"

    def __init__(self, n: int = 4, N: int = 6):
        self.n, self.sample_count = n, N
        self.C = np.random.default_rng(0).standard_normal((N, n))
        self._x1 = np.full(n, 2.0)
        centre = self.C.mean(axis=0)
        self.L = self.L_max = 1.0
        self.sigma_sq = float(np.mean(np.sum((self.C - centre) ** 2, axis=1)))
        self.gap = 0.5 * float((self._x1 - centre) @ (self._x1 - centre))

    def value_and_gradient(self, x):
        d = self._check_x(x) - self.C
        return 0.5 * float(np.sum(d * d)) / self.sample_count, d.sum(axis=0) / self.sample_count

    def batch_gradient_sum(self, x, xis):
        x = self._check_x(x)
        acc = np.zeros(self.n)
        for r in self._batch_rows(xis).tolist():
            acc += x - self.C[r]
        return acc

    def l_s(self, s):
        return 1.0


def test_minimal_problem_derives_the_other_oracles():
    p = _MinimalProblem()
    x = np.array([0.5, -1.0, 0.0, 3.0])
    f, g = p.value_and_gradient(x)
    assert p.objective(x) == f and p.full_gradient(x).tobytes() == g.tobytes()
    for xi in range(1, p.sample_count + 1):
        assert p.stochastic_gradient(x, xi).tobytes() == (np.zeros(p.n) + (x - p.C[xi - 1])).tobytes()
    with pytest.raises(ValueError, match="sample index"):
        p.stochastic_gradient(x, p.sample_count + 1)


_MODELS = {"con-sim": {"delay_model": DelayModel.uniform()},
           "incon-sim": {"read_model": ReadModel.prefix(2)},
           "incon-sparse-sim": {"read_model": ReadModel.random_subset(0.5)}}


@pytest.mark.parametrize("mode", MODES)
def test_minimal_problem_runs_in_every_mode(mode):
    p = _MinimalProblem()
    workers = 1 if mode in SIM_MODES else 2
    cfg = RunConfig(mode=mode, K=400, M=2, gamma=GammaRule.constant(0.05), T=2, workers=workers,
                    checkpoint_every=50, seeds=SeedSpec(3), **_MODELS.get(mode, {}))
    result = ENGINES[mode](p, cfg)
    trace = result if mode in SIM_MODES else result[0]
    trace.validate(delay_cap=cfg.T if mode in SIM_MODES else None)
    assert [r.k for r in trace.rows] == list(range(0, cfg.K + 1, cfg.checkpoint_every))
    assert trace.rows[0].f == p.objective(p.x1)
    assert trace.rows[-1].f < 0.5 * trace.rows[0].f
    # one per-update log in every mode: entry j is update j, entry 0 is unused
    delays, ids = trace.meta["delays"], trace.meta["worker_ids"]
    assert len(delays) == len(ids) == cfg.K + 1
    assert delays[0] == 0 and ids[0] == 0
    running = np.maximum.accumulate(delays)
    assert [r.max_delay_observed for r in trace.rows] == [int(running[r.k]) for r in trace.rows]
    if mode in SIM_MODES:
        assert not ids.any()
    else:
        assert result[1] == delay_stats(delays[1:], ids[1:])
    # every engine keeps its final iterate, and row K is evaluated there
    assert trace.rows[-1].f == p.value_and_gradient(trace.meta["x_final"])[0]


_META = {"mode", "problem", "seed", "gamma", "workers", "config_fingerprint", "delays", "worker_ids", "x_final"}
_ENGINE_META = {"incon-sim": {"sparse_skips", "coords", "deltas"},
                "incon-sparse-sim": {"sparse_skips", "coords", "deltas"},
                "con-threads": {"blas_threads"},
                "incon-threads": {"blas_threads", "snapshots"}}


@pytest.mark.parametrize("mode", MODES)
def test_recorder_owns_step_size_delay_cap_and_meta(mode, monkeypatch):
    """The recorder, not the engine, resolves gamma, picks the delay cap and
    writes the trace meta: each mode's meta keys are fixed."""
    recorders = []
    finish = core.Recorder.finish

    def spy(rec, x, **meta):
        recorders.append(rec)
        return finish(rec, x, **meta)

    monkeypatch.setattr(core.Recorder, "finish", spy)
    p = _MinimalProblem()
    cfg = RunConfig(mode=mode, K=200, M=2, gamma=GammaRule.corollary2(), T=2,
                    workers=1 if mode in SIM_MODES else 2, checkpoint_every=50, seeds=SeedSpec(3),
                    **_MODELS.get(mode, {}))
    result = ENGINES[mode](p, cfg)
    trace = result if mode in SIM_MODES else result[0]
    assert set(trace.meta) == _META | _ENGINE_META.get(mode, set())
    gamma = core.resolve_gamma(cfg, p)
    assert gamma != 0.01  # the rule was resolved, not the RunConfig default
    assert trace.rows[0].gamma == trace.meta["gamma"] == gamma
    [rec] = recorders
    assert rec.gamma == gamma
    assert rec.delay_cap == (cfg.T if mode in SIM_MODES else None)
    if mode not in SIM_MODES:
        assert result[1] == rec.delay_stats()
