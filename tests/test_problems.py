from __future__ import annotations

import math

import numpy as np
import pytest

from asysg.problems import (
    LeastSquares,
    MlpSpec,
    NoisyQuadratic,
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


def test_quadratic_noise_pairs_cancel_exactly():
    p = _identity_quadratic(sigma=1.7, N=12)
    acc = np.zeros(p.n)
    for xi in range(1, p.sample_count + 1):
        acc += p.noise_vector(xi)  # left-to-right, pairs cancel bitwise
    assert np.array_equal(acc, np.zeros(p.n))


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
        p.stochastic_gradient(p.x1, 0)
    with pytest.raises(ValueError):
        p.stochastic_gradient(p.x1, p.sample_count + 1)
    with pytest.raises(ValueError):
        p.full_gradient(np.zeros(3))
    with pytest.raises(ValueError):
        NoisyQuadratic(np.eye(2), np.zeros(2), 1.0, 7, np.zeros(2))  # odd N
    with pytest.raises(ValueError):
        NoisyQuadratic(-np.eye(2), np.zeros(2), 1.0, 8, np.zeros(2))  # not PSD


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
    for (start, w_end), (_, fan_out) in zip(p._weight_slices(), p._layer_shapes()):
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


def test_mlp_value_and_gradient_is_one_chunked_pass():
    # more samples than one evaluation chunk, so the chunk sums are exercised
    p = make_synthetic_mlp(MlpSpec(widths=(10, 5, 2), sample_count=20_000), seed=4)
    x = p.x1 + 0.01
    f, g = p.value_and_gradient(x)
    assert f == p.objective(x)                      # same forward pass, same summation order
    whole = p.batch_gradient_sum(x, np.arange(1, p.sample_count + 1)) / p.sample_count
    assert np.max(np.abs(g - whole)) <= 1e-10 * max(1.0, float(np.max(np.abs(whole))))

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
    est = estimate_lipschitz(p, trials=16)
    assert 0 < est <= p.L * (1 + 1e-9)
    est1 = estimate_lipschitz(p, s=1, trials=16)
    assert est1 <= p.l_s(1) * (1 + 1e-9)
