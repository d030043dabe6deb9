from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from asysg import theory
from asysg.problems import make_noisy_quadratic
from asysg.theory import (
    SmoothnessConstants,
    bound_con,
    bound_incon,
    build_theory_report,
    check_condition_thm1,
    check_condition_thm3,
    constants_quadratic,
    k_threshold_corollary2,
    k_threshold_corollary4,
    steplength_corollary2,
    steplength_corollary4,
)


def brute_force_l_s(Q: np.ndarray, s: int) -> float:
    """Independent oracle: largest spectral norm of any n x s column submatrix, via SVD."""
    n = Q.shape[0]
    best = 0.0
    for S in combinations(range(n), s):
        sv = np.linalg.svd(Q[:, list(S)], compute_uv=False)
        best = max(best, float(sv[0]))
    return best


def per_support_l_s(Q: np.ndarray, s_values) -> dict[int, float]:
    """Reference map s -> L_s: one eigvalsh per principal submatrix of Q^2, then
    the running max and the [L_max, L] clamp that constants_quadratic documents."""
    Q2 = Q @ Q
    n = Q.shape[0]
    L = math.sqrt(max(float(np.linalg.eigvalsh(Q2)[-1]), 0.0))
    L_max = float(np.abs(np.diag(Q)).max())
    out, running = {}, 0.0
    for s in s_values:
        if s == n:
            raw = L
        elif s == 1:
            raw = math.sqrt(float(np.diag(Q2).max()))
        else:
            best = 0.0
            for S in combinations(range(n), s):
                lam = float(np.linalg.eigvalsh(Q2[np.ix_(S, S)])[-1])
                if lam > best:
                    best = lam
            raw = math.sqrt(max(best, 0.0))
        running = max(running, raw)
        out[s] = min(max(running, L_max), L)
    return out


# ------------------------------------------------------------ constants

def test_constants_identity():
    c = constants_quadratic(np.eye(2))
    assert c.L == pytest.approx(1.0, abs=1e-12)
    assert c.L_max == 1.0
    assert c.L_s[1] == pytest.approx(1.0, abs=1e-12)
    assert c.L_s[2] == pytest.approx(1.0, abs=1e-12)


def test_constants_2x2_example():
    Q = np.array([[2.0, 1.0], [1.0, 2.0]])
    c = constants_quadratic(Q)
    assert c.L == pytest.approx(3.0, abs=1e-12)
    assert c.L_max == 2.0
    assert c.L_s[1] == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert c.L_s[2] == pytest.approx(3.0, abs=1e-12)


def test_constants_random_4x4_vs_bruteforce():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((4, 4))
    Q = (A + A.T) / 2
    c = constants_quadratic(Q)
    for s in range(1, 5):
        assert c.L_s[s] == pytest.approx(brute_force_l_s(Q, s), abs=1e-10)


def test_constants_ordering_and_monotone():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        Q = (A + A.T) / 2
        c = constants_quadratic(Q)
        vals = [c.L_s[s] for s in range(1, 7)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert c.L_max <= vals[0] + 1e-12
        assert vals[-1] <= c.L + 1e-12


def test_constants_rejects_bad_input():
    with pytest.raises(ValueError):
        constants_quadratic(np.ones((2, 3)))
    with pytest.raises(ValueError):
        constants_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        constants_quadratic(np.eye(30), enumeration_limit=1000)


def test_constants_equal_per_support_loop_bit_for_bit():
    rng = np.random.default_rng(2015)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        A = rng.standard_normal((n, n))
        Q = (A + A.T) / 2
        ref = per_support_l_s(Q, range(1, n + 1))
        c = constants_quadratic(Q)
        assert c.L_s == ref
        for s in range(1, n + 1):
            assert constants_quadratic(Q, s_values=[s]).L_s[s] == per_support_l_s(Q, [s])[s]


def test_shipped_quadratic_l_t_equals_per_support_loop():
    p = make_noisy_quadratic()
    assert p.n == 20
    for s in (1, 4, p.n):  # the ends against the reference's closed forms, sqrt(max diag Q^2) and L
        assert p.l_s(s) == per_support_l_s(p.Q, [s])[s]


def test_constants_blocks_span_supports(monkeypatch):
    # 36 entries hold four 3 x 3 submatrices: C(7, 3) = 35 supports make eight
    # full blocks and a partial last one of three
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 7))
    Q = (A + A.T) / 2
    ref = per_support_l_s(Q, [3])
    real = np.linalg.eigvalsh
    stacks = []

    def counting_eigvalsh(a, *args, **kw):
        if np.ndim(a) == 3:
            stacks.append(len(a))
        return real(a, *args, **kw)

    monkeypatch.setattr(theory, "EIGH_BLOCK_ENTRIES", 36)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert constants_quadratic(Q, s_values=[3]).L_s == ref
    assert stacks == [4] * 8 + [3]


def test_constants_limit_raises_before_any_eigensolve(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match=r"L_s <= L"):
        constants_quadratic(np.eye(30), s_values=[15])  # C(30, 15) is past the default limit
    assert calls == []


# ------------------------------------------------------------ consistent-read formulas

def test_steplength_corollary2_examples():
    assert steplength_corollary2(1, 1, 1, 100, 1) == pytest.approx(0.1, abs=1e-15)
    assert steplength_corollary2(2, 4, 0.5, 800, 0.25) == pytest.approx(math.sqrt(0.005), abs=1e-15)
    assert steplength_corollary2(1, 1, 1, 400, 1) == pytest.approx(0.05, abs=1e-15)
    with pytest.raises(ValueError):
        steplength_corollary2(0, 1, 1, 100, 1)


def test_k_threshold_corollary2_examples():
    assert k_threshold_corollary2(1, 1, 1, 1, 3) == 64
    assert k_threshold_corollary2(1, 1, 1, 1, 0) == 4
    assert k_threshold_corollary2(0.5, 2, 1, 0.25, 1) == 64
    with pytest.raises(ValueError):
        k_threshold_corollary2(1, 1, 1, 1, -1)


def test_condition_thm1_examples():
    assert check_condition_thm1(0.1, 1, 1, 2)  # 0.1 + 0.08 <= 1
    assert not check_condition_thm1(1.0, 1, 1, 2)  # 1 + 8 > 1
    assert check_condition_thm1(1.0, 1, 1, 0)  # reduces to L M gamma <= 1
    assert not check_condition_thm1(1.0 + 1e-9, 1, 1, 0)


def test_condition_thm1_schedule():
    # schedule check: a burst late in the schedule must be caught
    assert check_condition_thm1([0.1, 0.1, 0.1], 1, 1, 2)
    assert not check_condition_thm1([0.1, 0.1, 1.0], 1, 1, 2)
    with pytest.raises(ValueError):
        check_condition_thm1([], 1, 1, 2)


def test_bound_con_examples():
    v = bound_con(1, 1, 1, 100, 1, 2, 0.1, "thm1-const")
    assert v == pytest.approx(0.34, abs=1e-12)  # 0.2 + 0.1 + 0.04
    assert bound_con(1, 1, 1, 100, 1, 0, 0.1, "cor2") == pytest.approx(0.4, abs=1e-12)
    b1 = bound_con(1, 1, 1, 100, 1, 0, 0.1, "cor2")
    b4 = bound_con(1, 1, 1, 400, 1, 0, 0.05, "cor2")
    assert b4 == pytest.approx(b1 / 2, abs=1e-12)


def test_bound_con_preconditions():
    with pytest.raises(ValueError):
        bound_con(1, 1, 1, 100, 1, 2, 1.0, "thm1-const")  # condition fails
    with pytest.raises(ValueError):
        bound_con(1, 1, 1, 3, 1, 0, 0.1, "cor2")  # K below threshold 4
    with pytest.raises(ValueError):
        bound_con(1, 1, 1, 100, 1, 0, 0.1, "unknown")


# ------------------------------------------------------------ inconsistent-read formulas

def test_steplength_corollary4_examples():
    assert steplength_corollary4(1, 4, 100, 1, 1, 1) == pytest.approx(0.2, abs=1e-15)
    assert steplength_corollary4(1, 1, 100, 1, 1, 1) == pytest.approx(0.1, abs=1e-15)
    assert steplength_corollary4(4, 4, 100, 1, 4, 2) == pytest.approx(0.1, abs=1e-15)


def test_k_threshold_corollary4_examples():
    assert k_threshold_corollary4(1, 1, 1, 4, 1, 1) == 96
    assert k_threshold_corollary4(1, 1, 1, 4, 0, 1) == 64
    assert k_threshold_corollary4(1, 1, 1, 1, 0, 1) == 16


def test_condition_thm3_examples():
    assert check_condition_thm3(0.1, 1, 1, 1, 1, 4)  # 0.005 + 0.2 <= 1
    assert not check_condition_thm3(1.0, 1, 1, 1, 1, 4)  # 0.5 + 2 > 1
    assert check_condition_thm3(0.5, 1, 0, 1, 1, 4)  # T=0: equality at gamma = 1/(2 M L_max)


def test_bound_incon_examples():
    assert bound_incon(1, 4, 288, 1, 0, 1, 1, 1, 0.1, "cor4") == pytest.approx(1.0, abs=1e-12)
    assert bound_incon(1, 1, 100, 1, 0, 1, 1, 1, 0.1, "thm3") == pytest.approx(0.3, abs=1e-12)
    v = bound_incon(1, 1, 72, 2, 0, 1, 1, 1, 0.1, "sparse", g0max=2)
    assert v == pytest.approx(math.sqrt(2.0), abs=1e-12)  # 6 sqrt(2) * 2 / 12


def test_bound_incon_appendix_variant_is_4x_middle_term():
    # difference between the two printed middle terms, isolated by subtracting shared terms
    args = dict(gap=1, n=4, K=100, M=2, T=3, L_T=0.5, L_max=0.5, sigma_sq=2.0, gamma=0.05)
    base = bound_incon(**args, variant="thm3")
    app = bound_incon(**args, variant="thm3-appendix")
    mid = 0.5**2 * 3 * 2 * 0.05**2 * 2.0 / (2 * 4)
    assert app - base == pytest.approx(3.0 * mid, rel=1e-12)


def test_bound_incon_preconditions():
    with pytest.raises(ValueError):
        bound_incon(1, 4, 10, 1, 0, 1, 1, 1, 0.1, "cor4")  # K below threshold
    with pytest.raises(ValueError):
        bound_incon(1, 4, 100, 1, 1, 1, 1, 1, 10.0, "thm3")  # condition fails
    with pytest.raises(ValueError):
        bound_incon(1, 4, 100, 1, 0, 1, 1, 1, 0.1, "sparse")  # missing g0max


def test_bound_scaling_k_inverse_sqrt():
    for K in (64, 256, 1024):
        b = bound_con(1, 1, 1, K, 1, 0, 0.1, "cor2")
        b2 = bound_con(1, 1, 1, 2 * K, 1, 0, 0.1, "cor2")
        assert b2 * math.sqrt(2.0) == pytest.approx(b, rel=1e-12)
    for K in (512, 1024):
        b = bound_incon(1, 4, K, 1, 0, 1, 1, 1, 0.1, "cor4")
        b2 = bound_incon(1, 4, 2 * K, 1, 0, 1, 1, 1, 0.1, "cor4")
        assert b2 * math.sqrt(2.0) == pytest.approx(b, rel=1e-12)


# ------------------------------------------------------------ corollary consistency (module-scale)

def _random_tuples(rng, count):
    for _ in range(count):
        yield (
            float(10.0 ** rng.uniform(-3, 3)),  # gap
            int(rng.integers(1, 65)),           # M
            float(10.0 ** rng.uniform(-3, 3)),  # L
            float(10.0 ** rng.uniform(-3, 3)),  # sigma_sq
            int(rng.integers(0, 65)),           # T
        )


def test_corollary2_consistency_sample():
    rng = np.random.default_rng(123)
    for gap, M, L, sigma_sq, T in _random_tuples(rng, 200):
        K = k_threshold_corollary2(gap, M, L, sigma_sq, T)
        gamma = steplength_corollary2(gap, M, L, K, sigma_sq)
        assert check_condition_thm1(gamma, L, M, T), (gap, M, L, sigma_sq, T, K, gamma)


def test_corollary4_consistency_sample():
    rng = np.random.default_rng(321)
    for gap, M, L, sigma_sq, T in _random_tuples(rng, 200):
        n = int(rng.integers(1, 10_001))
        L_T = L_max = L
        K = k_threshold_corollary4(gap, L_T, M, n, T, sigma_sq)
        gamma = steplength_corollary4(gap, n, K, L_T, M, math.sqrt(sigma_sq))
        assert check_condition_thm3(gamma, M, T, L_T, L_max, n), (gap, M, L, sigma_sq, T, n, K)


# ------------------------------------------------------------ report

def test_report_keys_and_verify():
    rep = build_theory_report(gap=1, M=1, L=1, K=100, sigma_sq=1, T=3, n=4, L_T=1, L_max=1)
    d = rep.to_dict()
    for key in (
        "gamma_eq9", "kmin_eq10", "cond_eq7", "bound_eq11",
        "gamma_eq17", "kmin_eq18", "cond_eq15", "bound_eq16",
        "bound_eq42", "bound_eq19", "bound_eq20",
    ):
        assert key in d
    assert d["gamma_eq9"] == pytest.approx(0.1)
    assert d["kmin_eq10"] == 64
    assert d["cond_eq7"] is True
    assert d["bound_eq11"] == pytest.approx(0.4)
    assert d["constants"] == "exact"
    assert rep.verify()


def test_report_below_threshold_gives_none_with_note():
    rep = build_theory_report(gap=1, M=1, L=1, K=2, sigma_sq=1, T=3, n=4, L_T=1, L_max=1)
    assert rep.bound_eq11 is None
    assert rep.bound_eq19 is None
    assert any("threshold" in note for note in rep.notes)


def test_smoothness_constants_frozen():
    c = SmoothnessConstants(L=1.0, L_max=1.0, L_s={1: 1.0})
    with pytest.raises(AttributeError):
        c.L = 2.0
