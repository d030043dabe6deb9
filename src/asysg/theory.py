"""Smoothness constants, constant-steplength rules, condition checks, and bound values.

Key naming convention: the JSON report keys (gamma_eq9, bound_eq16, ...) and the
variant tags (thm1-const, cor2, thm3, thm3-appendix, cor4, sparse) are the public
contract; each function documents the exact closed form it evaluates.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

CON_BOUND_VARIANTS = ("thm1-const", "cor2")
INCON_BOUND_VARIANTS = ("thm3", "thm3-appendix", "cor4", "sparse")

# Matrix entries per batched eigensolve in `constants_quadratic` (128 KB of
# float64): memory stays flat however many supports are enumerated.  At 2 MB
# the enumeration for the 20-dim quadratic set a new peak RSS (+0.6 MB); that
# diagonal quadratic no longer enumerates, since its top column reaches L.
EIGH_BLOCK_ENTRIES = 1 << 14
# Supports `constants_quadratic` may enumerate over all requested sizes; past
# it only the bound L_s <= L holds.
ENUMERATION_LIMIT = 3_000_000


def _require_positive(**kw) -> None:
    for name, v in kw.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")


def _require_nonneg_int(**kw) -> None:
    for name, v in kw.items():
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


# ------------------------------------------------------------ smoothness constants

@dataclass(frozen=True)
class SmoothnessConstants:
    """L (full), L_max (per-coordinate), and the support-restricted map s -> L_s."""

    L: float
    L_max: float
    L_s: dict[int, float]


def constants_quadratic(Q: np.ndarray, s_values: Sequence[int] | None = None) -> SmoothnessConstants:
    """Exact smoothness constants of f(x) = 0.5 (x-c)' Q (x-c).

    L is the spectral norm of Q, L_max the largest |Q_ii|, and L_s the maximum
    spectral norm of Q restricted to s columns, taken over all supports of size s
    (equivalently sqrt of the largest eigenvalue of an s x s principal submatrix
    of Q^2).  Each s first solves the support of the s largest columns; if that
    reaches L, the [L_max, L] clamp below makes L_s = L and no other support is
    solved.  Otherwise all C(n, s) supports are stacked and solved by one batched
    eigensolve per block of at most EIGH_BLOCK_ENTRIES matrix entries.  Each
    matrix goes through the same LAPACK routine as a single solve would, so
    every L_s is the float a per-support loop gives.  ENUMERATION_LIMIT counts
    all C(n, s) supports, shortcut or not, and raises before any eigensolve.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(Q).max()))):
        raise ValueError("Q must be symmetric")
    n = Q.shape[0]
    if s_values is None:
        s_values = range(1, n + 1)
    s_values = sorted(set(int(s) for s in s_values))
    if any(s < 1 or s > n for s in s_values):
        raise ValueError(f"support sizes must lie in 1..{n}, got {s_values}")

    total = sum(math.comb(n, s) for s in s_values)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"support enumeration needs {total} subsets (> {ENUMERATION_LIMIT}); "
            "without it only the bound L_s <= L holds"
        )

    Q2 = Q @ Q
    L = math.sqrt(max(float(np.linalg.eigvalsh(Q2)[-1]), 0.0))
    L_max = float(np.abs(np.diag(Q)).max())

    order = sorted(range(n), key=lambda i: -Q2[i, i])  # columns by falling norm
    raw: dict[int, float] = {}
    for s in s_values:
        top = sorted(order[:s])  # index order as enumerated, so the same float
        if math.sqrt(max(float(np.linalg.eigvalsh(Q2[np.ix_(top, top)])[-1]), 0.0)) >= L:
            raw[s] = L  # an enumeration's max is at least this support's value
            continue
        best = 0.0
        block = max(1, EIGH_BLOCK_ENTRIES // (s * s))
        supports = chain.from_iterable(combinations(range(n), s))
        while True:
            S = np.fromiter(islice(supports, block * s), dtype=np.intp).reshape(-1, s)
            if not len(S):
                break
            lam = float(np.linalg.eigvalsh(Q2[S[:, :, None], S[:, None, :]])[:, -1].max())
            if lam > best:
                best = lam
        raw[s] = math.sqrt(best)

    # the true map is nondecreasing in s and pinned inside [L_max, L];
    # enforce both to absorb last-ulp eigensolver jitter
    ls: dict[int, float] = {}
    running = 0.0
    for s in s_values:
        running = max(running, raw[s])
        ls[s] = min(max(running, L_max), L)
    return SmoothnessConstants(L=L, L_max=L_max, L_s=ls)


# ------------------------------------------------------------ consistent-read theory

def steplength_corollary2(gap: float, M: int, L: float, K: int, sigma_sq: float) -> float:
    """Constant steplength sqrt(gap / (M L K sigma^2))."""
    _require_positive(gap=gap, M=M, L=L, K=K, sigma_sq=sigma_sq)
    return math.sqrt(gap / (M * L * K * sigma_sq))


def k_threshold_corollary2(gap: float, M: int, L: float, sigma_sq: float, T: int) -> int:
    """Smallest iteration budget ceil(4 M L gap / sigma^2 * (T+1)^2) the rate needs."""
    _require_positive(gap=gap, M=M, L=L, sigma_sq=sigma_sq)
    _require_nonneg_int(T=T)
    return math.ceil(4.0 * M * L * gap / sigma_sq * (T + 1) ** 2)


def check_condition_thm1(
    gamma: float | Sequence[float], L: float, M: int, T: int
) -> bool:
    """Steplength condition L M g_k + 2 L^2 M^2 T g_k sum_{kappa=1..T} g_{k+kappa} <= 1.

    Accepts a constant gamma (closed form L M g + 2 L^2 M^2 T^2 g^2 <= 1) or a
    finite schedule, which is padded by repeating its last entry so every window
    is defined.
    """
    _require_positive(L=L, M=M)
    _require_nonneg_int(T=T)
    if np.isscalar(gamma):
        g = float(gamma)
        if g < 0:
            raise ValueError("gamma must be nonnegative")
        return L * M * g + 2.0 * L * L * M * M * T * T * g * g <= 1.0
    sched = [float(g) for g in gamma]
    if not sched:
        raise ValueError("empty steplength schedule")
    if any(g < 0 for g in sched):
        raise ValueError("steplengths must be nonnegative")
    padded = sched + [sched[-1]] * T
    for k in range(len(sched)):
        tail = sum(padded[k + 1 : k + 1 + T])
        if L * M * sched[k] + 2.0 * L * L * M * M * T * sched[k] * tail > 1.0:
            return False
    return True


def bound_con(
    gap: float,
    M: int,
    L: float,
    K: int,
    sigma_sq: float,
    T: int,
    gamma: float,
    variant: str,
) -> float:
    """Ergodic-rate bound for the consistent-read algorithm.

    thm1-const: 2 gap/(M K gamma) + gamma L sigma^2 + 2 L^2 M T gamma^2 sigma^2,
    valid when the thm1 steplength condition holds.  cor2: 4 sqrt(gap L/(M K)) sigma,
    valid when K reaches the corollary-2 threshold.
    """
    _require_positive(gap=gap, M=M, L=L, K=K, sigma_sq=sigma_sq)
    _require_nonneg_int(T=T)
    if variant == "thm1-const":
        _require_positive(gamma=gamma)
        if not check_condition_thm1(gamma, L, M, T):
            raise ValueError(f"steplength condition fails for gamma={gamma}, L={L}, M={M}, T={T}")
        return (
            2.0 * gap / (M * K * gamma)
            + gamma * L * sigma_sq
            + 2.0 * L * L * M * T * gamma * gamma * sigma_sq
        )
    if variant == "cor2":
        kmin = k_threshold_corollary2(gap, M, L, sigma_sq, T)
        if K < kmin:
            raise ValueError(f"K={K} below the corollary-2 threshold {kmin}")
        return 4.0 * math.sqrt(gap * L / (M * K)) * math.sqrt(sigma_sq)
    raise ValueError(f"variant must be one of {CON_BOUND_VARIANTS}, got {variant!r}")


# ------------------------------------------------------------ inconsistent-read theory

def steplength_corollary4(gap: float, n: int, K: int, L_T: float, M: int, sigma: float) -> float:
    """Constant steplength sqrt(gap n) / (sqrt(K L_T M) sigma)."""
    _require_positive(gap=gap, n=n, K=K, L_T=L_T, M=M, sigma=sigma)
    return math.sqrt(gap * n) / (math.sqrt(K * L_T * M) * sigma)


def k_threshold_corollary4(gap: float, L_T: float, M: int, n: int, T: int, sigma_sq: float) -> int:
    """Smallest iteration budget ceil(16 gap L_T M (n^1.5 + 4 T^2) / (sqrt(n) sigma^2))."""
    _require_positive(gap=gap, L_T=L_T, M=M, n=n, sigma_sq=sigma_sq)
    _require_nonneg_int(T=T)
    return math.ceil(16.0 * gap * L_T * M * (n**1.5 + 4.0 * T * T) / (math.sqrt(n) * sigma_sq))


def check_condition_thm3(gamma: float, M: int, T: int, L_T: float, L_max: float, n: int) -> bool:
    """Steplength condition 2 M^2 T L_T^2 (sqrt(n)+T-1) gamma^2 / n^1.5 + 2 M L_max gamma <= 1."""
    _require_positive(M=M, L_T=L_T, L_max=L_max, n=n)
    _require_nonneg_int(T=T)
    g = float(gamma)
    if g < 0:
        raise ValueError("gamma must be nonnegative")
    lhs = (
        2.0 * M * M * T * L_T * L_T * (math.sqrt(n) + T - 1.0) * g * g / n**1.5
        + 2.0 * M * L_max * g
    )
    return lhs <= 1.0


def bound_incon(
    gap: float,
    n: int,
    K: int,
    M: int,
    T: int,
    L_T: float,
    L_max: float,
    sigma_sq: float,
    gamma: float,
    variant: str,
    g0max: float | None = None,
) -> float:
    """Ergodic-rate bound for the inconsistent-read algorithm.

    thm3:          2 n gap/(K M gamma) + L_T^2 T M gamma^2 sigma^2 / (2n) + L_max gamma sigma^2
    thm3-appendix: same with middle term 2 L_T^2 T M gamma^2 sigma^2 / n  (4x the thm3 one;
                   the two printed forms disagree, so both are exposed)
    cor4:          sqrt(72 gap L_T n / (K M)) sigma, valid once K reaches the threshold
    sparse:        6 sqrt(2 gap L_T) g0max sigma / sqrt(K M), g0max bounding the
                   support size of the aggregated gradients
    """
    _require_positive(gap=gap, n=n, K=K, M=M, L_T=L_T, L_max=L_max, sigma_sq=sigma_sq)
    _require_nonneg_int(T=T)
    sigma = math.sqrt(sigma_sq)
    if variant in ("thm3", "thm3-appendix"):
        _require_positive(gamma=gamma)
        if not check_condition_thm3(gamma, M, T, L_T, L_max, n):
            raise ValueError(f"steplength condition fails for gamma={gamma}")
        head = 2.0 * n * gap / (K * M * gamma)
        tail = L_max * gamma * sigma_sq
        if variant == "thm3":
            mid = L_T * L_T * T * M * gamma * gamma * sigma_sq / (2.0 * n)
        else:
            mid = 2.0 * L_T * L_T * T * M * gamma * gamma * sigma_sq / n
        return head + mid + tail
    if variant == "cor4":
        kmin = k_threshold_corollary4(gap, L_T, M, n, T, sigma_sq)
        if K < kmin:
            raise ValueError(f"K={K} below the corollary-4 threshold {kmin}")
        return math.sqrt(72.0 * gap * L_T * n / (K * M)) * sigma
    if variant == "sparse":
        if g0max is None:
            raise ValueError("sparse variant needs g0max")
        _require_positive(g0max=g0max)
        return 6.0 * math.sqrt(2.0 * gap * L_T) * g0max * sigma / math.sqrt(K * M)
    raise ValueError(f"variant must be one of {INCON_BOUND_VARIANTS}, got {variant!r}")


# ------------------------------------------------------------ report

REPORT_KEYS = (
    "gamma_eq9",
    "kmin_eq10",
    "cond_eq7",
    "bound_eq11",
    "gamma_eq17",
    "kmin_eq18",
    "cond_eq15",
    "bound_eq16",
    "bound_eq42",
    "bound_eq19",
    "bound_eq20",
)


@dataclass
class TheoryReport:
    """All steplength/threshold/condition/bound values for one (problem, K, M, T) setup."""

    gamma_eq9: float
    kmin_eq10: int
    cond_eq7: bool
    bound_eq11: float | None
    gamma_eq17: float
    kmin_eq18: int
    cond_eq15: bool
    bound_eq16: float | None
    bound_eq42: float | None
    bound_eq19: float | None
    bound_eq20: float | None
    constants: str  # "exact" or "estimated"
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in REPORT_KEYS}
        d["constants"] = self.constants
        d["notes"] = list(self.notes)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def build_theory_report(
    gap: float,
    M: int,
    L: float,
    K: int,
    sigma_sq: float,
    T: int,
    n: int,
    L_T: float,
    L_max: float,
    constants_estimated: bool = False,
) -> TheoryReport:
    """Evaluate every report key; bounds whose precondition fails come back None with a note.
    bound_eq20 takes g0max = n, the largest support an aggregated gradient can have."""
    notes: list[str] = []
    gamma9 = steplength_corollary2(gap, M, L, K, sigma_sq)
    kmin10 = k_threshold_corollary2(gap, M, L, sigma_sq, T)
    cond7 = check_condition_thm1(gamma9, L, M, T)
    if K >= kmin10:
        b11: float | None = bound_con(gap, M, L, K, sigma_sq, T, gamma9, "cor2")
    else:
        b11 = None
        notes.append(f"bound_eq11 skipped: K={K} below threshold {kmin10}")

    sigma = math.sqrt(sigma_sq)
    gamma17 = steplength_corollary4(gap, n, K, L_T, M, sigma)
    kmin18 = k_threshold_corollary4(gap, L_T, M, n, T, sigma_sq)
    cond15 = check_condition_thm3(gamma17, M, T, L_T, L_max, n)
    if cond15:
        b16: float | None = bound_incon(gap, n, K, M, T, L_T, L_max, sigma_sq, gamma17, "thm3")
        b42: float | None = bound_incon(
            gap, n, K, M, T, L_T, L_max, sigma_sq, gamma17, "thm3-appendix"
        )
    else:
        b16 = b42 = None
        notes.append("bound_eq16/bound_eq42 skipped: steplength condition fails at gamma_eq17")
    if K >= kmin18:
        b19: float | None = bound_incon(gap, n, K, M, T, L_T, L_max, sigma_sq, gamma17, "cor4")
    else:
        b19 = None
        notes.append(f"bound_eq19 skipped: K={K} below threshold {kmin18}")
    b20 = bound_incon(gap, n, K, M, T, L_T, L_max, sigma_sq, gamma17, "sparse", g0max=float(n))

    return TheoryReport(
        gamma_eq9=gamma9,
        kmin_eq10=kmin10,
        cond_eq7=cond7,
        bound_eq11=b11,
        gamma_eq17=gamma17,
        kmin_eq18=kmin18,
        cond_eq15=cond15,
        bound_eq16=b16,
        bound_eq42=b42,
        bound_eq19=b19,
        bound_eq20=b20,
        constants="estimated" if constants_estimated else "exact",
        notes=notes,
    )
