"""Gradient-oracle problems with known (or estimated) smoothness and variance constants.

Every problem is a finite sum f(x) = (1/N) sum_xi F(x; xi) over samples xi in {1..N},
with G(x; xi) the exact per-sample gradient, so the finite-population mean of G is
the full gradient.  An oracle's result depends on its arguments alone, and the
oracles are safe to call from any thread.  The noisy quadratic keeps a bounded
cache of grad f per read point, which changes no bit of any result.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import SeedSpec, blas_threads, cpu_count, derive_stream
from .theory import constants_quadratic


class Problem:
    """Base oracle bundle.

    A problem implements value_and_gradient(x) = (f(x), grad f(x)),
    batch_gradient_sum(x, xis) = the sum of G(x; xi) over the samples, and
    l_s(s).  It may override coordinate_gradient_sum, whose default reads the
    entry off the batch sum.  objective, full_gradient, stochastic_gradient and
    value_and_gradient_at_x1 (the start point's pair, evaluated once per
    problem) derive from these.

    Attributes: n (dimension), sample_count (N), x1 (initial point), and the
    constants L, L_max, sigma_sq, gap.  constants_estimated marks problems whose
    constants come from sampling rather than closed forms.
    """

    name: str = "problem"
    constants_estimated: bool = False

    n: int
    sample_count: int

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected parameter vector of shape ({self.n},), got {x.shape}")
        return x

    def _check_xi(self, xi: int) -> int:
        if not 1 <= xi <= self.sample_count:
            raise ValueError(f"sample index {xi} outside 1..{self.sample_count}")
        return int(xi)

    def _check_coord(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate {i} outside 0..{self.n - 1}")
        return int(i)

    def _batch_rows(self, xis: np.ndarray) -> np.ndarray:
        """0-based data rows of the 1-based sample indices xis."""
        idx = np.asarray(xis, dtype=int)
        if idx.size and (idx.min() < 1 or idx.max() > self.sample_count):
            raise ValueError("sample index outside 1..N in batch")
        return idx - 1

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)) from one pass."""
        raise NotImplementedError

    def batch_gradient_sum(self, x: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """Sum of G(x; xi) over the given samples, accumulated left to right, as a new
        array that the caller may change in place."""
        raise NotImplementedError

    def objective(self, x: np.ndarray) -> float:
        return self.value_and_gradient(x)[0]

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(x)[1]

    def stochastic_gradient(self, x: np.ndarray, xi: int) -> np.ndarray:
        """G(x; xi): the batch sum over the one sample."""
        return self.batch_gradient_sum(x, [self._check_xi(xi)])

    def coordinate_gradient_sum(self, x: np.ndarray, xis: np.ndarray, i: int) -> float:
        """Entry i of batch_gradient_sum(x, xis): the oracle of the inconsistent-read rule,
        which moves one coordinate per update.  Problems that can compute the entry
        alone override it; this default reads it off the full batch sum, bit for bit."""
        i = self._check_coord(i)
        return float(self.batch_gradient_sum(x, xis)[i])

    def l_s(self, s: int) -> float:
        """Support-restricted gradient Lipschitz constant for supports of size max(s, 1)."""
        raise NotImplementedError

    def value_and_gradient_at_x1(self) -> tuple[float, np.ndarray]:
        """value_and_gradient(x1), evaluated on first use and kept for the problem's
        lifetime, so every run from x1 shares one evaluation.  The gradient is
        read-only; a caller that changes it works on a copy."""
        cache = vars(self).setdefault("_cache", {})
        if "x1" not in cache:
            f, g = self.value_and_gradient(self.x1)
            g = np.array(g)  # own copy: no writable view of it stays anywhere
            g.flags.writeable = False
            cache["x1"] = (f, g)
        return cache["x1"]

    def _cached(self, key: str, fn) -> float:
        """Constant `key`, computed by fn on first use and kept for the problem's lifetime."""
        cache = vars(self).setdefault("_cache", {})
        if key not in cache:
            cache[key] = float(fn())
        return cache[key]

    @property
    def x1(self) -> np.ndarray:
        return self._x1.copy()


# ------------------------------------------------------------ noisy quadratic

class NoisyQuadratic(Problem):
    """f(x) = 0.5 (x - x*)' Q (x - x*) with per-sample noise G(x; xi) = grad f(x) + z_xi.

    The z_xi come in plus/minus pairs of signed coordinate vectors with |z| = sigma,
    so the population mean of G is the gradient exactly (pairs cancel bitwise) and
    the per-sample squared deviation is exactly sigma^2.

    batch_gradient_sum takes grad f = Q(x - x*) once per distinct read point: it
    keeps the gradients of the last _READ_POINTS_KEPT points, keyed on their
    bytes, and adds each sample's noise to them in place.  The consistent-read
    simulator reads each stale iterate several times, and so calls it on the
    same point again and again.  coordinate_gradient_sum keeps nothing.  Both
    form Q(x - x*) themselves, not through full_gradient, so a caller that counts
    the public evaluations (the benchmark's spans) sees only those, and both
    skip the subtraction when x* is the origin.
    """

    name = "noisy_quadratic"
    _READ_POINTS_KEPT = 16  # con-sim reads among the last T+1 iterates: every repeat up to T = 7

    def __init__(self, Q: np.ndarray, x_star: np.ndarray, sigma: float, N: int, x1: np.ndarray):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got {Q.shape}")
        n = Q.shape[0]
        if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(Q).max()))):
            raise ValueError("Q must be symmetric")
        if N < 2 or N % 2 != 0:
            raise ValueError(f"N must be even and >= 2, got {N}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.Q = Q
        self.n = n
        self.x_star = np.asarray(x_star, dtype=float).copy()
        if self.x_star.shape != (n,):
            raise ValueError(f"x_star must have shape ({n},)")
        self.sigma = float(sigma)
        self.sample_count = int(N)
        self._x1 = self._check_x(x1).copy()
        self._read_points: dict[bytes, np.ndarray] = {}  # oldest first
        self._read_points_lock = threading.Lock()
        # x - x* is x itself, bit for bit, when every entry of x* is +0.0
        self._x_star_is_origin = self.x_star.tobytes() == bytes(self.x_star.nbytes)

        eigs = np.linalg.eigvalsh(Q)
        if eigs[0] < -1e-10 * max(1.0, abs(float(eigs[-1]))):
            raise ValueError("Q must be positive semidefinite")
        self._constants = constants_quadratic(Q, s_values=[1])
        self.L = self._constants.L
        self.L_max = self._constants.L_max
        self.sigma_sq = self.sigma * self.sigma
        # Q is PSD so min f = 0 at x*; the gap from x1 is exact
        self.gap = self.value_and_gradient_at_x1()[0]

    def _read_point_gradient(self, x: np.ndarray) -> np.ndarray:
        """g0 = grad f(x) + 0.0, computed once per read point.

        The key is x's bytes, so a point written in place, or one that differs
        only in the sign of a zero, is a new key and never meets another point's
        gradient; a hit returns the very floats a fresh product would.  The
        oldest of _READ_POINTS_KEPT points leaves first.  A lookup is one dict
        read; storing and evicting, which threads sharing the problem could
        interleave, hold the lock.  g0 never leaves the class: the batch sum
        copies it or adds it to an array of its own."""
        x = self._check_x(x)
        key = x.tobytes()
        points = self._read_points
        g0 = points.get(key)
        if g0 is None:
            d = x if self._x_star_is_origin else x - self.x_star
            g0 = self.Q @ d + 0.0  # -0.0 entries become +0.0, as in 0.0 + g
            with self._read_points_lock:
                points[key] = g0
                if len(points) > self._READ_POINTS_KEPT:
                    del points[next(iter(points))]
        return g0

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        d = self._check_x(x) - self.x_star
        Qd = self.Q @ d
        return 0.5 * float(d @ Qd), Qd

    def batch_gradient_sum(self, x: np.ndarray, xis: np.ndarray) -> np.ndarray:
        # the floats of acc = 0.0; acc += grad f(x) + z_xi per sample, left to right.
        # z_xi is s at entry j: pair (xi-1)//2 moves coordinate pair mod n, by +sigma
        # for odd xi and 0.0 - sigma for even xi (+0.0, never -0.0, at sigma = 0).
        # So every entry adds g, except entry j, which adds g_j + s.  The first
        # sample gives 0.0 + g, which is g0 = g + 0.0, and g_j + s at entry j, as
        # g_j + s is never -0.0; from then on no entry of acc is -0.0, so adding
        # g0 in place of g changes no bit either
        g0 = self._read_point_gradient(x)
        N, n, plus, minus = self.sample_count, self.n, self.sigma, 0.0 - self.sigma
        acc = None
        for xi in np.asarray(xis, dtype=int).tolist():
            if not 1 <= xi <= N:
                raise ValueError(f"sample index {xi} outside 1..{N}")
            j = (xi - 1) // 2 % n
            s = plus if xi & 1 else minus
            if acc is None:
                acc = g0.copy()
                acc[j] = g0.item(j) + s
            else:
                a = acc.item(j)
                acc += g0
                acc[j] = a + (g0.item(j) + s)
        return np.zeros(n) if acc is None else acc

    def coordinate_gradient_sum(self, x: np.ndarray, xis: np.ndarray, i: int) -> float:
        # entry i of batch_gradient_sum on Python floats, with the same noise rule;
        # g_i is entry i of the whole Q d, which a row product Q[i] @ d may round
        # differently.  Its read points are rolled-back copies that do not repeat,
        # so it skips the read-point cache
        i = self._check_coord(i)
        x = self._check_x(x)
        gi = (self.Q @ (x if self._x_star_is_origin else x - self.x_star)).item(i)
        N, n, plus, minus = self.sample_count, self.n, self.sigma, 0.0 - self.sigma
        acc = 0.0
        for xi in np.asarray(xis, dtype=int).tolist():
            if not 1 <= xi <= N:
                raise ValueError(f"sample index {xi} outside 1..{N}")
            s = (plus if xi & 1 else minus) if (xi - 1) // 2 % n == i else 0.0
            acc += gi + s
        return acc

    def l_s(self, s: int) -> float:
        s = max(1, min(int(s), self.n))
        return self._cached(f"L_{s}", lambda: constants_quadratic(self.Q, s_values=[s]).L_s[s])


def make_noisy_quadratic(
    n: int = 20,
    kappa: float = 10.0,
    sigma: float = 1.0,
    N: int = 64,
    gap: float = 1.0,
    seed: int = 0,
) -> NoisyQuadratic:
    """Diagonal test instance: eigenvalues linspace(L/kappa, 1), x1 scaled for the wanted gap.

    x1 points along the largest-eigenvalue coordinate so f(x1) equals `gap` exactly
    up to one multiplication and the constants stay closed-form (L = 1).
    """
    if n < 1 or kappa < 1:
        raise ValueError("need n >= 1 and kappa >= 1")
    diag = np.linspace(1.0 / kappa, 1.0, n)
    Q = np.diag(diag)
    x_star = np.zeros(n)
    x1 = np.zeros(n)
    x1[-1] = math.sqrt(2.0 * gap / diag[-1])
    del seed  # instance is fully deterministic; kept for signature uniformity
    return NoisyQuadratic(Q, x_star, sigma, N, x1)


def _seed_spec(seed: int) -> SeedSpec:
    """A problem's own seed; a bad one is reported under the `seed` field."""
    try:
        return SeedSpec(seed)
    except ValueError as e:
        raise ValueError(f"seed: {e}") from None


# ------------------------------------------------------------ least squares

class LeastSquares(Problem):
    """f(x) = (1/2N) sum_i (a_i' x - b_i)^2 with per-sample F(x; xi) = 0.5 (a_xi' x - b_xi)^2."""

    name = "least_squares"
    constants_estimated = True  # sigma_sq is regional (measured at x1), L/L_max are exact

    def __init__(self, A: np.ndarray, b: np.ndarray, x1: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError(f"incompatible A {A.shape} and b {b.shape}")
        self.A = A
        self.b = b
        self.sample_count, self.n = A.shape
        self._x1 = self._check_x(x1).copy()
        self.H = A.T @ A / self.sample_count
        consts = constants_quadratic(self.H, s_values=[1])
        self.L = consts.L
        self.L_max = consts.L_max
        # exact optimum via the normal equations, so the gap is exact as well
        x_opt, *_ = np.linalg.lstsq(A, b, rcond=None)
        self._f_opt = self.objective(x_opt)
        self.gap = self.value_and_gradient_at_x1()[0] - self._f_opt
        self.sigma_sq = estimate_sigma_sq(self, self._x1, self.sample_count)

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        r = self.A @ self._check_x(x) - self.b
        return 0.5 * float(r @ r) / self.sample_count, self.A.T @ r / self.sample_count

    def batch_gradient_sum(self, x: np.ndarray, xis: np.ndarray) -> np.ndarray:
        # one row dot product per sample, left to right; the closed form
        # A_s'(A_s x - b_s) rounds its residual differently and changes traces
        x = self._check_x(x)
        acc = np.zeros(self.n)
        for r in self._batch_rows(xis).tolist():
            a = self.A[r]
            acc += a * (float(a @ x) - self.b[r])
        return acc

    def l_s(self, s: int) -> float:
        s = max(1, min(int(s), self.n))
        return self._cached(f"L_{s}", lambda: constants_quadratic(self.H, s_values=[s]).L_s[s])


def make_least_squares(n: int = 10, N: int = 40, seed: int = 0) -> LeastSquares:
    """Random dense instance with noise in b so the residual at the optimum is nonzero."""
    rng = derive_stream(_seed_spec(seed), 0, "ls-data")
    A = rng.standard_normal((N, n))
    x_true = rng.standard_normal(n)
    b = A @ x_true + 0.5 * rng.standard_normal(N)
    x1 = np.zeros(n)
    return LeastSquares(A, b, x1)


# ------------------------------------------------------------ synthetic MLP

WIDTHS_DEFAULT = (400, 100, 50, 20, 10)


@dataclass(frozen=True)
class MlpSpec:
    """Fully connected net: widths[0] inputs through widths[-1] outputs, tanh hidden
    activations, linear output, squared-error loss.  Weight layout: for each layer,
    a (fan_in x fan_out) matrix followed by its fan_out bias entries, layers in order;
    the default widths give 400*100 + 100*50 + 50*20 + 20*10 weights + (100+50+20+10)
    biases = 46,380 parameters."""

    widths: tuple[int, ...] = WIDTHS_DEFAULT
    sample_count: int = 46_380
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be >= 2 positive layer sizes, got {self.widths}")
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")

    @property
    def param_count(self) -> int:
        pairs = list(zip(self.widths, self.widths[1:]))
        return sum(i * o for i, o in pairs) + sum(o for _, o in pairs)


class SyntheticMlp(Problem):
    """Teacher-student regression: targets are the teacher net's outputs plus Gaussian noise.

    Inputs and teacher weights are i.i.d. standard Gaussian.  The student starts from
    a 1/sqrt(fan_in)-scaled Gaussian init (biases zero) so the hidden tanh units are
    unsaturated at x1.  All constants (L, L_max, L_s, sigma_sq, gap) are sampled
    estimates, computed lazily and cached.
    """

    name = "mlp"
    constants_estimated = True

    _EVAL_CHUNK = 2048  # full-data passes run in fixed-size chunks, summed in chunk order
    # the teacher's targets take larger chunks: BLAS may pick another kernel for
    # a small product and round it differently, and at 8192 rows the default
    # net's targets equal one whole-X pass's bit for bit
    _BUILD_CHUNK = 8192

    def __init__(self, spec: MlpSpec, seed: int):
        self.spec = spec
        self.seed = int(seed)
        self.widths = spec.widths
        self.n = spec.param_count
        self.sample_count = spec.sample_count
        # the flat layout: per layer (fan_in, fan_out, start, w_end), its weights at
        # [start, w_end) and its fan_out biases right after them
        self._layout, pos = [], 0
        for fan_in, fan_out in zip(self.widths, self.widths[1:]):
            self._layout.append((fan_in, fan_out, pos, pos + fan_in * fan_out))
            pos += fan_in * fan_out + fan_out

        seeds = _seed_spec(self.seed)
        rng_data = derive_stream(seeds, 0, "mlp-data")
        rng_teacher = derive_stream(seeds, 0, "mlp-teacher")
        rng_noise = derive_stream(seeds, 0, "mlp-noise")
        rng_init = derive_stream(seeds, 0, "mlp-init")

        self.X = rng_data.standard_normal((self.sample_count, self.widths[0]))
        self.theta_star = rng_teacher.standard_normal(self.n)
        teacher = self.unpack(self.theta_star)
        self.Y = np.empty((self.sample_count, self.widths[-1]))
        for lo, hi in self._chunks(self._BUILD_CHUNK):  # no whole-X activations
            self.Y[lo:hi] = self._activations(teacher, self.X[lo:hi])[-1]
        self.Y += spec.noise_std * rng_noise.standard_normal(self.Y.shape)

        x1 = np.zeros(self.n)
        for fan_in, _, a, b in self._layout:
            x1[a:b] = rng_init.standard_normal(b - a) / math.sqrt(fan_in)
        self._x1 = x1

    # ---- parameter layout

    def _chunks(self, size: int) -> list[tuple[int, int]]:
        """(lo, hi) bounds of consecutive sample-row chunks of `size` rows, in order."""
        return [(lo, min(lo + size, self.sample_count)) for lo in range(0, self.sample_count, size)]

    def unpack(self, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views (W, b) per layer into the flat vector; W is (fan_in, fan_out)."""
        theta = self._check_x(theta)
        return [(theta[a:w_end].reshape(fan_in, fan_out), theta[w_end : w_end + fan_out])
                for fan_in, fan_out, a, w_end in self._layout]

    # ---- network passes

    @staticmethod
    def _activations(layers, X: np.ndarray) -> list[np.ndarray]:
        """Every layer's input, then the net's output: [X, tanh(X W_1 + b_1), ..., net(X)].
        Each entry after X is a fresh array the caller may overwrite."""
        acts = [X]
        for li, (W, b) in enumerate(layers):
            Z = acts[-1] @ W
            Z += b
            if li < len(layers) - 1:
                np.tanh(Z, out=Z)
            acts.append(Z)
        return acts

    def _loss_and_grad(self, theta: np.ndarray, X: np.ndarray, Y: np.ndarray):
        """Summed squared-error loss 0.5 sum |net(x) - y|^2 over the batch, plus its gradient."""
        layers = self.unpack(theta)
        acts = self._activations(layers, X)
        D = acts[-1]
        D -= Y  # the residual, in place of the output
        loss = 0.5 * float(np.sum(D * D))

        grad = np.empty(self.n)
        for li, (_, _, a, w_end) in reversed(list(enumerate(self._layout))):
            W, _ = layers[li]
            np.matmul(acts[li].T, D, out=grad[a:w_end].reshape(W.shape))
            np.sum(D, axis=0, out=grad[w_end : w_end + W.shape[1]])
            if li > 0:
                A = acts[li]  # tanh(Z), overwritten by its derivative 1 - A^2
                np.multiply(A, A, out=A)
                np.subtract(1.0, A, out=A)
                D = D @ W.T
                D *= A
        return loss, grad

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        # one forward pass per chunk serves both.  The chunks run on one thread
        # per CPU, each holding BLAS at one thread, and sum in chunk order, so
        # the bits do not depend on the host's core count
        x = self._check_x(x)
        chunks = self._chunks(self._EVAL_CHUNK)

        def part(bounds):
            lo, hi = bounds
            return self._loss_and_grad(x, self.X[lo:hi], self.Y[lo:hi])

        total, acc = 0.0, np.zeros(self.n)
        with blas_threads(), ThreadPoolExecutor(min(cpu_count(), len(chunks))) as pool:
            for loss, g in pool.map(part, chunks):
                total += loss
                acc += g
        return total / self.sample_count, acc / self.sample_count

    def batch_gradient_sum(self, x: np.ndarray, xis: np.ndarray) -> np.ndarray:
        rows = self._batch_rows(xis)
        if rows.size == 0:
            return np.zeros(self.n)
        _, g = self._loss_and_grad(self._check_x(x), self.X[rows], self.Y[rows])
        return g

    def coordinate_gradient_sum(self, x: np.ndarray, xis: np.ndarray, i: int) -> float:
        # entry i alone: one forward pass, whole deltas back-propagated only down to
        # the layer above i's, then the one delta column that entry i reads; no
        # weight-gradient matrix is formed
        i = self._check_coord(i)
        rows = self._batch_rows(xis)
        if rows.size == 0:
            return 0.0
        for li, (_, fan_out, start, w_end) in enumerate(self._layout):
            if i < w_end + fan_out:
                break
        r, c = divmod(i - start, fan_out) if i < w_end else (None, i - w_end)
        layers = self.unpack(self._check_x(x))
        acts = self._activations(layers, self.X[rows])
        D = acts[-1] - self.Y[rows]
        for lj in range(len(layers) - 1, li + 1, -1):
            D = (D @ layers[lj][0].T) * (1.0 - acts[lj] * acts[lj])
        if li == len(layers) - 1:
            d = D[:, c]
        else:
            a = acts[li + 1][:, c]
            d = (D @ layers[li + 1][0][c]) * (1.0 - a * a)
        return float(d.sum()) if r is None else float(acts[li][:, r] @ d)

    # ---- estimated constants (lazy)

    @property
    def gap(self) -> float:
        # loss is nonnegative, so f(x1) - 0 upper-bounds the true optimality gap
        return self.value_and_gradient_at_x1()[0]

    @property
    def L(self) -> float:
        return self._cached("L", lambda: estimate_lipschitz(self, s=None))

    @property
    def L_max(self) -> float:
        return self._cached("L_max", lambda: estimate_lipschitz(self, s=1))

    @property
    def sigma_sq(self) -> float:
        budget = min(self.sample_count, 512)
        return self._cached("sigma_sq", lambda: estimate_sigma_sq(self, self._x1, budget))

    def l_s(self, s: int) -> float:
        s = max(1, min(int(s), self.n))
        return self._cached(f"L_{s}", lambda: estimate_lipschitz(self, s=s))


def make_synthetic_mlp(spec: MlpSpec | None = None, seed: int = 0) -> SyntheticMlp:
    """Deterministic instance for a given seed; default spec has 46,380 parameters."""
    return SyntheticMlp(spec or MlpSpec(), seed)


# ------------------------------------------------------------ estimators

def estimate_sigma_sq(p: Problem, x: np.ndarray, sample_budget: int) -> float:
    """Empirical mean of |G(x; xi) - grad f(x)|^2 over the first sample_budget samples."""
    if sample_budget < 1:
        raise ValueError(f"sample_budget must be >= 1, got {sample_budget}")
    if sample_budget > p.sample_count:
        raise ValueError(f"sample_budget {sample_budget} exceeds N={p.sample_count}")
    g = p.full_gradient(x)
    total = 0.0
    for xi in range(1, sample_budget + 1):
        d = p.stochastic_gradient(x, xi) - g
        total += float(d @ d)
    return total / sample_budget


# random pairs probed, their distance from x1 and from each other, samples per gradient, seed
_LIPSCHITZ_TRIALS, _LIPSCHITZ_RADIUS, _LIPSCHITZ_SAMPLES, _LIPSCHITZ_SEED = 24, 0.1, 512, 2024


def estimate_lipschitz(p: Problem, s: int | None = None) -> float:
    """Sampled lower estimate of the gradient Lipschitz constant near x1.

    Maximizes |grad(x) - grad(y)| / |x - y| over random pairs around x1; when s is
    given, the perturbation x - y is confined to a random support of that size
    (the support-restricted constant).  Gradients run over a fixed subsample for
    speed, so treat the result as an estimate, never a guarantee.
    """
    rng = derive_stream(SeedSpec(_LIPSCHITZ_SEED), 0, "lipschitz-probe")
    x1 = p.x1
    m = min(_LIPSCHITZ_SAMPLES, p.sample_count)
    xis = np.arange(1, m + 1)

    def grad(x):
        return p.batch_gradient_sum(x, xis) / m

    best = 0.0
    for _ in range(_LIPSCHITZ_TRIALS):
        x = x1 + _LIPSCHITZ_RADIUS * rng.standard_normal(p.n)
        if s is None:
            h = rng.standard_normal(p.n)
        else:
            h = np.zeros(p.n)
            support = rng.choice(p.n, size=min(s, p.n), replace=False)
            h[support] = rng.standard_normal(len(support))
        h *= _LIPSCHITZ_RADIUS / float(np.linalg.norm(h))
        num = float(np.linalg.norm(grad(x + h) - grad(x)))
        best = max(best, num / _LIPSCHITZ_RADIUS)
    return best
