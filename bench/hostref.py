"""Host speed reference: a fixed loop of small numpy operations, timed between operations.

On a shared host the same engine call can run twice as fast in one minute as
in the next, and ten runs of the same code spread far wider than any bound a
benchmark can hold.  The slow phases slow every process on the host alike, so
the benchmark times this loop, which calls no program code and no BLAS, a few
times before every operation, and reports its time metrics at the reference
speed: a rate is multiplied, and a duration divided, by

    scale = median loop time over the run / REF_SECONDS.

A change to the program moves a scaled metric exactly as it moves the raw
one; a change in the host's speed moves both the loop and the program, and
largely cancels.  The runner prints the scale next to the result.
"""
from __future__ import annotations

import time

import numpy as np

STEPS = 1000           # SG steps of M = 4 samples on a 20-dim quadratic per loop
CHUNKS = 6             # loops timed before every operation
REF_SECONDS = 0.025    # one loop's median time on the reference host in a quiet phase

_D = np.linspace(0.1, 1.0, 20)
_A = np.random.default_rng(12345).standard_normal((64, 20))


def loop() -> float:
    """Seconds of one loop: per-sample elementwise updates, as a simulator makes them."""
    rng = np.random.default_rng(12345)
    x = np.ones(20)
    t0 = time.perf_counter()
    for _ in range(STEPS):
        g = np.zeros(20)
        for j in rng.integers(0, 64, size=4):
            g = g + _D * x + 0.01 * _A[j]
        x = x - 0.001 * g
    elapsed = time.perf_counter() - t0
    if not np.isfinite(x).all():
        raise RuntimeError("reference loop diverged")
    return elapsed


def sample() -> list[float]:
    return [loop() for _ in range(CHUNKS)]


def scale(times: list[float]) -> float:
    """How much slower than on the reference host the loop ran, as a median of `times`."""
    return float(np.median(times)) / REF_SECONDS
