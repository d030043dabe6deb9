from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asysg.core import (
    GammaRule,
    HistoryRing,
    RunConfig,
    SeedSpec,
    Trace,
    TraceRow,
    derive_stream,
)
from asysg.engines_sim import DelayModel, ReadModel


# ---------------------------------------------------------------- streams

def test_stream_deterministic_replay():
    a = derive_stream(SeedSpec(7), 0, "sample").integers(0, 2**31, size=10)
    b = derive_stream(SeedSpec(7), 0, "sample").integers(0, 2**31, size=10)
    assert np.array_equal(a, b)


def test_stream_distinct_worker():
    # derived check: run the derivation rule for both workers and compare
    a = derive_stream(SeedSpec(7), 0, "sample").integers(0, 2**31)
    b = derive_stream(SeedSpec(7), 1, "sample").integers(0, 2**31)
    assert a != b


def test_stream_distinct_seed():
    a = derive_stream(SeedSpec(7), 0, "sample").integers(0, 2**31)
    b = derive_stream(SeedSpec(8), 0, "sample").integers(0, 2**31)
    assert a != b


def test_stream_distinct_purpose():
    draws = {}
    for purpose in ("sample", "coord", "read", "delay"):
        draws[purpose] = tuple(derive_stream(SeedSpec(3), 0, purpose).integers(0, 2**31, size=4))
    assert len(set(draws.values())) == 4


# The simulators draw a block of iterations per call and rely on it giving the
# same values as one call per iteration; a numpy release that broke this would
# change every simulator trace without failing anything else.

@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 9, 32])
def test_stream_block_integers_equal_per_iteration_calls(M):
    for seed, N in ((0, 64), (7, 8), (123, 1000)):
        block = derive_stream(SeedSpec(seed), 0, "sample").integers(1, N + 1, size=(37, M))
        rng = derive_stream(SeedSpec(seed), 0, "sample")
        rows = [rng.integers(1, N + 1, size=M) for _ in range(37)]
        assert np.array_equal(block, np.array(rows))


def test_stream_block_scalar_integers_equal_per_iteration_calls():
    for seed, n in ((0, 20), (5, 6), (9, 1)):
        block = derive_stream(SeedSpec(seed), 0, "coord").integers(n, size=41)
        rng = derive_stream(SeedSpec(seed), 0, "coord")
        assert block.tolist() == [int(rng.integers(n)) for _ in range(41)]


@pytest.mark.parametrize("T", [1, 4, 9])
def test_stream_block_random_equal_per_iteration_calls(T):
    B, M = 23, 3
    block = derive_stream(SeedSpec(2), 0, "read").random((B, M, T))
    rng = derive_stream(SeedSpec(2), 0, "read")
    rows = [[rng.random(T) for _ in range(M)] for _ in range(B)]
    assert np.array_equal(block, np.array(rows))


@pytest.mark.parametrize("T", [0, 3, 9])
def test_model_draws_equal_block_rows(T):
    # the simulator tests draw read sets and delays again with one `draw` call
    # per iteration; the engines take a per-iteration draw through the warm-up
    # (k < T) and one block after it
    B, M, K = 23, 3, T + 23
    rm, dm = ReadModel.random_subset(0.5), DelayModel.uniform()
    rng = derive_stream(SeedSpec(4), 0, "read")
    masks = [rm.draw_block(rng, k, 1, M, T)[0] for k in range(T)] + list(rm.draw_block(rng, T, B, M, T))
    rng = derive_stream(SeedSpec(4), 0, "read")
    for k, mask in enumerate(masks):
        lo = k - mask.shape[1]
        assert rm.draw(rng, k, M, T) == [tuple(lo + int(t) for t in np.flatnonzero(row)) for row in mask]
    block = dm.draw_block(derive_stream(SeedSpec(4), 0, "delay"), 0, K, M, T)
    rng = derive_stream(SeedSpec(4), 0, "delay")
    assert [dm.draw(rng, k, M, T) for k in range(K)] == block.tolist()


def test_stream_rejects_negative_worker():
    with pytest.raises(ValueError):
        derive_stream(SeedSpec(1), -1, "sample")


def test_seedspec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)
    SeedSpec(2**64 - 1)  # max representable is fine


# ---------------------------------------------------------------- history ring

def test_ring_in_window_retrieval():
    ring = HistoryRing(horizon=2)
    for j in range(6):
        assert ring.append(f"x{j}") == j
    assert ring.get(3, 5) == "x3"
    assert ring.get(5, 5) == "x5"


def test_ring_rejects_stale_index():
    ring = HistoryRing(horizon=2)
    for j in range(6):
        ring.append(f"x{j}")
    with pytest.raises(IndexError):
        ring.get(2, 5)  # j < k_now - horizon


def test_ring_warmup_window_clamps_at_zero():
    ring = HistoryRing(horizon=2)
    ring.append("x0")
    ring.append("x1")
    assert ring.get(0, 1) == "x0"


def test_ring_rejects_unstored_index():
    ring = HistoryRing(horizon=3)
    ring.append("x0")
    with pytest.raises(IndexError):
        ring.get(1, 1)


def test_ring_horizon_zero():
    ring = HistoryRing(horizon=0)
    ring.append("a")
    ring.append("b")
    assert ring.get(1, 1) == "b"
    with pytest.raises(IndexError):
        ring.get(0, 1)


@settings(max_examples=200, deadline=None)
@given(
    horizon=st.integers(min_value=0, max_value=8),
    n_items=st.integers(min_value=1, max_value=40),
    probes=st.lists(st.integers(min_value=-3, max_value=45), max_size=20),
)
def test_ring_window_property(horizon, n_items, probes):
    # the ring serves exactly the indices in [max(0, k_now - horizon), k_now], nothing else
    ring = HistoryRing(horizon)
    for j in range(n_items):
        ring.append(j * 10)
    k_now = n_items - 1
    for j in probes:
        lo = max(0, k_now - horizon)
        if lo <= j <= k_now:
            assert ring.get(j, k_now) == j * 10
        else:
            with pytest.raises(IndexError):
                ring.get(j, k_now)


# ---------------------------------------------------------------- gamma rule / run config

def test_gamma_rule_validation():
    assert GammaRule.constant(0.1).value == 0.1
    GammaRule.constant(0.0)  # zero steplength is legal (freeze run)
    with pytest.raises(ValueError):
        GammaRule.constant(-0.1)
    with pytest.raises(ValueError):
        GammaRule("constant")
    with pytest.raises(ValueError):
        GammaRule("corollary2", value=0.1)
    with pytest.raises(ValueError):
        GammaRule("newton")


def _cfg(**kw):
    base = dict(mode="serial", K=10, M=1, gamma=GammaRule.constant(0.1), seeds=SeedSpec(0))
    base.update(kw)
    return RunConfig(**base)


def test_runconfig_bounds():
    with pytest.raises(ValueError):
        _cfg(K=0)
    with pytest.raises(ValueError):
        _cfg(M=0)
    with pytest.raises(ValueError):
        _cfg(T=-1)
    with pytest.raises(ValueError):
        _cfg(workers=0)
    with pytest.raises(ValueError):
        _cfg(checkpoint_every=0)
    with pytest.raises(ValueError):
        _cfg(mode="magic")


def test_runconfig_sim_modes_single_worker():
    with pytest.raises(ValueError):
        _cfg(mode="con-sim", workers=2)
    _cfg(mode="incon-threads", workers=4)  # threaded modes take several


UNIFORM, PREFIX = DelayModel.uniform(), ReadModel.prefix(0)


@pytest.mark.parametrize("mode,models,message", [
    ("serial", dict(delay_model=UNIFORM), "delay_model is not taken by mode 'serial'"),
    ("serial", dict(read_model=PREFIX), "read_model is not taken by mode 'serial'"),
    ("con-sim", {}, "delay_model is required in mode 'con-sim'"),
    ("con-sim", dict(delay_model=UNIFORM, read_model=PREFIX), "read_model is not taken"),
    ("incon-sim", {}, "read_model is required in mode 'incon-sim'"),
    ("incon-sparse-sim", dict(read_model=PREFIX, delay_model=UNIFORM), "delay_model is not taken"),
    ("con-threads", dict(delay_model=UNIFORM), "delay_model is not taken"),
    ("incon-threads", dict(read_model=PREFIX), "read_model is not taken"),
])
def test_runconfig_mode_model_rule(mode, models, message):
    with pytest.raises(ValueError, match=message):
        _cfg(mode=mode, **models)


def test_runconfig_threaded_modes_take_T():
    # the theory report reads T for threaded setups too
    assert _cfg(mode="con-threads", T=3).T == 3
    assert _cfg(mode="incon-threads", T=3).T == 3


def test_runconfig_fingerprint_ignores_seed():
    a = _cfg(seeds=SeedSpec(1))
    b = _cfg(seeds=SeedSpec(2))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != _cfg(K=11).fingerprint()


# ---------------------------------------------------------------- trace

def test_trace_validate_ordering():
    tr = Trace([TraceRow(0, 0.0, 1.0, 1.0, 0.1, 0), TraceRow(0, 1.0, 1.0, 1.0, 0.1, 0)])
    with pytest.raises(ValueError):
        tr.validate()


def test_trace_validate_time_monotone():
    tr = Trace([TraceRow(0, 1.0, 1.0, 1.0, 0.1, 0), TraceRow(1, 0.5, 1.0, 1.0, 0.1, 0)])
    with pytest.raises(ValueError):
        tr.validate()


def test_trace_validate_finite():
    tr = Trace([TraceRow(0, 0.0, float("nan"), 1.0, 0.1, 0)])
    with pytest.raises(ValueError):
        tr.validate()


def test_trace_validate_delay_cap():
    tr = Trace([TraceRow(0, 0.0, 1.0, 1.0, 0.1, 3)])
    tr.validate(delay_cap=3)
    with pytest.raises(ValueError):
        tr.validate(delay_cap=2)


def test_trace_equality_ignores_meta():
    rows = [TraceRow(0, 0.0, 1.0, 2.0, 0.1, 0)]
    assert Trace(rows, {"a": 1}) == Trace(rows, {"b": 2})
