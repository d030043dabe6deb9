"""The benchmark's traced pass looks up asysg entry points by name
(`bench/spans.py`, `instrument`).  Renaming or deleting one of them breaks
`bench/run.py --trace 1` but nothing else, so these tests resolve the whole
plan for both problem classes the benchmark traces, and check that the
simulators still call the names the plan spans."""
import collections
import importlib.util
import pathlib
import sys
import threading

import pytest

from asysg import engines_sim
from asysg.core import RunConfig, SeedSpec
from asysg.engines_sim import DelayModel, ReadModel
from asysg.problems import NoisyQuadratic, SyntheticMlp, make_noisy_quadratic

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("problem_cls", [NoisyQuadratic, SyntheticMlp], ids=lambda c: c.__name__)
def test_bench_traced_entry_points_resolve_and_restore(problem_cls, monkeypatch):
    spans = _load_spans(monkeypatch)
    saved = []
    try:
        saved = spans.instrument(spans.Tracer(), problem_cls)  # raises if a planned name is gone
        assert saved[-1][:2] == (threading.Thread, "run")  # the plan ran to its end
        for owner, attr, original in saved:  # every entry point is now a wrapper
            assert owner.__dict__.get(attr) not in (None, original)
    finally:
        spans.restore(saved)
    for owner, attr, original in saved:
        if original is None:  # the wrapper shadowed an inherited method
            assert attr not in owner.__dict__
        else:
            assert owner.__dict__[attr] is original


def test_simulators_call_the_spanned_ring_and_draw_entry_points(monkeypatch):
    # a traced pass reads these two layers from the spans alone: an engine that
    # stopped calling the spanned names would zero them without failing anything
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    p = make_noisy_quadratic(n=4, N=8)
    runs = {
        "con-sim": ("run_asysg_con_sim", {"delay_model": DelayModel.uniform()}),
        "incon-sim": ("run_asysg_incon_sim", {"read_model": ReadModel.random_subset(0.5)}),
    }
    recorded = {}
    saved = []
    try:
        saved = spans.instrument(tracer, NoisyQuadratic)
        for mode, (engine, model) in runs.items():
            cfg = RunConfig(mode=mode, K=30, M=2, T=3, checkpoint_every=10, seeds=SeedSpec(0), **model)
            before = len(tracer.name)
            getattr(engines_sim, engine)(p, cfg)  # the module attribute is the wrapper
            recorded[mode] = collections.Counter(tracer.names[i] for i in tracer.name[before:])
    finally:
        spans.restore(saved)
    assert recorded["con-sim"]["core.ring_get"] >= 30  # at least one read per update
    assert recorded["con-sim"]["engines_sim.draw"] >= 1
    assert recorded["incon-sim"]["engines_sim.draw"] >= 1
