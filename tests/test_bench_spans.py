"""The benchmark's traced pass looks up asysg entry points by name
(`bench/spans.py`, `instrument`).  Renaming or deleting one of them breaks
`bench/run.py --trace 1` but nothing else, so this test resolves the whole
plan for both problem classes the benchmark traces."""
import importlib.util
import pathlib
import sys
import threading

import pytest

from asysg.problems import NoisyQuadratic, SyntheticMlp

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
