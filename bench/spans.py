"""In-memory span recorder for the traced pass, and the wrappers that feed it.

Spans are recorded from the benchmark's side only: `instrument` swaps the
public entry points of each asysg module for wrappers that open a span around
the call, and `restore` puts the originals back.  The untraced pass runs with
nothing swapped, so its numbers carry no tracing cost.

A span is (name, start, end, parent, thread).  Parents are tracked per thread;
a worker thread's root span takes the engine call that started it as parent.
Fine-grained calls that happen per sample are only counted, not spanned: each
span keeps how many such calls were made directly inside it.

The wrappers cost time of their own, and on the simulators that cost is of the
size of the work they wrap.  `calibrate` times each wrapper kind on a no-op,
and `SpanTable` subtracts those costs from every duration it reports.
"""
from __future__ import annotations

import contextlib
import dataclasses
import statistics
import threading
import time
from array import array

import numpy as np


class Tracer:
    """Append-only span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.thread = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counted = array("q")  # counted (unspanned) calls made directly inside
        self.passed = array("q")   # evaluations an oracle made directly inside
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.engine = -1  # open engine span, parent of worker-thread roots

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name_id: int) -> int:
        st = self.stack()
        ident = threading.get_ident()
        with self._lock:
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(st[-1] if st else self.engine)
            self.thread.append(self._threads.setdefault(ident, len(self._threads)))
            self.start.append(time.perf_counter())
            self.end.append(float("nan"))
            self.counted.append(0)
            self.passed.append(0)
        st.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def timed(self):
        return self.span("timed")

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "counted": np.frombuffer(self.counted, dtype=np.int64).copy(),
            "passed": np.frombuffer(self.passed, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span to a .npz: the columns plus the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class NullTracer:
    """Stand-in for untraced passes: bench-side spans cost one context switch."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def timed(self):
        return contextlib.nullcontext()


# ------------------------------------------------------------ wrappers

def _span_wrapper(tracer: Tracer, fn, name: str, engine: bool):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        sid = tracer.open(nid)
        if engine:
            tracer.engine = sid
        try:
            return fn(*args, **kwargs)
        finally:
            if engine:
                tracer.engine = -1
            tracer.close(sid)

    return wrapper


def _eval_wrapper(tracer: Tracer, fn, name: str):
    """Span only top-level evaluations, not the ones an oracle makes internally."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        st = tracer.stack()
        if st and tracer.names[tracer.name[st[-1]]].startswith("problems."):
            tracer.passed[st[-1]] += 1
            return fn(*args, **kwargs)
        sid = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)

    return wrapper


def _count_wrapper(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        st = tracer.stack()
        if st:
            tracer.counted[st[-1]] += 1
        return fn(*args, **kwargs)

    return wrapper


def _thread_run_wrapper(tracer: Tracer, fn):
    nid = tracer.name_id("engines_parallel.worker")

    def run(thread):
        sid = tracer.open(nid)
        try:
            return fn(thread)
        finally:
            tracer.close(sid)

    return run


def instrument(tracer: Tracer, problem_cls: type) -> list[tuple]:
    """Swap every traced entry point for its wrapper; returns what `restore` needs."""
    from asysg import core, engines_parallel, engines_sim, harness, problems, theory

    plan = [
        (problems, "make_noisy_quadratic", "span", "problems.build"),
        (problems, "make_synthetic_mlp", "span", "problems.build"),
        (problem_cls, "batch_gradient_sum", "span", "problems.batch_grad"),
        (problem_cls, "stochastic_gradient", "count", None),  # the only counted call
        (problem_cls, "objective", "eval", "problems.eval"),
        (problem_cls, "full_gradient", "eval", "problems.eval"),
        (core.HistoryRing, "get", "span", "core.ring_get"),
        (engines_sim.DelayModel, "draw", "span", "engines_sim.draw"),
        (engines_sim.ReadModel, "draw", "span", "engines_sim.draw"),
        (engines_sim, "run_serial_sg", "engine", "engines_sim.serial"),
        (engines_sim, "run_asysg_con_sim", "engine", "engines_sim.con"),
        (engines_sim, "run_asysg_incon_sim", "engine", "engines_sim.incon"),
        (engines_parallel, "run_param_server", "engine", "engines_parallel.param_server"),
        (engines_parallel, "run_lockfree_shared", "engine", "engines_parallel.lockfree"),
        # problems binds its own name for the constants routine
        (theory, "constants_quadratic", "span", "theory.constants"),
        (problems, "constants_quadratic", "span", "theory.constants"),
        (theory, "build_theory_report", "span", "theory.report"),
        (harness, "write_trace_csv", "span", "harness.trace_write"),
    ]
    saved = []
    for owner, attr, kind, name in plan:
        fn = getattr(owner, attr)
        if kind == "count":
            new = _count_wrapper(tracer, fn)
        elif kind == "eval":
            new = _eval_wrapper(tracer, fn, name)
        else:
            new = _span_wrapper(tracer, fn, name, engine=kind == "engine")
        saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, new)
    saved.append((threading.Thread, "run", threading.Thread.__dict__["run"]))
    threading.Thread.run = _thread_run_wrapper(tracer, threading.Thread.run)
    return saved


def restore(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        if original is None:
            delattr(owner, attr)  # the wrapper shadowed an inherited method
        else:
            setattr(owner, attr, original)


# ------------------------------------------------------------ wrapper cost

@dataclasses.dataclass
class Calibration:
    """Seconds each wrapper adds to one call, beyond the plain call."""

    span: float     # a spanned call, all told
    span_in: float  # the part of `span` that falls inside the span's own interval
    count: float    # a counted call
    passed: float   # an evaluation passed through inside a problems span


def calibrate(calls: int = 4000, reps: int = 5) -> Calibration:
    """Time each wrapper kind on a no-op; medians over `reps` loops of `calls`."""
    tracer = Tracer()

    def noop(*args):
        return None

    def per_call(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(None, None)
        return (time.perf_counter() - t0) / calls

    kinds = {"span": _span_wrapper(tracer, noop, "calibrate.span", engine=False),
             "count": _count_wrapper(tracer, noop),
             "passed": _eval_wrapper(tracer, noop, "calibrate.eval")}
    cost = {kind: [] for kind in kinds}
    plain = []
    with tracer.span("problems.calibrate"):  # evaluations pass through under it
        for _ in range(reps):
            plain.append(per_call(noop))
            for kind, fn in kinds.items():
                cost[kind].append(per_call(fn) - plain[-1])
    table = SpanTable(tracer)
    inside = float(np.median(table.dur[table.named("calibrate.span")])) - statistics.median(plain)
    return Calibration(span=statistics.median(cost["span"]), span_in=inside,
                       count=statistics.median(cost["count"]),
                       passed=statistics.median(cost["passed"]))


# ------------------------------------------------------------ reading spans back

class SpanTable:
    """Column view of a finished trace with the derived quantities metrics need.

    With a calibration, `dur` is each span's duration less the wrappers' cost
    inside it: its own inner share, the whole cost of every span nested in it
    in the same thread, and the cost of every counted or passed-through call
    beneath it.  Per-span sums of those costs stay apart in `overhead`.
    """

    def __init__(self, tracer: Tracer, cal: Calibration | None = None):
        cols = tracer.arrays()
        self.names = list(tracer.names)
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.thread = cols["thread"]
        self.counted = cols["counted"]
        n = len(self.name)
        # same-thread parent, else -1: a worker's root runs beside the engine
        # call that started it, not inside its interval
        up = np.full(n, -1)
        has_parent = self.parent >= 0
        same = np.zeros(n, dtype=bool)
        same[has_parent] = self.thread[has_parent] == self.thread[self.parent[has_parent]]
        up[same] = self.parent[same]
        self.overhead = np.zeros(n)
        if cal is not None:
            sub = cols["counted"] * cal.count + cols["passed"] * cal.passed
            depth = np.zeros(n, dtype=np.int64)
            cur = up.copy()
            while (cur >= 0).any():  # spans nest a handful deep
                depth[cur >= 0] += 1
                cur[cur >= 0] = up[cur[cur >= 0]]
            for d in range(int(depth.max(initial=0)), 0, -1):  # deepest first
                idx = np.flatnonzero(depth == d)
                np.add.at(sub, up[idx], sub[idx] + cal.span)
            self.overhead = sub + cal.span_in
        self.dur = cols["end"] - cols["start"] - self.overhead
        # time each span's direct children in the same thread cover; spans
        # within one thread nest, so summing durations never double-counts
        self.child_dur = np.zeros(n)
        np.add.at(self.child_dur, up[same], self.dur[same])

    def named(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def prefixed(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def nearest(self, mask: np.ndarray) -> np.ndarray:
        """Per span, the id of the closest ancestor-or-self selected by mask, else -1."""
        out = np.where(mask, np.arange(len(mask)), -1)
        cur = self.parent.copy()
        todo = (out < 0) & (cur >= 0)
        while todo.any():  # one level up per pass; spans nest a handful deep
            idx = np.flatnonzero(todo)
            hit = mask[cur[idx]]
            out[idx[hit]] = cur[idx[hit]]
            up = idx[~hit]
            cur[up] = self.parent[cur[up]]
            todo[idx[hit]] = False
            todo[up] = cur[up] >= 0
        return out

    def label(self, sid: int) -> str:
        return self.names[self.name[sid]]
