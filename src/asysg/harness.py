"""Post-processing: convergence metrics, speedup rows, trace CSV serialization,
plot-data files, and the bound-versus-empirics report.

All functions are pure and single-threaded.  Metrics that mirror theorem
statements use the rows before the final checkpoint: row k holds the iterate
after k updates, and the theorem averages cover the first K iterates of a
K-update run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Trace, TraceRow

CSV_HEADER = "k,t,f,gradsq,gamma,max_delay_observed"

# metric -> x column for the plot-data files
PLOT_CURVES = (
    ("f", "k"),
    ("gradsq", "k"),
    ("gamma", "k"),
    ("max_delay_observed", "k"),
    ("f", "t"),
    ("gradsq", "t"),
)


class TraceParseError(ValueError):
    """Malformed trace CSV; the message names the offending line, or the row by its k."""


# ------------------------------------------------------------ convergence metrics

def ergodic_average(gradsq, gammas) -> float:
    """Steplength-weighted average sum(g_k * w_k) / sum(w_k)."""
    gradsq, gammas = list(gradsq), list(gammas)
    if not gradsq or len(gradsq) != len(gammas):
        raise ValueError(f"need equal nonempty sequences, got {len(gradsq)} and {len(gammas)}")
    if any(w < 0 for w in gammas) or any(g < 0 for g in gradsq):
        raise ValueError("values and weights must be nonnegative")
    total = sum(gammas)
    if total <= 0:
        raise ValueError("total steplength weight is zero")
    return sum(g * w for g, w in zip(gradsq, gammas)) / total


def iterations_to_target(trace: Trace, epsilon: float) -> int | None:
    """Smallest checkpointed k with gradsq <= epsilon, or None if never reached."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    for row in trace.rows:
        if row.gradsq <= epsilon:
            return row.k
    return None


def time_to_target(trace: Trace, epsilon: float) -> float | None:
    """Wall time of the first checkpoint with gradsq <= epsilon, or None."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    for row in trace.rows:
        if row.gradsq <= epsilon:
            return row.t
    return None


def iteration_speedup(serial_iters: float, parallel_iters: float, workers: int) -> float:
    if serial_iters <= 0 or parallel_iters <= 0 or workers <= 0:
        raise ValueError("iteration counts and worker count must be positive")
    return serial_iters / parallel_iters * workers


def time_speedup(serial_seconds: float, parallel_seconds: float) -> float:
    if serial_seconds <= 0 or parallel_seconds <= 0:
        raise ValueError("durations must be positive")
    return serial_seconds / parallel_seconds


@dataclass(frozen=True)
class SpeedupRow:
    workers: int
    iteration_speedup: float | None
    time_speedup: float | None
    iterations_to_target: int | None
    seconds_to_target: float | None


def build_speedup_row(baseline: Trace, parallel: Trace, workers: int, epsilon: float) -> SpeedupRow:
    """One table row comparing a parallel trace to the serial baseline at target epsilon."""
    base_iters = iterations_to_target(baseline, epsilon)
    base_secs = time_to_target(baseline, epsilon)
    if base_iters is None:
        raise ValueError(f"baseline never reaches gradsq <= {epsilon}")
    par_iters = iterations_to_target(parallel, epsilon)
    par_secs = time_to_target(parallel, epsilon)
    if par_iters is None:
        return SpeedupRow(workers, None, None, None, None)
    return SpeedupRow(
        workers=workers,
        iteration_speedup=iteration_speedup(base_iters, par_iters, workers)
        if base_iters > 0 and par_iters > 0 else None,
        time_speedup=time_speedup(base_secs, par_secs)
        if base_secs and par_secs and base_secs > 0 and par_secs > 0 else None,
        iterations_to_target=par_iters,
        seconds_to_target=par_secs,
    )


# ------------------------------------------------------------ trace CSV

def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def trace_to_csv(trace: Trace) -> str:
    lines = [CSV_HEADER]
    for r in trace.rows:
        lines.append(
            f"{r.k},{_fmt(r.t)},{_fmt(r.f)},{_fmt(r.gradsq)},{_fmt(r.gamma)},{r.max_delay_observed}"
        )
    return "\n".join(lines) + "\n"


def _parse_field(raw: str, name: str, lineno: int, want_int: bool):
    try:
        if want_int:
            return int(raw)
        return float(raw)
    except ValueError:
        raise TraceParseError(f"line {lineno}: bad value for {name}: {raw!r}") from None


def trace_from_csv(text: str) -> Trace:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        got = lines[0].strip() if lines else ""
        raise TraceParseError(f"line 1: expected header {CSV_HEADER!r}, got {got!r}")
    trace = Trace()
    names = CSV_HEADER.split(",")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise TraceParseError(f"line {lineno}: expected {len(names)} fields, got {len(parts)}")
        vals = {
            name: _parse_field(raw.strip(), name, lineno, want_int=name in ("k", "max_delay_observed"))
            for name, raw in zip(names, parts)
        }
        trace.append(TraceRow(**vals))
    return trace


def write_trace_csv(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace_to_csv(trace))


def read_trace_csv(path: str) -> Trace:
    """Parse a trace file and check its rows as the recorder checks the traces it
    writes: k strictly increasing, t and max_delay_observed not decreasing,
    finite values, gradsq, gamma and max_delay_observed >= 0."""
    with open(path, "r", encoding="utf-8") as fh:
        trace = trace_from_csv(fh.read())
    try:
        trace.validate()
    except ValueError as e:
        raise TraceParseError(f"{path}: {e}") from None
    return trace


# ------------------------------------------------------------ plot data

def write_plot_data(trace: Trace, stem: str) -> list[str]:
    """Two-column whitespace-separated files, one per curve: <stem>.<y>_vs_<x>.dat."""
    written = []
    for y, x in PLOT_CURVES:
        path = f"{stem}.{y}_vs_{x}.dat"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for r in trace.rows:
                xv, yv = getattr(r, x), getattr(r, y)
                xs = str(xv) if isinstance(xv, int) else _fmt(xv)
                ys = str(yv) if isinstance(yv, int) else _fmt(yv)
                fh.write(f"{xs} {ys}\n")
        written.append(path)
    return written


# ------------------------------------------------------------ bound report

# report key -> which empirical statistic its bound caps
_BOUND_METRIC = {
    "bound_eq11": "min_gradsq",
    "bound_eq19": "min_gradsq",
    "bound_eq16": "ergodic",
    "bound_eq42": "ergodic",
    "bound_eq20": "ergodic",
}


def _theorem_rows(trace: Trace) -> list[TraceRow]:
    """Rows covering the theorem's iterate range: everything before the final checkpoint."""
    if len(trace.rows) < 2:
        raise ValueError("trace too short for metrics: need at least two checkpoints")
    return trace.rows[:-1]


def bound_report(traces, report, tolerance: float = 1.25) -> dict:
    """Seed-averaged empirics next to each available bound, with pass/fail at tolerance.

    `traces` must come from one configuration (fingerprints are checked);
    `report` is a TheoryReport or its dict form.  min-over-k bounds compare
    against the mean best gradsq, ergodic bounds against the mean weighted
    average, both computed over the pre-final checkpoint rows.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    fp = traces[0].meta.get("config_fingerprint")
    for t in traces[1:]:
        if t.meta.get("config_fingerprint") != fp:
            raise ValueError(
                f"config mismatch across traces: {fp!r} vs {t.meta.get('config_fingerprint')!r}")
    mins, ergs = [], []
    for t in traces:
        rows = _theorem_rows(t)
        mins.append(min(r.gradsq for r in rows))
        ergs.append(ergodic_average([r.gradsq for r in rows], [r.gamma for r in rows]))
    stats = {
        "min_gradsq": sum(mins) / len(mins),
        "ergodic": sum(ergs) / len(ergs),
    }
    rep = report.to_dict() if hasattr(report, "to_dict") else dict(report)
    comparisons = {}
    for key, metric in _BOUND_METRIC.items():
        bound = rep.get(key)
        if bound is None:
            continue
        emp = stats[metric]
        comparisons[key] = {
            "bound": float(bound),
            "empirical": emp,
            "metric": metric,
            "pass": bool(emp <= tolerance * float(bound)),
        }
    out = {
        "n_traces": len(traces),
        "low_seed_count": len(traces) < 2,
        "tolerance": tolerance,
        "config_fingerprint": fp,
        "mean_min_gradsq": stats["min_gradsq"],
        "mean_ergodic_average": stats["ergodic"],
        "comparisons": comparisons,
    }
    if not math.isfinite(stats["min_gradsq"]) or not math.isfinite(stats["ergodic"]):
        raise ValueError("non-finite empirical statistics")
    return out


def speedup_table_csv(rows) -> str:
    """CSV rendering of SpeedupRows; unreached fields print as `none`."""
    out = ["workers,iteration_speedup,time_speedup,iterations_to_target,seconds_to_target"]
    for r in rows:
        cells = [str(r.workers)]
        for v in (r.iteration_speedup, r.time_speedup):
            cells.append("none" if v is None else _fmt(v))
        cells.append("none" if r.iterations_to_target is None else str(r.iterations_to_target))
        cells.append("none" if r.seconds_to_target is None else _fmt(r.seconds_to_target))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
