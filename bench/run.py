"""Benchmark of asysg: one workload, one seed, one pass, one JSON line.

    python3 bench/run.py --workload quad-sims --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  `--trace 0` runs whole rounds for `--seconds`, untraced, and
sets the workload up again after each round (`setup_s` is the median over all
set-ups) to give the end-to-end metrics, at the host reference speed (see
`hostref`).  `--trace 1` runs half the time untraced and half with
spans recorded around each module's public calls, writes the spans to
`bench/out/spans/`, and prints the per-layer metrics, net of the spans' own
calibrated cost, plus the tracing overhead.  The last line of standard output is the result object.  BLAS
threading is left as the machine sets it.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np

import hostref
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

E2E_UNITS = {
    "updates_per_s": "updates/s",
    "updates_per_s_1w": "updates/s",
    "f_final": "objective",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "problems.batch_grad.us_per_call": "us",
    "problems.sample_grad.calls": "calls",
    "problems.grad_entries_used_share": "ratio",
    "problems.eval.calls": "calls",
    "problems.eval.s": "s",
    "problems.build_s": "s",
    "core.ring_get.calls": "calls",
    "core.ring_get.s": "s",
    "engines_sim.con.us_per_update": "us",
    "engines_sim.incon.us_per_update": "us",
    "engines_sim.draw.s": "s",
    "engines_sim.self_s": "s",
    "theory.constants.calls": "calls",
    "theory.constants.s": "s",
    "engines_parallel.worker_oracle_s": "s",
    "engines_parallel.worker_other_s": "s",
    "engines_parallel.push_used_share": "ratio",
    "engines_parallel.staleness_mean": "updates",
    "engines_parallel.staleness_max": "updates",
    "engines_parallel.checkpoint_off_grid": "rows",
    "harness.trace_write.s": "s",
    "tracing.overhead": "ratio",
    "tracing.span_us": "us",
    "host.ref_loop_ms": "ms",
}

CON_ENGINES = ("engines_sim.serial", "engines_sim.con", "engines_parallel.param_server")
INCON_ENGINES = ("engines_sim.incon", "engines_parallel.lockfree")
SIM_ENGINES = ("engines_sim.serial", "engines_sim.con", "engines_sim.incon")


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, queried and never set."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def timed_setup(w) -> float:
    t0 = time.perf_counter()
    w.setup()
    return time.perf_counter() - t0


def run_pass(w, tracer, seconds: float, first_round: int, setup_times: list | None = None) -> list:
    """Whole rounds until `seconds` have passed.

    With `setup_times` given, the workload is set up again after every round
    and each set-up is timed, so the samples behind `setup_s` spread over the
    run as the rounds do instead of bunching where the host may be busy.
    """
    w.tracer = tracer
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        with tracer.span("round"):
            rounds.append(w.round(first_round + len(rounds)))
        if setup_times is not None:
            setup_times.append(timed_setup(w))
    return rounds


def layer_metrics(w, table, setup_table, rounds, untraced_rate: float,
                  cal: spans.Calibration) -> dict[str, float]:
    """Per-layer figures from the traced pass, per round unless the name says otherwise.

    Times are net of the wrappers' calibrated cost; `tracing.overhead` is the
    whole cost as the traced rounds paid it.
    """
    R = len(rounds)
    ops = [op for ops_ in rounds for op in ops_]
    timed = table.nearest(table.named("timed")) >= 0
    op_of = table.nearest(table.prefixed("op."))
    op_w2 = np.array([o >= 0 and table.label(o).endswith(".w2") for o in op_of], dtype=bool)
    engine_of = table.nearest(table.named(*CON_ENGINES, *INCON_ENGINES))
    main = table.thread[table.named("round")][0]
    worker_thread = table.thread != main

    def sel(*names):
        return timed & table.named(*names)

    def total(mask):
        return float(table.dur[mask].sum())

    def per_update_us(name):
        mask = sel(name)
        return total(mask) / max(1, int(mask.sum()) * w.K) * 1e6

    bg = sel("problems.batch_grad")
    con_grad = table.named(*CON_ENGINES)[engine_of[bg]]
    used = int(con_grad.sum()) * w.n + int((~con_grad).sum())
    worker_grad = bg & worker_thread & op_w2
    worker_span = timed & table.named("engines_parallel.worker") & op_w2
    ops_w2 = [op for op in ops if op.workers == 2]
    stats_w2 = [op.stats for op in ops_w2 if op.stats is not None]
    pushes = int(worker_grad.sum())
    sims = sel(*SIM_ENGINES)
    traced_rate = w.end_to_end(rounds)["updates_per_s"]
    return {
        "problems.batch_grad.us_per_call": float(table.dur[bg].mean()) * 1e6 if bg.any() else 0.0,
        "problems.sample_grad.calls": int(table.counted[timed].sum()) / R,
        "problems.grad_entries_used_share": used / (int(bg.sum()) * w.n) if bg.any() else 1.0,
        "problems.eval.calls": int(sel("problems.eval").sum()) / R,
        "problems.eval.s": total(sel("problems.eval")) / R,
        "problems.build_s": float(setup_table.dur[setup_table.named("problems.build")].sum()),
        "core.ring_get.calls": int(sel("core.ring_get").sum()) / R,
        "core.ring_get.s": total(sel("core.ring_get")) / R,
        "engines_sim.con.us_per_update": per_update_us("engines_sim.con"),
        "engines_sim.incon.us_per_update": per_update_us("engines_sim.incon"),
        "engines_sim.draw.s": total(sel("engines_sim.draw")) / R,
        "engines_sim.self_s": float((table.dur[sims] - table.child_dur[sims]).sum()) / R,
        "theory.constants.calls": int(sel("theory.constants").sum()) / R,
        "theory.constants.s": total(sel("theory.constants")) / R,
        "engines_parallel.worker_oracle_s": total(worker_grad) / R,
        "engines_parallel.worker_other_s":
            float((table.dur[worker_span] - table.child_dur[worker_span]).sum()) / R,
        "engines_parallel.push_used_share": sum(op.K for op in ops_w2) / pushes if pushes else 1.0,
        "engines_parallel.staleness_mean":
            float(np.mean([s.mean() for s in stats_w2])) if stats_w2 else 0.0,
        "engines_parallel.staleness_max": float(max((s.max_observed for s in stats_w2), default=0)),
        "engines_parallel.checkpoint_off_grid": sum(op.off_grid for op in ops) / R,
        "harness.trace_write.s": total(sel("harness.trace_write")) / R,
        "tracing.overhead": untraced_rate / traced_rate - 1.0,
        "tracing.span_us": cal.span * 1e6,
        "host.ref_loop_ms": float(np.median([t for op in ops for t in op.ref])) * 1e3,
    }


def end_to_end_run(w, seconds: float):
    """Untraced rounds; the workload is set up again after each one for `setup_s`."""
    from workloads import host_scale  # importable once main has put src/ on the path

    setup_times = [timed_setup(w)]
    w.prepare_checks()
    rounds = run_pass(w, spans.NullTracer(), seconds, 0, setup_times)
    metrics = w.end_to_end(rounds)
    scale = host_scale(rounds)
    metrics["setup_s"] = float(np.median(setup_times)) / scale
    print(f"host reference loop: {scale * hostref.REF_SECONDS * 1e3:.2f} ms median over the run, "
          f"{scale:.3f} x its {hostref.REF_SECONDS * 1e3:g} ms on the reference host; "
          f"raw rates are the rates below / {scale:.3f}, raw setup_s is setup_s x {scale:.3f}")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rounds, metrics, E2E_UNITS


def traced_run(w, seconds: float, out_stem: str):
    """One traced set-up, then half the time untraced and half traced."""
    setup_tracer, tracer = spans.Tracer(), spans.Tracer()
    saved = spans.instrument(setup_tracer, w.problem_cls)
    try:
        with setup_tracer.span("setup"):
            w.setup()
    finally:
        spans.restore(saved)
    w.prepare_checks()
    plain = run_pass(w, spans.NullTracer(), seconds / 2, 0)
    cal = spans.calibrate()
    saved = spans.instrument(tracer, w.problem_cls)
    try:
        traced = run_pass(w, tracer, seconds / 2, len(plain))
    finally:
        spans.restore(saved)
    setup_tracer.save(out_stem + ".setup.npz")
    tracer.save(out_stem + ".rounds.npz")
    metrics = layer_metrics(w, spans.SpanTable(tracer, cal), spans.SpanTable(setup_tracer, cal),
                            traced, w.end_to_end(plain)["updates_per_s"], cal)
    return plain + traced, metrics, LAYER_UNITS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "asysg", "__init__.py")):
        print(f"error: no asysg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload](args.seed)
    print(f"host: {os.cpu_count()} cores, Python {platform.python_version()}, "
          f"numpy {np.__version__}, BLAS threads {blas_threads()} (not set here)")

    if args.trace:
        os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
        stem = os.path.join(OUT_DIR, "spans", f"{w.name}.seed{args.seed}")
        rounds, metrics, units = traced_run(w, args.seconds, stem)
    else:
        rounds, metrics, units = end_to_end_run(w, args.seconds)

    ops = [op for ops_ in rounds for op in ops_]
    for op in ops:
        if not op.ok:
            print(f"{w.name} {op.label}: {op.error or '; '.join(op.wrong)}", file=sys.stderr)
    if any(not math.isfinite(v) for v in metrics.values()):
        print("error: no operation succeeded, metrics undefined", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
