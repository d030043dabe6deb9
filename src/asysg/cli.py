"""Command-line front end: JSON configs in, trace CSVs / theory JSON / speedup tables out.

Config layout (all sections except `problem` and `algorithm` optional):

    {
      "problem":   {"type": "noisy_quadratic", "n": 20, "kappa": 10, "sigma": 1,
                    "N": 64, "gap": 1, "seed": 0},
      "algorithm": {"mode": "con-sim", "K": 1000, "M": 4,
                    "gamma": {"kind": "constant", "value": 0.05},
                    "T": 2, "workers": 1,
                    "delay_model": {"kind": "uniform"}},
      "output":    {"trace": "out/run", "checkpoint_every": 10},
      "seeds":     {"master_seed": 0, "replicates": 3}
    }

The schema below gives every field's type and bound, and the constructor its
section feeds; a field left out takes that constructor's default.  Numbers must
be finite.  `con-sim` requires `delay_model`, `incon-sim` and `incon-sparse-sim`
require `read_model`, and every other mode refuses both (RunConfig states the
rule).  `gamma` also accepts a bare number as shorthand for a constant
steplength.  Unknown keys anywhere are rejected with the offending dotted path.
Replicate r runs with master seed `master_seed + r` and writes
`<trace>.r<r>.csv`; the last replicate's seed must fit in 64 bits before any
runs.  Threaded modes add a `<trace>.r<r>.delays.json` sidecar of the delays
the run actually observed: they accept `T` but do not yet bound staleness by
it, so `asysg theory` figures for their configs assume a T the run does not
enforce.  Simulator modes write t=0 in every row (they have no meaningful wall
clock), which keeps reruns bit-identical.

Exit codes: 0 success, 1 runtime failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import re
import sys
import warnings

from .core import (
    MODES,
    SIM_MODES,
    EngineError,
    GammaRule,
    RunConfig,
    SeedSpec,
    Trace,
)
from .engines_parallel import run_lockfree_shared, run_param_server
from .engines_sim import (
    DelayModel,
    ReadModel,
    run_asysg_con_sim,
    run_asysg_incon_sim,
    run_asysg_incon_sparse_sim,
    run_serial_sg,
)
from .harness import (
    TraceParseError,
    build_speedup_row,
    iterations_to_target,
    read_trace_csv,
    speedup_table_csv,
    write_plot_data,
    write_trace_csv,
)
from .problems import (
    MlpSpec,
    make_least_squares,
    make_noisy_quadratic,
    make_synthetic_mlp,
)
from .theory import build_theory_report

EXIT_OK, EXIT_RUNTIME, EXIT_INVALID = 0, 1, 2


class ConfigError(ValueError):
    """Invalid config document; the message names the offending dotted field."""


# ------------------------------------------------------------ schema

def _make_mlp(**fields):
    """`seed` feeds make_synthetic_mlp, the other mlp fields feed MlpSpec."""
    seed = {"seed": fields.pop("seed")} if "seed" in fields else {}
    return make_synthetic_mlp(MlpSpec(**fields), **seed)


# The config schema: every field's type and its minimum (numbers; a tuple is a
# list of integers) or its choices (strings).  A field of type "kind" or "type"
# is a kinded section: that key picks one of its kinds, and each kind names the
# constructor its fields feed.  Defaults and required keys are the
# constructors' own: a field left out is not passed.
GAMMA = {
    "constant": (GammaRule.constant, {"value": (float, 0.0)}),
    "corollary2": (GammaRule.corollary2, {}),
    "corollary4": (GammaRule.corollary4, {}),
}
DELAY_MODEL = {
    "fixed": (DelayModel.fixed, {"tau": (int, 0)}),
    "uniform": (DelayModel.uniform, {}),
    "cyclic": (DelayModel.cyclic, {}),
}
READ_MODEL = {
    "prefix": (ReadModel.prefix, {"tau": (int, 0)}),
    "random-subset": (ReadModel.random_subset, {"p": (float, 0.0)}),
}
PROBLEM = {
    "noisy_quadratic": (make_noisy_quadratic, {
        "n": (int, 1), "kappa": (float, 1.0), "sigma": (float, 0.0), "N": (int, 2),
        "gap": (float, 0.0), "seed": (int, 0)}),
    "least_squares": (make_least_squares, {"n": (int, 1), "N": (int, 1), "seed": (int, 0)}),
    "mlp": (_make_mlp, {
        "widths": (tuple, 1), "sample_count": (int, 1), "noise_std": (float, 0.0), "seed": (int, 0)}),
}
# feeds RunConfig, together with output.checkpoint_every and seeds.master_seed
ALGORITHM = {
    "mode": (str, MODES), "K": (int, 1), "M": (int, 1), "gamma": ("kind", GAMMA), "T": (int, 0),
    "workers": (int, 1), "delay_model": ("kind", DELAY_MODEL), "read_model": ("kind", READ_MODEL),
}
OUTPUT = {"trace": (str, None), "checkpoint_every": (int, 1)}
SEEDS = {"master_seed": (int, 0), "replicates": (int, 1)}
SECTIONS = ("problem", "algorithm", "output", "seeds")


def _value(v, kind, bound, path: str):
    """One field checked against its schema entry; returns the value to pass on."""
    if kind in ("kind", "type"):
        return _kinded(v, path, bound, tag=kind)
    if kind is str:
        if not isinstance(v, str):
            raise ConfigError(f"{path}: expected a string, got {v!r}")
        if bound is not None and v not in bound:
            raise ConfigError(f"{path}: must be one of {', '.join(bound)}, got {v!r}")
        return v
    if kind is tuple:
        if not isinstance(v, list):
            raise ConfigError(f"{path}: expected a list of integers, got {v!r}")
        return tuple(_value(w, int, bound, f"{path}[{i}]") for i, w in enumerate(v))
    # bool is an int subclass; 1e3 from JSON arrives as float; json also reads NaN and Infinity
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (
            isinstance(v, float) and not math.isfinite(v)):
        raise ConfigError(f"{path}: expected a finite {'integer' if kind is int else 'number'}, got {v!r}")
    if kind is int and isinstance(v, float) and not v.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    try:
        v = kind(v)
    except OverflowError:
        raise ConfigError(f"{path}: expected a finite number, got an integer too large for a float") from None
    if v < bound:
        raise ConfigError(f"{path}: must be >= {bound}, got {v}")
    return v


def _fields(section, path: str, fields: dict) -> dict:
    """Check a section's keys and values; returns the checked values by key."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object, got {type(section).__name__}")
    for key in section:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {', '.join(fields)})")
    return {key: _value(v, *fields[key], f"{path}.{key}") for key, v in section.items()}


def _kinded(section, path: str, kinds: dict, tag: str):
    """Build a kinded section: its `tag` key picks the constructor, the other keys feed it."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object, got {type(section).__name__}")
    if tag not in section:
        raise ConfigError(f"{path}.{tag}: missing required key")
    kind = _value(section[tag], str, tuple(kinds), f"{path}.{tag}")
    ctor, fields = kinds[kind]
    kwargs = _fields(section, path, {tag: (str, None), **fields})
    del kwargs[tag]
    return _build(ctor, kwargs, path)


def _build(ctor, kwargs: dict, path: str):
    """Call a constructor with the fields given; its ValueError becomes a ConfigError.

    Required keys are the constructor's parameters without a default.  A
    message whose first word (up to a space, ".", ":" or "=") names a parameter
    or a given key is filed under that field.
    """
    params = inspect.signature(ctor).parameters
    for name, param in params.items():
        if param.default is param.empty and param.kind is not param.VAR_KEYWORD and name not in kwargs:
            raise ConfigError(f"{path}.{name}: missing required key")
    try:
        return ctor(**kwargs)
    except ValueError as e:
        named = re.match(r"\w*", str(e)).group() in params.keys() | kwargs.keys()
        raise ConfigError(f"{path}.{e}" if named else f"{path}: {e}") from None


def parse_config(doc: dict):
    """Validate the whole document; returns (problem, RunConfig, trace stem, replicates)."""
    alg = doc.get("algorithm")
    if isinstance(alg, dict) and type(alg.get("gamma")) in (int, float):
        doc = {**doc, "algorithm": {**alg, "gamma": {"kind": "constant", "value": alg["gamma"]}}}
    for key in doc:
        if key not in SECTIONS:
            raise ConfigError(f"config.{key}: unknown key (allowed: {', '.join(SECTIONS)})")
    for key in ("problem", "algorithm"):
        if key not in doc:
            raise ConfigError(f"config.{key}: missing required key")
    problem = _kinded(doc["problem"], "problem", PROBLEM, tag="type")
    run = _fields(doc["algorithm"], "algorithm", ALGORITHM)
    out = _fields(doc.get("output", {}), "output", OUTPUT)
    seeds = _fields(doc.get("seeds", {}), "seeds", SEEDS)
    if "checkpoint_every" in out:
        run["checkpoint_every"] = out["checkpoint_every"]
    if "master_seed" in seeds:
        run["seeds"] = _build(SeedSpec, {"master_seed": seeds["master_seed"]}, "seeds")
    cfg = _build(RunConfig, run, "algorithm")
    stem = out.get("trace", "trace")
    return problem, cfg, stem[:-4] if stem.endswith(".csv") else stem, seeds.get("replicates", 1)


# ------------------------------------------------------------ config file + overrides

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except ValueError as e:  # malformed JSON, bad UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return doc


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply dotted-path `section.key=value` assignments; values parse as JSON when possible."""
    for item in overrides:
        path, sep, raw = item.partition("=")
        if not sep or not path:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        keys = path.split(".")
        if len(keys) < 2 or not all(keys):
            raise ConfigError(f"override {item!r}: path must be section.key[.subkey]")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        node = doc
        for key in keys[:-1]:
            nxt = node.setdefault(key, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {item!r}: {key} is not an object")
            node = nxt
        node[keys[-1]] = value
    return doc


# ------------------------------------------------------------ run dispatch

# the engine of each mode; the simulators return a trace, the threaded engines
# (trace, delay stats)
ENGINES = {
    "serial": run_serial_sg,
    "con-sim": run_asysg_con_sim,
    "incon-sim": run_asysg_incon_sim,
    "incon-sparse-sim": run_asysg_incon_sparse_sim,
    "con-threads": run_param_server,
    "incon-threads": run_lockfree_shared,
}


def cmd_run(args) -> int:
    try:
        doc = apply_overrides(load_config(args.config), args.override or [])
        problem, cfg, stem, replicates = parse_config(doc)
        if args.out is not None:
            stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        if args.seeds is not None:
            if args.seeds < 1:
                raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
            replicates = args.seeds
        master = cfg.seeds.master_seed
        try:
            SeedSpec(master + replicates - 1)
        except ValueError as e:
            raise ConfigError(f"seeds.master_seed: the last of {replicates} replicates "
                              f"runs with seed {master} + {replicates - 1}: {e}") from None
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID

    out_dir = os.path.dirname(stem)
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        for r in range(replicates):
            cfg_r = dataclasses.replace(cfg, seeds=SeedSpec(master + r))
            with warnings.catch_warnings():
                # a diverging run overflows before the recorder stops it with an
                # EngineError; its "error:" line, not numpy's warnings, reports it
                warnings.filterwarnings("ignore", r"(overflow|invalid value|divide by zero) encountered",
                                        RuntimeWarning)
                out = ENGINES[cfg.mode](problem, cfg_r)
            if cfg.mode in SIM_MODES:  # t=0 in every row keeps reruns bit-identical
                out = Trace([dataclasses.replace(row, t=0.0) for row in out.rows], out.meta), None
            trace, stats = out
            path = f"{stem}.r{r}.csv"
            write_trace_csv(trace, path)
            print(path)
            if stats is not None:
                side = f"{stem}.r{r}.delays.json"
                with open(side, "w", encoding="utf-8") as fh:
                    json.dump(stats.to_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(side)
    except (EngineError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as e:
        # derived-steplength rules can reject a problem's constants at run time
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def cmd_theory(args) -> int:
    try:
        doc = apply_overrides(load_config(args.config), args.override or [])
        problem, cfg, _, _ = parse_config(doc)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    try:
        report = build_theory_report(
            gap=problem.gap,
            M=cfg.M,
            L=problem.L,
            K=cfg.K,
            sigma_sq=problem.sigma_sq,
            T=cfg.T,
            n=problem.n,
            L_T=problem.l_s(max(cfg.T, 1)),
            L_max=problem.L_max,
            constants_estimated=problem.constants_estimated,
        )
    except (ValueError, AttributeError) as e:
        print(f"error: constants unavailable for this setup: {e}", file=sys.stderr)
        return EXIT_INVALID
    print(report.to_json())
    return EXIT_OK


def cmd_speedup(args) -> int:
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        print(f"error: --epsilon must be positive and finite, got {args.epsilon}", file=sys.stderr)
        return EXIT_INVALID
    try:
        baseline = read_trace_csv(args.baseline)
        parallel = []
        for item in args.parallel:
            workers_str, sep, path = item.partition(":")
            if not sep or not (workers_str.isascii() and workers_str.isdigit()) or int(workers_str) < 1:
                print(f"error: --parallel expects WORKERS:PATH, got {item!r}", file=sys.stderr)
                return EXIT_INVALID
            parallel.append((int(workers_str), read_trace_csv(path)))
    except (TraceParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    if iterations_to_target(baseline, args.epsilon) is None:
        print(f"error: baseline never reaches gradsq <= {args.epsilon}", file=sys.stderr)
        return EXIT_RUNTIME
    rows = [build_speedup_row(baseline, trace, workers, args.epsilon)
            for workers, trace in parallel]
    sys.stdout.write(speedup_table_csv(rows))
    return EXIT_OK


def cmd_plotdata(args) -> int:
    try:
        trace = read_trace_csv(args.trace)
    except (TraceParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    stem = args.out
    if stem is None:
        stem = args.trace[:-4] if args.trace.endswith(".csv") else args.trace
    out_dir = os.path.dirname(stem)
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        for path in write_plot_data(trace, stem):
            print(path)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ------------------------------------------------------------ argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asysg", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured algorithm, one trace CSV per replicate")
    run.add_argument("--config", required=True, help="JSON config path")
    run.add_argument("--override", action="append", metavar="SECTION.KEY=VALUE",
                     help="config override, repeatable")
    run.add_argument("--out", help="output stem, replaces output.trace")
    run.add_argument("--seeds", type=int, help="replicate count, replaces seeds.replicates")
    run.set_defaults(func=cmd_run)

    theory = sub.add_parser("theory", help="print the steplength/condition/bound report as JSON")
    theory.add_argument("--config", required=True, help="JSON config path")
    theory.add_argument("--override", action="append", metavar="SECTION.KEY=VALUE",
                        help="config override, repeatable")
    theory.set_defaults(func=cmd_theory)

    speed = sub.add_parser("speedup", help="speedup table from a baseline and parallel traces")
    speed.add_argument("--baseline", required=True, help="serial trace CSV")
    speed.add_argument("--parallel", action="append", required=True, metavar="WORKERS:PATH",
                       help="parallel trace CSV with its worker count, repeatable")
    speed.add_argument("--epsilon", type=float, required=True, help="target gradsq")
    speed.set_defaults(func=cmd_speedup)

    plot = sub.add_parser("plotdata", help="convert a trace CSV to two-column plot files")
    plot.add_argument("--trace", required=True, help="trace CSV path")
    plot.add_argument("--out", help="output stem, defaults to the trace path minus .csv")
    plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
