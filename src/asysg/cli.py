"""Command-line front end: JSON configs in, trace CSVs / theory JSON / speedup tables out.

Config layout (all sections except `problem` and `algorithm` optional):

    {
      "problem":   {"type": "noisy_quadratic", "n": 20, "kappa": 10, "sigma": 1,
                    "N": 64, "gap": 1, "seed": 0},
      "algorithm": {"mode": "con-sim", "K": 1000, "M": 4,
                    "gamma": {"kind": "constant", "value": 0.05},
                    "T": 2, "workers": 1,
                    "delay_model": {"kind": "uniform"},
                    "read_model": {"kind": "prefix", "tau": 1}},
      "output":    {"trace": "out/run", "checkpoint_every": 10},
      "seeds":     {"master_seed": 0, "replicates": 3}
    }

`gamma` also accepts a bare number as shorthand for a constant steplength.
Unknown keys anywhere are rejected with the offending dotted path.  Replicate
r runs with master seed `master_seed + r` and writes `<trace>.r<r>.csv`;
threaded modes add a `<trace>.r<r>.delays.json` sidecar.  Simulator modes
write t=0 in every row (they have no meaningful wall clock), which keeps
reruns bit-identical.

Exit codes: 0 success, 1 runtime failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
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
    TraceRow,
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

PROBLEM_TYPES = ("noisy_quadratic", "least_squares", "mlp")


class ConfigError(ValueError):
    """Invalid config document; the message names the offending dotted field."""


# ------------------------------------------------------------ schema helpers

def _check_keys(d: dict, where: str, allowed: tuple, required: tuple = ()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key (allowed: {', '.join(allowed)})")
    for key in required:
        if key not in d:
            raise ConfigError(f"{where}.{key}: missing required key")


def _as_int(d: dict, key: str, where: str, default=None, minimum=None):
    if key not in d:
        return default
    v = d[key]
    # bool is an int subclass; 1e3 from JSON arrives as float
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    if isinstance(v, float):
        if not v.is_integer():
            raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
        v = int(v)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {v}")
    return v


def _as_float(d: dict, key: str, where: str, default=None, minimum=None):
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    v = float(v)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {v}")
    return v


def _as_str(d: dict, key: str, where: str, default=None, choices=None):
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, str):
        raise ConfigError(f"{where}.{key}: expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(f"{where}.{key}: must be one of {', '.join(choices)}, got {v!r}")
    return v


# ------------------------------------------------------------ section parsers

def _parse_problem(section: dict):
    _check_keys(section, "problem",
                allowed=("type", "n", "kappa", "sigma", "N", "gap", "seed",
                         "widths", "sample_count", "noise_std"),
                required=("type",))
    ptype = _as_str(section, "type", "problem", choices=PROBLEM_TYPES)
    seed = _as_int(section, "seed", "problem", default=0, minimum=0)
    if ptype == "noisy_quadratic":
        _check_keys(section, "problem", allowed=("type", "n", "kappa", "sigma", "N", "gap", "seed"))
        return make_noisy_quadratic(
            n=_as_int(section, "n", "problem", default=20, minimum=1),
            kappa=_as_float(section, "kappa", "problem", default=10.0, minimum=1.0),
            sigma=_as_float(section, "sigma", "problem", default=1.0, minimum=0.0),
            N=_as_int(section, "N", "problem", default=64, minimum=2),
            gap=_as_float(section, "gap", "problem", default=1.0, minimum=0.0),
            seed=seed,
        )
    if ptype == "least_squares":
        _check_keys(section, "problem", allowed=("type", "n", "N", "seed"))
        return make_least_squares(
            n=_as_int(section, "n", "problem", default=10, minimum=1),
            N=_as_int(section, "N", "problem", default=40, minimum=1),
            seed=seed,
        )
    _check_keys(section, "problem", allowed=("type", "widths", "sample_count", "noise_std", "seed"))
    widths = section.get("widths")
    if widths is not None:
        if (not isinstance(widths, list) or len(widths) < 2
                or any(isinstance(w, bool) or not isinstance(w, int) or w < 1 for w in widths)):
            raise ConfigError(f"problem.widths: expected a list of >= 2 positive integers, got {widths!r}")
        widths = tuple(widths)
    try:
        spec = MlpSpec(
            widths=widths or MlpSpec.widths,
            sample_count=_as_int(section, "sample_count", "problem",
                                 default=MlpSpec.sample_count, minimum=1),
            noise_std=_as_float(section, "noise_std", "problem",
                                default=MlpSpec.noise_std, minimum=0.0),
        )
    except ValueError as e:
        raise ConfigError(f"problem: {e}") from None
    return make_synthetic_mlp(spec, seed=seed)


def _parse_gamma(v, where: str) -> GammaRule:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return GammaRule.constant(float(v))
    if not isinstance(v, dict):
        raise ConfigError(f"{where}: expected a number or an object with a 'kind' key, got {v!r}")
    _check_keys(v, where, allowed=("kind", "value"), required=("kind",))
    kind = _as_str(v, "kind", where, choices=("constant", "corollary2", "corollary4"))
    try:
        if kind == "constant":
            value = _as_float(v, "value", where)
            if value is None:
                raise ConfigError(f"{where}.value: missing required key for constant gamma")
            return GammaRule.constant(value)
        return GammaRule(kind)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _parse_delay_model(v, where: str) -> DelayModel:
    _check_keys(v, where, allowed=("kind", "tau"), required=("kind",))
    kind = _as_str(v, "kind", where, choices=DelayModel.KINDS)
    try:
        if kind == "fixed":
            tau = _as_int(v, "tau", where, minimum=0)
            if tau is None:
                raise ConfigError(f"{where}.tau: missing required key for fixed delays")
            return DelayModel.fixed(tau)
        if "tau" in v:
            raise ConfigError(f"{where}.tau: only the fixed kind takes tau")
        return DelayModel.uniform() if kind == "uniform" else DelayModel.cyclic()
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _parse_read_model(v, where: str) -> ReadModel:
    _check_keys(v, where, allowed=("kind", "tau", "p"), required=("kind",))
    kind = _as_str(v, "kind", where, choices=ReadModel.KINDS)
    try:
        if kind == "prefix":
            if "p" in v:
                raise ConfigError(f"{where}.p: only the random-subset kind takes p")
            tau = _as_int(v, "tau", where, minimum=0)
            if tau is None:
                raise ConfigError(f"{where}.tau: missing required key for prefix reads")
            return ReadModel.prefix(tau)
        if "tau" in v:
            raise ConfigError(f"{where}.tau: only the prefix kind takes tau")
        prob = _as_float(v, "p", where)
        if prob is None:
            raise ConfigError(f"{where}.p: missing required key for random-subset reads")
        return ReadModel.random_subset(prob)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _parse_algorithm(alg: dict, out: dict, seeds: dict) -> tuple[RunConfig, str, int, int]:
    """Build the RunConfig plus (trace stem, replicates, master seed)."""
    _check_keys(alg, "algorithm",
                allowed=("mode", "K", "M", "gamma", "T", "workers", "delay_model", "read_model"),
                required=("mode", "K"))
    _check_keys(out, "output", allowed=("trace", "checkpoint_every"))
    _check_keys(seeds, "seeds", allowed=("master_seed", "replicates"))

    mode = _as_str(alg, "mode", "algorithm", choices=MODES)
    kwargs = dict(
        mode=mode,
        K=_as_int(alg, "K", "algorithm", minimum=1),
        M=_as_int(alg, "M", "algorithm", default=1, minimum=1),
        T=_as_int(alg, "T", "algorithm", default=0, minimum=0),
        workers=_as_int(alg, "workers", "algorithm", default=1, minimum=1),
        checkpoint_every=_as_int(out, "checkpoint_every", "output", default=1, minimum=1),
    )
    if "gamma" in alg:
        kwargs["gamma"] = _parse_gamma(alg["gamma"], "algorithm.gamma")
    if "delay_model" in alg:
        kwargs["delay_model"] = _parse_delay_model(alg["delay_model"], "algorithm.delay_model")
    if "read_model" in alg:
        kwargs["read_model"] = _parse_read_model(alg["read_model"], "algorithm.read_model")
    if mode == "con-sim" and kwargs.get("delay_model") is None:
        raise ConfigError("algorithm.delay_model: missing required key for con-sim mode")
    if mode in ("incon-sim", "incon-sparse-sim") and kwargs.get("read_model") is None:
        raise ConfigError("algorithm.read_model: missing required key for incon-sim modes")

    master = _as_int(seeds, "master_seed", "seeds", default=0, minimum=0)
    replicates = _as_int(seeds, "replicates", "seeds", default=1, minimum=1)
    stem = _as_str(out, "trace", "output", default="trace")
    if stem.endswith(".csv"):
        stem = stem[:-4]

    try:
        cfg = RunConfig(seeds=SeedSpec(master), **kwargs)
    except ValueError as e:
        raise ConfigError(f"algorithm: {e}") from None
    return cfg, stem, replicates, master


def parse_config(doc: dict):
    """Validate the whole document; returns (problem, RunConfig, stem, replicates, master)."""
    _check_keys(doc, "config", allowed=("problem", "algorithm", "output", "seeds"),
                required=("problem", "algorithm"))
    problem = _parse_problem(doc["problem"])
    cfg, stem, replicates, master = _parse_algorithm(
        doc["algorithm"], doc.get("output", {}), doc.get("seeds", {}))
    return problem, cfg, stem, replicates, master


# ------------------------------------------------------------ config file + overrides

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
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
        except json.JSONDecodeError:
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

def _run_one(problem, cfg: RunConfig):
    """Returns (trace, delay stats or None)."""
    if cfg.mode == "serial":
        return run_serial_sg(problem, cfg), None
    if cfg.mode == "con-sim":
        return run_asysg_con_sim(problem, cfg), None
    if cfg.mode == "incon-sim":
        return run_asysg_incon_sim(problem, cfg), None
    if cfg.mode == "incon-sparse-sim":
        return run_asysg_incon_sparse_sim(problem, cfg), None
    if cfg.mode == "con-threads":
        return run_param_server(problem, cfg)
    return run_lockfree_shared(problem, cfg)


def _zero_times(trace: Trace) -> Trace:
    rows = [dataclasses.replace(r, t=0.0) for r in trace.rows]
    return Trace(rows, meta=trace.meta)


def cmd_run(args) -> int:
    try:
        doc = apply_overrides(load_config(args.config), args.override or [])
        problem, cfg, stem, replicates, master = parse_config(doc)
        if args.out is not None:
            stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        if args.seeds is not None:
            if args.seeds < 1:
                raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
            replicates = args.seeds
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
                trace, stats = _run_one(problem, cfg_r)
            if cfg.mode in SIM_MODES:
                trace = _zero_times(trace)
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
        problem, cfg, _, _, _ = parse_config(doc)
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
    if args.epsilon <= 0:
        print(f"error: --epsilon must be positive, got {args.epsilon}", file=sys.stderr)
        return EXIT_INVALID
    try:
        baseline = read_trace_csv(args.baseline)
        parallel = []
        for item in args.parallel:
            workers_str, sep, path = item.partition(":")
            if not sep or not workers_str.isdigit() or int(workers_str) < 1:
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
