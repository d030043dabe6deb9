"""Collect result sets over seeds and compare two sets against the bounds.

    python3 bench/sets.py collect --out bench/out/sets/base --seeds 10
    python3 bench/sets.py collect --out bench/out/sets/mlp --seeds 5 --workload mlp-con-threads
    python3 bench/sets.py compare bench/out/sets/base bench/out/sets/change

`collect` runs BENCHMARK.json's command once per (workload, seed), each in a
fresh process, appends every result line to `<out>/<workload>.jsonl`, and
prints each end-to-end metric's median and quartile spread (Q3 - Q1, as a
share of the median) next to its bound.  `compare` prints, per workload and
metric, how far the second set's median moved against the first's in the
metric's worse direction, and flags moves beyond the bound and any change in
the share of failed operations.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_set(path: str) -> dict[str, list[dict]]:
    out = {}
    for fname in sorted(os.listdir(path)):
        if fname.endswith(".jsonl"):
            with open(os.path.join(path, fname), encoding="utf-8") as fh:
                out[fname[:-len(".jsonl")]] = [json.loads(line) for line in fh if line.strip()]
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def metric_values(entries: list[dict], name: str) -> list[float]:
    return [e["result"]["metrics"][name]["value"] for e in entries if name in e["result"]["metrics"]]


def failed_share(entries: list[dict]) -> float:
    return sum(e["result"]["failed"] for e in entries) / sum(e["result"]["attempted"] for e in entries)


def collect(args) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        path = os.path.join(args.out, f"{name}.jsonl")
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"seed": seed, "wall_s": wall,
                                     "result": result}) + "\n")
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    report(spec, load_set(args.out))
    return 0


def report(spec: dict, results: dict[str, list[dict]]) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':20s} {'metric':18s} {'n':>3s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for wname, entries in results.items():
        for name, bound in bounds.items():
            values = metric_values(entries, name)
            if not values:
                continue
            med, sp = spread(values)
            flag = "" if sp <= bound / 3 else ("  above bound/3" if sp <= bound else "  ABOVE BOUND")
            print(f"{wname:20s} {name:18s} {len(values):3d} {med:12.6g} {sp:8.4f} {bound:6.3f}{flag}")
        if entries:
            print(f"{wname:20s} failed share {failed_share(entries):.6f}")


def compare(args) -> int:
    spec = load_spec()
    base, new = load_set(args.base), load_set(args.new)
    worse_is = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bad = 0
    print(f"{'workload':20s} {'metric':18s} {'base':>12s} {'new':>12s} {'worse by':>9s} {'bound':>6s}")
    for wname in sorted(set(base) & set(new)):
        a, b = base[wname], new[wname]
        for name, (better, bound) in worse_is.items():
            va, vb = metric_values(a, name), metric_values(b, name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / abs(ma) if better == "lower" else (ma - mb) / abs(ma)
            flag = "  REGRESSION" if worse > bound else ""
            bad += bool(flag)
            print(f"{wname:20s} {name:18s} {ma:12.6g} {mb:12.6g} {worse:9.4f} {bound:6.3f}{flag}")
        fa, fb = failed_share(a), failed_share(b)
        if fa != fb:
            bad += 1
            print(f"{wname:20s} failed share moved: {fa:.6f} -> {fb:.6f}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run every workload over a range of seeds")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", type=int, default=10)
    c.add_argument("--workload", action="append", help="repeatable; default: all")
    k = sub.add_parser("compare", help="second set against the first, metric by metric")
    k.add_argument("base")
    k.add_argument("new")
    args = ap.parse_args(argv)
    return collect(args) if args.cmd == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
