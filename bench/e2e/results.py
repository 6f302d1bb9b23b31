#!/usr/bin/env python3
"""Checks and summarizes lithobench results.

  results.py smoke --bin LITHOBENCH --benchmark BENCHMARK.json --out DIR
      Runs every workload at smoke size, untraced and traced, and checks each
      result line against BENCHMARK.json: exactly the four keys, every
      end_to_end (untraced) or per_layer (traced) metric present, finite and
      in its unit, every output check passed. Exits 1 on any problem.

  results.py summary --benchmark BENCHMARK.json DIR [DIR ...]
      Reads DIR/<workload>.json (and DIR/<workload>.traced.json) from each
      result set, one per run.sh --repeat round, and prints per workload and
      metric the median, first and third quartile and the spread
      (Q3 - Q1) / median, next to the regression bound of each end-to-end
      metric.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["chip_golden", "chip_learned", "serve_low", "serve_high"]


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if names != WORKLOADS:
        sys.exit(f"{path}: workloads {names} != {WORKLOADS}")
    return bench


def check_line(line, expected, trace):
    """Problems with one result line; `expected` maps metric name -> unit."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"failed {result['failed']!r}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing} extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        elif not trace and value == 0:
            problems.append(f"{name} is 0")
        if m.get("unit") != unit:
            problems.append(f"{name} unit {m.get('unit')!r} != {unit!r}")
    return problems


def smoke(args):
    bench = load_benchmark(args.benchmark)
    os.makedirs(args.out, exist_ok=True)
    lists = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    start = time.monotonic()
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [args.bin, "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke", "--out", args.out]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            lines = run.stdout.strip().splitlines()
            problems = [] if run.returncode == 0 else [f"exit code {run.returncode}"]
            problems += check_line(lines[-1] if lines else "", lists[trace], trace)
            label = f"{workload} trace={trace}"
            if problems:
                failed = True
                print(f"FAIL {label}: " + "; ".join(problems))
                print(run.stdout + run.stderr)
            else:
                print(f"ok   {label}")
    print(f"smoke: {time.monotonic() - start:.1f} s")
    return 1 if failed else 0


def summary(args):
    bench = load_benchmark(args.benchmark)
    lists = {".json": [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]],
             ".traced.json": [(m["name"], m["unit"], None) for m in bench["per_layer"]]}
    print(f"{'workload':<13} {'metric':<31} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  unit")
    worst = 0.0
    for workload in WORKLOADS:
        for suffix, metrics in lists.items():
            runs = []
            for d in args.dirs:
                path = os.path.join(d, workload + suffix)
                if os.path.exists(path):
                    with open(path) as f:
                        runs.append(json.load(f))
            rows = [(n, u, b, [r["metrics"][n]["value"] for r in runs if n in r["metrics"]])
                    for n, u, b in metrics]
            rows.append(("ops_failed", "count", None, [r["failed"] for r in runs]))
            for name, unit, bound, values in rows:
                if len(values) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                if bound is not None and name != "setup_s":
                    worst = max(worst, spread / bound)
                print(f"{workload:<13} {name:<31} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {'' if bound is None else bound:>6}  {unit}")
    print(f"{len(args.dirs)} result sets; largest end-to-end spread/bound "
          f"(setup_s aside): {worst:.2f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("smoke")
    p.add_argument("--bin", required=True)
    p.add_argument("--benchmark", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("summary")
    p.add_argument("--benchmark", required=True)
    p.add_argument("dirs", nargs="+")
    args = parser.parse_args()
    return smoke(args) if args.command == "smoke" else summary(args)


if __name__ == "__main__":
    sys.exit(main())
