#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload of BENCHMARK.json several times, each with another
--seed, and prints per end-to-end metric the median, the quartiles and the
interquartile spread as a share of the median, against the metric's bound.
The share of failed operations must be the same in every run.

    python3 ccsbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                               [--trace] [--out FILE]

Run it from the repository root. Builds go to $CARGO_TARGET_DIR, or to
.bench_build when that is unset. --trace runs the traced mode once per
workload and prints its per-layer metrics instead. --out writes every
figure as JSON, which is where the README's reference figures come from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, took, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    command = bench["command"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    report = {}
    for name in names:
        if opts.trace:
            result, took, _ = run_once(command, name, opts.seed0, bench["run_seconds"], True)
            print(f"== {name} traced (seed {opts.seed0}, {took:.1f} s), correct {result['correct']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")
            report[name] = result
            continue
        runs = []
        for k in range(opts.runs):
            seed = opts.seed0 + k
            result, took, stderr = run_once(command, name, seed, bench["run_seconds"], False)
            runs.append(result)
            share = result["failed"] / result["attempted"]
            print(f"{name} seed {seed}: {took:.1f} s, attempted {result['attempted']}, "
                  f"failed share {share:.6f}, correct {result['correct']}", flush=True)
        print(f"== {name}: {len(runs)} runs")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share per run: {sorted(shares)} "
              f"({'same in every run' if len(shares) == 1 else 'DIFFERS'})")
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print(f"  {metric['name']:16s} median {median:12.6g} {metric['unit']:5s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} bound {bound:5.3f} {verdict}")
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "values": values}
        report[name] = {"metrics": summary, "failed_shares": sorted(shares)}
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
