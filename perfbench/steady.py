#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two interleaved sets of untraced runs per workload (set A and set B
alternate; run i of each set uses --seed i + 1), then one traced run per
workload at the default seed, each for BENCHMARK.json's run_seconds.
For every end-to-end metric it prints each set's median and quartiles, each
set's spread (quartile distance over median) and the shift between the two
medians, both against the metric's bound, and it prints the traced run's
pool.collect_pooled_share and tracing overhead.

Run from the repository root:

    python3 perfbench/steady.py                      # 2 sets x 10 runs each
    python3 perfbench/steady.py --runs 5 --workloads million_node

Exits non-zero if a run fails or a spread or shift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


SETS = 2
DEFAULT_SEED = 1


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, took


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload (>= 2)")
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    opts = parser.parse_args()
    if opts.runs < 2:
        parser.error("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False

    for workload in workloads:
        sets = [[] for _ in range(SETS)]
        for i in range(opts.runs):
            seed = DEFAULT_SEED + i
            # Alternate which set runs first, so neither always follows the other.
            order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
            for s in order:
                result, took = run_once(bench["command"], workload, seed, seconds, 0)
                sets[s].append(result["metrics"])
                print(f"{workload} set {'AB'[s]} seed {seed}: {took:.1f} s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
        print(f"\n{workload}: {opts.runs} runs per set, {seconds} s each")
        for name, bound in bounds.items():
            row = []
            meds = []
            for s, runs in enumerate(sets):
                q1, med, q3 = quartiles([r[name]["value"] for r in runs])
                spread = (q3 - q1) / med
                meds.append(med)
                mark = ""
                if spread > bound:
                    mark = " OVER"
                    failed = True
                elif spread > bound / 3:
                    mark = " (over a third)"
                row.append(f"{'AB'[s]}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                           f"spread {spread:.3f}/{bound}{mark}")
            shift = abs(meds[1] - meds[0]) / meds[0]
            mark = " OVER" if shift > bound else ""
            failed |= shift > bound
            row.append(f"shift {shift:.3f}/{bound}{mark}")
            print(f"  {name:<18} " + " | ".join(row))
        print(flush=True)

        result, took = run_once(bench["command"], workload, DEFAULT_SEED, seconds, 1)
        m = result["metrics"]
        print(f"{workload} traced run ({took:.1f} s): "
              f"pool.collect_pooled_share={m['pool.collect_pooled_share']['value']:.6g} "
              f"trace.overhead_share={m['trace.overhead_share']['value']:.6g}\n", flush=True)

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
