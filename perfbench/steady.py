#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the benchmark command from BENCHMARK.json in two (or more) sets of
runs of the same build, each run with its own seed, and prints for every
workload and end-to-end metric each set's median and quartiles, the
spread (interquartile distance over the median), and whether the sets
agree within the metric's bound:

  * every set's spread is within the bound (setup_s excepted),
  * no later set's median is worse than the first set's by more than
    the bound, and
  * the share of failed operations is the same in every set.

Run from the repository root:

    python3 perfbench/steady.py                      # 2 sets x 10 runs, all workloads
    python3 perfbench/steady.py --runs 5 --sets 1 --workload winlog_drift

Exits 1 when any workload or metric disagrees or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    context = json.loads(lines[-2]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), context


def worse_by(metric, first, later):
    """Relative change of `later` against `first`, positive = worse."""
    if first == 0:
        return 0.0
    change = (later - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--show-runs", action="store_true",
                        help="print every run's end-to-end values")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                result, context = run_once(bench["command"], workload, seed,
                                           bench["run_seconds"])
                env = context.get("env", {})
                sys.stderr.write(
                    f"{workload} set {s + 1} seed {seed}: correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']} "
                    f"steal={env.get('steal_pct', -1):.1f}% "
                    f"pressure={env.get('cpu_pressure_pct', -1):.1f}%\n")
                if args.show_runs:
                    sys.stderr.write("    " + " ".join(
                        f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()) + "\n")
                ok &= result["correct"]
                runs.append(result)
            sets.append(runs)

        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        if len(set(shares)) > 1:
            ok = False
        print(f"\n== {workload}: failed share per set {shares}")
        print(f"{'metric':32} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            verdict = "agree"
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                if name != "setup_s" and spread > bound:
                    verdict = "SPREAD"
                if s > 0 and worse_by(metric, medians[0], med) > bound:
                    verdict = "DRIFT"
                print(f"{name:32} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.2%} {bound:>6.0%}  {verdict if s == len(sets) - 1 else ''}")
            ok &= verdict == "agree"
    print("\nall agree" if ok else "\nDISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
