#!/usr/bin/env python3
"""Steadiness check for the gkeys benchmark.

Runs two sets of 10 runs of the same build, each run on its own seed, and
prints for every end-to-end metric of every workload the median of each
set, the quartile spread of each set as a share of its median, and the
signed set-to-set difference of the medians, each against the metric's
bound in BENCHMARK.json. With --overhead it adds one traced run per seed,
reports the tracing overhead (traced minus untraced median of each
end-to-end metric) and prints the median of every per-layer metric over
the traced runs.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workload NAME ...] [--overhead]

Exit code 0 when every run is correct, every spread stays within its bound
and every set-to-set difference, in either direction, stays within its
bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10
FIRST_SEED = 1000


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, "
                         "no result")
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        # Still usable for timing, but the run does not count as steady.
        print(f"!! {workload} seed {seed}: exit {proc.returncode}, "
              f"correct={result['correct']} failed={result['failed']}: "
              + "; ".join(sorted({l for l in lines
                                  if l.startswith(("# FAILED", "# MISMATCH"))})))
    # The '# e2e' line carries the end-to-end figures in both modes.
    e2e = {}
    for line in lines:
        if line.startswith("# e2e"):
            for name, value in re.findall(r"(\w+)=([0-9.eE+-]+)", line):
                e2e[name] = float(value)
    return result["metrics"], e2e, proc.returncode == 0


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--overhead", action="store_true",
                        help="also run traced and report tracing overhead")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets, untraced_e2e, traced_e2e, traced_layers = [], [], [], []
        seed = FIRST_SEED
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                metrics, e2e, correct = run_once(spec, workload, seed, 0)
                ok &= correct
                runs.append(metrics)
                untraced_e2e.append(e2e)
                if args.overhead:
                    layer, e2e_traced, _ = run_once(spec, workload, seed, 1)
                    traced_layers.append(layer)
                    traced_e2e.append(e2e_traced)
                seed += 1
            sets.append(runs)
        print(f"== {workload}: {SETS} sets x {RUNS} runs")
        print(f"{'metric':28s} {'bound':>6s} {'median1':>12s} {'iqr1':>6s} "
              f"{'median2':>12s} {'iqr2':>6s} {'diff':>7s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for runs in sets:
                values = [r[name]["value"] for r in runs]
                sp = spread(values)
                medians.append(statistics.median(values))
                ok &= sp <= bound
                cells.append(f"{medians[-1]:12.6g} {sp:5.1%}"
                             + ("!" if sp > bound else " "))
            # Signed: positive when the second set's median is higher.
            diff = (medians[1] - medians[0]) / medians[0]
            ok &= abs(diff) <= bound
            print(f"{name:28s} {bound:6.2f} " + " ".join(cells)
                  + f" {diff:+6.1%}{'!' if abs(diff) > bound else ''}")
        if args.overhead:
            print("tracing overhead (traced - untraced median):")
            for name in untraced_e2e[0]:
                u = statistics.median(e[name] for e in untraced_e2e)
                t = statistics.median(e[name] for e in traced_e2e)
                print(f"  {name:26s} {t - u:+12.6g} ({(t - u) / u:+.1%})")
            print("per-layer metrics (median of the traced runs):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                v = statistics.median(r[name]["value"] for r in traced_layers)
                print(f"  {name:30s} {v:12.6g} {metric['unit']}")
    print("STEADY" if ok else "NOT STEADY (marked with !)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
