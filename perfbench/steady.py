#!/usr/bin/env python3
"""Steadiness mode: runs each workload repeatedly, one seed per run, and
prints the median and quartiles of every end-to-end metric with its
spread (interquartile distance over the median) next to the bound in
BENCHMARK.json. With --traced it adds one traced run per workload and
prints the per-layer metrics and the tracing overhead on whatif p50.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads fattree-churn --runs 5 --traced
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {result}")
    return result


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(spec["command"], workload, seed, args.seconds, 0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: attempted {res['attempted']} failed {res['failed']}",
                  file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s each)")
        print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"{name:<24} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6.2f}{flag}")
        if args.traced:
            res = run_once(spec["command"], workload, args.first_seed, args.seconds, 1)
            print(f"\n{workload} traced run (seed {args.first_seed})")
            for name, m in sorted(res["metrics"].items()):
                print(f"{name:<28} {m['value']:>14.4f} {m['unit']}")
            traced = res["metrics"]["trace.whatif_p50_ms"]["value"]
            untraced = statistics.median(values["whatif_p50_ms"])
            print(f"tracing overhead on whatif p50: {traced - untraced:+.4f} ms "
                  f"({(traced - untraced) / untraced:+.1%} of the untraced median)")
    print(f"\nlargest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
