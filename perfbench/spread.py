#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of the checkout:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--seed0 100]

Each run uses its own seed (seed0, seed0+1, ...) and the command and
run_seconds of BENCHMARK.json. For every workload and end-to-end metric it
prints the median of the runs and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. The raw values are written as JSON to
--out.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=".bench_build/spread.json")
    args = ap.parse_args()

    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for w in names:
        raw[w] = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stderr)
                sys.exit(f"{w} seed {seed}: exit {p.returncode}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            for name, m in res["metrics"].items():
                raw[w][name].append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        print(f"\n{w}: {'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, vals in raw[w].items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag, ok = "  above a third of the bound", False
            print(f"{w}: {name:<18} {med:>12.4f} {spread:>8.4f} {bounds[name]:>6}{flag}")
        print(flush=True)
    json.dump(raw, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
