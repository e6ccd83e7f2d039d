#!/usr/bin/env python3
"""Runs one workload under several seeds and prints, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median, the
statistic a benchmark bound is checked against. Each run's full output
is kept in .bench_build/spread-<workload>-<seed>.txt.

Run from the repository root:

    python3 perfbench/spread.py --workload nocd-mixed --seeds 1-10 --seconds 30
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True).stdout
        with open(f".bench_build/spread-{args.workload}-{seed}.txt", "w") as f:
            f.write(out)
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {statistics.median(vs):12.6g}  spread {spread:7.4f}  n={len(vs)}")


if __name__ == "__main__":
    main()
