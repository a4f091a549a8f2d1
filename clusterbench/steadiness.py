#!/usr/bin/env python3
"""Runs one workload K times with seeds 1..K, untraced, and prints, per
metric, the median, the interquartile range as a share of the median, and
the min-max, beside the host context (nproc, load average, and the time of
a fixed CPU loop before and after, so a slow or busy host shows).

    python3 clusterbench/steadiness.py --workload fanout [--runs 10]
        [--seconds 20]

Run from the root of the source tree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_loop_seconds():
    t0 = time.perf_counter()
    x = 0
    for i in range(5_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def host_context():
    return {"nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "cpu_loop_s": round(cpu_loop_seconds(), 4)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fanout", "mixed", "durable-large"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    a = ap.parse_args()
    if a.runs < 4:
        ap.error("--runs must be at least 4 to give quartiles")

    before = host_context()
    values, shares = {}, []
    for seed in range(1, a.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", a.workload, "--seed", str(seed),
               "--seconds", str(a.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d: run failed (exit %d)" % (seed, proc.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: oracle reported an incorrect result" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)
    after = host_context()

    print("workload %s, %d runs of %d s" % (a.workload, a.runs, a.seconds))
    print("host before %s" % before)
    print("host after  %s" % after)
    print("failed share per run: %s" % sorted(set(shares)))
    print("%-32s %14s %8s %14s %14s %s" %
          ("metric", "median", "IQR/med", "min", "max", "unit"))
    for name, (unit, vs) in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        print("%-32s %14.6g %8.4f %14.6g %14.6g %s" %
              (name, med, iqr, min(vs), max(vs), unit))


if __name__ == "__main__":
    main()
