#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 e2ebench/spread.py --workload query --seeds 1-10 [--seconds 36] [--trace 0] [--json out.json]

Run from the repository root. For each metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median, the figure BENCHMARK.json's
bounds are checked against.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the per-run values and summary here")
    a = ap.parse_args()

    runs = []
    for s in seeds(a.seeds):
        cmd = ["bash", "e2ebench/run.sh", "--workload", a.workload, "--seed", str(s),
               "--seconds", str(a.seconds), "--trace", str(a.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {s}: exit {p.returncode}\n{p.stderr}")
        last = json.loads(p.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            print(f"seed {s}: incorrect run ({last['failed']} of {last['attempted']} failed)")
        runs.append({"seed": s, **last})
        print(f"seed {s}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(last["metrics"].items())),
              flush=True)

    summary = {}
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:34s} median {med:14.4f} {summary[name]['unit']:6s} "
              f"q1 {q1:14.4f} q3 {q3:14.4f} spread {spread:7.4f}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"workload": a.workload, "seconds": a.seconds, "trace": a.trace,
                       "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
