#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's run-to-run spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [workload ...]

Run from the root of a checkout. The spread of a metric is the distance
between the first and third quartile of its values (as
`statistics.quantiles(values, n=4)` gives them) divided by their median;
a steady benchmark keeps it below a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.monotonic()
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed={seed} wall={time.monotonic() - start:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}", flush=True)
        print(f"\n{name}: failed {failed} of {attempted} attempted")
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / bounds[m]
            if m != "setup_s":
                worst = max(worst, ratio)
            flag = "" if ratio < 1 / 3 else "  <-- above a third of the bound"
            print(f"  {m:<24} median {med:>12.3f}  spread {spread:7.4f}  "
                  f"bound {bounds[m]:.2f}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in vs))
        print(flush=True)
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
