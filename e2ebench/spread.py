#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 e2ebench/spread.py --workload sim_heavy --seeds 1-10

Runs e2ebench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per end-to-end metric, the median, the
quartiles and the quartile distance as a share of the median, next to
the metric's bound. A spread under a third of its bound is steady.
It also prints each run's fingerprint: a seed run twice must repeat it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    values, fingerprints = {}, []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: run not correct\n%s" % (seed, out))
        fp = [l for l in lines if l.startswith("sim.fingerprint:")]
        fingerprints.append((seed, fp[0].split()[1]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"])
            for k, m in result["metrics"].items())), flush=True)

    print("fingerprints: " + " ".join("%d:%s" % f for f in fingerprints))
    print("%-20s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for spec_m in spec["end_to_end"]:
        xs = values[spec_m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print("%-20s %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
            spec_m["name"], med, q1, q3, spread, spec_m["bound"],
            "" if spread < spec_m["bound"] / 3 else "  <- not steady"))


if __name__ == "__main__":
    main()
