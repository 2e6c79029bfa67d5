#!/usr/bin/env python3
"""End-to-end host-time benchmark of the TAPAS toolchain and simulator.

Builds the harness in this directory (its own CMake project, compiled
from the repository's sources), runs one workload for a time budget and
reduces the harness's raw measurements to the metrics BENCHMARK.json
names. Run from the repository root:

    python3 e2ebench/run.py --workload cold_suite --seed 1 \\
        --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer ledger instead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable summary (host record, sample counts, tail
percentile, fingerprint, ledger). See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_suite", "sim_heavy", "dse_search")

# job_ms_tail's percentile over the job list (see README.md).
TAIL = 90

# Spans whose self time is the harness's own, not a layer's.
HARNESS_SPANS = ("setup", "job")

LAYER_SPANS = ("workloads.build", "driver.prepare", "ir.memimage",
               "workloads.setup", "sim.run", "workloads.verify",
               "dse.explore")

COMPILE_PHASES = ("ir.parse_ms", "hls.opt_ms", "hls.unroll_ms",
                  "hls.codegen_ms", "ir.lower_ms")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring the harness up to date."""
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ)
    # Keep the compiler's temporary files inside the build directory.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "tapas_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                out.flush()
                with open(log_path) as f:
                    log(f.read()[-4000:])
                log("e2ebench: build failed (log: %s)" % log_path)
                sys.exit(1)
    return os.path.join(build_dir, "tapas_e2e")


def source_digest():
    """SHA-256 over src/, so results from different code never mix."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_record(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": raw["compiler"], "build_type": raw["build_type"],
            "git_commit": commit or None, "source_digest": source_digest()}


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans, keep):
    """Self time (ms) per span name over the spans `keep` selects."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            d = s["t1_us"] - s["t0_us"]
            children[s["parent"]] = children.get(s["parent"], 0.0) + d
    out = {}
    for s in spans:
        if keep(s):
            d = s["t1_us"] - s["t0_us"] - children.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + d / 1e3
    return out


def best_of_passes(passes, key):
    """Each job's fastest value over the passes, in job-list order."""
    return [min(col) for col in zip(*(p[key] for p in passes))]


def end_to_end(raw):
    passes = raw["passes"]
    job_ms = best_of_passes(passes, "job_ms")
    wall = sum(job_ms) / 1e3
    m = {
        "setup_s": (min(statistics.median(b) for b in raw["setup_s"]),
                    "s"),
        "wall_s": (wall, "s"),
        "job_ms_p50": (statistics.median(job_ms), "ms"),
        "job_ms_tail": (percentile(job_ms, TAIL), "ms"),
        "cpu_s": (sum(best_of_passes(passes, "job_cpu_ms")) / 1e3, "s"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024.0, "MiB"),
        "sim_mcycles_per_s": (
            passes[0]["counts"].get("sim.cycles", 0) / wall / 1e6,
            "Mcycles/s"),
    }
    best = "each job's fastest of %d passes" % len(passes)
    notes = {
        "setup_s": "fastest of %d batch medians, %d set-ups" % (
            len(raw["setup_s"]), sum(len(b) for b in raw["setup_s"])),
        "wall_s": "sum over %d jobs, %s" % (len(job_ms), best),
        "job_ms_p50": "p50 of %d jobs, %s" % (len(job_ms), best),
        "job_ms_tail": "p%d of %d jobs, %s" % (TAIL, len(job_ms), best),
        "cpu_s": "user+sys, sum over jobs, %s" % best,
        "peak_rss_mb": "ru_maxrss",
        "sim_mcycles_per_s": "modelled cycles per pass / wall_s",
    }
    return m, notes


def attempted(raw):
    return len(raw["passes"]) * len(raw["job_labels"])


def per_layer(raw):
    passes = raw["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    ids = {i for i, p in enumerate(passes) if p["traced"]}
    n = len(traced)

    def mean(f):
        return sum(f(p) for p in traced) / n

    def count(name):
        return (raw["setup_counts"].get(name, 0)
                + mean(lambda p: p["counts"].get(name, 0)))

    # One set-up plus the mean traced pass.
    setup = self_times(raw["spans"], lambda s: s["pass"] < 0)
    in_pass = self_times(raw["spans"], lambda s: s["pass"] in ids)

    def layer(name):
        return setup.get(name, 0.0) + in_pass.get(name, 0.0) / n

    run_ms = layer("sim.run")
    explore_ms = layer("dse.explore")
    cycles, events = count("sim.cycles"), count("sim.events")
    hits, misses = count("dse.cache_hits"), count("dse.cache_misses")
    m = {
        "ir.memimage_ms": (layer("ir.memimage"), "ms"),
        "ir.memimage_mib": (count("ir.memimage_mib"), "MiB"),
        "proc.sys_s": (mean(lambda p: p["sys_s"]), "s"),
        "proc.minflt": (mean(lambda p: p["minflt"]), "count"),
        "sim.run_ms": (run_ms, "ms"),
        "sim.khz": (cycles / run_ms if run_ms else 0.0, "kHz"),
        "sim.ns_per_event": (run_ms * 1e6 / events if events else 0.0,
                             "ns"),
        "sim.events": (events, "count"),
        "sim.skipped_cycles": (count("sim.skipped_cycles"), "count"),
        "sim.cycles": (cycles, "count"),
        "sim.fingerprint": (traced[0]["fingerprint"], "hash"),
        "driver.prepare_ms": (layer("driver.prepare"), "ms"),
        "workloads.build_ms": (layer("workloads.build"), "ms"),
        "workloads.setup_ms": (layer("workloads.setup"), "ms"),
        "workloads.verify_ms": (layer("workloads.verify"), "ms"),
        "dse.explore_ms": (explore_ms, "ms"),
        "dse.simulated": (count("dse.simulated"), "count"),
        "dse.pruned": (count("dse.pruned"), "count"),
        "dse.failed_points": (count("dse.failed_points"), "count"),
        "dse.cache_hits": (hits, "count"),
        "dse.cache_misses": (misses, "count"),
        "dse.cache_hit_ratio": (hits / (hits + misses)
                                if hits + misses else 0.0, "ratio"),
        "dse.compile_ms": (count("dse.compile_ms"), "ms"),
        "dse.evals_per_s": (count("dse.simulated") / explore_ms * 1e3
                            if explore_ms else 0.0, "1/s"),
        "driver.jobrunner.cpu_util": (
            mean(lambda p: p["cpu_s"] / (p["wall_s"] * raw["threads"])),
            "ratio"),
        "bench.self_ms": (sum(layer(s) for s in HARNESS_SPANS), "ms"),
        "bench.trace_overhead_frac": (
            sum(best_of_passes(traced, "job_ms"))
            / sum(best_of_passes(untraced, "job_ms")) - 1, "ratio"),
        "failed_frac": (raw["failed"] / attempted(raw), "ratio"),
    }
    for name in COMPILE_PHASES:
        m[name] = (count(name), "ms")
    ledger = {s: layer(s) for s in LAYER_SPANS + HARNESS_SPANS}
    return m, ledger


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    exe = build(os.path.abspath(build_dir))
    raw_path = os.path.abspath(
        os.path.join(build_dir, "raw-%s.json" % args.workload))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--examples", os.path.join(ROOT, "examples"), "--out", raw_path]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=170).returncode
    except subprocess.TimeoutExpired:
        log("e2ebench: harness timed out")
        sys.exit(1)
    if rc != 0:
        log("e2ebench: harness exited with %d" % rc)
        sys.exit(1)
    with open(raw_path) as f:
        raw = json.load(f)

    passes = raw["passes"]
    fingerprints = {p["fingerprint"] for p in passes}
    correct = raw["failed"] == 0 and len(fingerprints) == 1

    print("e2ebench %s seed=%d trace=%d: %d passes x %d jobs, %d failed"
          % (args.workload, args.seed, args.trace, len(passes),
             len(raw["job_labels"]), raw["failed"]))
    print("host: " + json.dumps(host_record(raw), sort_keys=True))
    print("sim.fingerprint: %d (%s on every pass)"
          % (passes[0]["fingerprint"],
             "identical" if len(fingerprints) == 1 else "NOT identical"))
    print("failed_frac: %g (%d of %d jobs)"
          % (raw["failed"] / attempted(raw), raw["failed"], attempted(raw)))
    for p in passes:
        for e in p["errors"]:
            print("  failed: " + e)

    if args.trace:
        metrics, ledger = per_layer(raw)
        total = sum(ledger.values())
        print("ledger (self ms per set-up + pass):")
        for name, ms in sorted(ledger.items(), key=lambda kv: -kv[1]):
            print("  %-18s %10.2f ms %6.1f%%"
                  % (name, ms, 100 * ms / total if total else 0))
        notes = {}
    else:
        metrics, notes = end_to_end(raw)
    for name, (value, unit) in metrics.items():
        print("  %-26s %14.6g %-10s %s"
              % (name, value, unit, notes.get(name, "")))

    print(json.dumps({
        "correct": correct, "attempted": attempted(raw),
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
