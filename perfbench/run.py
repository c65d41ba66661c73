#!/usr/bin/env python3
"""Minuet benchmark: build the driver, run one workload, print its metrics.

    python3 perfbench/run.py --workload oltp-point --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every benchmark workload

Run from the repository root. The driver is built from this checkout's
sources into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Each run's raw files, stats snapshots and results.json land in
<build dir>/results/<workload>-trace<T>/, replacing the previous run's.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the per-layer ones. A run whose correctness checks fail prints
its result with "correct": false and exits 1; a run that cannot finish
exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

# The workloads BENCHMARK.json names. The others run by name but are left
# out of "all" (README.md says why): htap-scan does not reach a steady state
# within a run, and whatif-branch hangs in BTree::RecordCopy.
WORKLOADS = ("oltp-point", "write-sync")
EXTRA_WORKLOADS = ("htap-scan", "whatif-branch")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", bdir, "--target", "perfbench_driver",
               "-j", jobs], "build")
    return os.path.join(bdir, "perfbench_driver")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        log("%s failed (exit %d)" % (what, proc.returncode))
        sys.exit(1)


def run_workload(driver, bdir, workload, seed, seconds, trace):
    """Runs the driver and derives the metrics; returns the result dict."""
    # One directory per workload and mode: a run replaces the previous
    # run's raw files, which bounds the disk the latency and span records
    # take.
    out_dir = os.path.join(bdir, "results", "%s-trace%d" % (workload, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: driver timed out" % workload)
        sys.exit(1)
    if proc.returncode != 0:
        log("%s: driver failed (exit %d)" % (workload, proc.returncode))
        sys.exit(1)
    with open(os.path.join(out_dir, "raw.json")) as f:
        raw = json.load(f)

    failed = int(raw["op_failures"] + raw["check_failures"])
    for err in raw["errors"]:
        log("%s: %s" % (workload, err))
    try:
        if trace:
            reported = metrics.per_layer(raw, out_dir)
            extra = []
        else:
            reported, extra = metrics.end_to_end(raw, out_dir)
    except metrics.MetricError as e:
        log("%s: %s" % (workload, e))
        sys.exit(1)

    print("== %s seed=%d trace=%d clients=%d memnodes=%d checks=%d "
          "failed=%d" % (workload, seed, trace, raw["clients"],
                         raw["memnodes"], raw["checks"], failed))
    for m in reported:
        print("  " + m.describe())
    for m in extra:
        print("  " + m.describe() + "  (not gated)")
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "metrics": {m.name: m.to_json() for m in reported},
                   "informational": {m.name: m.to_json() for m in extra}},
                  f, indent=1)
    return {
        "correct": failed == 0,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit}
                    for m in reported},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    started = time.time()
    bdir = build_dir()
    driver = build(bdir)
    log("driver ready in %.1f s" % (time.time() - started))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(driver, bdir, w, args.seed, args.seconds,
                            args.trace) for w in names]
    for result in results:
        print(json.dumps(result))
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
