#!/usr/bin/env python3
"""Test of the traced run: every workload's ladder adds up.

Usage (from the root of a checkout):

    python3 perfbench/test_trace.py [--seconds 6]

Runs each workload of BENCHMARK.json once with --trace 1 and checks that
the run is correct, that every per-layer metric is reported, that the
layers' median self times add up to the untraced end-to-end median within
the stated tolerance (trace.<op>.sum_error_ratio), and that the tracing
overhead is reported.  Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOLERANCE = 0.25  # kLadderTolerance in src/workloads.h
LADDER_OPS = {
    "checkout_standing": ["checkout", "checkin"],
    "short_shared_update": ["txn"],
    "short_deep_read": ["txn"],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=6)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", str(args.seconds), "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        metrics = result.get("metrics", {})
        problems = []
        if proc.returncode != 0 or not result.get("correct"):
            problems.append("run failed (exit %d): %s" % (
                proc.returncode, [l for l in lines if l.startswith("CHECK FAILED")]))
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
        if missing:
            problems.append("per-layer metrics missing: %s" % missing)
        for op in LADDER_OPS[workload]:
            err = metrics.get("trace.%s.sum_error_ratio" % op, {}).get("value")
            if err is None or not 0 <= err <= TOLERANCE:
                problems.append("ladder of %s does not add up: error %s" % (op, err))
        if metrics.get("trace.overhead_ratio_base", {}).get("value", 0) <= 0:
            problems.append("tracing overhead not reported")
        for p in problems:
            print("FAIL %s: %s" % (workload, p))
        if not problems:
            print("ok   %s: ladder error %s, tracing overhead %.3f" % (
                workload,
                ", ".join("%s %.3f" % (op, metrics["trace.%s.sum_error_ratio" % op]["value"])
                          for op in LADDER_OPS[workload]),
                metrics["trace.overhead_ratio"]["value"]))
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
