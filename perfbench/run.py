#!/usr/bin/env python3
"""End-to-end benchmark of codlock: build from source, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the library sources it compiles) with CMake into
the build directory (CARGO_TARGET_DIR if set, else .bench_build), runs one
workload, and prints as the last line of stdout one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Exits 0 when every output check passed, 1 when one failed, and 2 without a
result when the benchmark cannot be built or run.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path or None."""
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench", "codlock_perfbench")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", os.path.join(build_dir, "perfbench"),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", os.path.join(build_dir, "perfbench"),
                     "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return None
    return binary if os.path.isfile(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(ROOT, "src", "ws", "server.h")):
        return fail("library sources (src/) not found next to perfbench/")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return fail("build failed")

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # The span dump outlives the run; everything else is scratch.  A
        # run that died may leave its ring segments behind: remove them.
        trace_dir = os.path.join(build_dir, "trace")
        for spans in glob.glob(os.path.join(workdir, "spans-*.tsv")):
            os.makedirs(trace_dir, exist_ok=True)
            shutil.move(spans, os.path.join(trace_dir, os.path.basename(spans)))
        shutil.rmtree(workdir, ignore_errors=True)
        for seg in glob.glob("/dev/shm/codlock-perfbench-%d-*" % proc.pid):
            os.remove(seg)

    lines = stdout.splitlines()
    if not lines:
        return fail("no output (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(stdout)
        return fail("last line is not a result (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result.get("metrics", {})
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    wrong_unit = [m["name"] for m in wanted
                  if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]]
    if missing or wrong_unit:
        return fail("metrics missing %s, unit mismatch %s" % (missing, wrong_unit))
    out = {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
