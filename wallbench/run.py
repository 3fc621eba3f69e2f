#!/usr/bin/env python3
"""Build and run one wallbench workload; print its result line.

Usage (from the root of a dtbgc checkout):

    python3 wallbench/run.py --workload ghost --seed 1 --seconds 10 --trace 0
    python3 wallbench/run.py --self-test

The first run configures and builds the benchmark (its own CMake project,
wallbench/CMakeLists.txt, which compiles the libraries from src/) into
.bench_build/wallbench; later runs only re-check the build. The binary's
human-readable report is passed through, and the last line printed is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
holds every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each as {"value", "unit"}.

Exit status: 0 when the run's output checks pass, 1 when they fail (the
result line is still printed), 2 on a usage, build or harness error (no
result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "wallbench"
BUILD_DIR = ROOT / ".bench_build" / "wallbench"
# A workload run (set-ups, timed phase, checks) must end within this.
RUN_TIMEOUT_S = 170


def die(message):
    print(f"wallbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no dtbgc sources at {ROOT / 'src'}; run from a full checkout")
    out = BUILD_DIR
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "wallbench", "-j", "3"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    return out / "wallbench"


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--short=12", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that broken outputs fail the checks")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in workloads:
        die(f"--workload must be one of {', '.join(workloads)}")
    if args.seed < 0:
        die("--seed must be a non-negative integer")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not 0 < seconds <= 120:
        die("--seconds must be in (0, 120]")

    binary = build()
    if args.self_test:
        sys.exit(subprocess.run([str(binary), "--self-test"]).returncode)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--out-dir", str(ROOT / ".bench_out"),
           "--git-sha", git_sha()]
    if args.trace:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        die(f"workload exited {done.returncode} without a result")
    print("\n".join(lines[:-1]))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None:
            die(f"workload did not report {m['name']}")
        if got["unit"] != m["unit"]:
            die(f"{m['name']} reported in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(full["correct"]) and done.returncode == 0
    result = {"correct": correct, "attempted": int(full["attempted"]),
              "failed": int(full["failed"]), "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
