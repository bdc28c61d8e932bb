#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 scibench/run.py --workload mine|mine-persist|check|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the scibench package (scibench/CMakeLists.txt, which compiles the
SCIFinder libraries from src/) into the build directory named by
CARGO_TARGET_DIR, default .bench_build. Scratch artifacts go under
<build>/work. The check workload first runs phases 1-3 once, untimed,
in a separate process, so its peak RSS covers serving only.

`--workload all` runs the three workloads one after another.
Everything the benchmark binary prints is passed through. Its last
line, one JSON object, is validated against BENCHMARK.json (every
end-to-end metric with --trace 0, every per-layer metric with
--trace 1) and printed last. Exit status: the binary's (0 = every
output check held); 1 when building or running fails, in which case
no result line is printed; 2 on usage errors.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
WORKLOADS = ["mine", "mine-persist", "check"]


def log(msg):
    print(f"scibench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step, its output sent to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    return proc.returncode == 0


def build(build_dir):
    """Configure (once) and build the scibench target; path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    if not run_quiet(["cmake", "--build", build_dir, "--target", "scibench",
                      "-j", "4"], BUILD_TIMEOUT_S):
        return None
    exe = os.path.join(build_dir, "scibench")
    return exe if os.path.exists(exe) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json requires for this kind of run."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec.get(key, [])}


def valid_result(line, names):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    if names is not None and set(result["metrics"]) != names:
        missing = names - set(result["metrics"])
        extra = set(result["metrics"]) - names
        log(f"metric set differs from BENCHMARK.json: missing "
            f"{sorted(missing)}, extra {sorted(extra)}")
        return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        exe = build(build_dir)
    except subprocess.TimeoutExpired:
        exe = None
    if exe is None:
        log("build failed")
        return 1

    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = max(status, run_workload(exe, workdir, workload, args))
    return status


def run_workload(exe, workdir, workload, args):
    """Run one workload; its exit status (1 = failed, no result)."""
    common = ["--workdir", workdir]
    try:
        if workload == "check":
            if not run_quiet([exe, "--prepare"] + common, RUN_TIMEOUT_S):
                log("preparing the check artifacts failed")
                return 1
        proc = subprocess.run(
            [exe, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + common, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not valid_result(
            lines[-1], expected_metrics(args.trace)):
        sys.stderr.write(proc.stdout)
        log(f"benchmark run failed (exit {proc.returncode})")
        return 1
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
