#!/usr/bin/env python3
"""Co-simulation ledger entry point.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload cordic_p8 --seed 1 --seconds 15 --trace 0

Builds the ledger binary (perfbench/CMakeLists.txt compiles the library
straight from src/) into .bench_build/ (or $CARGO_TARGET_DIR), runs one
workload and passes its output through. The last line of standard output
is the JSON result; the metric names in it are checked against
BENCHMARK.json. Build output goes to standard error. Exits non-zero,
without printing a result, when the sources are missing, the build fails
or the run fails.
"""
import fcntl
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; kill it (and wait) past the timeout."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"timed out after {timeout}s: {' '.join(cmd)}")
        return proc.returncode, out


def build(root, build_dir):
    """Configure (once) and build the ledger binary; returns its path. A lock
    file serializes concurrent runs in one checkout."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return build_locked(root, build_dir)


def build_locked(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no src/ here; run from the root of a full checkout")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(root, build_dir)

    code, out = run([binary] + sys.argv[1:], RUN_TIMEOUT_S,
                    stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stdout.write(out or "")
        fail(f"perfbench exited with {code}")
    result = json.loads(lines[-1])

    # The metric names must be exactly the ones BENCHMARK.json declares.
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in sys.argv and \
        sys.argv[sys.argv.index("--trace") + 1] == "1"
    declared = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    if sorted(declared) != sorted(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metric names differ from BENCHMARK.json")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
