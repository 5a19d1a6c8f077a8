#!/usr/bin/env python3
"""Builds the streamshim benchmark (perfbench) from source and runs it.

    python3 perfbench/run.py --workload paper-p1 --seed 1 --seconds 55 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; build output goes to stderr so that the last
stdout line stays the benchmark's JSON result. Arguments are passed to the
binary unchanged; see perfbench/README.md for them and for the metrics.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def arg_value(argv, key):
    if key in argv:
        index = argv.index(key)
        if index + 1 < len(argv):
            return argv[index + 1]
    return None


def git_commit():
    """Reads the checkout's commit from .git without running git, which
    would search directories above the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no streamshim sources under {ROOT}/src; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    argv = sys.argv[1:]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        if arg_value(argv, key) is None:
            fail(f"missing {key}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(
        trace_dir, f"{arg_value(argv, '--workload')}-seed"
        f"{arg_value(argv, '--seed')}.json")
    command = [os.path.join(build_dir, "perfbench"), *argv,
               "--trace-out", trace_out, "--commit", git_commit()]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
