#!/usr/bin/env python3
"""Build and run the replay benchmark.

    python3 replaybench/run.py --workload serve_dense --seed 1 --seconds 30 --trace 0

Run from the repository root. Configures and builds replaybench/ (the
simulator library from src/ plus the benchmark program) as a Release build
into $CARGO_TARGET_DIR or .bench_build, then runs the program with the same
arguments. Build output goes to stderr, so the last line of stdout is the
program's JSON result. Exits non-zero, without a result, if the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = [
        "cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
    ]
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compile_ = ["cmake", "--build", build_dir, "-j", jobs, "--target", "replaybench"]
    for cmd in (configure, compile_):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return False
    return True


def main(argv):
    if shutil.which("cmake") is None:
        print("replaybench: cmake not found", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("replaybench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "replaybench")
    scratch = os.path.join(build_dir, "replaybench-tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.run([binary] + argv + ["--scratch", scratch])
    shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
