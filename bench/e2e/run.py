#!/usr/bin/env python3
"""Build spmvopt_bench from this checkout's sources, then run it.

    python3 bench/e2e/run.py --workload W --seed S --seconds N --trace 0|1

Run from the repository root.  The build goes to .bench_build/e2e (a
Release build of bench/e2e/CMakeLists.txt, which builds the library from
the root); build output goes to stderr, so the benchmark's final JSON line
stays the last line of standard output.  Arguments are passed through to
spmvopt_bench; --work-dir defaults to the build directory, where the
server socket and the traced run's Chrome trace are written.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(".bench_build", "e2e")  # relative: keeps socket paths short
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_step(cmd, timeout):
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        print("run.py: the spmvopt sources are not in this checkout", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                    + generator, BUILD_TIMEOUT_S) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_step(["cmake", "--build", BUILD, "--target", "spmvopt_bench",
                     "--parallel", jobs], BUILD_TIMEOUT_S) == 0


def main(argv):
    try:
        if not build():
            return 1
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    args = list(argv)
    if "--work-dir" not in args:
        args += ["--work-dir", BUILD]
    binary = os.path.join(BUILD, "spmvopt_bench")
    try:
        return subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: spmvopt_bench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
