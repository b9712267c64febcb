#!/usr/bin/env python3
# Copyright 2026 The fairidx Authors.
# Licensed under the Apache License, Version 2.0.
"""Builds and runs the fairidx end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stream_refine --seed 1 \
        --seconds 10 --trace 0

Workloads: stream_refine, durable_stream, serve_mixed (see
BENCHMARK.json). The benchmark binary is built from this checkout's
sources into .bench_build/perfbench (CMake, Release), then run with the
given arguments; its scratch files live under .bench_build and are
removed when it ends. The last line of standard output is the JSON
result. Extra flags (--scale tiny, --break-check) pass through to the
binary; perfbench/smoke_test.py uses them.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fairidx_perfbench")
# The fairidx library the benchmark links against.
LIBRARY_MARKERS = ("CMakeLists.txt", "src/service/fair_index_service.h")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the binary; returns False on failure."""
    missing = [m for m in LIBRARY_MARKERS
               if not os.path.isfile(os.path.join(ROOT, m))]
    if missing:
        print("perfbench: not a fairidx source checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    # The build step re-runs the configure step itself when a CMake file or
    # the source list changed.
    steps.append(["cmake", "--build", BUILD, "--target", "fairidx_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    work_dir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    child = subprocess.Popen([BINARY] + argv + ["--work-dir", work_dir])
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        # Also reached on SIGTERM/SIGINT: the benchmark never outlives us.
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
