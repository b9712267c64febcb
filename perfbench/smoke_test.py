#!/usr/bin/env python3
# Copyright 2026 The fairidx Authors.
# Licensed under the Apache License, Version 2.0.
"""Smoke test of the end-to-end benchmark at tiny sizes.

Run from the root of a source checkout:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json untraced and traced with
`--scale tiny`, and checks that
  * each run is correct and prints exactly the metrics BENCHMARK.json
    names for its mode, with their units, as the last stdout line;
  * every end-to-end metric is positive, the wal.* and checkpoint.*
    layer metrics read zero on stream_refine and not on durable_stream;
  * stream_refine's maintenance counts and live ENCE repeat exactly for
    one seed;
  * a broken correctness check fails the run with a non-zero exit;
  * a directory holding only the benchmark fails without a result.
Exits non-zero on the first failed expectation.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=7, extra=(), cwd=ROOT):
    args = RUN + ["--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace),
                  "--scale", "tiny"] + list(extra)
    out = subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return out.returncode, result, out.stderr


def expect(ok, message):
    if not ok:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def check_result(workload, trace, code, result, stderr):
    label = "%s --trace %d" % (workload, trace)
    ok = code == 0 and result is not None and result["correct"]
    expect(ok, label + " runs correct" +
           ("" if ok else " (stderr: %s)" % stderr.strip()[-500:]))
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           label + " prints exactly the result keys")
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           label + " attempts operations and none fails")
    specs = SPEC["per_layer" if trace else "end_to_end"]
    expect({m["name"]: m["unit"] for m in specs} ==
           {k: v["unit"] for k, v in result["metrics"].items()},
           label + " prints every metric of BENCHMARK.json with its unit")


def main():
    results = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            code, result, stderr = run(workload, trace)
            check_result(workload, trace, code, result, stderr)
            results[(workload, trace)] = result["metrics"]
        expect(all(v["value"] > 0
                   for v in results[(workload, 0)].values()),
               workload + " end-to-end metrics are all positive")

    def layer(workload, prefixes):
        return {k: v["value"] for k, v in results[(workload, 1)].items()
                if k.startswith(prefixes)}
    durability = ("wal.", "checkpoint.")
    expect(all(v == 0 for v in layer("stream_refine", durability).values()),
           "wal.* and checkpoint.* read zero on stream_refine")
    expect(all(v > 0 for v in layer("durable_stream", durability).values()),
           "wal.* and checkpoint.* are measured on durable_stream")
    expect(layer("serve_mixed", ("scheduler.passes",))["scheduler.passes"]
           > 0, "serve_mixed reports scheduler passes")

    counts = ("service.epochs", "service.resplits", "service.publications",
              "index.nodes_checked", "index.subtrees_rebuilt",
              "index.split_scans", "index.patched", "index.fallback")
    _, again, _ = run("stream_refine", 1)
    expect(layer("stream_refine", counts) ==
           {k: v["value"] for k, v in again["metrics"].items()
            if k.startswith(counts)},
           "stream_refine maintenance counts repeat for one seed")
    _, again, _ = run("stream_refine", 0)
    expect(again["metrics"]["live_ence"] ==
           results[("stream_refine", 0)]["live_ence"],
           "stream_refine live ENCE repeats for one seed")

    for workload in ("stream_refine", "serve_mixed"):
        code, result, _ = run(workload, 0, extra=["--break-check"])
        expect(code != 0 and result is not None and not result["correct"],
               workload + " fails when a correctness check fails")

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, _ = run("stream_refine", 0, cwd=bare)
        expect(code != 0 and result is None,
               "the benchmark alone fails without printing a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
