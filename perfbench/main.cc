// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// fairidx_perfbench: the end-to-end benchmark binary (run it through
// perfbench/run.py, which builds it first).
//
//   fairidx_perfbench --workload stream_refine|durable_stream|serve_mixed
//                     --seed N --seconds S --trace 0|1
//                     [--scale full|tiny] [--work-dir DIR] [--break-check]
//
// Prints a table of metrics with units and sample counts, then one JSON
// line {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when a correctness check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "fairidx_perfbench: %s\nusage: fairidx_perfbench --workload "
               "stream_refine|durable_stream|serve_mixed --seed N --seconds "
               "S --trace 0|1 [--scale full|tiny] [--work-dir DIR] "
               "[--break-check]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--break-check") {
      args.break_check = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.scale = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.scale != "full" && args.scale != "tiny") {
    return Usage("--scale must be full or tiny");
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  int code = 2;
  if (args.workload == "stream_refine" || args.workload == "durable_stream") {
    code = perfbench::RunStreamWorkload(args);
  } else if (args.workload == "serve_mixed") {
    code = perfbench::RunServeWorkload(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::filesystem::remove_all(args.work_dir, ec);
  return code;
}
