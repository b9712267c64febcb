// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared pieces of the fairidx end-to-end benchmark: the seeded record and
// point generators, the span recorder used by traced runs, sample
// statistics, and the report that prints every metric and the final JSON
// line. Everything here lives in the benchmark; the program under test is
// reached only through its public headers.

#ifndef FAIRIDX_PERFBENCH_COMMON_H_
#define FAIRIDX_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geo/grid.h"
#include "geo/grid_aggregates.h"
#include "geo/point.h"
#include "service/sharded_delta_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Report;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// Command-line settings shared by every workload.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the benchmark) or "tiny" (the smoke test's sizes).
  std::string scale = "full";
  /// Scratch directory inside the checkout for WAL and checkpoint files.
  std::string work_dir = ".bench_build/work";
  /// Smoke-test hook: perturbs one expected value so the correctness
  /// checks can be shown to fire.
  bool break_check = false;
};

/// Seeded record source. Records fall in Gaussian clusters of cells plus
/// a uniform background; labels follow a smooth probability surface; a
/// score is that probability plus noise. The layout is one fixed map for
/// every seed; the seed draws the records.
class RecordGenerator {
 public:
  RecordGenerator(int rows, int cols, uint64_t seed);

  /// `n` calibrated records: the state a service starts from.
  fairidx::AggregateBatch Warmup(size_t n);

  /// `num_batches` batches of `batch_size` records whose scores also carry
  /// a miscalibration bump that moves across the columns from the first
  /// batch to the last, so region calibration keeps drifting past any
  /// fixed bound all through the stream.
  std::vector<fairidx::AggregateBatch> Stream(int num_batches,
                                              int batch_size);

 private:
  /// Appends `n` records with a score bias of `bump_height` peaking at
  /// column fraction `bump_center`.
  void Fill(double bump_height, double bump_center, size_t n,
            fairidx::AggregateBatch* batch);
  struct Cluster {
    double row = 0.0;
    double col = 0.0;
    double sigma = 0.0;
  };
  int SampleCell();

  int rows_;
  int cols_;
  fairidx::Rng rng_;
  std::vector<Cluster> clusters_;
  std::vector<double> cluster_cdf_;
  std::vector<double> label_prob_;  // Row-major, one entry per cell.
};

/// `first` followed by every record of `rest`, as one batch.
fairidx::AggregateBatch Concat(
    const fairidx::AggregateBatch& first,
    const std::vector<fairidx::AggregateBatch>& rest);

/// `n` query points whose cells follow a Zipf(`exponent`) law over a
/// seeded ranking of all cells; each point is jittered inside its cell.
std::vector<fairidx::Point> ZipfPoints(const fairidx::Grid& grid,
                                       double exponent, size_t n,
                                       uint64_t seed);

/// Count-weighted ENCE of one published region set:
/// sum_i |sum_labels_i - sum_scores_i| / sum_i count_i.
double EnceOf(const std::vector<fairidx::RegionAggregate>& regions);

/// Total record count over a region set.
double CountOf(const std::vector<fairidx::RegionAggregate>& regions);

/// Nearest-rank quantile of `values` (0 for an empty set).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// Latency samples in 1 ns buckets (exact values past the last bucket),
/// so millions of calls cost constant memory and do not inflate the
/// process's peak RSS.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}

  void Add(double seconds) {
    const double ns = seconds * 1e9;
    if (ns < kBuckets) {
      ++buckets_[static_cast<size_t>(ns)];
    } else {
      overflow_.push_back(ns);
    }
    ++count_;
  }
  void Merge(const LatencyHistogram& other);
  long long count() const { return count_; }
  /// Nearest-rank quantile in seconds (bucket resolution 1 ns).
  double Quantile(double q) const;

 private:
  static constexpr size_t kBuckets = size_t{1} << 17;
  std::vector<uint32_t> buckets_;
  std::vector<double> overflow_;
  long long count_ = 0;
};

/// A latency reported over rounds: each round's own p50 and p99, and the
/// median over rounds of each, so a few rounds disturbed by the rest of
/// the machine move the result less than a quantile of pooled samples.
class RoundPercentiles {
 public:
  void Add(const std::vector<double>& seconds);
  void Add(const LatencyHistogram& latency);
  /// Sets `p50_name` and `p99_name` to the medians times `scale`.
  void Set(Report* report, const char* p50_name, const char* p99_name,
           double scale) const;

 private:
  std::vector<double> p50_;
  std::vector<double> p99_;
  long long samples_ = 0;
};

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Span recorder for traced runs: one per thread. A span is a named
/// [start, end) interval with the span that was open when it began as its
/// parent; spans stay in memory until the run ends. A span's self time is
/// its duration minus the part covered by its child spans.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  /// Opens a span (a no-op returning -1 when tracing is off).
  int Begin(const char* name);
  void End(int id);

  bool enabled() const { return enabled_; }

  /// Self times in seconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfSeconds() const;

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a Trace.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name)
      : trace_(trace), id_(trace->Begin(name)) {}
  ~ScopedSpan() { trace_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  int id_;
};

/// Collects metric values, operation counts and correctness failures, and
/// prints them: a table with units and sample counts, then one JSON line.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Records one metric. `samples` is the number of measurements behind
  /// the value (printed in the table only).
  void Set(const std::string& name, double value, long long samples = 1);

  /// Counts one attempted operation, and a failure when `status` is not
  /// OK (the first few failures are printed).
  void Attempt(const fairidx::Status& status, const char* what);
  /// Counts `attempted` operations of which `failed` failed.
  void AddOps(long long attempted, long long failed);

  /// Records a correctness check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);

  bool correct() const { return errors_.empty(); }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

  /// Prints the table and the JSON line for the metric set of this mode
  /// (end-to-end untraced, per-layer traced). Per-layer metrics a
  /// workload leaves idle print as 0. Returns the process exit code.
  int Print() const;

 private:
  struct Value {
    double value = 0.0;
    long long samples = 0;
  };
  bool trace_;
  std::map<std::string, Value> values_;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> errors_;
};

/// The benchmark's metric catalogue: name and unit, in print order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Adds the per-layer metric `prefix`.{p50,p99} from `seconds` samples,
/// scaled by `scale` (1e6 for us, ...).
void SetPercentiles(Report* report, const std::string& prefix,
                    const std::vector<double>& seconds, double scale);

}  // namespace perfbench

#endif  // FAIRIDX_PERFBENCH_COMMON_H_
