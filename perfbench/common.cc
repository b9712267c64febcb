// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.

#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

using fairidx::AggregateBatch;
using fairidx::RegionAggregate;

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr uint64_t kLayoutSeed = 20240325;
constexpr int kNumClusters = 24;
constexpr double kBackgroundShare = 0.15;
/// Peak score bias of the moving bump and its half-width in grid widths.
constexpr double kBumpHeight = 0.25;
constexpr double kBumpWidth = 0.08;
constexpr double kScoreNoise = 0.05;

}  // namespace

RecordGenerator::RecordGenerator(int rows, int cols, uint64_t seed)
    : rows_(rows), cols_(cols), rng_(seed) {
  // The layout (clusters, label surface) is part of the workload and the
  // same for every seed; the seed draws the records.
  fairidx::Rng layout(kLayoutSeed);
  double total = 0.0;
  for (int k = 0; k < kNumClusters; ++k) {
    Cluster cluster;
    cluster.row = layout.Uniform(0.1, 0.9) * rows_;
    cluster.col = layout.Uniform(0.1, 0.9) * cols_;
    cluster.sigma = layout.Uniform(0.02, 0.08) * std::min(rows_, cols_);
    clusters_.push_back(cluster);
    total += layout.Uniform(0.5, 1.5);
    cluster_cdf_.push_back(total);
  }
  for (double& c : cluster_cdf_) c /= total;
  const double phase_r = layout.NextDouble();
  const double phase_c = layout.NextDouble();
  label_prob_.resize(static_cast<size_t>(rows_) * cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      label_prob_[static_cast<size_t>(r) * cols_ + c] =
          0.5 + 0.35 * std::sin(2 * kPi * (1.3 * c / cols_ + phase_c)) *
                    std::cos(2 * kPi * (0.9 * r / rows_ + phase_r));
    }
  }
}

int RecordGenerator::SampleCell() {
  if (rng_.NextDouble() < kBackgroundShare) {
    return static_cast<int>(
        rng_.NextBounded(static_cast<uint64_t>(rows_) * cols_));
  }
  const double u = rng_.NextDouble();
  const size_t k = std::min<size_t>(
      std::lower_bound(cluster_cdf_.begin(), cluster_cdf_.end(), u) -
          cluster_cdf_.begin(),
      clusters_.size() - 1);
  const Cluster& cluster = clusters_[k];
  const int r = std::clamp(
      static_cast<int>(rng_.Gaussian(cluster.row, cluster.sigma)), 0,
      rows_ - 1);
  const int c = std::clamp(
      static_cast<int>(rng_.Gaussian(cluster.col, cluster.sigma)), 0,
      cols_ - 1);
  return r * cols_ + c;
}

void RecordGenerator::Fill(double bump_height, double bump_center, size_t n,
                           AggregateBatch* batch) {
  batch->cell_ids.reserve(batch->size() + n);
  batch->labels.reserve(batch->size() + n);
  batch->scores.reserve(batch->size() + n);
  for (size_t i = 0; i < n; ++i) {
    const int cell = SampleCell();
    const double p = label_prob_[static_cast<size_t>(cell)];
    const double x = static_cast<double>(cell % cols_) / cols_;
    const double d = (x - bump_center) / kBumpWidth;
    const double score =
        std::clamp(p + bump_height * std::exp(-d * d) +
                       rng_.Gaussian(0.0, kScoreNoise),
                   0.01, 0.99);
    batch->Append(cell, rng_.Bernoulli(p) ? 1 : 0, score);
  }
}

AggregateBatch RecordGenerator::Warmup(size_t n) {
  AggregateBatch batch;
  Fill(0.0, 0.0, n, &batch);
  return batch;
}

std::vector<AggregateBatch> RecordGenerator::Stream(int num_batches,
                                                    int batch_size) {
  std::vector<AggregateBatch> batches(static_cast<size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    // The bump enters at the left edge and leaves past the right one.
    const double phase =
        num_batches > 1 ? static_cast<double>(b) / (num_batches - 1) : 0.0;
    Fill(kBumpHeight, -0.1 + 1.2 * phase, static_cast<size_t>(batch_size),
         &batches[b]);
  }
  return batches;
}

AggregateBatch Concat(const AggregateBatch& first,
                      const std::vector<AggregateBatch>& rest) {
  AggregateBatch out = first;
  for (const AggregateBatch& batch : rest) {
    out.cell_ids.insert(out.cell_ids.end(), batch.cell_ids.begin(),
                        batch.cell_ids.end());
    out.labels.insert(out.labels.end(), batch.labels.begin(),
                      batch.labels.end());
    out.scores.insert(out.scores.end(), batch.scores.begin(),
                      batch.scores.end());
  }
  return out;
}

std::vector<fairidx::Point> ZipfPoints(const fairidx::Grid& grid,
                                       double exponent, size_t n,
                                       uint64_t seed) {
  fairidx::Rng rng(seed);
  const int num_cells = grid.num_cells();
  std::vector<int> ranked(static_cast<size_t>(num_cells));
  std::iota(ranked.begin(), ranked.end(), 0);
  rng.Shuffle(ranked);
  std::vector<double> cdf(static_cast<size_t>(num_cells));
  double total = 0.0;
  for (int k = 0; k < num_cells; ++k) {
    total += 1.0 / std::pow(k + 1.0, exponent);
    cdf[static_cast<size_t>(k)] = total;
  }
  std::vector<fairidx::Point> points(n);
  for (fairidx::Point& p : points) {
    const double u = rng.NextDouble() * total;
    const size_t k = std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        cdf.size() - 1);
    const int cell = ranked[k];
    const fairidx::BoundingBox box =
        grid.CellBounds(cell / grid.cols(), cell % grid.cols());
    p.x = box.min_x + rng.Uniform(0.1, 0.9) * box.width();
    p.y = box.min_y + rng.Uniform(0.1, 0.9) * box.height();
  }
  return points;
}

double EnceOf(const std::vector<RegionAggregate>& regions) {
  double weighted = 0.0;
  double count = 0.0;
  for (const RegionAggregate& r : regions) {
    weighted += r.WeightedMiscalibration();
    count += r.count;
  }
  return count > 0 ? weighted / count : 0.0;
}

double CountOf(const std::vector<RegionAggregate>& regions) {
  double count = 0.0;
  for (const RegionAggregate& r : regions) count += r.count;
  return count;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const long long rank = std::clamp<long long>(
      static_cast<long long>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  long long seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    // The bucket's midpoint: samples in [i, i + 1) ns.
    if (seen >= rank) return (static_cast<double>(i) + 0.5) * 1e-9;
  }
  std::vector<double> rest = overflow_;
  const size_t k = static_cast<size_t>(rank - seen - 1);
  std::nth_element(rest.begin(), rest.begin() + k, rest.end());
  return rest[k] * 1e-9;
}

void RoundPercentiles::Add(const std::vector<double>& seconds) {
  p50_.push_back(Quantile(seconds, 0.5));
  p99_.push_back(Quantile(seconds, 0.99));
  samples_ += static_cast<long long>(seconds.size());
}

void RoundPercentiles::Add(const LatencyHistogram& latency) {
  p50_.push_back(latency.Quantile(0.5));
  p99_.push_back(latency.Quantile(0.99));
  samples_ += latency.count();
}

void RoundPercentiles::Set(Report* report, const char* p50_name,
                           const char* p99_name, double scale) const {
  report->Set(p50_name, Median(p50_) * scale, samples_);
  report->Set(p99_name, Median(p99_) * scale, samples_);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int Trace::Begin(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(),
                        Clock::now(), Clock::time_point{}});
  open_.push_back(id);
  return id;
}

void Trace::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Clock::now();
  open_.pop_back();
}

std::map<std::string, std::vector<double>> Trace::SelfSeconds() const {
  // Children of one span run one after another on this thread, so the
  // part of the parent they cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = SecondsBetween(spans_[i].start, spans_[i].end);
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -=
          SecondsBetween(span.start, span.end);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

void Report::Set(const std::string& name, double value, long long samples) {
  values_[name] = Value{value, samples};
}

void Report::Attempt(const fairidx::Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return;
  if (failed_ < 5) {
    std::fprintf(stderr, "operation failed: %s: %s\n", what,
                 status.ToString().c_str());
  }
  ++failed_;
}

void Report::AddOps(long long attempted, long long failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (errors_.size() < 20) {
    std::fprintf(stderr, "correctness check failed: %s\n", what.c_str());
  }
  errors_.push_back(what);
}

int Report::Print() const {
  const std::vector<MetricSpec>& specs =
      trace_ ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("%-36s %16s  %-10s %s\n", "metric", "value", "unit",
              "samples");
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max(attempted_, 1LL)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values_.find(spec.name);
    const Value v = it != values_.end() ? it->second : Value{};
    std::printf("%-36s %16.6g  %-10s %lld\n", spec.name, v.value, spec.unit,
                v.samples);
    json << (first ? "" : ", ") << "\"" << spec.name
         << "\": {\"value\": " << (std::isfinite(v.value) ? v.value : 0.0)
         << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"stream_rps", "records/s"},
      {"recover_s", "s"},
      {"lookup_pps", "points/s"},
      {"lookup_p50_us", "us"},
      {"lookup_p99_us", "us"},
      {"visible_p50_ms", "ms"},
      {"visible_p99_ms", "ms"},
      {"live_ence", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"service.ingest_us.p50", "us"},
      {"service.ingest_us.p99", "us"},
      {"service.maybe_refine_ms.p50", "ms"},
      {"service.maybe_refine_ms.p99", "ms"},
      {"service.maybe_refine_ms.sum", "ms"},
      {"service.lookup_pin_ns.p50", "ns"},
      {"service.lookup_pin_ns.p99", "ns"},
      {"service.publish_stall_max_us", "us"},
      {"service.publications_patched", "count"},
      {"service.publications_fallback", "count"},
      {"service.resplits", "count"},
      {"service.epochs", "count"},
      {"scheduler.passes", "count"},
      {"scheduler.refines", "count"},
      {"scheduler.published", "count"},
      {"scheduler.errors", "count"},
      {"scheduler.epochs_retired", "count"},
      {"scheduler.pass_period_ms", "ms"},
      {"store.ingest_us", "us"},
      {"store.seal_ms", "ms"},
      {"store.capture_sealed_ms", "ms"},
      {"store.capture_dirty_ms", "ms"},
      {"store.history_max", "count"},
      {"geo.integrate_ms", "ms"},
      {"geo.query_regions_us", "us"},
      {"index.build_s", "s"},
      {"index.drift_eval_ms", "ms"},
      {"index.resplit_ms", "ms"},
      {"index.nodes_checked", "count"},
      {"index.subtrees_rebuilt", "count"},
      {"index.split_scans", "count"},
      {"index.patched_in_place", "count"},
      {"index.patched_splice", "count"},
      {"index.fallback", "count"},
      {"lookup.build_us", "us"},
      {"lookup.probe_ns_per_point", "ns"},
      {"wal.append_batch_us.p50", "us"},
      {"wal.append_batch_us.p99", "us"},
      {"wal.append_seal_us", "us"},
      {"wal.bytes_per_user_byte", "ratio"},
      {"wal.read_segment_ms", "ms"},
      {"checkpoint.full_ms", "ms"},
      {"checkpoint.delta_ms", "ms"},
      {"checkpoint.full_bytes", "bytes"},
      {"checkpoint.delta_bytes", "bytes"},
      {"checkpoint.load_ms", "ms"},
      {"load.writer_max_late_ms", "ms"},
      {"trace.stream_rps_ratio", "ratio"},
      {"trace.lookup_pps_ratio", "ratio"},
      {"failed_ratio", "ratio"},
  };
  return kSpecs;
}

void SetPercentiles(Report* report, const std::string& prefix,
                    const std::vector<double>& seconds, double scale) {
  const long long n = static_cast<long long>(seconds.size());
  report->Set(prefix + ".p50", Quantile(seconds, 0.5) * scale, n);
  report->Set(prefix + ".p99", Quantile(seconds, 0.99) * scale, n);
}

}  // namespace perfbench
