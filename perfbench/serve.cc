// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The serve_mixed workload: two closed-loop reader threads call
// LookupMany on 64 Zipf-distributed points while one open-loop writer
// ingests 200-record batches at a fixed record rate and the service's own
// maintenance thread seals and refines whenever anything is pending. The
// writer also watches the published snapshot, so a batch counts as
// visible at the first publication whose covered record count includes
// it; its latency runs from the time the batch was due, so a stalled
// Ingest also delays every batch queued behind it.
//
// A run is a few rounds, each on a fresh service, so set-up is timed
// more than once; rates and latency percentiles are medians over rounds.

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "service/fair_index_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fairidx::AggregateBatch;
using fairidx::FairIndexService;
using fairidx::FairIndexServiceOptions;
using fairidx::Grid;
using fairidx::Point;
using fairidx::PointLookupIndex;
using fairidx::PointLookupResult;

constexpr int kReaders = 2;
/// Cuts of the traced run's layer replay (the scheduler's own cuts depend
/// on timing and are not recorded).
constexpr int kReplayCuts = 16;
/// Seed of the warmup every serve_mixed run starts from.
constexpr uint64_t kWarmupSeed = 1;

struct ServeConfig {
  int grid = 1024;
  int height = 12;
  int warmup_records = 2000000;
  double records_per_second = 100000.0;
  int batch_size = 200;
  int rounds = 6;
  size_t points_per_reader = 1 << 18;
};

ServeConfig ConfigFor(const RunArgs& args) {
  ServeConfig cfg;
  if (args.scale == "tiny") {
    cfg.grid = 64;
    cfg.height = 6;
    cfg.warmup_records = 5000;
    cfg.records_per_second = 20000.0;
    cfg.batch_size = 100;
    cfg.rounds = 2;
    cfg.points_per_reader = 1 << 12;
  }
  return cfg;
}

struct RoundResult {
  double setup_s = 0.0;
  double rps = 0.0;
  double recover_s = 0.0;
  double lookup_pps = 0.0;
  LatencyHistogram lookup;
  std::vector<double> visible_s;
  std::vector<double> ence;
  double max_lateness_s = 0.0;
  fairidx::MaintenanceStats maintenance;
  double window_s = 0.0;
  long long publish_stall_us = 0;
  long long patched = 0;
  long long fallback = 0;
  long long resplits = 0;
  long long epochs = 0;
  long long history_max = 0;
  std::map<std::string, std::vector<double>> reader_spans;
  fairidx::ShardedDeltaStore::SealedState final_state;
};

RoundResult RunRound(const ServeConfig& cfg, const Grid& grid,
                     const AggregateBatch& warmup,
                     const std::vector<AggregateBatch>& batches,
                     const std::vector<std::vector<Point>>& reader_points,
                     const RunArgs& args, Trace* trace, Report* report) {
  RoundResult round;
  FairIndexServiceOptions options = BaseServiceOptions(cfg.height);
  options.auto_maintain = true;
  options.maintain.retain_epochs = kRetainEpochs;

  auto t0 = Clock::now();
  auto created = FairIndexService::Create(grid, warmup, options);
  round.setup_s = SecondsSince(t0);
  report->Attempt(created.status(), "Create");
  if (!created.ok()) return round;
  std::unique_ptr<FairIndexService> service = std::move(created).value();

  std::atomic<bool> stop{false};
  std::vector<ReaderResult> readers(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    readers[r].trace = Trace(trace->enabled());
    threads.emplace_back(RunReader, std::cref(*service),
                         std::cref(reader_points[r]), std::cref(stop),
                         std::numeric_limits<long long>::max(), &readers[r]);
  }

  // The writer: batch b is due at start + b * interval. Between sends it
  // polls the published snapshot for the batches it has made visible.
  const double interval = cfg.batch_size / cfg.records_per_second;
  const double warmup_count = static_cast<double>(warmup.size());
  std::vector<double> cumulative(batches.size());
  double total = 0.0;
  for (size_t b = 0; b < batches.size(); ++b) {
    total += static_cast<double>(batches[b].size());
    cumulative[b] = total;
  }
  std::shared_ptr<const PointLookupIndex> seen = service->lookup();
  size_t next_visible = 0;
  size_t sent = 0;
  const auto start = Clock::now();
  const auto poll = [&] {
    std::shared_ptr<const PointLookupIndex> current = service->lookup();
    if (current == seen) return;
    const double now = SecondsSince(start);
    seen = std::move(current);
    round.ence.push_back(EnceOf(seen->aggregates()));
    const double covered = CountOf(seen->aggregates()) - warmup_count;
    for (; next_visible < sent && cumulative[next_visible] <= covered;
         ++next_visible) {
      round.visible_s.push_back(now - interval * next_visible);
    }
  };
  for (; sent < batches.size();) {
    const double due = interval * static_cast<double>(sent);
    for (double now = SecondsSince(start); now < due;
         now = SecondsSince(start)) {
      poll();
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(due - now, 100e-6)));
    }
    round.max_lateness_s =
        std::max(round.max_lateness_s, SecondsSince(start) - due);
    {
      ScopedSpan span(trace, "service.ingest");
      report->Attempt(service->Ingest(batches[sent]).status(), "Ingest");
    }
    ++sent;
  }
  // Wait (bounded) for the last batches to become visible.
  const double deadline = SecondsSince(start) + 10.0;
  while (next_visible < sent && SecondsSince(start) < deadline) {
    poll();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  round.window_s = SecondsSince(start);
  round.rps = total / round.window_s;
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  report->Check(next_visible == sent,
                "every batch became visible within 10 s of the last send");

  double points = 0.0;
  long long rechecked = 0;
  for (ReaderResult& reader : readers) {
    points += reader.points;
    round.lookup_pps += reader.points / reader.window_s;
    round.lookup.Merge(reader.latency);
    rechecked += reader.rechecked;
    report->Check(reader.mismatched == 0,
                  "sampled serve answers match their pinned snapshot");
    for (auto& [name, values] : reader.trace.SelfSeconds()) {
      std::vector<double>& all = round.reader_spans[name];
      all.insert(all.end(), values.begin(), values.end());
    }
  }
  report->Check(rechecked > 0, "some serve answers were re-checked");
  report->AddOps(static_cast<long long>(points / kLookupBatch), 0);

  round.maintenance = service->maintenance_stats();
  service->StopMaintenance();
  report->AddOps(round.maintenance.passes, round.maintenance.errors);
  // The drain: seal what the scheduler had not, then check coverage.
  const fairidx::Result<long long> drained = service->Seal();
  report->Attempt(drained.status(), "Seal");
  const long long expected =
      static_cast<long long>(warmup.size() + total);
  report->Check(service->store().sealed_records() == expected,
                "sealed_records == warmup + tail after the drain");
  report->Check(CountOf(service->lookup()->aggregates()) ==
                    static_cast<double>(expected + (args.break_check ? 1 : 0)),
                "published counts sum to sealed_records after the drain");
  report->Check(round.maintenance.passes > 0 && round.ence.size() > 1,
                "maintenance published while serving");
  round.publish_stall_us = service->max_publish_stall_us();
  round.patched = service->publications_patched();
  round.fallback = service->publications_fallback();
  round.resplits = service->total_resplits();
  round.epochs = service->store().epoch();
  round.history_max = service->store().history_size();
  if (trace->enabled()) {  // The layer replay's reference.
    round.final_state = service->store().CaptureSealedState();
  }

  // Without a WAL, a restart rebuilds from the source records.
  service.reset();
  const AggregateBatch everything = Concat(warmup, batches);
  t0 = Clock::now();
  auto rebuilt = FairIndexService::Create(grid, everything, options);
  round.recover_s = SecondsSince(t0);
  report->Attempt(rebuilt.status(), "Create (rebuild)");
  if (rebuilt.ok()) {
    report->Check((*rebuilt)->store().sealed_records() == expected,
                  "the rebuilt service serves every record");
  }
  return round;
}

}  // namespace

void RunReader(const FairIndexService& service,
               const std::vector<Point>& points, const std::atomic<bool>& stop,
               long long max_calls, ReaderResult* result) {
  std::vector<PointLookupResult> out(kLookupBatch);
  const size_t ring = points.size() / kLookupBatch;
  const auto start = Clock::now();
  for (long long call = 0;
       call < max_calls && !stop.load(std::memory_order_relaxed); ++call) {
    const fairidx::Span<Point> batch(
        points.data() + (static_cast<size_t>(call) % ring) * kLookupBatch,
        kLookupBatch);
    result->points += kLookupBatch;
    if (call % 256 == 0) {
      // A snapshot that stayed published across the call is the one that
      // answered it.
      const std::shared_ptr<const PointLookupIndex> before = service.lookup();
      service.LookupMany(batch, out.data());
      if (service.lookup() == before) {
        ++result->rechecked;
        for (int i = 0; i < kLookupBatch; ++i) {
          if (!SameAnswer(out[i], before->Lookup(batch[i]))) {
            ++result->mismatched;
            break;
          }
        }
      }
      continue;
    }
    const auto t0 = Clock::now();
    if (result->trace.enabled() && call % 16 == 1) {
      std::shared_ptr<const PointLookupIndex> pinned;
      {
        ScopedSpan span(&result->trace, "service.lookup_pin");
        pinned = service.lookup();
      }
      ScopedSpan span(&result->trace, "lookup.probe");
      pinned->LookupMany(batch, out.data());
    } else {
      service.LookupMany(batch, out.data());
    }
    result->latency.Add(SecondsSince(t0));
  }
  result->window_s = SecondsSince(start);
}

int RunServeWorkload(const RunArgs& args) {
  const ServeConfig cfg = ConfigFor(args);
  Report report(args.trace);
  auto grid = Grid::Create(
      cfg.grid, cfg.grid,
      fairidx::BoundingBox{0.0, 0.0, 1.0 * cfg.grid, 1.0 * cfg.grid});
  report.Attempt(grid.status(), "Grid::Create");
  if (!grid.ok()) return report.Print();

  // Each round serves for an equal share of the measuring time; the
  // writer's stream is sized to that share at the fixed rate.
  const int rounds_wanted = (args.trace ? 2 : 1) * cfg.rounds;
  const double round_seconds = std::max(0.25, args.seconds / rounds_wanted);
  const int num_batches = std::max(
      1, static_cast<int>(round_seconds * cfg.records_per_second /
                          cfg.batch_size));
  std::vector<std::vector<Point>> reader_points;
  for (int r = 0; r < kReaders; ++r) {
    reader_points.push_back(
        ZipfPoints(*grid, kZipfExponent, cfg.points_per_reader,
                   args.seed + 1 + static_cast<uint64_t>(r)));
  }

  std::vector<RoundResult> rounds;
  std::vector<RoundResult> traced;
  Trace trace(args.trace);
  Trace no_trace(false);
  // Every round starts from one fixed warmup, the city's history: the
  // fairness of a tree fitted to 2M records moves by a tenth from one
  // sample to the next, which would swamp what maintenance changes. Each
  // round then serves its own stream drawn from the run's seed.
  const AggregateBatch warmup =
      RecordGenerator(cfg.grid, cfg.grid, kWarmupSeed)
          .Warmup(static_cast<size_t>(cfg.warmup_records));
  std::vector<AggregateBatch> batches;
  for (int i = 0; i < rounds_wanted; ++i) {
    const bool traced_round = args.trace && i % 2 == 1;
    batches = RecordGenerator(cfg.grid, cfg.grid,
                              args.seed * 1000 + static_cast<uint64_t>(i))
                  .Stream(num_batches, cfg.batch_size);
    RoundResult round =
        RunRound(cfg, *grid, warmup, batches, reader_points, args,
                 traced_round ? &trace : &no_trace, &report);
    (traced_round ? traced : rounds).push_back(std::move(round));
    if (!report.correct()) return report.Print();
  }

  std::vector<double> setup, rps, recover, pps, ence;
  RoundPercentiles lookup, visible;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    rps.push_back(r.rps);
    recover.push_back(r.recover_s);
    pps.push_back(r.lookup_pps);
    lookup.Add(r.lookup);
    visible.Add(r.visible_s);
    ence.insert(ence.end(), r.ence.begin(), r.ence.end());
  }
  const long long n = static_cast<long long>(rounds.size());
  report.Set("setup_s", Median(setup), n);
  report.Set("stream_rps", Median(rps), n);
  report.Set("recover_s", Median(recover), n);
  report.Set("lookup_pps", Median(pps), n);
  lookup.Set(&report, "lookup_p50_us", "lookup_p99_us", 1e6);
  visible.Set(&report, "visible_p50_ms", "visible_p99_ms", 1e3);
  report.Set("live_ence", Sum(ence) / static_cast<double>(ence.size()),
             static_cast<long long>(ence.size()));
  report.Set("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    const RoundResult& last = traced.back();
    const long long t = static_cast<long long>(traced.size());
    std::map<std::string, std::vector<double>> self = trace.SelfSeconds();
    std::map<std::string, std::vector<double>> reader_spans;
    std::vector<double> traced_rps, traced_pps;
    long long history_max = 0;
    double max_lateness_s = 0.0;
    for (const RoundResult& r : traced) {
      for (const auto& [name, values] : r.reader_spans) {
        reader_spans[name].insert(reader_spans[name].end(), values.begin(),
                                  values.end());
      }
      traced_rps.push_back(r.rps);
      traced_pps.push_back(r.lookup_pps);
      history_max = std::max(history_max, r.history_max);
      max_lateness_s = std::max(max_lateness_s, r.max_lateness_s);
    }
    report.Set("load.writer_max_late_ms", max_lateness_s * 1e3, t);
    SetPercentiles(&report, "service.ingest_us", self["service.ingest"], 1e6);
    SetPercentiles(&report, "service.lookup_pin_ns",
                   reader_spans["service.lookup_pin"], 1e9);
    report.Set("lookup.probe_ns_per_point",
               Median(reader_spans["lookup.probe"]) * 1e9 / kLookupBatch,
               static_cast<long long>(reader_spans["lookup.probe"].size()));
    report.Set("service.publish_stall_max_us",
               static_cast<double>(last.publish_stall_us));
    report.Set("service.publications_patched",
               static_cast<double>(last.patched));
    report.Set("service.publications_fallback",
               static_cast<double>(last.fallback));
    report.Set("service.resplits", static_cast<double>(last.resplits));
    report.Set("service.epochs", static_cast<double>(last.epochs));
    const fairidx::MaintenanceStats& m = last.maintenance;
    report.Set("scheduler.passes", static_cast<double>(m.passes));
    report.Set("scheduler.refines", static_cast<double>(m.refines));
    report.Set("scheduler.published", static_cast<double>(m.published));
    report.Set("scheduler.errors", static_cast<double>(m.errors));
    report.Set("scheduler.epochs_retired",
               static_cast<double>(m.epochs_retired));
    report.Set("scheduler.pass_period_ms",
               m.passes > 0 ? last.window_s * 1e3 / m.passes : 0.0, m.passes);
    report.Set("store.history_max", static_cast<double>(history_max));
    report.Set("trace.stream_rps_ratio", Median(traced_rps) / Median(rps), t);
    report.Set("trace.lookup_pps_ratio", Median(traced_pps) / Median(pps), t);

    ReplaySpec spec;
    spec.grid = &*grid;
    // `batches` still holds the stream of the last round, a traced one.
    spec.warmup = &warmup;
    spec.batches = &batches;
    spec.cut_every = std::max(1, num_batches / kReplayCuts);
    spec.options = BaseServiceOptions(cfg.height);
    ReplayReference reference;
    reference.state = last.final_state;
    RunLayerReplay(spec, reference, &report);
  }
  report.Set("failed_ratio", static_cast<double>(report.failed()) /
                                 static_cast<double>(
                                     std::max(report.attempted(), 1LL)));
  return report.Print();
}

}  // namespace perfbench
