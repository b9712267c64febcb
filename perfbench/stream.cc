// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The stream workloads, stream_refine and durable_stream. One writer
// thread ingests fixed-size batches and runs MaybeRefine itself every
// `refine_every` batches; durable_stream adds the WAL and checkpoints and
// ends each round by closing the service and timing Recover.
//
// A run repeats rounds on a fresh service until the measuring time is
// used up, cycling through a few streams drawn from the run's seed: how
// much a pass re-splits depends on the exact records, so the medians
// cover several streams, and rounds of one stream must repeat their
// epochs, re-splits, publications and live ENCE exactly. Each round ends
// with a closed-loop lookup probe on the drained service.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "service/fair_index_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fairidx::AggregateBatch;
using fairidx::CellRect;
using fairidx::FairIndexService;
using fairidx::FairIndexServiceOptions;
using fairidx::Grid;
using fairidx::Point;
using fairidx::RegionAggregate;
using fairidx::ShardedDeltaStore;

struct StreamConfig {
  int grid = 512;
  int height = 10;
  int warmup_records = 500000;
  int num_batches = 4000;
  int batch_size = 1000;
  /// MaybeRefine after this many batches (50k records).
  int refine_every = 50;
  /// Distinct seeded streams the rounds cycle through.
  int streams = 4;
  bool durable = false;
  /// Closed-loop LookupMany calls on the drained service per round.
  long long lookup_calls = 20000;
};

StreamConfig ConfigFor(const RunArgs& args) {
  StreamConfig cfg;
  cfg.durable = args.workload == "durable_stream";
  if (args.scale == "tiny") {
    cfg.grid = 64;
    cfg.height = 6;
    cfg.warmup_records = 5000;
    cfg.num_batches = 40;
    cfg.batch_size = 100;
    cfg.refine_every = 5;
    cfg.streams = 2;
    cfg.lookup_calls = 512;
  }
  return cfg;
}

FairIndexServiceOptions ServiceOptions(const StreamConfig& cfg,
                                       const std::string& wal_dir) {
  FairIndexServiceOptions options = BaseServiceOptions(cfg.height);
  if (cfg.durable) {
    options.durability.wal_dir = wal_dir;
    options.durability.fsync = fairidx::WalFsync::kBatch;
    options.durability.checkpoint_interval = 8;
    options.durability.full_snapshot_interval = 4;
  }
  return options;
}

/// One seeded stream: the warmup a service starts from and its tail.
struct StreamData {
  AggregateBatch warmup;
  std::vector<AggregateBatch> tail;
};

/// What one round measured.
struct RoundResult {
  size_t stream = 0;
  double setup_s = 0.0;
  double rps = 0.0;
  double recover_s = 0.0;
  std::vector<double> visible_s;
  double mean_ence = 0.0;
  long long epochs = 0;
  long long resplits = 0;
  long long patched = 0;
  long long fallback = 0;
  long long history_max = 0;
  long long publish_stall_us = 0;
  ReaderResult probe;
  ShardedDeltaStore::SealedState final_state;
  std::vector<CellRect> final_regions;
};

RoundResult RunRound(const StreamConfig& cfg, const Grid& grid,
                     const StreamData& data,
                     const std::vector<Point>& probe_points,
                     const RunArgs& args, Trace* trace, Report* report) {
  RoundResult round;
  const std::string dir = args.work_dir + "/wal";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const FairIndexServiceOptions options = ServiceOptions(cfg, dir);

  auto t0 = Clock::now();
  auto created = FairIndexService::Create(grid, data.warmup, options);
  round.setup_s = SecondsSince(t0);
  report->Attempt(created.status(), "Create");
  if (!created.ok()) return round;
  std::unique_ptr<FairIndexService> service = std::move(created).value();

  const long long tail_records =
      static_cast<long long>(data.tail.size()) * cfg.batch_size;
  const long long expected =
      static_cast<long long>(data.warmup.size()) + tail_records;
  std::vector<double> ingest_at(data.tail.size());
  std::vector<double> ence;
  size_t first_unpublished = 0;
  const auto start = Clock::now();
  for (size_t b = 0; b < data.tail.size(); ++b) {
    ingest_at[b] = SecondsSince(start);
    {
      ScopedSpan span(trace, "service.ingest");
      report->Attempt(service->Ingest(data.tail[b]).status(), "Ingest");
    }
    if ((b + 1) % static_cast<size_t>(cfg.refine_every) != 0 &&
        b + 1 != data.tail.size()) {
      continue;
    }
    {
      ScopedSpan span(trace, "service.maybe_refine");
      report->Attempt(service->MaybeRefine().status(), "MaybeRefine");
    }
    service->ApplyRetention(kRetainEpochs);
    const double published_at = SecondsSince(start);
    for (; first_unpublished <= b; ++first_unpublished) {
      round.visible_s.push_back(published_at - ingest_at[first_unpublished]);
    }
    ence.push_back(EnceOf(service->lookup()->aggregates()));
    round.history_max = std::max<long long>(round.history_max,
                                            service->store().history_size());
  }
  round.rps = static_cast<double>(tail_records) / SecondsSince(start);
  round.mean_ence = Sum(ence) / static_cast<double>(ence.size());

  // The drain: every record is sealed and the published snapshot covers
  // it.
  const ShardedDeltaStore& store = service->store();
  report->Check(store.sealed_records() == expected,
                "sealed_records == warmup + tail after the drain");
  report->Check(CountOf(service->lookup()->aggregates()) ==
                    static_cast<double>(expected + (args.break_check ? 1 : 0)),
                "published counts sum to sealed_records after the drain");
  round.epochs = store.epoch();
  round.resplits = service->total_resplits();
  round.patched = service->publications_patched();
  round.fallback = service->publications_fallback();
  round.publish_stall_us = service->max_publish_stall_us();
  if (trace->enabled()) {  // The layer replay's reference.
    round.final_state = store.CaptureSealedState();
    round.final_regions = *service->regions();
  }

  const std::atomic<bool> never{false};
  round.probe.trace = Trace(trace->enabled());
  RunReader(*service, probe_points, never, cfg.lookup_calls, &round.probe);
  report->AddOps(cfg.lookup_calls, 0);
  report->Check(round.probe.mismatched == 0 && round.probe.rechecked > 0,
                "sampled lookup answers match their pinned snapshot");

  if (cfg.durable) {
    const long long epoch = store.epoch();
    const std::vector<RegionAggregate> queried = service->QueryRegions();
    const std::vector<CellRect> regions = *service->regions();
    service.reset();  // Close: the WAL is synced and closed.
    t0 = Clock::now();
    auto recovered = FairIndexService::Recover(grid, options);
    round.recover_s = SecondsSince(t0);
    report->Attempt(recovered.status(), "Recover");
    if (recovered.ok()) {
      const FairIndexService& again = **recovered;
      report->Check(again.store().epoch() == epoch,
                    "the recovered epoch matches the closed service");
      report->Check(SameAggregates(again.QueryRegions(), queried),
                    "recovered QueryRegions matches the closed service");
      report->Check(*again.regions() == regions,
                    "recovered regions() matches the closed service");
    }
  } else {
    // Without a WAL, a restart rebuilds from the source records.
    service.reset();
    const AggregateBatch everything = Concat(data.warmup, data.tail);
    t0 = Clock::now();
    auto rebuilt = FairIndexService::Create(grid, everything, options);
    round.recover_s = SecondsSince(t0);
    report->Attempt(rebuilt.status(), "Create (rebuild)");
    if (rebuilt.ok()) {
      report->Check((*rebuilt)->store().sealed_records() == expected &&
                        CountOf((*rebuilt)->lookup()->aggregates()) ==
                            static_cast<double>(expected),
                    "the rebuilt service serves every record");
    }
  }
  std::filesystem::remove_all(dir, ec);
  return round;
}

}  // namespace

int RunStreamWorkload(const RunArgs& args) {
  const StreamConfig cfg = ConfigFor(args);
  Report report(args.trace);

  auto grid = Grid::Create(
      cfg.grid, cfg.grid,
      fairidx::BoundingBox{0.0, 0.0, 1.0 * cfg.grid, 1.0 * cfg.grid});
  report.Attempt(grid.status(), "Grid::Create");
  if (!grid.ok()) return report.Print();
  std::vector<StreamData> streams(static_cast<size_t>(cfg.streams));
  for (size_t s = 0; s < streams.size(); ++s) {
    RecordGenerator gen(cfg.grid, cfg.grid, args.seed * 1000 + s);
    streams[s].warmup = gen.Warmup(static_cast<size_t>(cfg.warmup_records));
    streams[s].tail = gen.Stream(cfg.num_batches, cfg.batch_size);
  }
  // A small ring of probe points keeps them from competing with the cell
  // map for cache, which made the probe's latency depend on where the
  // process's pages happened to land.
  const std::vector<Point> probe_points =
      ZipfPoints(*grid, kZipfExponent, 1 << 12, args.seed + 1);

  // Rounds repeat until the measuring time is used and every stream ran
  // twice. A traced run alternates untraced and traced blocks of one
  // round per stream; the ratio of the two is the tracing overhead.
  std::vector<RoundResult> rounds;
  std::vector<RoundResult> traced;
  Trace trace(args.trace);
  Trace no_trace(false);
  const auto start = Clock::now();
  const size_t min_rounds = (args.trace ? 4 : 2) * streams.size();
  for (size_t i = 0; i < min_rounds || SecondsSince(start) < args.seconds;
       ++i) {
    const bool traced_round = args.trace && (i / streams.size()) % 2 == 1;
    RoundResult round =
        RunRound(cfg, *grid, streams[i % streams.size()], probe_points, args,
                 traced_round ? &trace : &no_trace, &report);
    round.stream = i % streams.size();
    (traced_round ? traced : rounds).push_back(std::move(round));
    if (!report.correct()) return report.Print();
  }

  // Rounds of one stream repeat its maintenance and fairness exactly,
  // traced or not.
  std::vector<const RoundResult*> first(streams.size(), nullptr);
  std::vector<const RoundResult*> all;
  for (const RoundResult& r : rounds) all.push_back(&r);
  for (const RoundResult& r : traced) all.push_back(&r);
  for (const RoundResult* r : all) {
    const RoundResult*& f = first[r->stream];
    if (f == nullptr) f = r;
    report.Check(r->epochs == f->epochs && r->resplits == f->resplits &&
                     r->patched == f->patched && r->fallback == f->fallback &&
                     r->mean_ence == f->mean_ence,
                 "epochs, re-splits, publications and live ENCE repeat in "
                 "every round of a stream");
    report.Check(r->resplits > 0, "the stream drives re-splits");
  }

  std::vector<double> setup, rps, recover, lookup_pps, ence;
  RoundPercentiles lookup, visible;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    rps.push_back(r.rps);
    recover.push_back(r.recover_s);
    lookup_pps.push_back(r.probe.points / r.probe.window_s);
    lookup.Add(r.probe.latency);
    visible.Add(r.visible_s);
  }
  for (const RoundResult* f : first) ence.push_back(f->mean_ence);
  const long long n = static_cast<long long>(rounds.size());
  report.Set("setup_s", Median(setup), n);
  report.Set("stream_rps", Median(rps), n);
  report.Set("recover_s", Median(recover), n);
  report.Set("lookup_pps", Median(lookup_pps), n);
  lookup.Set(&report, "lookup_p50_us", "lookup_p99_us", 1e6);
  visible.Set(&report, "visible_p50_ms", "visible_p99_ms", 1e3);
  report.Set("live_ence", Sum(ence) / static_cast<double>(ence.size()),
             static_cast<long long>(ence.size()));
  report.Set("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    // Counts and the replay come from the first traced round, which ran
    // stream 0, so they repeat for a seed however many rounds fit.
    const RoundResult& ref = traced.front();
    const long long t = static_cast<long long>(traced.size());
    std::map<std::string, std::vector<double>> self = trace.SelfSeconds();
    std::vector<double> traced_rps, traced_pps;
    long long history_max = 0;
    for (const RoundResult& r : traced) {
      for (const auto& [name, values] : r.probe.trace.SelfSeconds()) {
        self[name].insert(self[name].end(), values.begin(), values.end());
      }
      traced_rps.push_back(r.rps);
      traced_pps.push_back(r.probe.points / r.probe.window_s);
      history_max = std::max(history_max, r.history_max);
    }
    SetPercentiles(&report, "service.ingest_us", self["service.ingest"], 1e6);
    SetPercentiles(&report, "service.maybe_refine_ms",
                   self["service.maybe_refine"], 1e3);
    report.Set("service.maybe_refine_ms.sum",
               Sum(self["service.maybe_refine"]) * 1e3 / t, t);
    SetPercentiles(&report, "service.lookup_pin_ns",
                   self["service.lookup_pin"], 1e9);
    report.Set("lookup.probe_ns_per_point",
               Median(self["lookup.probe"]) * 1e9 / kLookupBatch,
               static_cast<long long>(self["lookup.probe"].size()));
    report.Set("service.publish_stall_max_us",
               static_cast<double>(ref.publish_stall_us));
    report.Set("service.publications_patched",
               static_cast<double>(ref.patched));
    report.Set("service.publications_fallback",
               static_cast<double>(ref.fallback));
    report.Set("service.resplits", static_cast<double>(ref.resplits));
    report.Set("service.epochs", static_cast<double>(ref.epochs));
    report.Set("store.history_max", static_cast<double>(history_max));
    report.Set("trace.stream_rps_ratio", Median(traced_rps) / Median(rps), t);
    report.Set("trace.lookup_pps_ratio",
               Median(traced_pps) / Median(lookup_pps), t);

    ReplaySpec spec;
    spec.grid = &*grid;
    spec.warmup = &streams[ref.stream].warmup;
    spec.batches = &streams[ref.stream].tail;
    spec.cut_every = cfg.refine_every;
    spec.options = ServiceOptions(cfg, args.work_dir + "/replay");
    ReplayReference reference;
    reference.state = ref.final_state;
    reference.regions = &ref.final_regions;
    RunLayerReplay(spec, reference, &report);
  }
  report.Set("failed_ratio", static_cast<double>(report.failed()) /
                                 static_cast<double>(
                                     std::max(report.attempted(), 1LL)));
  return report.Print();
}

}  // namespace perfbench
