// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The layer replay: feeds a run's own batches and cuts through the
// public entry points of the layers FairIndexService is built from, one
// span around each call, so each layer's self time is measured where the
// work happens. The calls mirror MaybeRefine (seal, Refine, publish) and
// the durability path (WAL append before ingest, seal record per cut,
// a full or delta checkpoint every checkpoint_interval epochs), and the
// replay must land on the service's sealed state bit for bit. The
// helpers the workloads share live here too.

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>

#include "service/checkpoint.h"
#include "service/wal.h"
#include "workloads.h"

namespace perfbench {

using fairidx::AggregateBatch;
using fairidx::CellRect;
using fairidx::GridAggregates;
using fairidx::RegionAggregate;
using fairidx::ShardedDeltaStore;

fairidx::FairIndexServiceOptions BaseServiceOptions(int height) {
  fairidx::FairIndexServiceOptions options;
  options.algorithm = "fair_kd_tree";
  options.build.height = height;
  options.store.num_shards = 2;
  options.store.num_threads = 1;
  options.refine.drift_bound = kDriftBound;
  return options;
}

bool SameAggregates(const std::vector<RegionAggregate>& a,
                    const std::vector<RegionAggregate>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(RegionAggregate)) == 0);
}

bool SameSums(const std::vector<GridAggregates::PrefixEntry>& a,
              const std::vector<GridAggregates::PrefixEntry>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(),
                      a.size() * sizeof(GridAggregates::PrefixEntry)) == 0);
}

bool SameAnswer(const fairidx::PointLookupResult& a,
                const fairidx::PointLookupResult& b) {
  return a.region == b.region &&
         std::memcmp(&a.aggregate, &b.aggregate, sizeof(RegionAggregate)) ==
             0;
}

namespace {

long long FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<long long>(size);
}

/// The replay's state between calls.
class Replay {
 public:
  Replay(const ReplaySpec& spec, Report* report)
      : spec_(spec),
        durability_(spec.options.durability),
        durable_(!durability_.wal_dir.empty()),
        report_(report) {}

  /// Builds the store, the partition and the first publication (and the
  /// first full checkpoint when durable). False when a call failed.
  bool Start();
  /// Ingests batch `b` (WAL first when durable).
  void Ingest(size_t b);
  /// One maintenance cut: seal, Refine, publish, retention, checkpoint.
  void Cut();
  /// Closes the WAL and times reading back what it and the checkpoints
  /// hold.
  void Finish();
  void SetMetrics();

  const ShardedDeltaStore& store() const { return *store_; }
  const std::vector<CellRect>* regions() const { return rects_.get(); }

 private:
  void Publish(const GridAggregates& snapshot, long long epoch,
               bool changed);
  void Checkpoint(bool allow_delta);

  const ReplaySpec& spec_;
  const fairidx::DurabilityOptions& durability_;
  const bool durable_;
  Report* report_;
  Trace trace_{true};
  std::unique_ptr<ShardedDeltaStore> store_;
  std::unique_ptr<fairidx::Partitioner> partitioner_;
  std::unique_ptr<fairidx::WalWriter> wal_;
  std::shared_ptr<const fairidx::Partition> partition_;
  std::shared_ptr<const std::vector<CellRect>> rects_;

  long long last_checkpoint_epoch_ = 0;
  long long checkpoints_since_full_ = 0;
  std::vector<double> full_bytes_;
  std::vector<double> delta_bytes_;

  std::vector<bool> refine_changed_;
  long long nodes_checked_ = 0;
  long long subtrees_rebuilt_ = 0;
  long long split_scans_ = 0;
  long long patched_in_place_ = 0;
  long long patched_splice_ = 0;
  long long fallback_ = 0;
  long long records_ = 0;
};

bool Replay::Start() {
  auto store = ShardedDeltaStore::Build(*spec_.grid, *spec_.warmup,
                                        spec_.options.store);
  report_->Attempt(store.status(), "ShardedDeltaStore::Build");
  auto partitioner =
      fairidx::PartitionerRegistry::Global().Create(spec_.options.algorithm);
  report_->Attempt(partitioner.status(), "PartitionerRegistry::Create");
  if (!store.ok() || !partitioner.ok()) return false;
  store_ = std::move(store).value();
  partitioner_ = std::move(partitioner).value();
  if (durable_) {
    fairidx::WalOptions wal_options;
    wal_options.fsync = durability_.fsync;
    auto wal = fairidx::WalWriter::Open(durability_.wal_dir, 1, 1,
                                        wal_options);
    report_->Attempt(wal.status(), "WalWriter::Open");
    if (!wal.ok()) return false;
    wal_ = std::move(wal).value();
  }
  const std::shared_ptr<const GridAggregates> epoch0 = store_->snapshot();
  {
    ScopedSpan span(&trace_, "index.build");
    report_->Attempt(partitioner_
                         ->BuildFromAggregates(*spec_.grid, *epoch0,
                                               spec_.options.build)
                         .status(),
                     "BuildFromAggregates");
  }
  if (partitioner_->maintained() == nullptr) return false;
  Publish(*epoch0, store_->epoch(), /*changed=*/true);
  if (durable_) Checkpoint(/*allow_delta=*/false);
  return true;
}

void Replay::Ingest(size_t b) {
  const AggregateBatch& batch = (*spec_.batches)[b];
  records_ += static_cast<long long>(batch.size());
  if (wal_ != nullptr) {
    ScopedSpan span(&trace_, "wal.append_batch");
    report_->Attempt(wal_->AppendBatch(static_cast<long long>(b), batch),
                     "WalWriter::AppendBatch");
  }
  ScopedSpan span(&trace_, "store.ingest");
  report_->Attempt(store_->Ingest(batch).status(),
                   "ShardedDeltaStore::Ingest");
}

void Replay::Cut() {
  ScopedSpan cut(&trace_, "replay.cut");
  fairidx::Result<fairidx::SealedEpoch> sealed = [&] {
    ScopedSpan span(&trace_, "store.seal");
    return store_->Seal();
  }();
  report_->Attempt(sealed.status(), "ShardedDeltaStore::Seal");
  if (!sealed.ok()) return;
  if (wal_ != nullptr) {
    ScopedSpan span(&trace_, "wal.append_seal");
    report_->Attempt(
        wal_->AppendSeal(sealed->epoch, /*captured=*/true, /*refine=*/true,
                         spec_.options.refine.drift_bound),
        "WalWriter::AppendSeal");
  }
  fairidx::Result<fairidx::KdRefineStats> stats = [&] {
    ScopedSpan span(&trace_, "index.refine");
    return partitioner_->Refine(*sealed->snapshot, spec_.options.refine);
  }();
  report_->Attempt(stats.status(), "Partitioner::Refine");
  if (!stats.ok()) return;
  refine_changed_.push_back(stats->changed);
  nodes_checked_ += stats->nodes_checked;
  subtrees_rebuilt_ += stats->subtrees_rebuilt;
  split_scans_ += stats->num_split_scans;
  if (stats->changed) {
    if (stats->patched_in_place) {
      ++patched_in_place_;
    } else if (stats->patched_splice) {
      ++patched_splice_;
    } else {
      ++fallback_;
    }
  }
  Publish(*sealed->snapshot, sealed->epoch, stats->changed);
  store_->RetainEpochs(kRetainEpochs);
  if (store_->epoch() - last_checkpoint_epoch_ >=
      durability_.checkpoint_interval) {
    Checkpoint(/*allow_delta=*/true);
  }
}

void Replay::Publish(const GridAggregates& snapshot, long long epoch,
                     bool changed) {
  if (changed) {
    // Frozen copies, as the service publishes: the maintainer patches its
    // partition in place on later refines.
    const fairidx::PartitionResult* maintained = partitioner_->maintained();
    partition_ =
        std::make_shared<const fairidx::Partition>(maintained->partition);
    rects_ =
        std::make_shared<const std::vector<CellRect>>(maintained->regions);
  }
  std::vector<RegionAggregate> aggregates;
  {
    ScopedSpan span(&trace_, "geo.query_regions");
    aggregates = snapshot.QueryMany(*rects_);
  }
  ScopedSpan span(&trace_, "lookup.build");
  report_->Attempt(
      fairidx::PointLookupIndex::Build(*spec_.grid, partition_, rects_,
                                       std::move(aggregates), epoch)
          .status(),
      "PointLookupIndex::Build");
}

void Replay::Checkpoint(bool allow_delta) {
  // The captures and the integration run on every workload at the
  // checkpoint cadence; only a durable replay writes the files.
  ShardedDeltaStore::SealedState sealed;
  {
    ScopedSpan span(&trace_, "store.capture_sealed");
    sealed = store_->CaptureSealedState();
  }
  {
    ScopedSpan span(&trace_, "geo.integrate");
    auto integrated = GridAggregates::FromCellSums(
        store_->rows(), store_->cols(), sealed.cell_sums,
        spec_.options.store.num_threads);
    report_->Attempt(integrated.status(), "GridAggregates::FromCellSums");
    if (integrated.ok()) {
      report_->Check(SameAggregates(integrated->QueryMany(*rects_),
                                    store_->snapshot()->QueryMany(*rects_)),
                     "FromCellSums over the captured sums equals the seal");
    }
  }
  ShardedDeltaStore::DirtyCells dirty;
  {
    ScopedSpan span(&trace_, "store.capture_dirty");
    dirty = store_->CaptureDirtySince(last_checkpoint_epoch_);
  }
  const long long epoch = store_->epoch();
  const long long previous = last_checkpoint_epoch_;
  last_checkpoint_epoch_ = epoch;
  if (!durable_) return;

  auto blob = partitioner_->SaveMaintained();
  report_->Attempt(blob.status(), "SaveMaintained");
  if (!blob.ok()) return;
  const std::string& dir = durability_.wal_dir;
  if (allow_delta &&
      checkpoints_since_full_ + 1 < durability_.full_snapshot_interval) {
    fairidx::CheckpointDelta delta;
    delta.rows = store_->rows();
    delta.cols = store_->cols();
    delta.algorithm = spec_.options.algorithm;
    delta.prev_epoch = previous;
    delta.prev_generation = 1;
    delta.epoch = dirty.epoch;
    delta.sealed_records = dirty.sealed_records;
    delta.cells = std::move(dirty.cells);
    delta.sums = std::move(dirty.sums);
    delta.maintained_blob = std::move(blob).value();
    delta.regions = partitioner_->maintained()->regions;
    {
      ScopedSpan span(&trace_, "checkpoint.delta");
      report_->Attempt(fairidx::WriteDeltaCheckpoint(dir, delta),
                       "WriteDeltaCheckpoint");
    }
    delta_bytes_.push_back(static_cast<double>(
        FileBytes(dir + "/" + fairidx::DeltaCheckpointFileName(epoch, 1))));
    ++checkpoints_since_full_;
  } else {
    fairidx::CheckpointData data;
    data.rows = store_->rows();
    data.cols = store_->cols();
    data.algorithm = spec_.options.algorithm;
    data.epoch = sealed.epoch;
    data.sealed_records = sealed.sealed_records;
    data.cell_sums = std::move(sealed.cell_sums);
    data.maintained_blob = std::move(blob).value();
    data.partition = partitioner_->maintained()->partition;
    data.regions = partitioner_->maintained()->regions;
    {
      ScopedSpan span(&trace_, "checkpoint.full");
      report_->Attempt(fairidx::WriteCheckpoint(dir, data),
                       "WriteCheckpoint");
    }
    full_bytes_.push_back(static_cast<double>(
        FileBytes(dir + "/" + fairidx::CheckpointFileName(epoch, 1))));
    checkpoints_since_full_ = 0;
  }
  report_->Attempt(fairidx::PruneCheckpoints(dir, durability_.keep_checkpoints),
                   "PruneCheckpoints");
  report_->Attempt(fairidx::PruneWalSegments(dir, epoch),
                   "PruneWalSegments");
}

void Replay::Finish() {
  if (wal_ == nullptr) return;
  report_->Attempt(wal_->Close(), "WalWriter::Close");
  const std::string& dir = durability_.wal_dir;
  {
    ScopedSpan span(&trace_, "checkpoint.load");
    auto loaded = fairidx::LoadLatestCheckpoint(dir);
    report_->Attempt(loaded.status(), "LoadLatestCheckpoint");
    report_->Check(loaded.ok() && loaded->epoch == last_checkpoint_epoch_,
                   "the newest checkpoint loads at its epoch");
  }
  auto segments = fairidx::ListWalSegments(dir);
  report_->Attempt(segments.status(), "ListWalSegments");
  if (!segments.ok()) return;
  for (const fairidx::WalSegmentInfo& segment : *segments) {
    ScopedSpan span(&trace_, "wal.read_segment");
    report_->Attempt(fairidx::ReadWalSegment(segment.path, false).status(),
                     "ReadWalSegment");
  }
}

void Replay::SetMetrics() {
  std::map<std::string, std::vector<double>> self = trace_.SelfSeconds();
  const auto set = [&](const char* metric, const char* span, double scale) {
    const std::vector<double>& values = self[span];
    report_->Set(metric, Median(values) * scale,
                 static_cast<long long>(values.size()));
  };
  std::vector<double> drift_eval, resplit;
  const std::vector<double>& refines = self["index.refine"];
  for (size_t i = 0; i < refines.size() && i < refine_changed_.size(); ++i) {
    (refine_changed_[i] ? resplit : drift_eval).push_back(refines[i]);
  }
  set("store.ingest_us", "store.ingest", 1e6);
  set("store.seal_ms", "store.seal", 1e3);
  set("store.capture_sealed_ms", "store.capture_sealed", 1e3);
  set("store.capture_dirty_ms", "store.capture_dirty", 1e3);
  set("geo.integrate_ms", "geo.integrate", 1e3);
  set("geo.query_regions_us", "geo.query_regions", 1e6);
  set("index.build_s", "index.build", 1.0);
  set("lookup.build_us", "lookup.build", 1e6);
  report_->Set("index.drift_eval_ms", Median(drift_eval) * 1e3,
               static_cast<long long>(drift_eval.size()));
  report_->Set("index.resplit_ms", Median(resplit) * 1e3,
               static_cast<long long>(resplit.size()));
  report_->Set("index.nodes_checked", static_cast<double>(nodes_checked_));
  report_->Set("index.subtrees_rebuilt",
               static_cast<double>(subtrees_rebuilt_));
  report_->Set("index.split_scans", static_cast<double>(split_scans_));
  report_->Set("index.patched_in_place",
               static_cast<double>(patched_in_place_));
  report_->Set("index.patched_splice", static_cast<double>(patched_splice_));
  report_->Set("index.fallback", static_cast<double>(fallback_));
  if (!durable_) return;
  SetPercentiles(report_, "wal.append_batch_us", self["wal.append_batch"],
                 1e6);
  set("wal.append_seal_us", "wal.append_seal", 1e6);
  set("wal.read_segment_ms", "wal.read_segment", 1e3);
  set("checkpoint.full_ms", "checkpoint.full", 1e3);
  set("checkpoint.delta_ms", "checkpoint.delta", 1e3);
  set("checkpoint.load_ms", "checkpoint.load", 1e3);
  report_->Set("checkpoint.full_bytes", Median(full_bytes_),
               static_cast<long long>(full_bytes_.size()));
  report_->Set("checkpoint.delta_bytes", Median(delta_bytes_),
               static_cast<long long>(delta_bytes_.size()));
  report_->Set("wal.bytes_per_user_byte",
               static_cast<double>(wal_->bytes_appended()) /
                   (static_cast<double>(records_) *
                    (2 * sizeof(int) + sizeof(double))));
}

}  // namespace

void RunLayerReplay(const ReplaySpec& spec, const ReplayReference& reference,
                    Report* report) {
  const std::string& dir = spec.options.durability.wal_dir;
  std::error_code ec;
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  Replay replay(spec, report);
  if (replay.Start()) {
    const size_t n = spec.batches->size();
    for (size_t b = 0; b < n; ++b) {
      replay.Ingest(b);
      if ((b + 1) % static_cast<size_t>(spec.cut_every) == 0 || b + 1 == n) {
        replay.Cut();
      }
    }
    replay.Finish();
    const ShardedDeltaStore::SealedState state =
        replay.store().CaptureSealedState();
    report->Check(
        state.epoch >= 1 &&
            state.sealed_records == reference.state.sealed_records &&
            SameSums(state.cell_sums, reference.state.cell_sums),
        "layer replay's sealed sums equal the service's bit for bit");
    if (reference.regions != nullptr) {
      report->Check(state.epoch == reference.state.epoch &&
                        replay.regions() != nullptr &&
                        *replay.regions() == *reference.regions,
                    "layer replay publishes the service's final partition");
    }
    replay.SetMetrics();
  }
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
