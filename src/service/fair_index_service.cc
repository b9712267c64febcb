#include "service/fair_index_service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "service/checkpoint.h"

namespace fairidx {
namespace {

/// Lifts `value` into `target` when larger (relaxed CAS loop — the stall
/// maxima are pure observability).
void FetchMax(std::atomic<long long>* target, long long value) {
  long long current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

/// Wall-clock micros since `start`.
long long MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

FairIndexService::FairIndexService(
    const Grid& grid, FairIndexServiceOptions options,
    std::unique_ptr<WalWriter> wal,
    std::unique_ptr<ShardedDeltaStore> store,
    std::unique_ptr<Partitioner> partitioner)
    : grid_(grid),
      options_(std::move(options)),
      wal_(std::move(wal)),
      store_(std::move(store)),
      partitioner_(std::move(partitioner)) {}

FairIndexService::~FairIndexService() { StopMaintenance(); }

Result<std::unique_ptr<FairIndexService>> FairIndexService::Create(
    const Grid& grid, const AggregateBatch& warmup,
    const FairIndexServiceOptions& options) {
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<Partitioner> partitioner,
      PartitionerRegistry::Global().Create(options.algorithm));
  if (!partitioner->capabilities().supports_refine) {
    return FailedPreconditionError(
        "FairIndexService: partitioner '" + options.algorithm +
        "' does not support incremental maintenance (supports_refine)");
  }
  const DurabilityOptions& durability = options.durability;
  std::unique_ptr<WalWriter> wal;
  if (!durability.wal_dir.empty()) {
    if (durability.keep_checkpoints < 1) {
      return InvalidArgumentError(
          "FairIndexService: keep_checkpoints must be >= 1");
    }
    // A directory that already holds recoverable state must go through
    // Recover — silently truncating someone's log here would BE the data
    // loss the WAL exists to prevent.
    Result<std::vector<WalSegmentInfo>> segments =
        ListWalSegments(durability.wal_dir);
    Result<std::vector<CheckpointInfo>> checkpoints =
        ListCheckpoints(durability.wal_dir);
    if ((segments.ok() && !segments->empty()) ||
        (checkpoints.ok() && !checkpoints->empty())) {
      return FailedPreconditionError(
          "FairIndexService: '" + durability.wal_dir +
          "' already holds WAL/checkpoint state; use Recover, or point "
          "wal_dir at an empty directory");
    }
    WalOptions wal_options;
    wal_options.fsync = durability.fsync;
    wal_options.file_factory = durability.file_factory;
    FAIRIDX_ASSIGN_OR_RETURN(
        wal, WalWriter::Open(durability.wal_dir, /*generation=*/1,
                             /*next_epoch=*/1, wal_options));
  }
  ShardedDeltaStoreOptions store_options = options.store;
  store_options.wal = wal.get();
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedDeltaStore> store,
      ShardedDeltaStore::Build(grid, warmup, store_options));
  // The initial partition keys off sealed epoch 0, exactly like every
  // later refine keys off the epoch it seals.
  std::shared_ptr<const GridAggregates> epoch0 = store->snapshot();
  FAIRIDX_RETURN_IF_ERROR(
      partitioner->BuildFromAggregates(grid, *epoch0, options.build)
          .status());
  std::unique_ptr<FairIndexService> service(
      new FairIndexService(grid, options, std::move(wal), std::move(store),
                           std::move(partitioner)));
  {
    // First publication: the epoch-0 partition paired with the epoch-0
    // snapshot it was built from. lookup() is never null afterwards.
    std::lock_guard<std::mutex> lock(service->maintain_mutex_);
    FAIRIDX_RETURN_IF_ERROR(service->PublishMaintainedLocked(
        *epoch0, service->store_->epoch(), /*partition_changed=*/true));
  }
  if (service->wal_ != nullptr) {
    // The epoch-0 checkpoint carries the warmup state, so recovery never
    // needs the warmup records themselves. Always a full snapshot: it is
    // the base every later delta chains back to.
    FAIRIDX_RETURN_IF_ERROR(
        service->WriteCheckpointNow(/*allow_delta=*/false));
  }
  if (options.auto_maintain) {
    FAIRIDX_RETURN_IF_ERROR(service->StartMaintenance(options.maintain));
  }
  return service;
}

Result<std::unique_ptr<FairIndexService>> FairIndexService::Recover(
    const Grid& grid, const FairIndexServiceOptions& options) {
  const DurabilityOptions& durability = options.durability;
  if (durability.wal_dir.empty()) {
    return InvalidArgumentError(
        "FairIndexService: Recover needs durability.wal_dir");
  }
  if (durability.keep_checkpoints < 1) {
    return InvalidArgumentError(
        "FairIndexService: keep_checkpoints must be >= 1");
  }
  FAIRIDX_ASSIGN_OR_RETURN(CheckpointData checkpoint,
                           LoadLatestCheckpoint(durability.wal_dir));
  if (checkpoint.rows != grid.rows() || checkpoint.cols != grid.cols()) {
    return FailedPreconditionError(
        "FairIndexService: checkpoint grid is " +
        std::to_string(checkpoint.rows) + "x" +
        std::to_string(checkpoint.cols) + ", caller grid is " +
        std::to_string(grid.rows()) + "x" + std::to_string(grid.cols()));
  }
  if (checkpoint.algorithm != options.algorithm) {
    return FailedPreconditionError(
        "FairIndexService: checkpoint was written by '" +
        checkpoint.algorithm + "', options name '" + options.algorithm +
        "'");
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<Partitioner> partitioner,
      PartitionerRegistry::Global().Create(options.algorithm));
  if (!partitioner->capabilities().supports_refine) {
    return FailedPreconditionError(
        "FairIndexService: partitioner '" + options.algorithm +
        "' does not support incremental maintenance (supports_refine)");
  }
  FAIRIDX_RETURN_IF_ERROR(partitioner->RestoreMaintained(
      grid, options.build, checkpoint.maintained_blob));

  // A fresh WAL generation: the replay below re-logs the old tail through
  // the public ingest path, so segment names can never collide with the
  // files being replayed, and a crash mid-recovery leaves both the old
  // checkpoint and the old segments intact.
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                           ListWalSegments(durability.wal_dir));
  long long max_generation = checkpoint.wal_generation;
  for (const WalSegmentInfo& segment : segments) {
    max_generation = std::max(max_generation, segment.generation);
  }
  const long long new_generation = max_generation + 1;
  WalOptions wal_options;
  wal_options.fsync = durability.fsync;
  wal_options.file_factory = durability.file_factory;
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> wal,
      WalWriter::Open(durability.wal_dir, new_generation,
                      checkpoint.epoch + 1, wal_options));
  ShardedDeltaStoreOptions store_options = options.store;
  store_options.wal = wal.get();
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedDeltaStore> store,
      ShardedDeltaStore::Restore(grid, std::move(checkpoint.cell_sums),
                                 checkpoint.epoch,
                                 checkpoint.sealed_records, store_options));
  std::unique_ptr<FairIndexService> service(
      new FairIndexService(grid, options, std::move(wal), std::move(store),
                           std::move(partitioner)));
  service->total_resplits_ = checkpoint.total_resplits;
  service->last_checkpoint_epoch_ = checkpoint.epoch;
  {
    // Publish the checkpointed partition (now the restored maintained
    // partition) paired with the restored sealed snapshot — the same
    // (partition, epoch) pair the uninterrupted run was serving.
    std::lock_guard<std::mutex> lock(service->maintain_mutex_);
    FAIRIDX_RETURN_IF_ERROR(service->PublishMaintainedLocked(
        *service->store_->snapshot(), checkpoint.epoch,
        /*partition_changed=*/true));
  }
  FAIRIDX_RETURN_IF_ERROR(
      service->ReplayWalTail(segments, checkpoint.epoch));
  // A fresh durable cut: everything replayed now lives in this checkpoint
  // plus the new generation's segments, so the old generation's files can
  // finally go. Always full — a delta here would chain into the old
  // generation this block is about to prune.
  FAIRIDX_RETURN_IF_ERROR(
      service->WriteCheckpointNow(/*allow_delta=*/false));
  {
    FAIRIDX_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> leftover,
                             ListWalSegments(durability.wal_dir));
    std::error_code ec;
    for (const WalSegmentInfo& segment : leftover) {
      if (segment.generation < new_generation) {
        std::filesystem::remove(segment.path, ec);
      }
    }
  }
  if (options.auto_maintain) {
    FAIRIDX_RETURN_IF_ERROR(service->StartMaintenance(options.maintain));
  }
  return service;
}

Status FairIndexService::ReplayWalTail(
    const std::vector<WalSegmentInfo>& segments, long long through_epoch) {
  std::vector<const WalSegmentInfo*> tail;
  for (const WalSegmentInfo& segment : segments) {
    if (segment.epoch > through_epoch) tail.push_back(&segment);
  }
  std::vector<WalRecord> batches;
  // Re-ingest one epoch's batches in their original sequence order: the
  // uninterrupted run's fold sorts its capture by seq, so replaying in
  // seq order (fresh seqs assigned in that same order) reproduces the
  // identical fold order — and bit-identical sealed sums — even when
  // concurrent writers appended to the log out of seq order.
  const auto flush_batches = [&]() -> Status {
    std::stable_sort(batches.begin(), batches.end(),
                     [](const WalRecord& a, const WalRecord& b) {
                       return a.seq < b.seq;
                     });
    for (WalRecord& record : batches) {
      FAIRIDX_RETURN_IF_ERROR(
          store_->Ingest(std::move(record.batch)).status());
    }
    batches.clear();
    return Status::Ok();
  };
  for (size_t i = 0; i < tail.size(); ++i) {
    // Only the final segment may legitimately end mid-record (the crash
    // point); damage anywhere else is real corruption.
    const bool last_segment = i + 1 == tail.size();
    FAIRIDX_ASSIGN_OR_RETURN(
        std::vector<WalRecord> records,
        ReadWalSegment(tail[i]->path, last_segment));
    for (WalRecord& record : records) {
      if (record.type == WalRecord::Type::kBatch) {
        batches.push_back(std::move(record));
        continue;
      }
      FAIRIDX_RETURN_IF_ERROR(flush_batches());
      if (record.refine) {
        KdRefineOptions refine_options;
        refine_options.drift_bound = record.drift_bound;
        FAIRIDX_RETURN_IF_ERROR(MaybeRefine(refine_options).status());
      } else {
        FAIRIDX_RETURN_IF_ERROR(Seal().status());
      }
    }
  }
  // Batches after the last seal record return to the pending set, exactly
  // where the uninterrupted run held them.
  return flush_batches();
}

Result<long long> FairIndexService::Ingest(AggregateBatch batch) {
  FAIRIDX_ASSIGN_OR_RETURN(const long long seq,
                           store_->Ingest(std::move(batch)));
  // Wake the background loop (if any) so record-count cadences react to
  // this batch now instead of at the next poll.
  loop_.Notify();
  return seq;
}

Result<long long> FairIndexService::Seal() {
  FAIRIDX_ASSIGN_OR_RETURN(SealedEpoch sealed, store_->Seal());
  {
    // Refresh the lookup snapshot's aggregates to the epoch this seal
    // published (partition unchanged). Taken AFTER the store's seal lock
    // is released, so the durability/maintain nesting is preserved; the
    // maintain lock orders this against refines, and the epoch guard in
    // PublishMaintainedLocked drops the refresh if a racing refine
    // already published a newer epoch.
    std::lock_guard<std::mutex> lock(maintain_mutex_);
    FAIRIDX_RETURN_IF_ERROR(PublishMaintainedLocked(
        *sealed.snapshot, sealed.epoch, /*partition_changed=*/false));
  }
  FAIRIDX_RETURN_IF_ERROR(MaybeCheckpoint());
  return sealed.epoch;
}

std::shared_ptr<const std::vector<CellRect>> FairIndexService::regions()
    const {
  std::lock_guard<std::mutex> lock(regions_mutex_);
  return regions_;
}

std::vector<RegionAggregate> FairIndexService::QueryRegions() const {
  // Grab both publication points once: the partition snapshot and the
  // sealed aggregate snapshot each stay valid however many refines or
  // seals land while the query runs.
  const std::shared_ptr<const std::vector<CellRect>> rects = regions();
  return store_->snapshot()->QueryMany(*rects);
}

std::vector<RegionAggregate> FairIndexService::Query(
    Span<CellRect> rects) const {
  return store_->QueryMany(rects);
}

std::shared_ptr<const PointLookupIndex> FairIndexService::lookup() const {
  std::lock_guard<std::mutex> lock(regions_mutex_);
  return lookup_;
}

PointLookupResult FairIndexService::Lookup(const Point& p) const {
  return lookup()->Lookup(p);
}

void FairIndexService::LookupMany(Span<Point> points,
                                  PointLookupResult* out) const {
  // One snapshot pin for the whole batch: every answer comes from the
  // same partition and sealed epoch, whatever publishes meanwhile.
  lookup()->LookupMany(points, out);
}

std::vector<PointLookupResult> FairIndexService::LookupMany(
    Span<Point> points) const {
  return lookup()->LookupMany(points);
}

Result<ServiceRefineResult> FairIndexService::MaybeRefine(
    const KdRefineOptions& options) {
  ServiceRefineResult out;
  {
    std::lock_guard<std::mutex> lock(maintain_mutex_);
    // The sealed (epoch, snapshot) pair is captured atomically: later
    // concurrent seals publish new snapshots, but this maintenance pass
    // keys every drift evaluation and re-split off the one it sealed.
    // The seal record carries the refine tag and drift bound so replay
    // re-runs this exact pass at this exact cut.
    SealAnnotation annotation;
    annotation.refine = true;
    annotation.drift_bound = options.drift_bound;
    FAIRIDX_ASSIGN_OR_RETURN(const SealedEpoch sealed,
                             store_->Seal(annotation));
    out.epoch = sealed.epoch;
    // Refine evaluates drift itself (one batched leaf query + bottom-up
    // sums) and is an exact no-op when nothing moved past the bound, so no
    // separate WouldRefine round-trip is needed here.
    FAIRIDX_ASSIGN_OR_RETURN(out.stats,
                             partitioner_->Refine(*sealed.snapshot, options));
    if (out.stats.changed) {
      total_resplits_ += out.stats.subtrees_rebuilt;
      if (out.stats.patched_in_place || out.stats.patched_splice) {
        ++publications_patched_;
      } else {
        ++publications_fallback_;
      }
    }
    // Publish either way: a changed pass swaps regions_ and the lookup
    // snapshot together (same rects object); an unchanged pass refreshes
    // the lookup aggregates to the epoch it just sealed WITHOUT touching
    // regions_ (zero-drift passes must not republish the region list —
    // pinned by the scheduler's pointer-identity test).
    FAIRIDX_RETURN_IF_ERROR(PublishMaintainedLocked(
        *sealed.snapshot, sealed.epoch, out.stats.changed));
  }
  // Outside maintain_mutex_: checkpointing takes durability -> maintain.
  FAIRIDX_RETURN_IF_ERROR(MaybeCheckpoint());
  return out;
}

long long FairIndexService::total_resplits() const {
  std::lock_guard<std::mutex> lock(maintain_mutex_);
  return total_resplits_;
}

long long FairIndexService::publications_patched() const {
  std::lock_guard<std::mutex> lock(maintain_mutex_);
  return publications_patched_;
}

long long FairIndexService::publications_fallback() const {
  std::lock_guard<std::mutex> lock(maintain_mutex_);
  return publications_fallback_;
}

Status FairIndexService::StartMaintenance(const MaintenancePolicy& policy) {
  const Status valid = ValidateMaintenancePolicy(policy);
  if (!valid.ok()) {
    return InvalidArgumentError("FairIndexService: " + valid.message());
  }
  std::lock_guard<std::mutex> lock(scheduler_mutex_);
  if (loop_.running()) {
    return FailedPreconditionError(
        "FairIndexService: maintenance is already running");
  }
  scheduler_ = std::make_unique<MaintenanceScheduler>(this, policy);
  MaintenanceScheduler* scheduler = scheduler_.get();
  loop_.Start([scheduler] { scheduler->TickNow(); },
              policy.poll_interval_seconds);
  return Status::Ok();
}

void FairIndexService::StopMaintenance() { loop_.Stop(); }

bool FairIndexService::maintenance_running() const {
  return loop_.running();
}

MaintenanceStats FairIndexService::maintenance_stats() const {
  std::lock_guard<std::mutex> lock(scheduler_mutex_);
  return scheduler_ != nullptr ? scheduler_->stats() : MaintenanceStats{};
}

Status FairIndexService::PublishMaintainedLocked(
    const GridAggregates& sealed_snapshot, long long epoch,
    bool partition_changed) {
  const auto publish_start = std::chrono::steady_clock::now();
  // Reuse the published partition/rects objects when the partition did
  // not change: readers' pointer-identity expectations stay exact and
  // the only fresh allocation is the aggregate table.
  std::shared_ptr<const Partition> partition;
  std::shared_ptr<const std::vector<CellRect>> rects;
  if (!partition_changed) {
    std::lock_guard<std::mutex> lock(regions_mutex_);
    if (lookup_ != nullptr) {
      partition = lookup_->partition();
      rects = lookup_->regions();
    }
  }
  if (partition == nullptr) {
    // One flat copy of the maintained cell map: the tree maintainers
    // patch their partition in place on later refines, so the published
    // snapshot must own frozen storage.
    const PartitionResult* maintained = partitioner_->maintained();
    partition = std::make_shared<const Partition>(maintained->partition);
    rects =
        std::make_shared<const std::vector<CellRect>>(maintained->regions);
  }
  std::vector<RegionAggregate> aggregates = sealed_snapshot.QueryMany(*rects);
  FAIRIDX_ASSIGN_OR_RETURN(
      PointLookupIndex fresh,
      PointLookupIndex::Build(grid_, std::move(partition), rects,
                              std::move(aggregates), epoch));
  auto published = std::make_shared<const PointLookupIndex>(std::move(fresh));
  std::lock_guard<std::mutex> lock(regions_mutex_);
  if (partition_changed) regions_ = rects;
  // Epoch-monotonic guard: a caller Seal whose refresh lost the race to
  // a refine's newer publication must not resurrect older aggregates —
  // or, worse, pair them with a partition readers already moved past.
  // (A partition-changing publish can never be rejected: every competing
  // publication seals its epoch under maintain_mutex_, so any previously
  // published epoch is strictly older.)
  if (lookup_ == nullptr || epoch >= lookup_->epoch()) {
    lookup_ = std::move(published);
  }
  FetchMax(&max_publish_stall_us_, MicrosSince(publish_start));
  return Status::Ok();
}

Status FairIndexService::Checkpoint() {
  if (wal_ == nullptr) {
    return FailedPreconditionError(
        "FairIndexService: durability is disabled (no wal_dir)");
  }
  return WriteCheckpointNow(/*allow_delta=*/true);
}

int FairIndexService::ApplyRetention(int keep_last) {
  return store_->RetainEpochs(keep_last);
}

long long FairIndexService::last_checkpoint_epoch() const {
  std::lock_guard<std::mutex> lock(durability_mutex_);
  return last_checkpoint_epoch_;
}

Status FairIndexService::MaybeCheckpoint() {
  if (wal_ == nullptr || options_.durability.checkpoint_interval <= 0) {
    return Status::Ok();
  }
  {
    std::lock_guard<std::mutex> lock(durability_mutex_);
    if (store_->epoch() - last_checkpoint_epoch_ <
        options_.durability.checkpoint_interval) {
      return Status::Ok();
    }
  }
  // Two threads may both decide to checkpoint here; WriteCheckpointNow
  // serializes them and the loser just captures slightly newer state.
  return WriteCheckpointNow(/*allow_delta=*/true);
}

Status FairIndexService::WriteCheckpointNow(bool allow_delta) {
  const auto checkpoint_start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> durability_lock(durability_mutex_);
  const long long generation = wal_->generation();
  // The full_snapshot_interval cadence: every Nth checkpoint (and every
  // forced one) is a full snapshot; the rest carry only the cells dirtied
  // since the previous checkpoint file. A delta additionally needs an
  // epoch strictly past the last checkpoint's — a same-epoch delta would
  // name itself as its own predecessor — and a full base from this run's
  // generation (deltas never chain across a recovery).
  const bool write_delta =
      allow_delta && options_.durability.full_snapshot_interval > 1 &&
      has_full_base_ && generation == last_checkpoint_generation_ &&
      checkpoints_since_full_ + 1 <
          options_.durability.full_snapshot_interval &&
      store_->epoch() > last_checkpoint_epoch_;

  long long checkpoint_epoch = 0;
  if (write_delta) {
    CheckpointDelta delta;
    delta.rows = store_->rows();
    delta.cols = store_->cols();
    delta.algorithm = options_.algorithm;
    delta.wal_generation = generation;
    delta.prev_epoch = last_checkpoint_epoch_;
    delta.prev_generation = last_checkpoint_generation_;
    {
      // Same pinning argument as the full path below; the dirty capture
      // is one atomic read under the store's seal lock, so its epoch /
      // record counters / cell values are a consistent sealed state.
      std::lock_guard<std::mutex> maintain_lock(maintain_mutex_);
      ShardedDeltaStore::DirtyCells dirty =
          store_->CaptureDirtySince(last_checkpoint_epoch_);
      delta.epoch = dirty.epoch;
      delta.sealed_records = dirty.sealed_records;
      delta.cells = std::move(dirty.cells);
      delta.sums = std::move(dirty.sums);
      delta.total_resplits = total_resplits_;
      FAIRIDX_ASSIGN_OR_RETURN(delta.maintained_blob,
                               partitioner_->SaveMaintained());
      delta.regions = partitioner_->maintained()->regions;
    }
    FAIRIDX_RETURN_IF_ERROR(
        WriteDeltaCheckpoint(options_.durability.wal_dir, delta,
                             options_.durability.file_factory));
    checkpoint_epoch = delta.epoch;
    ++checkpoints_since_full_;
  } else {
    CheckpointData data;
    data.rows = store_->rows();
    data.cols = store_->cols();
    data.algorithm = options_.algorithm;
    data.wal_generation = generation;
    {
      // maintain_mutex_ pins the (sealed state, maintained partition)
      // pair: CaptureSealedState is atomic against folds, and no refine
      // can slide the partition to a newer epoch between the two
      // captures.
      std::lock_guard<std::mutex> maintain_lock(maintain_mutex_);
      ShardedDeltaStore::SealedState sealed = store_->CaptureSealedState();
      data.epoch = sealed.epoch;
      data.sealed_records = sealed.sealed_records;
      data.cell_sums = std::move(sealed.cell_sums);
      data.total_resplits = total_resplits_;
      FAIRIDX_ASSIGN_OR_RETURN(data.maintained_blob,
                               partitioner_->SaveMaintained());
      const PartitionResult* maintained = partitioner_->maintained();
      data.partition = maintained->partition;
      data.regions = maintained->regions;
    }
    FAIRIDX_RETURN_IF_ERROR(
        WriteCheckpoint(options_.durability.wal_dir, data,
                        options_.durability.file_factory));
    checkpoint_epoch = data.epoch;
    checkpoints_since_full_ = 0;
    has_full_base_ = true;
  }
  FAIRIDX_RETURN_IF_ERROR(PruneCheckpoints(
      options_.durability.wal_dir, options_.durability.keep_checkpoints));
  // Every record in a segment whose name epoch <= the checkpointed epoch
  // is folded into the checkpointed cell sums (a delta's chain included),
  // so those segments are dead weight.
  FAIRIDX_RETURN_IF_ERROR(
      PruneWalSegments(options_.durability.wal_dir, checkpoint_epoch));
  last_checkpoint_epoch_ = checkpoint_epoch;
  last_checkpoint_generation_ = generation;
  FetchMax(&max_checkpoint_stall_us_, MicrosSince(checkpoint_start));
  return Status::Ok();
}

}  // namespace fairidx
