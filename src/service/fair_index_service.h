// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// FairIndexService: the concurrent serving front-end for a fair spatial
// index over streaming data. It owns four pieces:
//
//   * a ShardedDeltaStore — the epoch-based sharded aggregate store
//     (writers append whole batches, seals fold them per shard,
//     readers query sealed snapshots);
//   * a registry-built Partitioner (any supports_refine structure: the
//     Fair KD-tree, the median KD-tree, the greedy fair quadtree, ...)
//     holding the maintained partition and its recorded split tree;
//   * the published region list readers serve from;
//   * the published PointLookupIndex snapshot — the point-lookup read
//     path (O(1) "which region is this point in, with what aggregate"),
//     an immutable partition/aggregate pair from one sealed epoch.
//
// The operations compose into the serving loop:
//
//   Ingest(batch)   any number of writer threads, concurrently
//   Query*(...)     any number of reader threads, against the last sealed
//                   epoch and the currently published partition
//   Lookup*(...)    any number of reader threads, against the published
//                   lookup snapshot. Each reader thread caches its pin of
//                   the snapshot, keyed by the publication generation, so
//                   in steady state a call takes no lock and does no
//                   shared atomic write (one acquire load); a thread takes
//                   regions_mutex_ once per publication it observes. The
//                   snapshot is immutable, so a call can never see a torn
//                   partition/aggregate pair. lookup() and regions() still
//                   lock. An idle reader thread keeps at most one stale
//                   snapshot alive in its cache slot until its next Lookup*
//                   call (or until it destroys the service it cached)
//   MaybeRefine()   a maintenance thread: seals an epoch, re-splits the
//                   subtrees whose calibration gap drifted past the bound
//                   AGAINST THAT SEALED EPOCH, and atomically publishes
//                   the new region list. Readers keep serving the previous
//                   partition (and writers keep ingesting) for the whole
//                   re-split; only the final publish swaps a pointer.
//
// Maintenance is decided by a MaintenanceScheduler
// (service/maintenance_scheduler.h): its MaintenancePolicy seals by
// pending record count or wall clock and refines on measured calibration
// drift. A caller can tick a scheduler itself, or let the service run one
// on its MaintenanceLoop thread, started via options.auto_maintain or
// StartMaintenance(). The scheduler only calls the public thread-safe
// surface, so hands-off operation is behaviorally identical to a caller
// ticking the same policy.
//
// Determinism: sealed epochs are bit-identical to GridAggregates::Build
// over the records sealed so far, in sequence order (see
// sharded_delta_store.h), and every maintenance decision keys off a
// sealed epoch, so a service driven by one thread reproduces a hand-wired
// loop of from-scratch Build + KdTreeMaintainer::Refine exactly, at any
// shard count.

#ifndef FAIRIDX_SERVICE_FAIR_INDEX_SERVICE_H_
#define FAIRIDX_SERVICE_FAIR_INDEX_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "index/partitioner.h"
#include "service/maintenance_scheduler.h"
#include "service/point_lookup.h"
#include "service/sharded_delta_store.h"
#include "service/wal.h"

namespace fairidx {

/// Durability for a serving instance (see service/wal.h and
/// service/checkpoint.h): every accepted batch is write-ahead logged,
/// sealed state is periodically checkpointed, and Recover() rebuilds a
/// service bit-identical to the uninterrupted run from the newest valid
/// checkpoint plus a WAL tail replay.
struct DurabilityOptions {
  /// Directory for WAL segments and checkpoint files. Empty disables
  /// durability entirely.
  std::string wal_dir;
  /// When WAL appends reach stable storage (none | batch | always). Every
  /// mode write()s through on Append, so a process kill loses nothing;
  /// the modes differ only in the OS/power-failure window.
  WalFsync fsync = WalFsync::kBatch;
  /// Write a checkpoint every this many sealed epochs (<= 0: checkpoint
  /// only at Create/Recover). Each checkpoint prunes fully-covered WAL
  /// segments, bounding log disk usage.
  long long checkpoint_interval = 8;
  /// Every Nth periodic checkpoint is a FULL snapshot; the others are
  /// delta checkpoints carrying only the cells dirtied since the previous
  /// checkpoint (see service/checkpoint.h) — O(changed) instead of
  /// O(grid). <= 1 makes every checkpoint full (the default; identical to
  /// the pre-delta behavior). Create/Recover always write a full
  /// snapshot, so every delta chain has an on-disk base. Recovery is
  /// bit-identical either way.
  long long full_snapshot_interval = 1;
  /// Checkpoint files kept on disk (older ones are pruned; >= 1).
  int keep_checkpoints = 2;
  /// Fault-injection seam for WAL and checkpoint file I/O; null uses
  /// OpenWritableFile.
  WritableFileFactory file_factory;
};

/// Configuration for a serving instance.
struct FairIndexServiceOptions {
  /// PartitionerRegistry name; must be a supports_refine structure
  /// ("fair_kd_tree", "median_kd_tree", "fair_quadtree").
  std::string algorithm = "fair_kd_tree";
  /// Build options for the partitioner (height, objective, threads, ...).
  PartitionerBuildOptions build;
  /// Sharding / fold-parallelism for the aggregate store.
  ShardedDeltaStoreOptions store;
  /// Default drift bound for MaybeRefine().
  KdRefineOptions refine;
  /// Start the background maintenance loop on Create (hands-off
  /// serving: the service seals and refines per `maintain`, no caller
  /// MaybeRefine needed).
  bool auto_maintain = false;
  /// Maintenance policy: what the background loop runs (auto_maintain or
  /// an explicit StartMaintenance call), and what a caller-driven
  /// scheduler built from these options ticks.
  MaintenancePolicy maintain;
  /// Write-ahead logging + checkpoints (disabled while wal_dir is empty).
  DurabilityOptions durability;
};

/// What one MaybeRefine pass did.
struct ServiceRefineResult {
  /// The epoch the maintenance pass sealed and keyed off.
  long long epoch = 0;
  /// The underlying tree-maintenance stats (subtrees_rebuilt > 0 and
  /// changed when a new partition was published).
  KdRefineStats stats;
};

/// Concurrent serving façade (see file header). Create once per stream;
/// all public methods are thread-safe.
class FairIndexService {
 public:
  /// Builds the store (epoch 0 = the warmup records) and the initial
  /// partition from that sealed epoch.
  static Result<std::unique_ptr<FairIndexService>> Create(
      const Grid& grid, const AggregateBatch& warmup,
      const FairIndexServiceOptions& options);

  /// Rebuilds a service from options.durability.wal_dir: loads the newest
  /// valid checkpoint, replays the WAL tail (batches per epoch in their
  /// original sequence order, seal/refine records re-applied through the
  /// public path) and resumes logging under a fresh WAL generation. The
  /// recovered service is bit-identical to the uninterrupted run at every
  /// sealed epoch: snapshot cell sums, published partition, epoch and
  /// record counters (unsealed trailing batches return to the pending
  /// set). A torn trailing WAL record (crash mid-append) is detected by
  /// CRC and dropped; corruption anywhere earlier is a hard DataLoss
  /// error. `grid` and `options` must match the original Create call.
  static Result<std::unique_ptr<FairIndexService>> Recover(
      const Grid& grid, const FairIndexServiceOptions& options);

  FairIndexService(const FairIndexService&) = delete;
  FairIndexService& operator=(const FairIndexService&) = delete;

  /// Stops background maintenance (if running) before teardown and drops
  /// the calling thread's cached lookup pin if it points at this service.
  ~FairIndexService();

  /// Appends one batch to the store's pending set (visible to queries
  /// after the next seal). Returns the batch's sequence number. By
  /// value: temporaries move all the way into the store.
  Result<long long> Ingest(AggregateBatch batch);

  /// Seals the current epoch (folds pending batches into a fresh
  /// snapshot). Returns the epoch number.
  Result<long long> Seal();

  /// The currently published partition's region rects. The returned
  /// vector is immutable and stays valid across later refines.
  std::shared_ptr<const std::vector<CellRect>> regions() const;

  /// Aggregates of the published partition's regions against the last
  /// sealed epoch — the region-fleet monitoring query (one QueryMany).
  std::vector<RegionAggregate> QueryRegions() const;

  /// Aggregates of caller rects against the last sealed epoch.
  std::vector<RegionAggregate> Query(Span<CellRect> rects) const;

  /// The current point-lookup snapshot (see service/point_lookup.h):
  /// the published partition's flat cell -> region map paired with that
  /// partition's per-region aggregates off ONE sealed epoch. Pin it once
  /// and answer any number of lookups from it — the snapshot stays
  /// immutable and internally consistent however many seals or refines
  /// land meanwhile. Never null after Create/Recover.
  std::shared_ptr<const PointLookupIndex> lookup() const;

  /// O(1) point lookup against the current snapshot: the region id of
  /// the point's cell plus that region's aggregate from the snapshot's
  /// sealed epoch — by construction never a torn partition/aggregate
  /// pair. Points outside the grid clamp to the border cells. Answered
  /// from the calling thread's cached pin (see the file header): no lock
  /// and no shared atomic write unless a publication landed since this
  /// thread's last call.
  PointLookupResult Lookup(const Point& p) const;
  PointLookupResult Lookup(double x, double y) const {
    return Lookup(Point{x, y});
  }

  /// Batched point lookups, all answered from ONE snapshot pin: every
  /// result in the batch comes from the same partition and sealed epoch,
  /// and the pin check is amortized over the whole batch. `out` must
  /// have room for points.size() entries.
  void LookupMany(Span<Point> points, PointLookupResult* out) const;
  std::vector<PointLookupResult> LookupMany(Span<Point> points) const;

  /// Seals an epoch and evaluates drift at every node of the maintained
  /// tree against it; drifted subtrees are re-split off that sealed
  /// snapshot and the new region list is published atomically at the end.
  /// No drift past the bound -> an exact no-op (stats.changed == false).
  /// Serialized with itself; Ingest and Query* continue concurrently.
  Result<ServiceRefineResult> MaybeRefine(const KdRefineOptions& options);
  Result<ServiceRefineResult> MaybeRefine() {
    return MaybeRefine(options_.refine);
  }

  /// The aggregate store (epoch / record counters, direct snapshots).
  const ShardedDeltaStore& store() const { return *store_; }

  /// Subtree re-splits published over the service's lifetime.
  long long total_resplits() const;

  /// Starts service-owned background maintenance: a MaintenanceLoop
  /// over a fresh scheduler's TickNow() under `policy` (validated by
  /// ValidateMaintenancePolicy). Fails when maintenance is already
  /// running.
  Status StartMaintenance(const MaintenancePolicy& policy);

  /// Stops and joins the background maintenance loop. Idempotent.
  void StopMaintenance();

  bool maintenance_running() const;

  /// Counters of the current (or last stopped) scheduler; zeros when
  /// maintenance never started.
  MaintenanceStats maintenance_stats() const;

  /// Writes a checkpoint of the current sealed state now (durability must
  /// be enabled), pruning old checkpoints and fully-covered WAL segments.
  Status Checkpoint();

  /// Applies epoch retention to the store (keep the newest `keep_last`
  /// sealed snapshots plus reader-pinned ones); returns entries dropped.
  /// The background scheduler calls this when its policy sets
  /// retain_epochs.
  int ApplyRetention(int keep_last);

  /// Durability observability (null / 0 when durability is disabled).
  const WalWriter* wal() const { return wal_.get(); }
  long long last_checkpoint_epoch() const;

  /// Worst single publication swap so far: max wall-clock micros spent
  /// inside PublishMaintainedLocked (snapshot build + pointer swap) over
  /// the service's lifetime — what a reader-visible publish stall costs.
  long long max_publish_stall_us() const {
    return max_publish_stall_us_.load(std::memory_order_relaxed);
  }
  /// Worst single checkpoint so far: max wall-clock micros spent writing
  /// one (full or delta) checkpoint, including pruning.
  long long max_checkpoint_stall_us() const {
    return max_checkpoint_stall_us_.load(std::memory_order_relaxed);
  }

  /// Lifetime partition publications that went out via an O(changed area)
  /// cell-map patch (in-place or splice) vs. a full O(grid) rebuild —
  /// the service-level view of the maintainers' patched paths. Counted
  /// for caller-driven MaybeRefine AND scheduler passes.
  long long publications_patched() const;
  long long publications_fallback() const;

 private:
  FairIndexService(const Grid& grid, FairIndexServiceOptions options,
                   std::unique_ptr<WalWriter> wal,
                   std::unique_ptr<ShardedDeltaStore> store,
                   std::unique_ptr<Partitioner> partitioner);

  /// Builds and publishes a fresh lookup snapshot pairing the current
  /// partition with `sealed_snapshot`'s aggregates at `epoch`; when
  /// `partition_changed` it freezes a copy of the maintained partition
  /// and atomically swaps regions_ to the same rects object, otherwise
  /// it reuses the published partition/rects (aggregates-only refresh —
  /// regions() pointer identity is preserved, which the zero-drift
  /// no-republish test pins). Requires maintain_mutex_ held: it pins
  /// the maintained partition and orders competing publications so the
  /// epoch-monotonic guard inside can never roll the lookup backwards.
  Status PublishMaintainedLocked(const GridAggregates& sealed_snapshot,
                                 long long epoch, bool partition_changed);

  /// The snapshot Lookup/LookupMany answer from: the calling thread's
  /// cached pin, re-pinned under regions_mutex_ only when
  /// lookup_generation_ moved since the thread last pinned. Valid until
  /// the calling thread's next Lookup* call or service destruction.
  const PointLookupIndex& PinnedLookup() const;

  /// Checkpoint when the sealed epoch has advanced past the configured
  /// interval since the last one (no-op otherwise / without durability).
  Status MaybeCheckpoint();
  /// Unconditional checkpoint. Lock order: durability_mutex_ ->
  /// maintain_mutex_ -> (store seal lock), the same nesting MaybeRefine's
  /// maintain -> seal path uses. `allow_delta` lets the
  /// full_snapshot_interval cadence pick a delta checkpoint; false forces
  /// a full snapshot (Create/Recover, so chains always have a base).
  Status WriteCheckpointNow(bool allow_delta);

  /// Replays every WAL segment with epoch > `through_epoch` through the
  /// public Ingest/Seal/MaybeRefine path (re-logging into the new
  /// generation). Within each epoch, batches are re-ingested in their
  /// original sequence order, so the fold order — and the sealed sums —
  /// are bit-identical to the uninterrupted run.
  Status ReplayWalTail(const std::vector<WalSegmentInfo>& segments,
                       long long through_epoch);

  /// The base grid (copied in; Grid is a small value type). Lookup
  /// snapshots carry their own copy, so readers never touch this one.
  Grid grid_;
  FairIndexServiceOptions options_;
  /// Write-ahead log (null when durability is disabled). Declared before
  /// store_: the store holds a raw pointer and must be torn down first.
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<ShardedDeltaStore> store_;

  /// Serializes checkpoint writes and guards the checkpoint-chain
  /// bookkeeping below.
  mutable std::mutex durability_mutex_;
  long long last_checkpoint_epoch_ = 0;
  /// (epoch, generation) of the newest checkpoint file — the prev link
  /// the next delta names.
  long long last_checkpoint_generation_ = 0;
  /// Deltas written since the last full snapshot (drives the
  /// full_snapshot_interval cadence).
  long long checkpoints_since_full_ = 0;
  /// A full snapshot exists from THIS run's WAL generation (deltas may
  /// only chain within a run; Create/Recover both start with a full).
  bool has_full_base_ = false;

  /// Serializes maintenance (the partitioner's mutable tree state).
  mutable std::mutex maintain_mutex_;
  std::unique_ptr<Partitioner> partitioner_;
  long long total_resplits_ = 0;  // Guarded by maintain_mutex_.
  /// Partition-changing publications by publish path (see the public
  /// accessors). Guarded by maintain_mutex_.
  long long publications_patched_ = 0;
  long long publications_fallback_ = 0;

  /// Lifetime maxima for the publish / checkpoint stall metrics
  /// (fetch-max via CAS; relaxed — observability only).
  std::atomic<long long> max_publish_stall_us_{0};
  std::atomic<long long> max_checkpoint_stall_us_{0};

  /// Publication point readers load; swapped only at the end of a refine.
  mutable std::mutex regions_mutex_;
  std::shared_ptr<const std::vector<CellRect>> regions_;
  /// The point-lookup snapshot (also guarded by regions_mutex_; swapped
  /// together with regions_ on partition changes so lookup()->regions()
  /// and regions() are the SAME object, and refreshed aggregates-only on
  /// plain seals). Epoch-monotonic: only PublishMaintainedLocked swaps it.
  std::shared_ptr<const PointLookupIndex> lookup_;
  /// lookup_'s publication generation, drawn from a process-wide counter
  /// so no two snapshots of any two services share one: a service created
  /// at a destroyed one's address can never match a stale thread pin.
  /// Stored with release after each swap, under regions_mutex_; readers
  /// compare it against their cached pin with one acquire load. It sits
  /// on its own cache line (hence the alignas here and on the next
  /// member): readers load it on every call, so no written state may
  /// share the line.
  alignas(64) std::atomic<uint64_t> lookup_generation_{0};

  /// Background maintenance (service-owned; optional): the loop ticks
  /// scheduler_, which only calls public methods, so both layer strictly
  /// above the other state. scheduler_mutex_ guards the scheduler_
  /// pointer; it is replaced only while the loop is stopped.
  alignas(64) mutable std::mutex scheduler_mutex_;
  std::unique_ptr<MaintenanceScheduler> scheduler_;
  MaintenanceLoop loop_;
};

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_FAIR_INDEX_SERVICE_H_
