// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The benchmark's workloads and the layer replay they share.

#ifndef FAIRIDX_PERFBENCH_WORKLOADS_H_
#define FAIRIDX_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <string>
#include <vector>

#include "common.h"
#include "geo/grid.h"
#include "geo/rect.h"
#include "service/fair_index_service.h"
#include "service/point_lookup.h"
#include "service/sharded_delta_store.h"

namespace perfbench {

/// Points per LookupMany call, and the Zipf exponent of their cells.
constexpr int kLookupBatch = 64;
constexpr double kZipfExponent = 0.99;
/// Sealed epochs every workload keeps (older unpinned ones are retired).
constexpr int kRetainEpochs = 4;
/// Drift bound of every maintenance pass.
constexpr double kDriftBound = 0.02;

/// stream_refine and durable_stream.
int RunStreamWorkload(const RunArgs& args);
/// serve_mixed.
int RunServeWorkload(const RunArgs& args);

/// One closed-loop reader's measurements (see RunReader).
struct ReaderResult {
  LatencyHistogram latency;
  double points = 0.0;
  double window_s = 0.0;
  long long rechecked = 0;
  long long mismatched = 0;
  Trace trace{false};
};

/// A closed-loop reader: one LookupMany call on the next kLookupBatch of
/// `points` after another, until `stop` is set or `max_calls` calls are
/// made. Every 256th call is untimed and re-checked against the snapshot
/// pinned around it; a traced reader (result->trace enabled) records the
/// pin and the probe of every 16th call as two spans.
void RunReader(const fairidx::FairIndexService& service,
               const std::vector<fairidx::Point>& points,
               const std::atomic<bool>& stop, long long max_calls,
               ReaderResult* result);

/// Service options every workload shares: the fair KD-tree of `height`
/// over a 2-shard store folding on the sealing thread.
fairidx::FairIndexServiceOptions BaseServiceOptions(int height);

/// Bitwise equality of query answers and of sealed per-cell sums.
bool SameAggregates(const std::vector<fairidx::RegionAggregate>& a,
                    const std::vector<fairidx::RegionAggregate>& b);
bool SameSums(const std::vector<fairidx::GridAggregates::PrefixEntry>& a,
              const std::vector<fairidx::GridAggregates::PrefixEntry>& b);
bool SameAnswer(const fairidx::PointLookupResult& a,
                const fairidx::PointLookupResult& b);

/// One layer replay: the batches a service run ingested, cut every
/// `cut_every` batches (and after the last) into a seal, a drift-bounded
/// Refine and a lookup publication, as MaybeRefine does.
struct ReplaySpec {
  const fairidx::Grid* grid = nullptr;
  const fairidx::AggregateBatch* warmup = nullptr;
  const std::vector<fairidx::AggregateBatch>* batches = nullptr;
  int cut_every = 1;
  /// The service's options; a durability.wal_dir names the replay's own
  /// scratch directory for WAL and checkpoint files.
  fairidx::FairIndexServiceOptions options;
};

/// What the replay must reproduce: the service's final sealed state, and
/// its final partition when the replay used the service's own cuts
/// (null when the cuts were the scheduler's, which are not recorded).
struct ReplayReference {
  fairidx::ShardedDeltaStore::SealedState state;
  const std::vector<fairidx::CellRect>* regions = nullptr;
};

/// Runs the replay with one span per call into the store, the prefix
/// integration, the partitioner, the lookup snapshot, and (when
/// spec.options has a WAL directory) the WAL writer and the checkpoint
/// files; sets the store/geo/index/lookup/wal/checkpoint per-layer
/// metrics and checks the replay against `reference`.
void RunLayerReplay(const ReplaySpec& spec, const ReplayReference& reference,
                    Report* report);

}  // namespace perfbench

#endif  // FAIRIDX_PERFBENCH_WORKLOADS_H_
