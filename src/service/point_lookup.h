// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// PointLookupIndex: the read front-end's immutable lookup snapshot — the
// query a million users actually issue is "which region am I in, and what
// are its fairness stats right now?", and this answers it in O(1) per
// point with no locks on the hot path.
//
// One snapshot pins FOUR things from the same publication instant:
//
//   * a flat row-major uint32_t cell -> region view (a zero-copy Span
//     into the published Partition's cell map — see
//     Partition::CellRegionIds; construction never re-runs the
//     FromRects cell-assignment loop);
//   * the Partition itself (shared ownership keeps the viewed storage
//     alive for as long as any reader holds the snapshot);
//   * the region rects readers may want to display;
//   * every region's RegionAggregate, computed against ONE sealed epoch
//     of the aggregate store, plus that epoch's number.
//
// Because the partition and the aggregates enter together at
// construction and the object is immutable afterwards, a reader holding
// a snapshot can never observe a torn partition/aggregate pair — the
// region id returned for a point and the aggregate returned for that id
// are from the same sealed epoch by construction. FairIndexService
// publishes fresh snapshots behind the same pointer-identity mechanism
// as the region list (grab the shared_ptr once, answer everything from
// it). FairIndexService::Lookup/LookupMany keep that pin per reader
// thread, checked against the service's publication generation: in
// steady state a call takes no lock and does no shared atomic write, and
// a thread takes the service's regions_mutex_ once per publication it
// observes. An idle reader thread keeps at most one stale snapshot alive
// in its cache slot until its next call. FairIndexService::lookup() and
// regions() still lock on every call. No reader ever waits on a seal or
// refine in progress.

#ifndef FAIRIDX_SERVICE_POINT_LOOKUP_H_
#define FAIRIDX_SERVICE_POINT_LOOKUP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geo/grid.h"
#include "geo/grid_aggregates.h"
#include "geo/point.h"
#include "index/partition.h"

namespace fairidx {

/// One answered point lookup: the region id and that region's aggregate
/// from the snapshot's sealed epoch.
struct PointLookupResult {
  uint32_t region = 0;
  RegionAggregate aggregate;
};

/// Immutable point-to-region lookup snapshot (see file header). Built by
/// FairIndexService at every publication point; all methods are const and
/// safe to call from any number of threads concurrently.
class PointLookupIndex {
 public:
  /// Builds a snapshot over an already-built partition. `partition` must
  /// cover `grid` exactly; `regions` are its region rects (indexed by
  /// region id, may be empty for non-rectangular partitioners) and
  /// `aggregates` its per-region aggregates off sealed epoch `epoch`
  /// (one entry per region). The cell map is VIEWED, never copied — the
  /// snapshot shares ownership of `partition` to keep it alive.
  static Result<PointLookupIndex> Build(
      const Grid& grid, std::shared_ptr<const Partition> partition,
      std::shared_ptr<const std::vector<CellRect>> regions,
      std::vector<RegionAggregate> aggregates, long long epoch);

  /// Region id of the point's enclosing cell. O(1): one clamped
  /// coordinate-to-cell map plus one flat-array load. Points outside the
  /// grid extent clamp to the border cells, exactly like Grid::CellIdOf.
  uint32_t RegionOfPoint(const Point& p) const {
    return cell_to_region_[static_cast<size_t>(grid_.CellIdOf(p))];
  }

  /// Region id + that region's aggregate from this snapshot's epoch.
  PointLookupResult Lookup(const Point& p) const {
    const uint32_t region = RegionOfPoint(p);
    return PointLookupResult{region, aggregates_[region]};
  }

  /// Batched Lookup: fills out[i] with Lookup(points[i]), bit for bit.
  /// One call amortises the snapshot pin and keeps the flat cell-map
  /// loads back to back; `out` must have room for points.size() entries.
  void LookupMany(Span<Point> points, PointLookupResult* out) const;

  /// Convenience overload returning a fresh vector.
  std::vector<PointLookupResult> LookupMany(Span<Point> points) const;

  /// The sealed epoch the aggregates were computed against.
  long long epoch() const { return epoch_; }

  int num_regions() const { return static_cast<int>(aggregates_.size()); }

  /// The flat row-major cell -> region view (zero-copy into the
  /// partition's cell map; pinned by the no-copy test).
  Span<const uint32_t> cell_to_region() const { return cell_to_region_; }

  /// The partition this snapshot serves (shared with the publisher).
  const std::shared_ptr<const Partition>& partition() const {
    return partition_;
  }

  /// The region rects (shared with FairIndexService::regions()).
  const std::shared_ptr<const std::vector<CellRect>>& regions() const {
    return regions_;
  }

  /// Per-region aggregates off epoch(), indexed by region id.
  const std::vector<RegionAggregate>& aggregates() const {
    return aggregates_;
  }

 private:
  PointLookupIndex(const Grid& grid,
                   std::shared_ptr<const Partition> partition,
                   std::shared_ptr<const std::vector<CellRect>> regions,
                   std::vector<RegionAggregate> aggregates, long long epoch)
      : grid_(grid),
        partition_(std::move(partition)),
        regions_(std::move(regions)),
        aggregates_(std::move(aggregates)),
        cell_to_region_(partition_->CellRegionIds()),
        epoch_(epoch) {}

  Grid grid_;
  std::shared_ptr<const Partition> partition_;
  std::shared_ptr<const std::vector<CellRect>> regions_;
  std::vector<RegionAggregate> aggregates_;
  /// View into partition_->cell_to_region() — partition_ keeps it alive.
  Span<const uint32_t> cell_to_region_;
  long long epoch_ = 0;
};

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_POINT_LOOKUP_H_
