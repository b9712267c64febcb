#include "geo/grid_aggregates.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"
#include "geo/aggregate_kernels.h"

namespace fairidx {
namespace {

using PrefixEntry = GridAggregates::PrefixEntry;

// The scalar twin of AggregateKernels::integrate_cells: one pass over `n`
// consecutive entries of a prefix row, reading each cell's raw sums from
// `raw` (which may alias `entries`). `entries[-1]` is the
// already-integrated west neighbour (the zero border column for the first
// cell of a row); `north` points at the already-integrated previous row at
// the same offsets. Per entry the operation sequence is fixed — cell_abs
// from the raw label/score sums first, then the three-neighbour fold field
// by field — which is what makes scalar, SIMD, serial and wavefront
// execution bit-identical.
void IntegrateCellsScalar(PrefixEntry* entries, const PrefixEntry* raw,
                          const PrefixEntry* north, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const PrefixEntry& r = raw[i];
    const PrefixEntry& west = *(entries + i - 1);
    const PrefixEntry& nn = north[i];
    const PrefixEntry& nw = *(north + i - 1);
    // Absolute values do not distribute over sums, so cell_abs needs the
    // raw label/score sums — read before e is written, for the in-place
    // (raw == entries) case.
    const double cell_abs = std::abs(r.labels - r.scores);
    PrefixEntry& e = entries[i];
    e.count = r.count + ((west.count + nn.count) - nw.count);
    e.labels = r.labels + ((west.labels + nn.labels) - nw.labels);
    e.scores = r.scores + ((west.scores + nn.scores) - nw.scores);
    e.residuals =
        r.residuals + ((west.residuals + nn.residuals) - nw.residuals);
    e.cell_abs = internal::AddCellAbs(
        cell_abs, (west.cell_abs + nn.cell_abs) - nw.cell_abs);
  }
}

// Integrates one row segment through the dispatched kernel (or the scalar
// twin when dispatch resolved to scalar). `kernels` is hoisted by the
// caller so the wavefront tasks never touch the atomic.
inline void IntegrateSegment(const internal::AggregateKernels* kernels,
                             PrefixEntry* entries, const PrefixEntry* raw,
                             const PrefixEntry* north, size_t n) {
  if (kernels != nullptr) {
    kernels->integrate_cells(reinterpret_cast<double*>(entries),
                             reinterpret_cast<const double*>(raw),
                             reinterpret_cast<const double*>(north), n);
  } else {
    IntegrateCellsScalar(entries, raw, north, n);
  }
}

// The rectangle combine: ((p11 - p01) - p10) + p00 per field, the one
// association order Query and QueryMany share bit for bit.
RegionAggregate CombineCorners(const PrefixEntry& p11, const PrefixEntry& p01,
                               const PrefixEntry& p10,
                               const PrefixEntry& p00) {
  RegionAggregate out;
  out.count = p11.count - p01.count - p10.count + p00.count;
  out.sum_labels = p11.labels - p01.labels - p10.labels + p00.labels;
  out.sum_scores = p11.scores - p01.scores - p10.scores + p00.scores;
  out.sum_residuals =
      p11.residuals - p01.residuals - p10.residuals + p00.residuals;
  out.sum_cell_abs_miscalibration =
      p11.cell_abs - p01.cell_abs - p10.cell_abs + p00.cell_abs;
  return out;
}

}  // namespace

RegionAggregate& RegionAggregate::operator+=(const RegionAggregate& other) {
  count += other.count;
  sum_labels += other.sum_labels;
  sum_scores += other.sum_scores;
  sum_residuals += other.sum_residuals;
  sum_cell_abs_miscalibration += other.sum_cell_abs_miscalibration;
  return *this;
}

GridAggregates::GridAggregates(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      prefix_(static_cast<size_t>(rows + 1) * (cols + 1)) {}

Status GridAggregates::AccumulateInto(const Grid& grid,
                                      const std::vector<int>& cell_ids,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& scores,
                                      const std::vector<double>& residuals,
                                      PrefixEntry* slots, size_t stride,
                                      int offset) {
  const size_t n = cell_ids.size();
  if (labels.size() != n || scores.size() != n) {
    return InvalidArgumentError(
        "GridAggregates: cell_ids, labels, scores sizes differ");
  }
  if (!residuals.empty() && residuals.size() != n) {
    return InvalidArgumentError("GridAggregates: residuals size mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    const int cell = cell_ids[i];
    FAIRIDX_RETURN_IF_ERROR(
        ValidateRecord(grid.num_cells(), cell, labels[i]));
    PrefixEntry& slot =
        slots[static_cast<size_t>(grid.RowOfCell(cell) + offset) * stride +
              (grid.ColOfCell(cell) + offset)];
    AccumulateRecord(&slot, labels[i], scores[i],
                     residuals.empty() ? (scores[i] - labels[i])
                                       : residuals[i]);
  }
  return Status::Ok();
}

Result<std::vector<GridAggregates::PrefixEntry>>
GridAggregates::AccumulateCellSums(const Grid& grid,
                                   const std::vector<int>& cell_ids,
                                   const std::vector<int>& labels,
                                   const std::vector<double>& scores,
                                   const std::vector<double>& residuals) {
  std::vector<PrefixEntry> cell_sums(static_cast<size_t>(grid.num_cells()));
  FAIRIDX_RETURN_IF_ERROR(
      AccumulateInto(grid, cell_ids, labels, scores, residuals,
                     cell_sums.data(), static_cast<size_t>(grid.cols()), 0));
  return cell_sums;
}

Result<GridAggregates> GridAggregates::Build(
    const Grid& grid, const std::vector<int>& cell_ids,
    const std::vector<int>& labels, const std::vector<double>& scores,
    const std::vector<double>& residuals) {
  // Accumulate straight into the (row+1, col+1) prefix slots — no
  // intermediate dense array — then integrate in place (the raw rows are
  // the prefix rows themselves). The whole array, border included, starts
  // at zero for the accumulation.
  GridAggregates agg(grid.rows(), grid.cols());
  const size_t stride = static_cast<size_t>(grid.cols()) + 1;
  std::fill(agg.prefix_.begin(), agg.prefix_.end(), PrefixEntry{});
  FAIRIDX_RETURN_IF_ERROR(AccumulateInto(grid, cell_ids, labels, scores,
                                         residuals, agg.prefix_.data(),
                                         stride, 1));
  agg.IntegrateSlots(agg.prefix_.data() + stride + 1, stride,
                     /*num_threads=*/1);
  return agg;
}

Result<GridAggregates> GridAggregates::FromCellSums(
    int rows, int cols, const std::vector<PrefixEntry>& cell_sums,
    int num_threads) {
  if (rows <= 0 || cols <= 0) {
    return InvalidArgumentError(
        "GridAggregates::FromCellSums: non-positive grid shape");
  }
  if (cell_sums.size() != static_cast<size_t>(rows) * cols) {
    return InvalidArgumentError(
        "GridAggregates::FromCellSums: cell_sums size mismatch");
  }
  // Every entry is written once: the zero border (row 0, column 0) here,
  // the interior by the integration, straight out of the dense sums.
  GridAggregates agg(rows, cols);
  const size_t stride = static_cast<size_t>(cols) + 1;
  std::fill_n(agg.prefix_.data(), stride, PrefixEntry{});
  for (size_t r = 1; r <= static_cast<size_t>(rows); ++r) {
    agg.prefix_[r * stride] = PrefixEntry{};
  }
  agg.IntegrateSlots(cell_sums.data(), static_cast<size_t>(cols),
                     num_threads);
  return agg;
}

void GridAggregates::IntegrateSlots(const PrefixEntry* raw,
                                    size_t raw_stride, int num_threads) {
  if (num_threads > 1 && rows_ > 1) {
    IntegrateWavefront(raw, raw_stride, num_threads);
    return;
  }
  const size_t stride = static_cast<size_t>(cols_) + 1;
  const internal::AggregateKernels* kernels =
      internal::ActiveAggregateKernels();
  for (int r = 1; r <= rows_; ++r) {
    PrefixEntry* row = prefix_.data() + static_cast<size_t>(r) * stride;
    IntegrateSegment(kernels, row + 1,
                     raw + static_cast<size_t>(r - 1) * raw_stride,
                     row + 1 - stride, static_cast<size_t>(cols_));
  }
}

void GridAggregates::IntegrateWavefront(const PrefixEntry* raw,
                                        size_t raw_stride,
                                        int num_threads) {
  const size_t stride = static_cast<size_t>(cols_) + 1;
  const internal::AggregateKernels* kernels =
      internal::ActiveAggregateKernels();

  // Cut every row into the same column chunks. Block (r, j) depends on
  // (r-1, j) — its north row — and (r, j-1) — its west neighbour, whose
  // last entry is this chunk's entries[-1]. That is the full dependence
  // set of the recurrence, so scheduling a block the moment its counter
  // hits zero is safe under ANY interleaving; the per-cell arithmetic
  // (and therefore the result, bit for bit) never depends on the order.
  constexpr int kMinChunkCols = 64;
  const int max_chunks = (cols_ + kMinChunkCols - 1) / kMinChunkCols;
  const int num_chunks = std::max(1, std::min(max_chunks, 2 * num_threads));
  const int chunk_cols = (cols_ + num_chunks - 1) / num_chunks;

  struct Wavefront {
    GridAggregates* agg;
    const internal::AggregateKernels* kernels;
    const PrefixEntry* raw;
    size_t raw_stride;
    size_t stride;
    int num_chunks;
    int chunk_cols;
    ThreadPool::TaskGroup* group;
    // One dependency counter per block, row-major rows x num_chunks.
    // Interior blocks start at 2, the top row and left column at 1, the
    // origin at 0 (it is spawned directly).
    std::vector<std::atomic<int>> deps;

    void Run(int r, int j) {
      const int col_begin = 1 + j * chunk_cols;
      const int col_end = std::min(col_begin + chunk_cols,
                                   agg->cols_ + 1);
      // Ceil-division chunking can leave the last chunk empty; it still
      // must flow through the dependency graph to release its successors.
      if (col_end > col_begin) {
        PrefixEntry* row =
            agg->prefix_.data() + static_cast<size_t>(r + 1) * stride;
        IntegrateSegment(kernels, row + col_begin,
                         raw + static_cast<size_t>(r) * raw_stride +
                             (col_begin - 1),
                         row + col_begin - stride,
                         static_cast<size_t>(col_end - col_begin));
      }
      // Release the south and east successors. acq_rel pairs the counter
      // handoff with the data writes above (the pool's queue mutex also
      // orders them, but the counter must not be weaker than the data).
      if (r + 1 < agg->rows_) Release((r + 1) * num_chunks + j, r + 1, j);
      if (j + 1 < num_chunks) Release(r * num_chunks + j + 1, r, j + 1);
    }

    void Release(int block, int r, int j) {
      if (deps[block].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        group->Spawn([this, r, j] { Run(r, j); });
      }
    }
  };

  Wavefront wave;
  wave.agg = this;
  wave.kernels = kernels;
  wave.raw = raw;
  wave.raw_stride = raw_stride;
  wave.stride = stride;
  wave.num_chunks = num_chunks;
  wave.chunk_cols = chunk_cols;
  wave.deps = std::vector<std::atomic<int>>(
      static_cast<size_t>(rows_) * num_chunks);
  for (int r = 0; r < rows_; ++r) {
    for (int j = 0; j < num_chunks; ++j) {
      wave.deps[static_cast<size_t>(r) * num_chunks + j].store(
          (r > 0 ? 1 : 0) + (j > 0 ? 1 : 0), std::memory_order_relaxed);
    }
  }

  ThreadPool::TaskGroup group(&ThreadPool::Shared());
  wave.group = &group;
  group.Spawn([&wave] { wave.Run(0, 0); });
  group.Wait();
}

RegionAggregate GridAggregates::Query(const CellRect& rect) const {
  if (rect.empty()) return RegionAggregate{};
  return CombineCorners(EntryAt(rect.row_end, rect.col_end),
                        EntryAt(rect.row_begin, rect.col_end),
                        EntryAt(rect.row_end, rect.col_begin),
                        EntryAt(rect.row_begin, rect.col_begin));
}

void GridAggregates::QueryMany(Span<CellRect> rects,
                               RegionAggregate* out) const {
  // Two passes over blocks of rects: the first resolves all prefix-corner
  // addresses back to back (the scattered loads whose cache misses
  // dominate; issuing them together lets the core overlap them), the
  // second combines each rect's corners with arithmetic identical to
  // Query(), so every result matches the one-at-a-time path bit for bit.
  constexpr size_t kBlock = 16;
  const PrefixEntry* corners[4 * kBlock];
  const size_t n = rects.size();
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t block = std::min(kBlock, n - base);
    for (size_t i = 0; i < block; ++i) {
      const CellRect& rect = rects[base + i];
      if (rect.empty()) {
        // Point all four corners at the same entry: the corner expression
        // then evaluates to exactly +0.0 per field, matching the
        // default-constructed RegionAggregate Query() returns — and rects
        // with out-of-grid "empty" coordinates never touch memory beyond
        // prefix_[0].
        corners[4 * i + 0] = corners[4 * i + 1] = corners[4 * i + 2] =
            corners[4 * i + 3] = prefix_.data();
        continue;
      }
      corners[4 * i + 0] = &EntryAt(rect.row_end, rect.col_end);
      corners[4 * i + 1] = &EntryAt(rect.row_begin, rect.col_end);
      corners[4 * i + 2] = &EntryAt(rect.row_end, rect.col_begin);
      corners[4 * i + 3] = &EntryAt(rect.row_begin, rect.col_begin);
#if defined(__GNUC__) || defined(__clang__)
      // Start the block's scattered corner loads now so they overlap the
      // address computation of the remaining rects and the combine pass.
      __builtin_prefetch(corners[4 * i + 0]);
      __builtin_prefetch(corners[4 * i + 1]);
      __builtin_prefetch(corners[4 * i + 2]);
      __builtin_prefetch(corners[4 * i + 3]);
#endif
    }
    for (size_t i = 0; i < block; ++i) {
      out[base + i] = CombineCorners(*corners[4 * i + 0], *corners[4 * i + 1],
                                     *corners[4 * i + 2], *corners[4 * i + 3]);
    }
  }
}

std::vector<RegionAggregate> GridAggregates::QueryMany(
    Span<CellRect> rects) const {
  std::vector<RegionAggregate> out(rects.size());
  QueryMany(rects, out.data());
  return out;
}

RegionAggregate GridAggregates::Cell(int row, int col) const {
  return Query(CellRect{row, row + 1, col, col + 1});
}

RegionAggregate GridAggregates::Total() const {
  return Query(CellRect{0, rows_, 0, cols_});
}

void GridAggregates::QueryChildren(const CellRect& parent, int axis,
                                   int offset, unsigned fields,
                                   RegionAggregate* left,
                                   RegionAggregate* right) const {
  SplitSweep(*this, parent, axis).Children(offset, fields, left, right);
}

}  // namespace fairidx
