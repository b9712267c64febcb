// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Runtime-dispatched AVX2 kernels for the five-double aggregate entries
// behind GridAggregates ({count, labels, scores, residuals, cell_abs};
// see geo/grid_aggregates.h). Two hot loops bottom out here:
//
//   * SplitSweep::Children — Algorithm 2's per-offset corner expression,
//   * IntegrateSlots       — the O(UV) prefix integration every build,
//                            fold and seal pays.
//
// Query / QueryMany's 4-corner combine stays scalar: a vector kernel tied
// the scalar expression there. Dispatch is AVX2 or scalar; an SSE2 tier
// measured within noise of scalar and was dropped.
//
// Dispatch follows the Crc32c pattern in common/binary_io.cc: one
// detection through common/cpu_features.h (FAIRIDX_FORCE_SCALAR pins the
// scalar fallback), after which call sites branch on a cached table
// pointer. The hard rule, pinned by the differential suites
// (tests/aggregate_kernels_test.cc, split_scan_equivalence_test,
// query_many_test, delta/sharded seal differentials): every kernel
// preserves the scalar loop's exact per-field operation sequence —
// elementwise add/sub only, no reassociation, and no FMA (the AVX2
// kernels are compiled with target("avx2"), never "fma"; contraction
// would fuse a rounding step and change results). The four plain-sum
// fields ride the vector lanes; cell_abs is the scalar fifth lane
// everywhere, since its |labels - scores| derivation is per-field
// scalar to begin with; its final integration add goes through
// AddCellAbs, which pins the operand order (and so a NaN result's sign)
// on every path.

#ifndef FAIRIDX_GEO_AGGREGATE_KERNELS_H_
#define FAIRIDX_GEO_AGGREGATE_KERNELS_H_

#include <cstddef>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fairidx {
namespace internal {

/// Doubles per aggregate entry (PrefixEntry / RegionAggregate; layout
/// static_assert'd against both structs in geo/grid_aggregates.h).
inline constexpr size_t kAggregateEntryDoubles = 5;

/// One table of kernel entry points. Every pointer parameter references
/// 5-double entries laid out {count, labels, scores, residuals,
/// cell_abs}.
struct AggregateKernels {
  /// Integrates `n` consecutive prefix-row entries, reading each cell's
  /// raw per-cell sums from the matching entry of the `raw` row. Per
  /// entry e with raw sums r:
  ///   e.cell_abs = AddCellAbs(|r.labels - r.scores|, fold.cell_abs)
  ///   e.f        = r.f + ((west.f + north.f) - northwest.f)  (fields 0-3)
  /// where fold.cell_abs is (west + north) - northwest on that field, west
  /// is the entry immediately before e (the caller guarantees entries[-1]
  /// is the already-integrated west neighbour — the zero border column for
  /// the first cell of a row) and north / northwest sit in the
  /// already-integrated `north` row at the same offsets. Every entry is
  /// written exactly once and never read before that write, so `entries`
  /// may be uninitialised storage. `raw` may alias `entries`
  /// (GridAggregates::Build integrates its accumulated slots in place); a
  /// separate `raw` row is how FromCellSums integrates straight out of the
  /// dense per-cell sums without copying them into the prefix array.
  void (*integrate_cells)(double* entries, const double* raw,
                          const double* north, size_t n);
  /// SplitSweep::Children's all-five-fields corner expressions at one
  /// offset, one entry point per split axis so the sweep resolves the
  /// axis once at construction instead of per offset. `a`/`b` are the
  /// two moving boundary-line entries, `corners` the four hoisted parent
  /// corners c00,c01,c10,c11 (contiguous, 20 doubles). Axis 0:
  ///   left = ((a - c01) - b) + c00;  right = ((c11 - a) - c10) + b
  /// Axis 1:
  ///   left = ((a - b) - c10) + c00;  right = ((c11 - c01) - a) + b
  /// — the scalar macros' exact association order per field. Partial
  /// field masks always take the scalar macro path.
  void (*children_axis0)(const double* a, const double* b,
                         const double* corners, double* left, double* right);
  void (*children_axis1)(const double* a, const double* b,
                         const double* corners, double* left, double* right);
};

/// cell_abs + fold with cell_abs pinned as the FIRST operand. When both
/// are NaN, x86's addsd returns its first operand's NaN, so with a plain
/// `+` the sign of a NaN result would depend on which operand the
/// compiler puts first — which differs between optimisation levels. The
/// scalar twin and the AVX2 kernel both add through this, so they agree
/// bit for bit in every build; on non-x86 hosts it is the plain sum.
inline double AddCellAbs(double cell_abs, double fold) {
#if defined(__SSE2__)
  return _mm_cvtsd_f64(_mm_add_sd(_mm_set_sd(cell_abs), _mm_set_sd(fold)));
#else
  return cell_abs + fold;
#endif
}

/// The dispatched table: nullptr means "use the scalar loops" (non-x86
/// hosts, or FAIRIDX_FORCE_SCALAR). Resolved once, at first call, from
/// DetectedSimdTier(); afterwards a relaxed atomic load.
const AggregateKernels* ActiveAggregateKernels();

/// Test/bench hook: true swaps the active table to nullptr (scalar
/// fallback) process-wide, false restores detection. The env pin is read
/// only once, so this hook is how differential suites and the
/// scalar-baseline benches compare both dispatch modes in ONE process.
/// Not for concurrent use with in-flight queries (tests flip it between
/// operations).
void ForceScalarAggregateKernelsForTest(bool force);

}  // namespace internal
}  // namespace fairidx

#endif  // FAIRIDX_GEO_AGGREGATE_KERNELS_H_
