#include "geo/aggregate_kernels.h"

#include <atomic>
#include <cmath>

#include "common/cpu_features.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FAIRIDX_AGGREGATE_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace fairidx {
namespace internal {

#if defined(FAIRIDX_AGGREGATE_KERNELS_X86)
namespace {

// Lane map inside an entry: 0 count, 1 labels, 2 scores, 3 residuals,
// 4 cell_abs. The vector kernels process lanes 0-3; lane 4 is evaluated
// with scalar doubles (x86-64 scalar math is SSE, so the per-lane IEEE
// semantics are identical to the vector ops).
//
// Bit-identity rule for every kernel below: the association order of the
// intrinsics matches the scalar source expression exactly — sub before
// sub before add for the corner expressions, (west + north) - northwest
// folded into the entry for the integration — and no FMA intrinsic ever
// appears (intrinsics are also never contraction candidates, unlike
// plain expressions under -ffp-contract).

constexpr size_t kE = kAggregateEntryDoubles;

// ---------------------------------------------------------------------
// AVX2 tier: one 4-double lane over the vector fields. Compiled for
// avx2 regardless of the global flags (target attribute, the Crc32c
// pattern); only called after runtime detection confirms support. The
// target string deliberately excludes "fma".
// ---------------------------------------------------------------------

// The sweep-hot children kernels are deliberately lean: one entry point
// per axis (the sweep caches the pointer at construction, so no per-call
// axis branch), all five fields unconditionally (partial masks stay on
// the scalar macros), straight loads/stores. At SSE2 width gcc
// auto-vectorizes the inlined scalar macros into equivalent packed code,
// so only the extra AVX2 width buys back more than the call costs.

__attribute__((target("avx2"))) void ChildrenAxis0Avx2(const double* a,
                                                       const double* b,
                                                       const double* corners,
                                                       double* left,
                                                       double* right) {
  const double* c00 = corners + 0 * kE;
  const double* c01 = corners + 1 * kE;
  const double* c10 = corners + 2 * kE;
  const double* c11 = corners + 3 * kE;
  const __m256d va = _mm256_loadu_pd(a);
  const __m256d vb = _mm256_loadu_pd(b);
  _mm256_storeu_pd(
      left, _mm256_add_pd(
                _mm256_sub_pd(_mm256_sub_pd(va, _mm256_loadu_pd(c01)), vb),
                _mm256_loadu_pd(c00)));
  _mm256_storeu_pd(
      right, _mm256_add_pd(
                 _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(c11), va),
                               _mm256_loadu_pd(c10)),
                 vb));
  left[4] = ((a[4] - c01[4]) - b[4]) + c00[4];
  right[4] = ((c11[4] - a[4]) - c10[4]) + b[4];
}

__attribute__((target("avx2"))) void ChildrenAxis1Avx2(const double* a,
                                                       const double* b,
                                                       const double* corners,
                                                       double* left,
                                                       double* right) {
  const double* c00 = corners + 0 * kE;
  const double* c01 = corners + 1 * kE;
  const double* c10 = corners + 2 * kE;
  const double* c11 = corners + 3 * kE;
  const __m256d va = _mm256_loadu_pd(a);
  const __m256d vb = _mm256_loadu_pd(b);
  _mm256_storeu_pd(
      left, _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(va, vb),
                                        _mm256_loadu_pd(c10)),
                          _mm256_loadu_pd(c00)));
  _mm256_storeu_pd(
      right, _mm256_add_pd(
                 _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(c11),
                                             _mm256_loadu_pd(c01)),
                               va),
                 vb));
  left[4] = ((a[4] - b[4]) - c10[4]) + c00[4];
  right[4] = ((c11[4] - c01[4]) - a[4]) + b[4];
}

__attribute__((target("avx2"))) void IntegrateCellsAvx2(
    double* entries, const double* north, size_t n) {
  double* e = entries;
  const double* nr = north;
  // The west neighbour of cell i is exactly the value stored for cell
  // i-1, so it rides in registers across iterations instead of being
  // re-loaded — same values, same operation order (bit-identical), but
  // the critical-path load (which would have to store-forward a value
  // stored one iteration ago, at a 40-byte stride that splits cache
  // lines) disappears. Only the first cell loads its west entry: the
  // already-integrated border column / previous chunk tail.
  __m256d w = _mm256_loadu_pd(e - kE);
  double w4 = e[-1];
  for (size_t i = 0; i < n; ++i, e += kE, nr += kE) {
    const double* nw = nr - kE;
    // cell_abs derives from the RAW per-cell sums, before the add below
    // overwrites lanes 1/2 with prefix values.
    const double cell_abs = std::abs(e[1] - e[2]);
    w = _mm256_add_pd(
        _mm256_loadu_pd(e),
        _mm256_sub_pd(_mm256_add_pd(w, _mm256_loadu_pd(nr)),
                      _mm256_loadu_pd(nw)));
    _mm256_storeu_pd(e, w);
    w4 = cell_abs + ((w4 + nr[4]) - nw[4]);
    e[4] = w4;
  }
}

constexpr AggregateKernels kAvx2Kernels = {IntegrateCellsAvx2,
                                           ChildrenAxis0Avx2,
                                           ChildrenAxis1Avx2};

}  // namespace
#endif  // FAIRIDX_AGGREGATE_KERNELS_X86

namespace {

const AggregateKernels* DetectKernels() {
#if defined(FAIRIDX_AGGREGATE_KERNELS_X86)
  if (DetectedSimdTier() == SimdTier::kAvx2) return &kAvx2Kernels;
#endif
  return nullptr;
}

std::atomic<const AggregateKernels*>& ActiveSlot() {
  static std::atomic<const AggregateKernels*> slot(DetectKernels());
  return slot;
}

}  // namespace

const AggregateKernels* ActiveAggregateKernels() {
  return ActiveSlot().load(std::memory_order_relaxed);
}

void ForceScalarAggregateKernelsForTest(bool force) {
  ActiveSlot().store(force ? nullptr : DetectKernels(),
                     std::memory_order_relaxed);
}

}  // namespace internal
}  // namespace fairidx
