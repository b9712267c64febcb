// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Runtime CPU-feature detection shared by every dispatched kernel in the
// tree: the CRC32C WAL checksum (common/binary_io.cc) and the aggregate
// children/integration kernels (geo/aggregate_kernels.h). Each query
// detects once, at first call, and caches the answer — the same
// static-bool shape the Crc32c dispatch has always used, now fed from
// one place so no kernel grows a private cpuid probe.
//
// FAIRIDX_FORCE_SCALAR (non-empty and not "0") pins every dispatch to
// its portable fallback. The variable is read ONCE, at the first
// detection query, matching the one-shot dispatch inits it feeds:
// flipping it after a kernel has dispatched would split the process
// between tiers mid-run. CI's forced-scalar lane exports it for the
// whole job so the fallback paths stay green on AVX2 runners.

#ifndef FAIRIDX_COMMON_CPU_FEATURES_H_
#define FAIRIDX_COMMON_CPU_FEATURES_H_

namespace fairidx {

/// The vector tiers the aggregate kernels dispatch between. FMA is
/// deliberately NOT a tier: contraction reassociates the rounding of
/// multiply-add chains, and every kernel must stay bit-identical to its
/// scalar loop.
enum class SimdTier {
  kScalar = 0,  ///< Portable C++ loops; also the FAIRIDX_FORCE_SCALAR pin.
  kAvx2 = 1,    ///< 4-double lanes.
};

/// Lower-case tier name ("scalar" / "avx2") for CLI output and
/// the bench JSON context field.
const char* SimdTierName(SimdTier tier);

/// True when FAIRIDX_FORCE_SCALAR was set (non-empty, not "0") at the
/// first detection query. Later environment changes have no effect.
bool ForceScalarFromEnv();

/// The vector tier this CPU supports, with the force-scalar override
/// applied. Non-x86 hosts and unknown compilers report kScalar.
SimdTier DetectedSimdTier();

/// True when Crc32c may use the SSE4.2 crc32 instruction: hardware
/// support AND not force-scalar. The software fallback produces
/// identical checksums either way.
bool CrcHardwareAvailable();

}  // namespace fairidx

#endif  // FAIRIDX_COMMON_CPU_FEATURES_H_
