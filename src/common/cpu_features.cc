#include "common/cpu_features.h"

#include <cstdlib>
#include <cstring>

namespace fairidx {
namespace {

bool ReadForceScalarEnv() {
  const char* value = std::getenv("FAIRIDX_FORCE_SCALAR");
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  return tier == SimdTier::kAvx2 ? "avx2" : "scalar";
}

bool ForceScalarFromEnv() {
  static const bool force = ReadForceScalarEnv();
  return force;
}

SimdTier DetectedSimdTier() {
  static const SimdTier tier = [] {
    if (ForceScalarFromEnv()) return SimdTier::kScalar;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
#endif
    return SimdTier::kScalar;
  }();
  return tier;
}

bool CrcHardwareAvailable() {
  static const bool available = [] {
    if (ForceScalarFromEnv()) return false;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("sse4.2") != 0;
#else
    return false;
#endif
  }();
  return available;
}

}  // namespace fairidx
