#include "src/solver/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace subsonic {

namespace {

SimdLevel clamp_to_available(SimdLevel want) {
  if (want == SimdLevel::kAvx2 &&
      (!simd_avx2_built() || !simd_avx2_supported()))
    return SimdLevel::kScalar;
  return want;
}

// kScalar = 0, kAvx2 = 1; -1 = not yet resolved.
std::atomic<int> g_level{-1};

}  // namespace

SimdLevel simd_from_env() {
  const char* env = std::getenv("SUBSONIC_SIMD");
  const std::string name = env ? env : "";
  if (name == "scalar") return SimdLevel::kScalar;
  if (name.empty() || name == "auto" || name == "avx2")
    return clamp_to_available(SimdLevel::kAvx2);
  throw std::invalid_argument("SUBSONIC_SIMD=\"" + name +
                              "\" (expected \"auto\", \"scalar\" or "
                              "\"avx2\")");
}

SimdLevel active_simd() {
  int v = g_level.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(simd_from_env());
    g_level.store(v, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(v);
}

void set_simd(SimdLevel level) {
  g_level.store(static_cast<int>(clamp_to_available(level)),
                std::memory_order_relaxed);
}

void reset_simd() { g_level.store(-1, std::memory_order_relaxed); }

bool simd_avx2_built() {
#if defined(SUBSONIC_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool simd_avx2_supported() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const char* simd_name(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

}  // namespace subsonic
