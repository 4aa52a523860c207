// Runtime SIMD dispatch for the span kernels that have an AVX2
// transcription: the LB collide-stream sweep (lbm_kernels.hpp) and the
// fourth-order filter (filter_kernels.hpp).  The repo is built for
// generic x86-64 by default, so the AVX2 kernels live in their own
// translation unit compiled with -mavx2 (gated by CMake) and are selected
// at runtime: once per process the dispatcher probes the CPU and the
// SUBSONIC_SIMD environment variable, and every collide_stream and filter
// call picks the matching span kernel.
//
// SUBSONIC_SIMD values: "auto" (default, as is unset or empty — fastest
// level both built and supported by the CPU), "scalar", "avx2"; any other
// text is an error.  Asking for avx2 on a machine or build without it
// falls back to scalar; the override exists so CI can pin the scalar path
// on AVX2-capable runners and so the equivalence tests/bench can exercise
// both paths in one process (set_simd).
//
// Every level computes bit-for-bit identical results: the AVX2 kernels
// are element-wise transcriptions of the scalar arithmetic (same operation
// order, no FMA, no reassociation; the filter's blends add an exact +0.0
// where the scalar loop adds nothing), so the dispatch level — like the
// thread count — stays out of the physics.
#pragma once

namespace subsonic {

enum class SimdLevel { kScalar, kAvx2 };

/// The level SUBSONIC_SIMD asks for, read now: unset, empty or "auto"
/// is the best level the build and CPU both provide.  Unknown text throws
/// std::invalid_argument naming the variable and the accepted values.
SimdLevel simd_from_env();

/// Kernel level active for this process: simd_from_env(), cached after
/// the first call; set_simd replaces it.
SimdLevel active_simd();

/// Forces the dispatch level (tests and bench variants).  kAvx2 is
/// clamped to what the build/CPU supports.
void set_simd(SimdLevel level);

/// Re-reads SUBSONIC_SIMD and the CPU probe (undoes set_simd).
void reset_simd();

/// True when this binary contains the AVX2 kernels (CMake found -mavx2).
bool simd_avx2_built();

/// True when the CPU executing us reports AVX2.
bool simd_avx2_supported();

const char* simd_name(SimdLevel level);

}  // namespace subsonic
