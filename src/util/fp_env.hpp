// Floating-point environment of the solver kernels.  The explicit stencils
// spread a numerical precursor ahead of every acoustic front; on long runs
// its values decay through the subnormal range, and each subnormal operand
// costs the CPU a microcode assist — a few percent of such cells cut the FD
// update rate about threefold.  FlushSubnormals runs a scope with
// flush-to-zero (subnormal results become 0) and denormals-are-zero
// (subnormal operands read as 0) set, then restores the caller's mode.
// DESIGN.md section 5 ("Floating-point environment") has the numbers and
// the argument for why the bitwise-equivalence contract still holds.
#pragma once

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace subsonic {

/// MXCSR bits set by FlushSubnormals: FTZ (bit 15) | DAZ (bit 6).
inline constexpr unsigned kFlushSubnormalBits = 0x8040;

/// Scope guard: saves MXCSR, sets FTZ|DAZ, and restores the saved value on
/// scope exit (also on unwind), so the caller gets back exactly the MXCSR
/// it had — the sticky exception flags the scope raised are dropped with
/// it; nothing in the solver reads them.  MXCSR is per-thread state, so
/// every thread that runs kernel code takes its own guard.  A no-op off
/// x86-64.
class FlushSubnormals {
 public:
#if defined(__x86_64__)
  FlushSubnormals() : saved_(_mm_getcsr()) {
    _mm_setcsr(saved_ | kFlushSubnormalBits);
  }
  ~FlushSubnormals() { _mm_setcsr(saved_); }
#else
  FlushSubnormals() = default;
#endif

  FlushSubnormals(const FlushSubnormals&) = delete;
  FlushSubnormals& operator=(const FlushSubnormals&) = delete;

 private:
#if defined(__x86_64__)
  unsigned saved_;
#endif
};

}  // namespace subsonic
