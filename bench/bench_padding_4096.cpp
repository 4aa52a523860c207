// Appendix E: on the HP9000/700 the solver slowed by 2x or more whenever
// array rows were a near multiple of the 4096-byte page, fixed by
// lengthening the arrays by 200-300 bytes.  The modern analogue is
// set-associativity aliasing: rows that are exact multiples of the page
// stride map consecutive rows onto the same cache sets.  This benchmark
// sweeps the extra row pitch of PaddedField2D and reports the node rate,
// using google-benchmark for stable timing.
#include <benchmark/benchmark.h>

#include "src/core/subsonic.hpp"
#include "src/solver/lattice.hpp"

namespace {

using namespace subsonic;

// 512 doubles per row = exactly 4096 bytes: the pathological case from
// the paper when extra == 0.
constexpr int kSide = 510;  // + 2 ghost -> 512-double pitch

void BM_lb_step_with_pitch(benchmark::State& state) {
  const int extra = static_cast<int>(state.range(0));
  Mask2D mask(Extents2{kSide, kSide}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;

  // Build a domain whose fields carry the requested extra pitch.  The
  // serial driver does not expose pitch, so drive the phases directly.
  Domain2D d(mask, full_box(mask.extents()), p, Method::kLatticeBoltzmann,
             1);
  // Re-create the populations with the padded pitch via copies.
  // (PaddedField2D's extra_pitch only affects layout, not semantics.)
  std::vector<PaddedField2D<double>> padded;
  padded.reserve(lbm2d::kQ);
  for (int i = 0; i < lbm2d::kQ; ++i) {
    PaddedField2D<double> f(Extents2{kSide, kSide}, 1, extra);
    for (int y = -1; y <= kSide; ++y)
      for (int x = -1; x <= kSide; ++x) f(x, y) = d.f(i)(x, y);
    padded.push_back(std::move(f));
  }

  // Hot loop representative of the solver: BGK relax over the grid using
  // the padded arrays (the pattern whose rate collapsed on the HP).
  for (auto _ : state) {
    for (int y = 0; y < kSide; ++y) {
      for (int x = 0; x < kSide; ++x) {
        double rho = 0, mx = 0, my = 0;
        for (int i = 0; i < lbm2d::kQ; ++i) {
          const double fi = padded[i](x, y);
          rho += fi;
          mx += lbm2d::kCx[i] * fi;
          my += lbm2d::kCy[i] * fi;
        }
        const double ux = mx / rho;
        const double uy = my / rho;
        for (int i = 0; i < lbm2d::kQ; ++i) {
          double& fi = padded[i](x, y);
          fi += 0.8 * (lbm2d::equilibrium(i, rho, ux, uy) - fi);
        }
      }
    }
    benchmark::ClobberMemory();
  }
  state.counters["nodes_per_s"] = benchmark::Counter(
      double(kSide) * kSide * double(state.iterations()),
      benchmark::Counter::kIsRate);
}

}  // namespace

// extra = 0: rows are exactly one page (the paper's pathological case);
// extra = 32: rows lengthened by 256 bytes (the paper's fix).
BENCHMARK(BM_lb_step_with_pitch)->Arg(0)->Arg(8)->Arg(32)->Arg(64);

BENCHMARK_MAIN();
