#include "src/solver/lbm.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <vector>

#include "src/solver/lattice.hpp"
#include "src/solver/simd.hpp"

namespace subsonic::lbm {

namespace {

/// The in-place sweep of a one-thread 2D domain (compressed grid):
/// sources and destinations share one slab, with every destination row
/// written two row blocks past its source and the views re-homed
/// afterwards.  The freshly read source blocks absorb the stores while
/// still cache-resident, so the sweep's memory traffic drops from read +
/// RFO + writeback on two slabs to read + writeback on one — the
/// difference between ~120 and ~190 MLUPS at side 192 on the reference
/// container, where non-temporal stores (the usual RFO remedy) measure
/// slower than regular stores.  Correctness needs a strict row order:
/// shifting +2 while walking rows downward (or -2 walking upward), every
/// store lands in blocks the sweep has already consumed, and no source or
/// macroscopic row is ever overwritten before its last read.  The
/// arithmetic — hence every stored value — is identical to the two-slab
/// path, so thread-count invariance still holds.  The sweep bypasses
/// for_rows, so it takes for_rows' FP mode itself.  3D has no in-place
/// sweep until its slab interleaves the populations at the outermost axis
/// (ROADMAP item 3(b)).
template <typename Sweep>
void sweep_in_place(Domain<2>& d, const Sweep& sweep) {
  constexpr int kQ = Lattice<2>::kQ;
  const FlushSubnormals flush;
  const int shift = d.population_origin() == 0 ? +2 : -2;
  const PaddedField2D<double>* S[kQ];
  PaddedField2D<double>* D[kQ];
  for (int i = 0; i < kQ; ++i) S[i] = D[i] = &d.f(i);
  const int g = d.ghost();
  const int ny = d.ny();
  const int nx = d.nx();
  const int pitch = d.f(0).pitch();
  // The sweep writes only interior destination cells (ghost-row dests go
  // to scratch, ghost-column dests are clamped out), so in the two-slab
  // scheme the ghost ring of each population plane keeps whatever the
  // boundary fills / initial equilibria put there, and later passes read
  // that ring (bounce-back off padded walls, and moments feeds the
  // macroscopic ghosts from it).  The shifted views would instead expose
  // old interior rows as the ring, so each row's ring must move with the
  // views: ghost rows whole, interior rows just their ghost-column chunks
  // (their middles are fresh sweep output).  Interleaving the carry with
  // the sweep in the same row order makes it ordering-safe *and* cheap:
  // every ring source is read before the sweep (or a later carry) reuses
  // its block — the leading ghost rows' blocks, for instance, are
  // consumed here before the first sweep rows overwrite them — every ring
  // write touches bytes the sweep never writes, and all of it lands on
  // lines inside the sweep's cache-resident window instead of a cold
  // separate pass over the slab.
  const auto carry_ring_row = [&](int y) {
    for (int i = 0; i < kQ; ++i) {
      PaddedField2D<double>& v = d.f(i);
      double* before = v.pencil(y) - g;  // views not yet re-homed
      double* now =
          before + static_cast<std::ptrdiff_t>(shift) * v.row_stride();
      if (y < 0 || y >= ny) {
        std::memcpy(now, before, sizeof(double) * pitch);
      } else {
        std::memcpy(now, before, sizeof(double) * g);
        std::memcpy(now + g + nx, before + g + nx,
                    sizeof(double) * (pitch - g - nx));
      }
    }
  };
  const auto step = [&](int t) {
    carry_ring_row(t);
    if (t >= -1 && t <= ny) sweep(S, D, shift, t, 0);
  };
  if (shift > 0) {
    for (int t = ny + g - 1; t >= -g; --t) step(t);
  } else {
    for (int t = -g; t < ny + g; ++t) step(t);
  }
  d.shift_population_origin(shift);
}

}  // namespace

template <int Dim>
void set_equilibrium(Domain<Dim>& d) {
  using L = Lattice<Dim>;
  const int g = d.ghost();
  d.for_pencils(d.interior().grown(g), [&](int y, int z) {
    const double* __restrict rr = d.rho().pencil(y, z);
    const double* ur[Dim];
    for (int a = 0; a < Dim; ++a) ur[a] = d.v(a).pencil(y, z);
    double* fr[L::kQ];
    for (int i = 0; i < L::kQ; ++i) fr[i] = d.f(i).pencil(y, z);
    for (int x = -g; x < d.nx() + g; ++x) {
      std::array<double, Dim> u;
      for (int a = 0; a < Dim; ++a) u[a] = ur[a][x];
      for (int i = 0; i < L::kQ; ++i) fr[i][x] = L::equilibrium(i, rr[x], u);
    }
  });
}

template <int Dim>
void set_equilibrium_both(Domain<Dim>& d) {
  // Both population buffers start from the same macroscopic fields, so
  // compute the equilibria once and pencil-copy them into the second
  // buffer (the buffers share extents, ghost width and pitch; pencil
  // copies because the planes are strided views into the interleaved
  // slab).  A domain without a second buffer sweeps in place.
  set_equilibrium(d);
  if (!d.has_f_next()) return;
  const int g = d.ghost();
  for (int i = 0; i < Lattice<Dim>::kQ; ++i) {
    const auto& from = d.f(i);
    auto& to = d.f_next(i);
    const std::size_t bytes =
        static_cast<std::size_t>(from.pitch()) * sizeof(double);
    d.for_each_pencil(g, [&](int y, int z) {
      std::memcpy(to.pencil(y, z) - g, from.pencil(y, z) - g, bytes);
    });
  }
}

template <int Dim>
void collide_stream(Domain<Dim>& d, ComputePass pass) {
  using L = Lattice<Dim>;
  using Field = typename Domain<Dim>::Field;
  constexpr int kQ = L::kQ;
  // The sweep does not split (see the header): kBand runs it whole.
  if (pass == ComputePass::kInterior) return;
  const FluidParams& p = d.params();
  const double force[3] = {p.force_x, p.force_y, p.force_z};
  const double jet[3] = {p.inlet_vx, p.inlet_vy, p.inlet_vz};
  lbm_kernels::Collide<Dim> cp;
  cp.omega = 1.0 / p.lb_tau();
  std::array<double, Dim> inlet;
  for (int a = 0; a < Dim; ++a) {
    cp.g[a] = force[a] * p.dt;
    cp.forced = cp.forced || cp.g[a] != 0.0;
    inlet[a] = jet[a];
  }
  double eq_in[kQ];  // reservoir populations are cell-independent
  for (int i = 0; i < kQ; ++i) eq_in[i] = L::equilibrium(i, p.rho0, inlet);
  const lbm_kernels::Fn<Dim> span_fn = L::span_kernel(active_simd());
  const typename Domain<Dim>::Box r = d.interior();  // destination box
  const auto rlo = r.lo(), rhi = r.hi();

  // Fused collide + stream over destination box `r`, as a push sweep: for
  // every source pencil (the box's pencils plus one on each side) the
  // kernel computes the post-collision populations once per cell and
  // writes each direction straight into its shifted destination pencil.
  // In the two-slab form the source buffer is never written, so any
  // pencil partition — hence any thread count — produces identical
  // results: destination pencil (t, u) of plane i is written only from
  // source pencil (t - cy_i, u - cz_i), so threads owning disjoint source
  // pencils write disjoint pencils of every plane.
  //
  // Collision is resolved per *source* node type (the value a neighbour
  // receives from a node is what that node emits):
  //   computed (fluid | outlet) — BGK relaxation toward equilibrium
  //   wall                      — full-way bounce-back: the opposite
  //                               incoming population leaves instead
  //   inlet                     — prescribed-velocity reservoir equilibria
  //
  // One source pencil of the sweep.  `S`/`D` name the source and
  // destination planes; `shift` moves every destination by that many
  // whole row blocks of the interleaved slab (0 for the two-slab
  // ping-pong, +/-2 for the in-place sweep).  Directions whose destination
  // pencil falls outside the box scatter into a per-thread, per-direction
  // scratch row instead; the stores are simply discarded.  That keeps
  // every source pencil on the branch-free span kernel (the boundary
  // pencils would otherwise crawl through the guarded per-cell path), and
  // one private row per direction preserves the kernel's no-alias
  // contract.  Scratch rows stay cache-hot, so the dead stores cost
  // almost nothing.
  const int stride = d.nx() + 6;  // span window plus the cx pre-shift
  const auto sweep = [&](const Field* const* S, Field* const* D, int shift,
                         int ys, int zs) {
    thread_local std::vector<double> scratch;
    if (static_cast<int>(scratch.size()) < kQ * stride)
      scratch.resize(static_cast<std::size_t>(kQ) * stride);
    lbm_kernels::Row<Dim> row;
    row.rho = d.rho().pencil(ys, zs);
    for (int a = 0; a < Dim; ++a) row.u[a] = d.v(a).pencil(ys, zs);
    bool real[kQ];  // direction's dest pencil is inside r (not scratch)
    for (int i = 0; i < kQ; ++i) {
      row.s[i] = S[i]->pencil(ys, zs);
      std::array<int, 3> t{0, ys, zs};  // the destination pencil
      real[i] = true;
      for (int a = 1; a < Dim; ++a) {
        t[a] += L::kC[a][i];
        real[i] = real[i] && t[a] >= rlo[a] && t[a] < rhi[a];
      }
      row.d[i] = real[i] ? D[i]->pencil(t[1], t[2]) +
                               static_cast<std::ptrdiff_t>(shift) *
                                   D[i]->row_stride() +
                               L::kC[0][i]
                         : scratch.data() + i * stride + 2;
    }
    // Source columns in [fa, fb) land inside r's columns for every
    // direction; the at-most-one cell on each side of a span outside
    // that goes through the guarded per-cell kernel.
    const int fa = r.x0 + 1;
    const int fb = r.x1 - 1;
    for_spans(d.computed_spans(), ys, zs, r.x0 - 1, r.x1 + 1,
              [&](int a, int b) {
                int x = a;
                for (; x < b && x < fa; ++x) L::cell(row, x, r.x0, r.x1, cp);
                const int stop = std::min(b, fb);
                if (x < stop) {
                  span_fn(row, x, stop, cp);
                  x = stop;
                }
                for (; x < b; ++x) L::cell(row, x, r.x0, r.x1, cp);
              });
    for_spans(d.wall_spans(), ys, zs, r.x0 - 1, r.x1 + 1, [&](int a, int b) {
      for (int i = 0; i < kQ; ++i) {
        if (!real[i]) continue;
        double* __restrict dst = row.d[i];
        const double* __restrict src = row.s[L::kOpposite[i]];
        const int lo = std::max(a, r.x0 - L::kC[0][i]);
        const int hi = std::min(b, r.x1 - L::kC[0][i]);
        for (int x = lo; x < hi; ++x) dst[x] = src[x];
      }
    });
    for_spans(d.inlet_spans(), ys, zs, r.x0 - 1, r.x1 + 1, [&](int a, int b) {
      for (int i = 0; i < kQ; ++i) {
        if (!real[i]) continue;
        double* __restrict dst = row.d[i];
        const int lo = std::max(a, r.x0 - L::kC[0][i]);
        const int hi = std::min(b, r.x1 - L::kC[0][i]);
        for (int x = lo; x < hi; ++x) dst[x] = eq_in[i];
      }
    });
  };

  if constexpr (Dim == 2) {
    if (!d.has_f_next()) return sweep_in_place(d, sweep);
  }
  // Two-slab ping-pong: the threads sweep their pencil blocks in no fixed
  // order, and the in-place sweep needs a strict one.
  const Field* S[kQ];
  Field* D[kQ];
  for (int i = 0; i < kQ; ++i) {
    S[i] = &d.f(i);
    D[i] = &d.f_next(i);
  }
  d.for_pencils(r.grown(1),
                [&](int ys, int zs) { sweep(S, D, 0, ys, zs); });
  d.swap_populations();
}

template <int Dim>
void moments(Domain<Dim>& d, ComputePass pass) {
  using L = Lattice<Dim>;
  constexpr int kQ = L::kQ;
  const auto over = [&](const typename Domain<Dim>::Box& r) {
    d.for_pencils(r, [&](int y, int z) {
      const double* fr[kQ];
      for (int i = 0; i < kQ; ++i) fr[i] = d.f(i).pencil(y, z);
      double* __restrict rr = d.rho().pencil(y, z);
      double* ur[Dim];
      for (int a = 0; a < Dim; ++a) ur[a] = d.v(a).pencil(y, z);
      // The span lambda captures the pencil pointers by reference, and
      // gcc drops __restrict with the capture; ivdep gives the no-alias
      // fact back (the planes and the moment fields never overlap), so
      // the loop vectorises.  Each momentum sums its populations in
      // direction order, and the zero-weight terms stay: dropping one is
      // not exact when a population is non-finite.
      for_spans(d.notwall_spans(), y, z, r.x0, r.x1, [&](int a, int b) {
        #pragma GCC ivdep
        for (int x = a; x < b; ++x) {
          double rho = 0.0, m[Dim] = {};
          #pragma GCC unroll 16
          for (int i = 0; i < kQ; ++i) {
            const double fi = fr[i][x];
            rho += fi;
            for (int c = 0; c < Dim; ++c) m[c] += L::kC[c][i] * fi;
          }
          rr[x] = rho;
          for (int c = 0; c < Dim; ++c) ur[c][x] = m[c] / rho;
        }
      });
    });
  };
  const int g = d.ghost();
  const auto padded = d.interior().grown(g);
  if (pass == ComputePass::kFull) {
    over(padded);
  } else if (pass == ComputePass::kInterior) {
    over(interior_box(padded, g));
  } else {
    for (const auto& b : band_boxes(padded, g)) over(b);
  }
}

template void set_equilibrium(Domain<2>&);
template void set_equilibrium(Domain<3>&);
template void set_equilibrium_both(Domain<2>&);
template void set_equilibrium_both(Domain<3>&);
template void collide_stream(Domain<2>&, ComputePass);
template void collide_stream(Domain<3>&, ComputePass);
template void moments(Domain<2>&, ComputePass);
template void moments(Domain<3>&, ComputePass);

}  // namespace subsonic::lbm
