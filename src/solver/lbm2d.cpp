#include "src/solver/lbm2d.hpp"

#include <cstddef>
#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "src/solver/lbm_kernels.hpp"
#include "src/solver/pass.hpp"
#include "src/solver/simd.hpp"

namespace subsonic::lbm2d {

void set_equilibrium(Domain2D& d) {
  const int g = d.ghost();
  const PaddedField2D<double>& rho_f = d.rho();
  const PaddedField2D<double>& vx_f = d.vx();
  const PaddedField2D<double>& vy_f = d.vy();
  d.for_rows(-g, d.ny() + g, [&](int y) {
    const double* __restrict rr = rho_f.row_ptr(y);
    const double* __restrict uxr = vx_f.row_ptr(y);
    const double* __restrict uyr = vy_f.row_ptr(y);
    double* fr[kQ];
    for (int i = 0; i < kQ; ++i) fr[i] = d.f(i).row_ptr(y);
    for (int x = -g; x < d.nx() + g; ++x)
      for (int i = 0; i < kQ; ++i)
        fr[i][x] = equilibrium(i, rr[x], uxr[x], uyr[x]);
  });
}

void set_equilibrium_both(Domain2D& d) {
  // Both population buffers start from the same macroscopic fields, so
  // compute the equilibria once and row-copy them into the second buffer
  // (the buffers share extents, ghost width and pitch; row copies because
  // the planes are strided views into the interleaved slab).  A domain
  // without a second buffer sweeps in place.
  set_equilibrium(d);
  if (!d.has_f_next()) return;
  const int g = d.ghost();
  for (int i = 0; i < kQ; ++i) {
    const std::size_t row_bytes =
        static_cast<std::size_t>(d.f(i).pitch()) * sizeof(double);
    for (int y = -g; y < d.ny() + g; ++y)
      std::memcpy(d.f_next(i).row_begin(y), d.f(i).row_begin(y), row_bytes);
  }
}

void collide_stream(Domain2D& d, ComputePass pass) {
  // The sweep does not split (see the header): kBand runs it whole.
  if (pass == ComputePass::kInterior) return;
  const FluidParams& p = d.params();
  const double omega = 1.0 / p.lb_tau();
  const double gx = p.force_x * p.dt;
  const double gy = p.force_y * p.dt;
  const bool forced = (gx != 0.0 || gy != 0.0);
  const int g = d.ghost();

  const Box2 r{0, 0, d.nx(), d.ny()};  // destination box: the interior

  // Fused collide + stream over destination box `r`, as a push sweep: for
  // every source row (the box's rows plus one on each side) the kernel
  // computes the post-collision populations once per cell and writes each
  // direction straight into its shifted destination row.  In the two-slab
  // form the source buffer is never written, so any row partition — hence
  // any thread count — produces identical results: destination row t of
  // plane i is written only from source row t - cy_i, so threads owning
  // disjoint source rows write disjoint rows of every plane.
  //
  // Collision is resolved per *source* node type (the value a neighbour
  // receives from a node is what that node emits):
  //   computed (fluid | outlet) — BGK relaxation toward equilibrium
  //   wall                      — full-way bounce-back: the opposite
  //                               incoming population leaves instead
  //   inlet                     — prescribed-velocity reservoir equilibria
  // This is the same arithmetic the split relax + memcpy-stream passes
  // performed, evaluated in one traversal instead of two.
  const PaddedField2D<double>& rho_f = d.rho();
  const PaddedField2D<double>& vx_f = d.vx();
  const PaddedField2D<double>& vy_f = d.vy();
  double eq_in[kQ];  // reservoir populations are cell-independent
  for (int i = 0; i < kQ; ++i)
    eq_in[i] = equilibrium(i, p.rho0, p.inlet_vx, p.inlet_vy);
  const lbm_kernels::Collide2D cp{omega, gx, gy, forced};
  const lbm_kernels::Fn2D span_fn = lbm_kernels::select2d(active_simd());

  // One source row of the sweep.  `S`/`D` name the source and destination
  // planes; `shift` moves every destination down by that many whole row
  // blocks of the interleaved slab (0 for the two-slab ping-pong, +/-2
  // for the in-place sweep below).  Directions whose destination row
  // falls outside the box scatter into a per-thread, per-direction
  // scratch row instead; the stores are simply discarded.  That keeps
  // every source row on the branch-free span kernel (the boundary rows
  // would otherwise crawl through the guarded per-cell path), and one
  // private row per direction preserves the kernel's no-alias contract.
  // Scratch rows stay cache-hot, so the dead stores cost almost nothing.
  const int stride = d.nx() + 6;  // span window plus the cx pre-shift
  const auto sweep_row = [&](const PaddedField2D<double>* const* S,
                             PaddedField2D<double>* const* D, int shift,
                             int ys) {
    thread_local std::vector<double> scratch;
    if (static_cast<int>(scratch.size()) < kQ * stride)
      scratch.resize(static_cast<size_t>(kQ) * stride);
    lbm_kernels::Row2D row;
    row.rho = rho_f.row_ptr(ys);
    row.ux = vx_f.row_ptr(ys);
    row.uy = vy_f.row_ptr(ys);
    bool real[kQ];  // direction's dest row is inside r (not scratch)
    for (int i = 0; i < kQ; ++i) {
      row.s[i] = S[i]->row_ptr(ys);
      const int yd = ys + kCy[i];
      real[i] = yd >= r.y0 && yd < r.y1;
      row.d[i] = real[i]
                     ? D[i]->row_ptr(yd) +
                           static_cast<std::ptrdiff_t>(shift) *
                               D[i]->row_stride() +
                           kCx[i]
                     : scratch.data() + i * stride + 2;
    }
      // Source columns in [fa, fb) land inside r's columns for every
      // direction; the at-most-one cell on each side of a span outside
      // that goes through the guarded per-cell kernel.
      const int fa = r.x0 + 1;
      const int fb = r.x1 - 1;
      d.computed_spans().for_row(ys, r.x0 - 1, r.x1 + 1, [&](int a, int b) {
        int x = a;
        for (; x < b && x < fa; ++x)
          lbm_kernels::collide_scatter2d_cell(row, x, r.x0, r.x1, cp);
        const int stop = std::min(b, fb);
        if (x < stop) {
          span_fn(row, x, stop, cp);
          x = stop;
        }
        for (; x < b; ++x)
          lbm_kernels::collide_scatter2d_cell(row, x, r.x0, r.x1, cp);
      });
      d.wall_spans().for_row(ys, r.x0 - 1, r.x1 + 1, [&](int a, int b) {
        for (int i = 0; i < kQ; ++i) {
          if (!real[i]) continue;
          double* __restrict dst = row.d[i];
          const double* __restrict src = row.s[kOpposite[i]];
          const int lo = std::max(a, r.x0 - kCx[i]);
          const int hi = std::min(b, r.x1 - kCx[i]);
          for (int x = lo; x < hi; ++x) dst[x] = src[x];
        }
      });
      d.inlet_spans().for_row(ys, r.x0 - 1, r.x1 + 1, [&](int a, int b) {
        for (int i = 0; i < kQ; ++i) {
          if (!real[i]) continue;
          double* __restrict dst = row.d[i];
          const int lo = std::max(a, r.x0 - kCx[i]);
          const int hi = std::min(b, r.x1 - kCx[i]);
          for (int x = lo; x < hi; ++x) dst[x] = eq_in[i];
        }
      });
  };

  if (d.has_f_next()) {
    // Two-slab ping-pong: the threads sweep their row blocks in no fixed
    // order, and the in-place sweep below needs a strict one.
    const PaddedField2D<double>* S[kQ];
    PaddedField2D<double>* D[kQ];
    for (int i = 0; i < kQ; ++i) {
      S[i] = &d.f(i);
      D[i] = &d.f_next(i);
    }
    d.for_rows(r.y0 - 1, r.y1 + 1, [&](int ys) { sweep_row(S, D, 0, ys); });
    d.swap_populations();
    return;
  }

  // In-place sweep (compressed grid, one thread): sources and
  // destinations share one slab, with every destination row written two
  // row blocks past its source and the views re-homed afterwards.  The
  // freshly read source blocks absorb the stores while still
  // cache-resident, so the sweep's memory traffic drops from read + RFO +
  // writeback on two slabs to read + writeback on one — the difference
  // between ~120 and ~190 MLUPS at side 192 on the reference container,
  // where non-temporal stores (the usual RFO remedy) measure slower than
  // regular stores.  Correctness needs a strict row order: shifting +2
  // while walking rows downward (or -2 walking upward), every store lands
  // in blocks the sweep has already consumed, and no source or
  // macroscopic row is ever overwritten before its last read.  The
  // arithmetic — hence every stored value — is identical to the two-slab
  // path, so thread-count invariance still holds.  The sweep bypasses
  // for_rows, so it takes for_rows' FP mode itself.
  const FlushSubnormals flush;
  const int shift = d.population_origin() == 0 ? +2 : -2;
  const PaddedField2D<double>* S[kQ];
  PaddedField2D<double>* D[kQ];
  for (int i = 0; i < kQ; ++i) S[i] = D[i] = &d.f(i);
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
      double* before = v.row_begin(y);  // views not yet re-homed
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
  if (shift > 0) {
    for (int t = ny + g - 1; t >= -g; --t) {
      carry_ring_row(t);
      if (t >= r.y0 - 1 && t <= r.y1) sweep_row(S, D, shift, t);
    }
  } else {
    for (int t = -g; t < ny + g; ++t) {
      carry_ring_row(t);
      if (t >= r.y0 - 1 && t <= r.y1) sweep_row(S, D, shift, t);
    }
  }
  d.shift_population_origin(shift);
}

void moments(Domain2D& d, ComputePass pass) {
  const int g = d.ghost();
  const PaddedField2D<double>* f[kQ];
  for (int i = 0; i < kQ; ++i) f[i] = &d.f(i);
  const auto over = [&](const Box2& r) {
    d.for_rows(r.y0, r.y1, [&](int y) {
      const double* fr[kQ];
      for (int i = 0; i < kQ; ++i) fr[i] = f[i]->row_ptr(y);
      double* __restrict rr = d.rho().row_ptr(y);
      double* __restrict uxr = d.vx().row_ptr(y);
      double* __restrict uyr = d.vy().row_ptr(y);
      // The span lambda captures the row pointers by reference, and gcc
      // drops __restrict with the capture; ivdep gives the no-alias fact
      // back (the planes and the moment fields never overlap), so the
      // loop vectorises.  The zero-weight terms stay: dropping one is
      // not exact when a population is non-finite.
      d.notwall_spans().for_row(y, r.x0, r.x1, [&](int a, int b) {
        #pragma GCC ivdep
        for (int x = a; x < b; ++x) {
          double rho = 0.0, mx = 0.0, my = 0.0;
          for (int i = 0; i < kQ; ++i) {
            const double fi = fr[i][x];
            rho += fi;
            mx += kCx[i] * fi;
            my += kCy[i] * fi;
          }
          rr[x] = rho;
          uxr[x] = mx / rho;
          uyr[x] = my / rho;
        }
      });
    });
  };
  const Box2 padded{-g, -g, d.nx() + g, d.ny() + g};
  if (pass == ComputePass::kFull) {
    over(padded);
  } else if (pass == ComputePass::kInterior) {
    over(interior_box2(padded, g));
  } else {
    for (const Box2& b : band_boxes2(padded, g)) over(b);
  }
}

}  // namespace subsonic::lbm2d
