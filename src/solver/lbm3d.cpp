#include "src/solver/lbm3d.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "src/solver/lbm_kernels.hpp"
#include "src/solver/pass.hpp"
#include "src/solver/simd.hpp"

namespace subsonic::lbm3d {

void set_equilibrium(Domain3D& d) {
  const int g = d.ghost();
  const PaddedField3D<double>& rho_f = d.rho();
  const PaddedField3D<double>& vx_f = d.vx();
  const PaddedField3D<double>& vy_f = d.vy();
  const PaddedField3D<double>& vz_f = d.vz();
  d.for_rows(-g, d.ny() + g, -g, d.nz() + g, [&](int y, int z) {
    const double* __restrict rr = rho_f.row_ptr(y, z);
    const double* __restrict uxr = vx_f.row_ptr(y, z);
    const double* __restrict uyr = vy_f.row_ptr(y, z);
    const double* __restrict uzr = vz_f.row_ptr(y, z);
    double* fr[kQ];
    for (int i = 0; i < kQ; ++i) fr[i] = d.f(i).row_ptr(y, z);
    for (int x = -g; x < d.nx() + g; ++x)
      for (int i = 0; i < kQ; ++i)
        fr[i][x] = equilibrium(i, rr[x], uxr[x], uyr[x], uzr[x]);
  });
}

void set_equilibrium_both(Domain3D& d) {
  // As in lbm2d: one equilibrium computation, pencil-copied into the
  // second buffer (identical extents, ghost width and pitch; pencil
  // copies because the planes are strided views into the interleaved
  // slab).
  set_equilibrium(d);
  const int g = d.ghost();
  for (int i = 0; i < kQ; ++i) {
    const std::size_t row_bytes =
        static_cast<std::size_t>(d.f(i).pitch()) * sizeof(double);
    for (int z = -g; z < d.nz() + g; ++z)
      for (int y = -g; y < d.ny() + g; ++y)
        std::memcpy(d.f_next(i).row_begin(y, z), d.f(i).row_begin(y, z),
                    row_bytes);
  }
}

void collide_stream(Domain3D& d, ComputePass pass) {
  // The sweep does not split (see lbm2d.hpp): kBand runs it whole.
  if (pass == ComputePass::kInterior) return;
  const FluidParams& p = d.params();
  const double omega = 1.0 / p.lb_tau();
  const double gx = p.force_x * p.dt;
  const double gy = p.force_y * p.dt;
  const double gz = p.force_z * p.dt;
  const bool forced = (gx != 0.0 || gy != 0.0 || gz != 0.0);
  const Box3 r{0, 0, 0, d.nx(), d.ny(), d.nz()};  // the interior

  // Fused collide + stream as a push sweep over source pencils — the 3D
  // analogue of lbm2d.cpp: for each source pencil (y, z) the span kernel
  // computes the post-collision populations once per cell and scatters
  // direction i into its plane at (x + cx_i, y + cy_i, z + cz_i).
  // Destination pencil (t, u) of plane i is written only from source
  // pencil (t - cy_i, u - cz_i), so sharding source pencils over threads
  // writes disjoint pencils of every plane and stays bitwise
  // thread-invariant.  Collision is resolved per source node type
  // (computed → BGK, wall → bounce-back, inlet → reservoir equilibria);
  // see lbm2d.cpp for the protocol.
  const PaddedField3D<double>& rho_f = d.rho();
  const PaddedField3D<double>& vx_f = d.vx();
  const PaddedField3D<double>& vy_f = d.vy();
  const PaddedField3D<double>& vz_f = d.vz();
  double eq_in[kQ];  // reservoir populations are cell-independent
  for (int i = 0; i < kQ; ++i)
    eq_in[i] = equilibrium(i, p.rho0, p.inlet_vx, p.inlet_vy, p.inlet_vz);
  const lbm_kernels::Collide3D cp{omega, gx, gy, gz, forced};
  const lbm_kernels::Fn3D span_fn = lbm_kernels::select3d(active_simd());

  // One two-slab sweep into the interior box `r`, then a swap (3D has no
  // in-place sweep).
  const PaddedField3D<double>* S[kQ];
  PaddedField3D<double>* D[kQ];
  for (int i = 0; i < kQ; ++i) {
    S[i] = &d.f(i);
    D[i] = &d.f_next(i);
  }
  // Out-of-box destination pencils redirect to per-thread scratch rows
  // (discarded stores), keeping every source pencil on the branch-free
  // span kernel; see lbm2d.cpp.
  const int stride = d.nx() + 6;
  d.for_rows(r.y0 - 1, r.y1 + 1, r.z0 - 1, r.z1 + 1, [&](int ys, int zs) {
    thread_local std::vector<double> scratch;
    if (static_cast<int>(scratch.size()) < kQ * stride)
      scratch.resize(static_cast<size_t>(kQ) * stride);
    lbm_kernels::Row3D row;
    row.rho = rho_f.row_ptr(ys, zs);
    row.ux = vx_f.row_ptr(ys, zs);
    row.uy = vy_f.row_ptr(ys, zs);
    row.uz = vz_f.row_ptr(ys, zs);
    bool real[kQ];  // direction's dest pencil is inside r (not scratch)
    for (int i = 0; i < kQ; ++i) {
      row.s[i] = S[i]->row_ptr(ys, zs);
      const int yd = ys + kCy[i];
      const int zd = zs + kCz[i];
      real[i] = yd >= r.y0 && yd < r.y1 && zd >= r.z0 && zd < r.z1;
      row.d[i] = real[i] ? D[i]->row_ptr(yd, zd) + kCx[i]
                         : scratch.data() + i * stride + 2;
    }
    const int fa = r.x0 + 1;
    const int fb = r.x1 - 1;
    d.computed_spans().for_row(ys, zs, r.x0 - 1, r.x1 + 1, [&](int a, int b) {
      int x = a;
      for (; x < b && x < fa; ++x)
        lbm_kernels::collide_scatter3d_cell(row, x, r.x0, r.x1, cp);
      const int stop = std::min(b, fb);
      if (x < stop) {
        span_fn(row, x, stop, cp);
        x = stop;
      }
      for (; x < b; ++x)
        lbm_kernels::collide_scatter3d_cell(row, x, r.x0, r.x1, cp);
    });
    d.wall_spans().for_row(ys, zs, r.x0 - 1, r.x1 + 1, [&](int a, int b) {
      for (int i = 0; i < kQ; ++i) {
        if (!real[i]) continue;
        double* __restrict dst = row.d[i];
        const double* __restrict src = row.s[kOpposite[i]];
        const int lo = std::max(a, r.x0 - kCx[i]);
        const int hi = std::min(b, r.x1 - kCx[i]);
        for (int x = lo; x < hi; ++x) dst[x] = src[x];
      }
    });
    d.inlet_spans().for_row(ys, zs, r.x0 - 1, r.x1 + 1, [&](int a, int b) {
      for (int i = 0; i < kQ; ++i) {
        if (!real[i]) continue;
        double* __restrict dst = row.d[i];
        const int lo = std::max(a, r.x0 - kCx[i]);
        const int hi = std::min(b, r.x1 - kCx[i]);
        for (int x = lo; x < hi; ++x) dst[x] = eq_in[i];
      }
    });
  });
  d.swap_populations();
}

void moments(Domain3D& d, ComputePass pass) {
  const int g = d.ghost();
  const PaddedField3D<double>* f[kQ];
  for (int i = 0; i < kQ; ++i) f[i] = &d.f(i);
  const auto over = [&](const Box3& r) {
    d.for_rows(r.y0, r.y1, r.z0, r.z1, [&](int y, int z) {
      const double* fr[kQ];
      for (int i = 0; i < kQ; ++i) fr[i] = f[i]->row_ptr(y, z);
      double* __restrict rr = d.rho().row_ptr(y, z);
      double* __restrict uxr = d.vx().row_ptr(y, z);
      double* __restrict uyr = d.vy().row_ptr(y, z);
      double* __restrict uzr = d.vz().row_ptr(y, z);
      // ivdep: see lbm2d::moments.
      d.notwall_spans().for_row(y, z, r.x0, r.x1, [&](int a, int b) {
        #pragma GCC ivdep
        for (int x = a; x < b; ++x) {
          double rho = 0.0, mx = 0.0, my = 0.0, mz = 0.0;
          for (int i = 0; i < kQ; ++i) {
            const double fi = fr[i][x];
            rho += fi;
            mx += kCx[i] * fi;
            my += kCy[i] * fi;
            mz += kCz[i] * fi;
          }
          rr[x] = rho;
          uxr[x] = mx / rho;
          uyr[x] = my / rho;
          uzr[x] = mz / rho;
        }
      });
    });
  };
  const Box3 padded{-g, -g, -g, d.nx() + g, d.ny() + g, d.nz() + g};
  if (pass == ComputePass::kFull) {
    over(padded);
  } else if (pass == ComputePass::kInterior) {
    over(interior_box3(padded, g));
  } else {
    for (const Box3& b : band_boxes3(padded, g)) over(b);
  }
}

}  // namespace subsonic::lbm3d
