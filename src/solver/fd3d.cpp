#include "src/solver/fd3d.hpp"

namespace subsonic::fd3d {

namespace {

// See fd2d.cpp: the helpers read old values from the `o*` fields and write
// the advanced values into the paired outputs, iterating the precomputed
// spans of computed (fluid | outlet) nodes.  Each (y, z) pencil hoists
// raw __restrict pointers (the pencil itself plus its four stencil
// neighbours per input); both span loops carry `#pragma GCC ivdep`, for
// the reason fd2d.cpp gives.  The pencils are sharded across the domain's
// worker pool — pencils write disjoint outputs, so the partition is
// bitwise neutral.

struct StencilRows {
  const double* __restrict c;   // (y, z)
  const double* __restrict ym;  // (y - 1, z)
  const double* __restrict yp;  // (y + 1, z)
  const double* __restrict zm;  // (y, z - 1)
  const double* __restrict zp;  // (y, z + 1)
};

StencilRows stencil_rows(const PaddedField3D<double>& u, int y, int z) {
  return {u.row_ptr(y, z), u.row_ptr(y - 1, z), u.row_ptr(y + 1, z),
          u.row_ptr(y, z - 1), u.row_ptr(y, z + 1)};
}

void velocity_box(Domain3D& d, const PaddedField3D<double>& ox,
                  const PaddedField3D<double>& oy,
                  const PaddedField3D<double>& oz,
                  PaddedField3D<double>& nvx, PaddedField3D<double>& nvy,
                  PaddedField3D<double>& nvz, const Box3& r) {
  const FluidParams& p = d.params();
  const double inv2dx = 1.0 / (2.0 * p.dx);
  const double invdx2 = 1.0 / (p.dx * p.dx);
  const double cs2 = p.cs * p.cs;
  const double dt = p.dt;
  const double nu = p.nu;
  const PaddedField3D<double>& rho_f = d.rho();

  d.for_rows(r.y0, r.y1, r.z0, r.z1, [&](int y, int z) {
    const StencilRows ux = stencil_rows(ox, y, z);
    const StencilRows uy = stencil_rows(oy, y, z);
    const StencilRows uz = stencil_rows(oz, y, z);
    const StencilRows rh = stencil_rows(rho_f, y, z);
    double* __restrict outx = nvx.row_ptr(y, z);
    double* __restrict outy = nvy.row_ptr(y, z);
    double* __restrict outz = nvz.row_ptr(y, z);
    d.computed_spans().for_row(y, z, r.x0, r.x1, [&](int a, int b) {
      #pragma GCC ivdep
      for (int x = a; x < b; ++x) {
        const double vux = ux.c[x];
        const double vuy = uy.c[x];
        const double vuz = uz.c[x];
        const double rho = rh.c[x];

        const double dux_dx = (ux.c[x + 1] - ux.c[x - 1]) * inv2dx;
        const double dux_dy = (ux.yp[x] - ux.ym[x]) * inv2dx;
        const double dux_dz = (ux.zp[x] - ux.zm[x]) * inv2dx;
        const double duy_dx = (uy.c[x + 1] - uy.c[x - 1]) * inv2dx;
        const double duy_dy = (uy.yp[x] - uy.ym[x]) * inv2dx;
        const double duy_dz = (uy.zp[x] - uy.zm[x]) * inv2dx;
        const double duz_dx = (uz.c[x + 1] - uz.c[x - 1]) * inv2dx;
        const double duz_dy = (uz.yp[x] - uz.ym[x]) * inv2dx;
        const double duz_dz = (uz.zp[x] - uz.zm[x]) * inv2dx;

        const double drho_dx = (rh.c[x + 1] - rh.c[x - 1]) * inv2dx;
        const double drho_dy = (rh.yp[x] - rh.ym[x]) * inv2dx;
        const double drho_dz = (rh.zp[x] - rh.zm[x]) * inv2dx;

        const double lap_ux = (ux.c[x + 1] + ux.c[x - 1] + ux.yp[x] +
                               ux.ym[x] + ux.zp[x] + ux.zm[x] -
                               6.0 * vux) *
                              invdx2;
        const double lap_uy = (uy.c[x + 1] + uy.c[x - 1] + uy.yp[x] +
                               uy.ym[x] + uy.zp[x] + uy.zm[x] -
                               6.0 * vuy) *
                              invdx2;
        const double lap_uz = (uz.c[x + 1] + uz.c[x - 1] + uz.yp[x] +
                               uz.ym[x] + uz.zp[x] + uz.zm[x] -
                               6.0 * vuz) *
                              invdx2;

        outx[x] = vux + dt * (-vux * dux_dx - vuy * dux_dy - vuz * dux_dz -
                              cs2 / rho * drho_dx + nu * lap_ux +
                              p.force_x);
        outy[x] = vuy + dt * (-vux * duy_dx - vuy * duy_dy - vuz * duy_dz -
                              cs2 / rho * drho_dy + nu * lap_uy +
                              p.force_y);
        outz[x] = vuz + dt * (-vux * duz_dx - vuy * duz_dy - vuz * duz_dz -
                              cs2 / rho * drho_dz + nu * lap_uz +
                              p.force_z);
      }
    });
  });
}

void density_box(Domain3D& d, const PaddedField3D<double>& orho,
                 PaddedField3D<double>& nrho, const Box3& r) {
  const FluidParams& p = d.params();
  const double inv2dx = 1.0 / (2.0 * p.dx);
  const double dt = p.dt;
  const PaddedField3D<double>& vx = d.vx();
  const PaddedField3D<double>& vy = d.vy();
  const PaddedField3D<double>& vz = d.vz();

  d.for_rows(r.y0, r.y1, r.z0, r.z1, [&](int y, int z) {
    const StencilRows rh = stencil_rows(orho, y, z);
    const double* __restrict vxc = vx.row_ptr(y, z);
    const double* __restrict vyym = vy.row_ptr(y - 1, z);
    const double* __restrict vyyp = vy.row_ptr(y + 1, z);
    const double* __restrict vzzm = vz.row_ptr(y, z - 1);
    const double* __restrict vzzp = vz.row_ptr(y, z + 1);
    double* __restrict out = nrho.row_ptr(y, z);
    d.computed_spans().for_row(y, z, r.x0, r.x1, [&](int a, int b) {
      #pragma GCC ivdep
      for (int x = a; x < b; ++x) {
        const double dmx =
            (rh.c[x + 1] * vxc[x + 1] - rh.c[x - 1] * vxc[x - 1]) * inv2dx;
        const double dmy = (rh.yp[x] * vyyp[x] - rh.ym[x] * vyym[x]) * inv2dx;
        const double dmz = (rh.zp[x] * vzzp[x] - rh.zm[x] * vzzm[x]) * inv2dx;
        out[x] = rh.c[x] - dt * (dmx + dmy + dmz);
      }
    });
  });
}

}  // namespace

// Same pass protocol as fd2d.cpp: band reads current, writes _next, swaps;
// interior reads old values from _next (the pre-swap current buffer) and
// writes current.  Unwritten cells hold identical statics in both buffers.

void advance_velocity(Domain3D& d, ComputePass pass) {
  const Box3 region{0, 0, 0, d.nx(), d.ny(), d.nz()};
  const int w = d.ghost();
  if (pass != ComputePass::kInterior) {
    for (const Box3& b : band_boxes3(region, w))
      velocity_box(d, d.vx(), d.vy(), d.vz(), d.vx_next(), d.vy_next(),
                   d.vz_next(), b);
    d.swap_velocity();
  }
  if (pass != ComputePass::kBand)
    velocity_box(d, d.vx_next(), d.vy_next(), d.vz_next(), d.vx(), d.vy(),
                 d.vz(), interior_box3(region, w));
}

void advance_density(Domain3D& d, ComputePass pass) {
  const Box3 region{0, 0, 0, d.nx(), d.ny(), d.nz()};
  const int w = d.ghost();
  if (pass != ComputePass::kInterior) {
    for (const Box3& b : band_boxes3(region, w))
      density_box(d, d.rho(), d.rho_next(), b);
    d.swap_density();
  }
  if (pass != ComputePass::kBand)
    density_box(d, d.rho_next(), d.rho(), interior_box3(region, w));
}

}  // namespace subsonic::fd3d
