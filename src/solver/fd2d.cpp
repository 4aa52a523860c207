#include "src/solver/fd2d.hpp"

namespace subsonic::fd2d {

namespace {

// The per-box update helpers read the *old* field values from `ox`/`oy`/
// `orho` and write the advanced values into the paired output field; the
// caller picks which physical buffer plays which role for each pass (see
// advance_velocity).  Iteration runs the precomputed spans of computed
// (fluid | outlet) nodes; walls and inlets hold prescribed values.
//
// Each row hoists raw __restrict row pointers (three rows of every input,
// one of every output) so the span loop is a branch-free streaming kernel
// over contiguous memory the compiler can autovectorize.  The span lambda
// captures those pointers by reference, and gcc drops __restrict with the
// capture: the velocity loop would need more run-time alias checks than
// gcc allows, so it carries `#pragma GCC ivdep` (inputs and outputs are
// distinct buffers) and vectorises.  Rows are
// sharded across the domain's worker pool: every row writes only its own
// output cells and reads only input buffers this pass never writes, so
// any static partition gives bitwise identical results.

void velocity_box(Domain2D& d, const PaddedField2D<double>& ox,
                  const PaddedField2D<double>& oy,
                  PaddedField2D<double>& nvx, PaddedField2D<double>& nvy,
                  const Box2& r) {
  const FluidParams& p = d.params();
  const double inv2dx = 1.0 / (2.0 * p.dx);
  const double invdx2 = 1.0 / (p.dx * p.dx);
  const double cs2 = p.cs * p.cs;
  const double dt = p.dt;
  const double nu = p.nu;
  const double fx = p.force_x;
  const double fy = p.force_y;
  const PaddedField2D<double>& rho_f = d.rho();

  d.for_rows(r.y0, r.y1, [&](int y) {
    const double* __restrict uxc = ox.row_ptr(y);
    const double* __restrict uxm = ox.row_ptr(y - 1);
    const double* __restrict uxp = ox.row_ptr(y + 1);
    const double* __restrict uyc = oy.row_ptr(y);
    const double* __restrict uym = oy.row_ptr(y - 1);
    const double* __restrict uyp = oy.row_ptr(y + 1);
    const double* __restrict rc = rho_f.row_ptr(y);
    const double* __restrict rm = rho_f.row_ptr(y - 1);
    const double* __restrict rp = rho_f.row_ptr(y + 1);
    double* __restrict outx = nvx.row_ptr(y);
    double* __restrict outy = nvy.row_ptr(y);
    d.computed_spans().for_row(y, r.x0, r.x1, [&](int a, int b) {
      #pragma GCC ivdep
      for (int x = a; x < b; ++x) {
        const double ux = uxc[x];
        const double uy = uyc[x];

        const double dux_dx = (uxc[x + 1] - uxc[x - 1]) * inv2dx;
        const double dux_dy = (uxp[x] - uxm[x]) * inv2dx;
        const double duy_dx = (uyc[x + 1] - uyc[x - 1]) * inv2dx;
        const double duy_dy = (uyp[x] - uym[x]) * inv2dx;

        const double rho = rc[x];
        const double drho_dx = (rc[x + 1] - rc[x - 1]) * inv2dx;
        const double drho_dy = (rp[x] - rm[x]) * inv2dx;

        const double lap_ux =
            (uxc[x + 1] + uxc[x - 1] + uxp[x] + uxm[x] - 4.0 * ux) * invdx2;
        const double lap_uy =
            (uyc[x + 1] + uyc[x - 1] + uyp[x] + uym[x] - 4.0 * uy) * invdx2;

        // One divide per cell, not two: both pressure-gradient terms
        // share the same cs2/rho factor, and (cs2 / rho) * d evaluates
        // identically to the inlined form, so this is a pure hoist.
        const double cs2_over_rho = cs2 / rho;
        outx[x] = ux + dt * (-ux * dux_dx - uy * dux_dy -
                             cs2_over_rho * drho_dx + nu * lap_ux + fx);
        outy[x] = uy + dt * (-ux * duy_dx - uy * duy_dy -
                             cs2_over_rho * drho_dy + nu * lap_uy + fy);
      }
    });
  });
}

void density_box(Domain2D& d, const PaddedField2D<double>& orho,
                 PaddedField2D<double>& nrho, const Box2& r) {
  const FluidParams& p = d.params();
  const double inv2dx = 1.0 / (2.0 * p.dx);
  const double dt = p.dt;
  const PaddedField2D<double>& vx = d.vx();
  const PaddedField2D<double>& vy = d.vy();

  d.for_rows(r.y0, r.y1, [&](int y) {
    const double* __restrict rc = orho.row_ptr(y);
    const double* __restrict rm = orho.row_ptr(y - 1);
    const double* __restrict rp = orho.row_ptr(y + 1);
    const double* __restrict vxc = vx.row_ptr(y);
    const double* __restrict vym = vy.row_ptr(y - 1);
    const double* __restrict vyp = vy.row_ptr(y + 1);
    double* __restrict out = nrho.row_ptr(y);
    d.computed_spans().for_row(y, r.x0, r.x1, [&](int a, int b) {
      for (int x = a; x < b; ++x) {
        // Continuity with the new velocities (conservation form).
        const double dmx_dx =
            (rc[x + 1] * vxc[x + 1] - rc[x - 1] * vxc[x - 1]) * inv2dx;
        const double dmy_dy = (rp[x] * vyp[x] - rm[x] * vym[x]) * inv2dx;
        out[x] = rc[x] - dt * (dmx_dx + dmy_dy);
      }
    });
  });
}

}  // namespace

// Pass protocol (both kernels): the band pass reads the current buffer
// (old values), writes the _next buffer, and swaps, so the freshly swapped
// current buffer carries the new band values when the driver packs its
// sends.  The interior pass then reads the old values from the _next
// buffer — the pre-swap current buffer under its new name — and writes the
// current one.  Cells neither pass writes (walls, inlets, unexchanged
// padding) hold the same prescribed statics in both buffers, so the
// completed current buffer matches the in-place update bit for bit.

void advance_velocity(Domain2D& d, ComputePass pass) {
  const Box2 region{0, 0, d.nx(), d.ny()};
  const int w = d.ghost();
  if (pass != ComputePass::kInterior) {
    for (const Box2& b : band_boxes2(region, w))
      velocity_box(d, d.vx(), d.vy(), d.vx_next(), d.vy_next(), b);
    d.swap_velocity();
  }
  if (pass != ComputePass::kBand)
    velocity_box(d, d.vx_next(), d.vy_next(), d.vx(), d.vy(),
                 interior_box2(region, w));
}

void advance_density(Domain2D& d, ComputePass pass) {
  const Box2 region{0, 0, d.nx(), d.ny()};
  const int w = d.ghost();
  if (pass != ComputePass::kInterior) {
    for (const Box2& b : band_boxes2(region, w))
      density_box(d, d.rho(), d.rho_next(), b);
    d.swap_density();
  }
  if (pass != ComputePass::kBand)
    density_box(d, d.rho_next(), d.rho(), interior_box2(region, w));
}

}  // namespace subsonic::fd2d
