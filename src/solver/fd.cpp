#include "src/solver/fd.hpp"

#include <array>

namespace subsonic::fd {

namespace {

template <int Dim>
using Field = typename Domain<Dim>::Field;

/// Pencil (y, z) of a field and its neighbour pencils one node back (m)
/// and on (p) along each axis after x (y, then z): the stencil's rows.
template <int Dim>
struct Stencil {
  const double* c;
  const double* m[Dim - 1];
  const double* p[Dim - 1];
};

template <int Dim>
Stencil<Dim> stencil(const Field<Dim>& u, int y, int z) {
  Stencil<Dim> s;
  s.c = pencil(u, y, z);
  for (int a = 1; a < Dim; ++a) {
    s.m[a - 1] = pencil(u, y - (a == 1), z - (a == 2));
    s.p[a - 1] = pencil(u, y + (a == 1), z + (a == 2));
  }
  return s;
}

// The per-box update helpers read the *old* field values from `o`/`orho`
// and write the advanced values into the paired outputs; the caller picks
// which physical buffer plays which role for each pass (see
// advance_velocity).  Iteration runs the precomputed spans of computed
// (fluid | outlet) nodes; walls and inlets hold prescribed values.
//
// Each pencil sets up raw pointers to exactly the rows its kernel reads
// (every stencil row of every input of the velocity update; for the
// density, rho's stencil, x's own pencil and each other axis's two
// neighbours) so the span loop is a branch-free streaming kernel over
// contiguous memory.  The span lambda captures those pointers by
// reference, and gcc drops __restrict with the capture: the loops would
// need more run-time alias checks than gcc allows, so they carry
// `#pragma GCC ivdep` (inputs and outputs are distinct buffers) and
// vectorise.  Each loop keeps one operation tree for both dimensions:
// sums over axes fold left to right (x, then y, then z), and the
// Laplacian's centre weight is 2 * Dim.  Pencils are sharded across the
// domain's worker pool: every pencil writes only its own output cells and
// reads only input buffers this pass never writes, so any static
// partition gives bitwise identical results.

template <int Dim>
void velocity_box(Domain<Dim>& d, const std::array<Field<Dim>*, Dim>& o,
                  const std::array<Field<Dim>*, Dim>& n,
                  const typename Domain<Dim>::Box& r) {
  const FluidParams& p = d.params();
  const double inv2dx = 1.0 / (2.0 * p.dx);
  const double invdx2 = 1.0 / (p.dx * p.dx);
  const double cs2 = p.cs * p.cs;
  const double dt = p.dt;
  const double nu = p.nu;
  const double force[3] = {p.force_x, p.force_y, p.force_z};
  constexpr double kCentre = 2.0 * Dim;

  d.for_pencils(r, [&](int y, int z) {
    Stencil<Dim> u[Dim];
    for (int k = 0; k < Dim; ++k) u[k] = stencil<Dim>(*o[k], y, z);
    const Stencil<Dim> rh = stencil<Dim>(d.rho(), y, z);
    double* out[Dim];
    for (int k = 0; k < Dim; ++k) out[k] = pencil(*n[k], y, z);
    for_spans(d.computed_spans(), y, z, r.x0, r.x1, [&](int a, int b) {
      #pragma GCC ivdep
      for (int x = a; x < b; ++x) {
        double uc[Dim];
        for (int k = 0; k < Dim; ++k) uc[k] = u[k].c[x];

        // du[k][j]: component k's derivative along axis j.
        double du[Dim][Dim];
        for (int k = 0; k < Dim; ++k) {
          du[k][0] = (u[k].c[x + 1] - u[k].c[x - 1]) * inv2dx;
          for (int j = 1; j < Dim; ++j)
            du[k][j] = (u[k].p[j - 1][x] - u[k].m[j - 1][x]) * inv2dx;
        }

        const double rho = rh.c[x];
        double drho[Dim];
        drho[0] = (rh.c[x + 1] - rh.c[x - 1]) * inv2dx;
        for (int j = 1; j < Dim; ++j)
          drho[j] = (rh.p[j - 1][x] - rh.m[j - 1][x]) * inv2dx;

        double lap[Dim];
        for (int k = 0; k < Dim; ++k) {
          double s = u[k].c[x + 1] + u[k].c[x - 1];
          for (int j = 1; j < Dim; ++j)
            s = s + u[k].p[j - 1][x] + u[k].m[j - 1][x];
          lap[k] = (s - kCentre * uc[k]) * invdx2;
        }

        // One divide per cell, not one per component: every
        // pressure-gradient term shares the same cs2/rho factor, and
        // (cs2 / rho) * d evaluates identically to the inlined form, so
        // this is a pure hoist.
        const double cs2_over_rho = cs2 / rho;
        for (int k = 0; k < Dim; ++k) {
          double adv = -uc[0] * du[k][0];
          for (int j = 1; j < Dim; ++j) adv = adv - uc[j] * du[k][j];
          out[k][x] = uc[k] + dt * (adv - cs2_over_rho * drho[k] +
                                    nu * lap[k] + force[k]);
        }
      }
    });
  });
}

template <int Dim>
void density_box(Domain<Dim>& d, const Field<Dim>& orho, Field<Dim>& nrho,
                 const typename Domain<Dim>::Box& r) {
  const FluidParams& p = d.params();
  const double inv2dx = 1.0 / (2.0 * p.dx);
  const double dt = p.dt;

  d.for_pencils(r, [&](int y, int z) {
    const Stencil<Dim> rh = stencil<Dim>(orho, y, z);
    const double* vc = pencil(d.v(0), y, z);
    const double* vm[Dim - 1];
    const double* vp[Dim - 1];
    for (int j = 1; j < Dim; ++j) {
      vm[j - 1] = pencil(d.v(j), y - (j == 1), z - (j == 2));
      vp[j - 1] = pencil(d.v(j), y + (j == 1), z + (j == 2));
    }
    double* out = pencil(nrho, y, z);
    for_spans(d.computed_spans(), y, z, r.x0, r.x1, [&](int a, int b) {
      // Local copies of the captured constants: a store through `out`
      // could alias a double captured by reference, so under ivdep gcc
      // would reload each of them in every vector iteration.
      const double h = inv2dx;
      const double step = dt;
      #pragma GCC ivdep
      for (int x = a; x < b; ++x) {
        // Continuity with the new velocities (conservation form).
        double div = (rh.c[x + 1] * vc[x + 1] - rh.c[x - 1] * vc[x - 1]) * h;
        for (int j = 1; j < Dim; ++j)
          div = div + (rh.p[j - 1][x] * vp[j - 1][x] -
                       rh.m[j - 1][x] * vm[j - 1][x]) *
                          h;
        out[x] = rh.c[x] - step * div;
      }
    });
  });
}

/// The velocity buffers: the current ones, or the _next ones.
template <int Dim>
std::array<Field<Dim>*, Dim> velocity(Domain<Dim>& d, bool next) {
  std::array<Field<Dim>*, Dim> v;
  for (int a = 0; a < Dim; ++a) v[a] = next ? &d.v_next(a) : &d.v(a);
  return v;
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

template <int Dim>
void advance_velocity(Domain<Dim>& d, ComputePass pass) {
  const auto region = d.interior();
  const int w = d.ghost();
  if (pass != ComputePass::kInterior) {
    for (const auto& b : band_boxes(region, w))
      velocity_box<Dim>(d, velocity(d, false), velocity(d, true), b);
    d.swap_velocity();
  }
  if (pass != ComputePass::kBand)
    velocity_box<Dim>(d, velocity(d, true), velocity(d, false),
                      interior_box(region, w));
}

template <int Dim>
void advance_density(Domain<Dim>& d, ComputePass pass) {
  const auto region = d.interior();
  const int w = d.ghost();
  if (pass != ComputePass::kInterior) {
    for (const auto& b : band_boxes(region, w))
      density_box(d, d.rho(), d.rho_next(), b);
    d.swap_density();
  }
  if (pass != ComputePass::kBand)
    density_box(d, d.rho_next(), d.rho(), interior_box(region, w));
}

template void advance_velocity(Domain<2>&, ComputePass);
template void advance_velocity(Domain<3>&, ComputePass);
template void advance_density(Domain<2>&, ComputePass);
template void advance_density(Domain<3>&, ComputePass);

}  // namespace subsonic::fd
