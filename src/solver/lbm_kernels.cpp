// Scalar span kernels of the fused collide-stream sweep, plus the guarded
// single-cell fallbacks used at box edges.  The arithmetic here is the
// reference: the AVX2 transcription (lbm_kernels_avx2.cpp) and the guarded
// cells must evaluate the exact same operation trees so that every code
// path produces bit-identical populations.
#include "src/solver/lbm_kernels.hpp"

#include "src/solver/lattice.hpp"

namespace subsonic::lbm_kernels {

namespace {

// ---------------------------------------------------------------------------
// D2Q9

// The pointer arguments MUST stay function parameters: GCC only tracks
// __restrict on parameters, not on locals initialized from memory (the
// Row<2> arrays), and without it the 21-stream loop never vectorizes.  The
// noinline keeps the unpacking wrapper from folding the parameters back
// into struct loads.
template <bool Forced>
[[gnu::noinline]] void scatter2d(
    const double* __restrict rr, const double* __restrict uxr,
    const double* __restrict uyr, const double* __restrict s0,
    const double* __restrict s1, const double* __restrict s2,
    const double* __restrict s3, const double* __restrict s4,
    const double* __restrict s5, const double* __restrict s6,
    const double* __restrict s7, const double* __restrict s8,
    double* __restrict d0, double* __restrict d1, double* __restrict d2,
    double* __restrict d3, double* __restrict d4, double* __restrict d5,
    double* __restrict d6, double* __restrict d7, double* __restrict d8,
    int a, int b, const Collide<2>& c) {
  const double omega = c.omega;
  // Per-direction force projections c_i . g are loop constants.
  double cg[9];
  if (Forced)
    for (int i = 1; i < 9; ++i)
      cg[i] = lbm2d::kCx[i] * c.g[0] + lbm2d::kCy[i] * c.g[1];
  using lbm2d::kW;
  for (int x = a; x < b; ++x) {
    const double rho = rr[x];
    const double ux = uxr[x];
    const double uy = uyr[x];
    // Unrolled second-order equilibria, same expansion (and the same
    // shared subexpressions) as the original relax pass.
    const double base = 1.0 - 1.5 * (ux * ux + uy * uy);
    const double ax = 3.0 * ux;
    const double ay = 3.0 * uy;
    const double rw_s = rho * (1.0 / 9.0);
    const double rw_d = rho * (1.0 / 36.0);
    const double eq0 = rho * (4.0 / 9.0) * base;
    const double eq1 = rw_s * (base + ax + 0.5 * ax * ax);
    const double eq3 = rw_s * (base - ax + 0.5 * ax * ax);
    const double eq2 = rw_s * (base + ay + 0.5 * ay * ay);
    const double eq4 = rw_s * (base - ay + 0.5 * ay * ay);
    const double app = ax + ay;  // c = ( 1,  1)
    const double apm = ax - ay;  // c = ( 1, -1)
    const double eq5 = rw_d * (base + app + 0.5 * app * app);
    const double eq7 = rw_d * (base - app + 0.5 * app * app);
    const double eq8 = rw_d * (base + apm + 0.5 * apm * apm);
    const double eq6 = rw_d * (base - apm + 0.5 * apm * apm);
    const double f0 = s0[x];
    const double f1 = s1[x];
    const double f2 = s2[x];
    const double f3 = s3[x];
    const double f4 = s4[x];
    const double f5 = s5[x];
    const double f6 = s6[x];
    const double f7 = s7[x];
    const double f8 = s8[x];
    double v0 = f0 + omega * (eq0 - f0);
    double v1 = f1 + omega * (eq1 - f1);
    double v2 = f2 + omega * (eq2 - f2);
    double v3 = f3 + omega * (eq3 - f3);
    double v4 = f4 + omega * (eq4 - f4);
    double v5 = f5 + omega * (eq5 - f5);
    double v6 = f6 + omega * (eq6 - f6);
    double v7 = f7 + omega * (eq7 - f7);
    double v8 = f8 + omega * (eq8 - f8);
    if (Forced) {
      // First-order body-force term, rest direction excluded (as in the
      // original pass — adding its exact 0.0 could flip a -0.0).
      v1 = v1 + kW[1] * rho * 3.0 * cg[1];
      v2 = v2 + kW[2] * rho * 3.0 * cg[2];
      v3 = v3 + kW[3] * rho * 3.0 * cg[3];
      v4 = v4 + kW[4] * rho * 3.0 * cg[4];
      v5 = v5 + kW[5] * rho * 3.0 * cg[5];
      v6 = v6 + kW[6] * rho * 3.0 * cg[6];
      v7 = v7 + kW[7] * rho * 3.0 * cg[7];
      v8 = v8 + kW[8] * rho * 3.0 * cg[8];
    }
    d0[x] = v0;
    d1[x] = v1;
    d2[x] = v2;
    d3[x] = v3;
    d4[x] = v4;
    d5[x] = v5;
    d6[x] = v6;
    d7[x] = v7;
    d8[x] = v8;
  }
}

// ---------------------------------------------------------------------------
// D3Q15

// See scatter2d: pointers must be __restrict *parameters* to vectorize.
template <bool Forced>
[[gnu::noinline]] void scatter3d(
    const double* __restrict rr, const double* __restrict uxr,
    const double* __restrict uyr, const double* __restrict uzr,
    const double* __restrict s0, const double* __restrict s1,
    const double* __restrict s2, const double* __restrict s3,
    const double* __restrict s4, const double* __restrict s5,
    const double* __restrict s6, const double* __restrict s7,
    const double* __restrict s8, const double* __restrict s9,
    const double* __restrict s10, const double* __restrict s11,
    const double* __restrict s12, const double* __restrict s13,
    const double* __restrict s14, double* __restrict d0,
    double* __restrict d1, double* __restrict d2, double* __restrict d3,
    double* __restrict d4, double* __restrict d5, double* __restrict d6,
    double* __restrict d7, double* __restrict d8, double* __restrict d9,
    double* __restrict d10, double* __restrict d11, double* __restrict d12,
    double* __restrict d13, double* __restrict d14, int a, int b,
    const Collide<3>& c) {
  const double omega = c.omega;
  double cg[15];
  if (Forced)
    for (int i = 1; i < 15; ++i)
      cg[i] = lbm3d::kCx[i] * c.g[0] + lbm3d::kCy[i] * c.g[1] +
              lbm3d::kCz[i] * c.g[2];
  using lbm3d::kW;
  for (int x = a; x < b; ++x) {
    const double rho = rr[x];
    const double ux = uxr[x];
    const double uy = uyr[x];
    const double uz = uzr[x];
    const double base = 1.0 - 1.5 * (ux * ux + uy * uy + uz * uz);
    const double ax = 3.0 * ux;
    const double ay = 3.0 * uy;
    const double az = 3.0 * uz;
    const double rw_s = rho * (1.0 / 9.0);
    const double rw_d = rho * (1.0 / 72.0);
    const double eq0 = rho * (2.0 / 9.0) * base;
    const double eq1 = rw_s * (base + ax + 0.5 * ax * ax);
    const double eq2 = rw_s * (base - ax + 0.5 * ax * ax);
    const double eq3 = rw_s * (base + ay + 0.5 * ay * ay);
    const double eq4 = rw_s * (base - ay + 0.5 * ay * ay);
    const double eq5 = rw_s * (base + az + 0.5 * az * az);
    const double eq6 = rw_s * (base - az + 0.5 * az * az);
    const double s1v = ax + ay + az;   // c = ( 1,  1,  1)
    const double s2v = ax + ay - az;   // c = ( 1,  1, -1)
    const double s3v = ax - ay + az;   // c = ( 1, -1,  1)
    const double s4v = -ax + ay + az;  // c = (-1,  1,  1)
    const double eq7 = rw_d * (base + s1v + 0.5 * s1v * s1v);
    const double eq8 = rw_d * (base - s1v + 0.5 * s1v * s1v);
    const double eq9 = rw_d * (base + s2v + 0.5 * s2v * s2v);
    const double eq10 = rw_d * (base - s2v + 0.5 * s2v * s2v);
    const double eq11 = rw_d * (base + s3v + 0.5 * s3v * s3v);
    const double eq12 = rw_d * (base - s3v + 0.5 * s3v * s3v);
    const double eq13 = rw_d * (base + s4v + 0.5 * s4v * s4v);
    const double eq14 = rw_d * (base - s4v + 0.5 * s4v * s4v);
    const double f0 = s0[x];
    const double f1 = s1[x];
    const double f2 = s2[x];
    const double f3 = s3[x];
    const double f4 = s4[x];
    const double f5 = s5[x];
    const double f6 = s6[x];
    const double f7 = s7[x];
    const double f8 = s8[x];
    const double f9 = s9[x];
    const double f10 = s10[x];
    const double f11 = s11[x];
    const double f12 = s12[x];
    const double f13 = s13[x];
    const double f14 = s14[x];
    double v0 = f0 + omega * (eq0 - f0);
    double v1 = f1 + omega * (eq1 - f1);
    double v2 = f2 + omega * (eq2 - f2);
    double v3 = f3 + omega * (eq3 - f3);
    double v4 = f4 + omega * (eq4 - f4);
    double v5 = f5 + omega * (eq5 - f5);
    double v6 = f6 + omega * (eq6 - f6);
    double v7 = f7 + omega * (eq7 - f7);
    double v8 = f8 + omega * (eq8 - f8);
    double v9 = f9 + omega * (eq9 - f9);
    double v10 = f10 + omega * (eq10 - f10);
    double v11 = f11 + omega * (eq11 - f11);
    double v12 = f12 + omega * (eq12 - f12);
    double v13 = f13 + omega * (eq13 - f13);
    double v14 = f14 + omega * (eq14 - f14);
    if (Forced) {
      v1 = v1 + kW[1] * rho * 3.0 * cg[1];
      v2 = v2 + kW[2] * rho * 3.0 * cg[2];
      v3 = v3 + kW[3] * rho * 3.0 * cg[3];
      v4 = v4 + kW[4] * rho * 3.0 * cg[4];
      v5 = v5 + kW[5] * rho * 3.0 * cg[5];
      v6 = v6 + kW[6] * rho * 3.0 * cg[6];
      v7 = v7 + kW[7] * rho * 3.0 * cg[7];
      v8 = v8 + kW[8] * rho * 3.0 * cg[8];
      v9 = v9 + kW[9] * rho * 3.0 * cg[9];
      v10 = v10 + kW[10] * rho * 3.0 * cg[10];
      v11 = v11 + kW[11] * rho * 3.0 * cg[11];
      v12 = v12 + kW[12] * rho * 3.0 * cg[12];
      v13 = v13 + kW[13] * rho * 3.0 * cg[13];
      v14 = v14 + kW[14] * rho * 3.0 * cg[14];
    }
    d0[x] = v0;
    d1[x] = v1;
    d2[x] = v2;
    d3[x] = v3;
    d4[x] = v4;
    d5[x] = v5;
    d6[x] = v6;
    d7[x] = v7;
    d8[x] = v8;
    d9[x] = v9;
    d10[x] = v10;
    d11[x] = v11;
    d12[x] = v12;
    d13[x] = v13;
    d14[x] = v14;
  }
}

}  // namespace

void collide_scatter2d_scalar(const Row<2>& r, int a, int b,
                              const Collide<2>& c) {
  if (c.forced)
    scatter2d<true>(r.rho, r.u[0], r.u[1], r.s[0], r.s[1], r.s[2], r.s[3],
                    r.s[4], r.s[5], r.s[6], r.s[7], r.s[8], r.d[0], r.d[1],
                    r.d[2], r.d[3], r.d[4], r.d[5], r.d[6], r.d[7], r.d[8],
                    a, b, c);
  else
    scatter2d<false>(r.rho, r.u[0], r.u[1], r.s[0], r.s[1], r.s[2], r.s[3],
                     r.s[4], r.s[5], r.s[6], r.s[7], r.s[8], r.d[0], r.d[1],
                     r.d[2], r.d[3], r.d[4], r.d[5], r.d[6], r.d[7], r.d[8],
                     a, b, c);
}

void collide_scatter2d_cell(const Row<2>& r, int x, int x0, int x1,
                            const Collide<2>& c) {
  const double rho = r.rho[x];
  const double ux = r.u[0][x];
  const double uy = r.u[1][x];
  const double base = 1.0 - 1.5 * (ux * ux + uy * uy);
  const double ax = 3.0 * ux;
  const double ay = 3.0 * uy;
  const double rw_s = rho * (1.0 / 9.0);
  const double rw_d = rho * (1.0 / 36.0);
  double eq[9];
  eq[0] = rho * (4.0 / 9.0) * base;
  eq[1] = rw_s * (base + ax + 0.5 * ax * ax);
  eq[3] = rw_s * (base - ax + 0.5 * ax * ax);
  eq[2] = rw_s * (base + ay + 0.5 * ay * ay);
  eq[4] = rw_s * (base - ay + 0.5 * ay * ay);
  const double app = ax + ay;
  const double apm = ax - ay;
  eq[5] = rw_d * (base + app + 0.5 * app * app);
  eq[7] = rw_d * (base - app + 0.5 * app * app);
  eq[8] = rw_d * (base + apm + 0.5 * apm * apm);
  eq[6] = rw_d * (base - apm + 0.5 * apm * apm);
  for (int i = 0; i < 9; ++i) {
    if (r.d[i] == nullptr) continue;
    if (x < x0 - lbm2d::kCx[i] || x >= x1 - lbm2d::kCx[i]) continue;
    const double fi = r.s[i][x];
    double vi = fi + c.omega * (eq[i] - fi);
    if (c.forced && i > 0)
      vi = vi + lbm2d::kW[i] * rho * 3.0 *
                    (lbm2d::kCx[i] * c.g[0] + lbm2d::kCy[i] * c.g[1]);
    r.d[i][x] = vi;
  }
}

void collide_scatter3d_scalar(const Row<3>& r, int a, int b,
                              const Collide<3>& c) {
  if (c.forced)
    scatter3d<true>(r.rho, r.u[0], r.u[1], r.u[2], r.s[0], r.s[1], r.s[2],
                    r.s[3], r.s[4], r.s[5], r.s[6], r.s[7], r.s[8], r.s[9],
                    r.s[10], r.s[11], r.s[12], r.s[13], r.s[14], r.d[0],
                    r.d[1], r.d[2], r.d[3], r.d[4], r.d[5], r.d[6], r.d[7],
                    r.d[8], r.d[9], r.d[10], r.d[11], r.d[12], r.d[13],
                    r.d[14], a, b, c);
  else
    scatter3d<false>(r.rho, r.u[0], r.u[1], r.u[2], r.s[0], r.s[1], r.s[2],
                     r.s[3], r.s[4], r.s[5], r.s[6], r.s[7], r.s[8], r.s[9],
                     r.s[10], r.s[11], r.s[12], r.s[13], r.s[14], r.d[0],
                     r.d[1], r.d[2], r.d[3], r.d[4], r.d[5], r.d[6], r.d[7],
                     r.d[8], r.d[9], r.d[10], r.d[11], r.d[12], r.d[13],
                     r.d[14], a, b, c);
}

void collide_scatter3d_cell(const Row<3>& r, int x, int x0, int x1,
                            const Collide<3>& c) {
  const double rho = r.rho[x];
  const double ux = r.u[0][x];
  const double uy = r.u[1][x];
  const double uz = r.u[2][x];
  const double base = 1.0 - 1.5 * (ux * ux + uy * uy + uz * uz);
  const double ax = 3.0 * ux;
  const double ay = 3.0 * uy;
  const double az = 3.0 * uz;
  const double rw_s = rho * (1.0 / 9.0);
  const double rw_d = rho * (1.0 / 72.0);
  double eq[15];
  eq[0] = rho * (2.0 / 9.0) * base;
  eq[1] = rw_s * (base + ax + 0.5 * ax * ax);
  eq[2] = rw_s * (base - ax + 0.5 * ax * ax);
  eq[3] = rw_s * (base + ay + 0.5 * ay * ay);
  eq[4] = rw_s * (base - ay + 0.5 * ay * ay);
  eq[5] = rw_s * (base + az + 0.5 * az * az);
  eq[6] = rw_s * (base - az + 0.5 * az * az);
  const double s1v = ax + ay + az;
  const double s2v = ax + ay - az;
  const double s3v = ax - ay + az;
  const double s4v = -ax + ay + az;
  eq[7] = rw_d * (base + s1v + 0.5 * s1v * s1v);
  eq[8] = rw_d * (base - s1v + 0.5 * s1v * s1v);
  eq[9] = rw_d * (base + s2v + 0.5 * s2v * s2v);
  eq[10] = rw_d * (base - s2v + 0.5 * s2v * s2v);
  eq[11] = rw_d * (base + s3v + 0.5 * s3v * s3v);
  eq[12] = rw_d * (base - s3v + 0.5 * s3v * s3v);
  eq[13] = rw_d * (base + s4v + 0.5 * s4v * s4v);
  eq[14] = rw_d * (base - s4v + 0.5 * s4v * s4v);
  for (int i = 0; i < 15; ++i) {
    if (r.d[i] == nullptr) continue;
    if (x < x0 - lbm3d::kCx[i] || x >= x1 - lbm3d::kCx[i]) continue;
    const double fi = r.s[i][x];
    double vi = fi + c.omega * (eq[i] - fi);
    if (c.forced && i > 0)
      vi = vi + lbm3d::kW[i] * rho * 3.0 *
                    (lbm3d::kCx[i] * c.g[0] + lbm3d::kCy[i] * c.g[1] +
                     lbm3d::kCz[i] * c.g[2]);
    r.d[i][x] = vi;
  }
}

Fn<2> select2d(SimdLevel level) {
#if defined(SUBSONIC_HAVE_AVX2)
  if (level == SimdLevel::kAvx2) return &collide_scatter2d_avx2;
#endif
  (void)level;
  return &collide_scatter2d_scalar;
}

Fn<3> select3d(SimdLevel level) {
#if defined(SUBSONIC_HAVE_AVX2)
  if (level == SimdLevel::kAvx2) return &collide_scatter3d_avx2;
#endif
  (void)level;
  return &collide_scatter3d_scalar;
}

}  // namespace subsonic::lbm_kernels
