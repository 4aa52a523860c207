// AVX2 span kernels, the build's one -mavx2 translation unit (see
// CMakeLists.txt): the scalar collide-stream kernels of lbm_kernels.cpp
// and the scalar filter kernel of filter.cpp transcribed 4 lanes wide.
// They are reached only through lbm_kernels::select2d/select3d and
// filter_kernels::select after the runtime CPU probe.
//
// One pass per row computes all directions per iteration — the same shape
// as the scalar loop, so the source row and every destination row stream
// through the cache exactly once and the hardware prefetchers see the
// same 2Q + 3 concurrent streams the scalar kernel trained them on.  (A
// per-direction formulation was tried and rejected: it re-reads the
// shared per-cell terms Q times, serializes the memory streams so each
// short row pays its miss latency unhidden, and the non-temporal stores
// it was built to enable measured *slower* than regular stores on the
// machines this project targets.)
//
// Bitwise contract: every intrinsic below maps to exactly one IEEE-754
// operation of the scalar operation tree, in the same association.  The
// translation unit enables AVX2 but not FMA, and subsonic_solver builds
// with -ffp-contract=off, so no mul+add chain is contracted; elementwise
// vector mul/add/sub round exactly like their scalar counterparts.  The
// filter's blends are exact too (filter_kernels.hpp).  The loop tail
// (span length not a multiple of 4) runs the scalar span kernel over the
// remainder.
#include "src/solver/lbm_kernels.hpp"

#if defined(SUBSONIC_HAVE_AVX2)

#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "src/solver/filter_kernels.hpp"
#include "src/solver/lattice.hpp"

namespace subsonic::lbm_kernels {

namespace {

/// f + omega * (eq - f), one vector op per scalar op.
inline __m256d relax(__m256d f, __m256d eq, __m256d vom) {
  return _mm256_add_pd(f, _mm256_mul_pd(vom, _mm256_sub_pd(eq, f)));
}

/// v + ((w * rho) * 3.0) * cg — the scalar force term's association.
inline __m256d force(__m256d v, double w, __m256d rho, double cg) {
  const __m256d t = _mm256_mul_pd(
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(w), rho),
                    _mm256_set1_pd(3.0)),
      _mm256_set1_pd(cg));
  return _mm256_add_pd(v, t);
}

// ---------------------------------------------------------------------------
// D2Q9

template <bool Forced>
void span2d(const Row<2>& r, int a, int b, const Collide<2>& c) {
  using lbm2d::kW;
  double cg[9];
  if (Forced)
    for (int i = 1; i < 9; ++i)
      cg[i] = lbm2d::kCx[i] * c.g[0] + lbm2d::kCy[i] * c.g[1];
  const __m256d vom = _mm256_set1_pd(c.omega);
  const __m256d v1 = _mm256_set1_pd(1.0);
  const __m256d v15 = _mm256_set1_pd(1.5);
  const __m256d v3 = _mm256_set1_pd(3.0);
  const __m256d vh = _mm256_set1_pd(0.5);
  const __m256d ws = _mm256_set1_pd(1.0 / 9.0);
  const __m256d wd = _mm256_set1_pd(1.0 / 36.0);
  const __m256d w0 = _mm256_set1_pd(4.0 / 9.0);
  int x = a;
  for (; x + 4 <= b; x += 4) {
    const __m256d rho = _mm256_loadu_pd(r.rho + x);
    const __m256d ux = _mm256_loadu_pd(r.u[0] + x);
    const __m256d uy = _mm256_loadu_pd(r.u[1] + x);
    // base = 1 - 1.5 * (ux*ux + uy*uy); a_k = 3 u_k
    const __m256d base = _mm256_sub_pd(
        v1, _mm256_mul_pd(v15, _mm256_add_pd(_mm256_mul_pd(ux, ux),
                                             _mm256_mul_pd(uy, uy))));
    const __m256d ax = _mm256_mul_pd(v3, ux);
    const __m256d ay = _mm256_mul_pd(v3, uy);
    const __m256d rw_s = _mm256_mul_pd(rho, ws);
    const __m256d rw_d = _mm256_mul_pd(rho, wd);
    const __m256d app = _mm256_add_pd(ax, ay);
    const __m256d apm = _mm256_sub_pd(ax, ay);
    // (0.5 * t) * t, shared by the +t and -t directions.
    const __m256d hax = _mm256_mul_pd(_mm256_mul_pd(vh, ax), ax);
    const __m256d hay = _mm256_mul_pd(_mm256_mul_pd(vh, ay), ay);
    const __m256d hpp = _mm256_mul_pd(_mm256_mul_pd(vh, app), app);
    const __m256d hpm = _mm256_mul_pd(_mm256_mul_pd(vh, apm), apm);
    __m256d eq[9];
    eq[0] = _mm256_mul_pd(_mm256_mul_pd(rho, w0), base);
    eq[1] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_add_pd(base, ax), hax));
    eq[3] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_sub_pd(base, ax), hax));
    eq[2] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_add_pd(base, ay), hay));
    eq[4] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_sub_pd(base, ay), hay));
    eq[5] = _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_add_pd(base, app), hpp));
    eq[7] = _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_sub_pd(base, app), hpp));
    eq[8] = _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_add_pd(base, apm), hpm));
    eq[6] = _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_sub_pd(base, apm), hpm));
    for (int i = 0; i < 9; ++i) {
      __m256d v = relax(_mm256_loadu_pd(r.s[i] + x), eq[i], vom);
      if (Forced && i > 0) v = force(v, kW[i], rho, cg[i]);
      _mm256_storeu_pd(r.d[i] + x, v);
    }
  }
  if (x < b) collide_scatter2d_scalar(r, x, b, c);
}

// ---------------------------------------------------------------------------
// D3Q15

template <bool Forced>
void span3d(const Row<3>& r, int a, int b, const Collide<3>& c) {
  using lbm3d::kW;
  double cg[15];
  if (Forced)
    for (int i = 1; i < 15; ++i)
      cg[i] = lbm3d::kCx[i] * c.g[0] + lbm3d::kCy[i] * c.g[1] +
              lbm3d::kCz[i] * c.g[2];
  const __m256d vom = _mm256_set1_pd(c.omega);
  const __m256d v1 = _mm256_set1_pd(1.0);
  const __m256d v15 = _mm256_set1_pd(1.5);
  const __m256d v3 = _mm256_set1_pd(3.0);
  const __m256d vh = _mm256_set1_pd(0.5);
  const __m256d ws = _mm256_set1_pd(1.0 / 9.0);
  const __m256d wd = _mm256_set1_pd(1.0 / 72.0);
  const __m256d w0 = _mm256_set1_pd(2.0 / 9.0);
  int x = a;
  for (; x + 4 <= b; x += 4) {
    const __m256d rho = _mm256_loadu_pd(r.rho + x);
    const __m256d ux = _mm256_loadu_pd(r.u[0] + x);
    const __m256d uy = _mm256_loadu_pd(r.u[1] + x);
    const __m256d uz = _mm256_loadu_pd(r.u[2] + x);
    // base = 1 - 1.5 * ((ux*ux + uy*uy) + uz*uz) — the scalar sum's
    // left-to-right association.
    const __m256d base = _mm256_sub_pd(
        v1,
        _mm256_mul_pd(v15, _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(ux, ux),
                                                       _mm256_mul_pd(uy, uy)),
                                         _mm256_mul_pd(uz, uz))));
    const __m256d ax = _mm256_mul_pd(v3, ux);
    const __m256d ay = _mm256_mul_pd(v3, uy);
    const __m256d az = _mm256_mul_pd(v3, uz);
    const __m256d rw_s = _mm256_mul_pd(rho, ws);
    const __m256d rw_d = _mm256_mul_pd(rho, wd);
    // s1..s4 as in the scalar kernel; s4v = -ax + ay + az is evaluated as
    // (ay - ax) + az, bit-identical since IEEE addition commutes and
    // ay + (-ax) == ay - ax exactly.
    const __m256d s1v = _mm256_add_pd(_mm256_add_pd(ax, ay), az);
    const __m256d s2v = _mm256_sub_pd(_mm256_add_pd(ax, ay), az);
    const __m256d s3v = _mm256_add_pd(_mm256_sub_pd(ax, ay), az);
    const __m256d s4v = _mm256_add_pd(_mm256_sub_pd(ay, ax), az);
    const __m256d hax = _mm256_mul_pd(_mm256_mul_pd(vh, ax), ax);
    const __m256d hay = _mm256_mul_pd(_mm256_mul_pd(vh, ay), ay);
    const __m256d haz = _mm256_mul_pd(_mm256_mul_pd(vh, az), az);
    const __m256d hs1 = _mm256_mul_pd(_mm256_mul_pd(vh, s1v), s1v);
    const __m256d hs2 = _mm256_mul_pd(_mm256_mul_pd(vh, s2v), s2v);
    const __m256d hs3 = _mm256_mul_pd(_mm256_mul_pd(vh, s3v), s3v);
    const __m256d hs4 = _mm256_mul_pd(_mm256_mul_pd(vh, s4v), s4v);
    __m256d eq[15];
    eq[0] = _mm256_mul_pd(_mm256_mul_pd(rho, w0), base);
    eq[1] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_add_pd(base, ax), hax));
    eq[2] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_sub_pd(base, ax), hax));
    eq[3] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_add_pd(base, ay), hay));
    eq[4] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_sub_pd(base, ay), hay));
    eq[5] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_add_pd(base, az), haz));
    eq[6] = _mm256_mul_pd(rw_s, _mm256_add_pd(_mm256_sub_pd(base, az), haz));
    eq[7] = _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_add_pd(base, s1v), hs1));
    eq[8] = _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_sub_pd(base, s1v), hs1));
    eq[9] = _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_add_pd(base, s2v), hs2));
    eq[10] =
        _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_sub_pd(base, s2v), hs2));
    eq[11] =
        _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_add_pd(base, s3v), hs3));
    eq[12] =
        _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_sub_pd(base, s3v), hs3));
    eq[13] =
        _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_add_pd(base, s4v), hs4));
    eq[14] =
        _mm256_mul_pd(rw_d, _mm256_add_pd(_mm256_sub_pd(base, s4v), hs4));
    for (int i = 0; i < 15; ++i) {
      __m256d v = relax(_mm256_loadu_pd(r.s[i] + x), eq[i], vom);
      if (Forced && i > 0) v = force(v, kW[i], rho, cg[i]);
      _mm256_storeu_pd(r.d[i] + x, v);
    }
  }
  if (x < b) collide_scatter3d_scalar(r, x, b, c);
}

}  // namespace

void collide_scatter2d_avx2(const Row<2>& r, int a, int b,
                            const Collide<2>& c) {
  if (c.forced)
    span2d<true>(r, a, b, c);
  else
    span2d<false>(r, a, b, c);
}

void collide_scatter3d_avx2(const Row<3>& r, int a, int b,
                            const Collide<3>& c) {
  if (c.forced)
    span3d<true>(r, a, b, c);
  else
    span3d<false>(r, a, b, c);
}

}  // namespace subsonic::lbm_kernels

namespace subsonic::filter_kernels {

namespace {

// ---------------------------------------------------------------------------
// Fourth-order filter

template <int T>
void span(const Row& r, int a, int b, double k) {
  const __m256d vk = _mm256_set1_pd(k);
  const __m256d v4 = _mm256_set1_pd(4.0);
  const __m256d v6 = _mm256_set1_pd(6.0);
  const __m256d zero = _mm256_setzero_pd();
  const double* uc = r.c;
  int x = a;
  for (; x + 4 <= b; x += 4) {
    std::uint32_t packed;
    std::memcpy(&packed, r.dirs + x, sizeof packed);
    const __m256i dirs =
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(packed)));
    const __m256d u = _mm256_loadu_pd(uc + x);
    const __m256d u6 = _mm256_mul_pd(v6, u);
    // m2 - 4.0 * m1 + 6.0 * u - 4.0 * p1 + p2, left to right.
    const auto fourth = [&](const double* m2, const double* m1,
                            const double* p1, const double* p2) {
      const __m256d s1 = _mm256_sub_pd(
          _mm256_loadu_pd(m2), _mm256_mul_pd(v4, _mm256_loadu_pd(m1)));
      const __m256d s2 = _mm256_sub_pd(
          _mm256_add_pd(s1, u6), _mm256_mul_pd(v4, _mm256_loadu_pd(p1)));
      return _mm256_add_pd(s2, _mm256_loadu_pd(p2));
    };
    // The term where the direction's bit is set, +0.0 elsewhere: the bit
    // shifted into each lane's sign bit is blendv's selector.
    const auto masked = [&](int bit, __m256d term) {
      const __m256d sel =
          _mm256_castsi256_pd(_mm256_slli_epi64(dirs, 63 - bit));
      return _mm256_blendv_pd(zero, term, sel);
    };
    __m256d corr = _mm256_add_pd(
        zero,
        masked(0, fourth(uc + x - 2, uc + x - 1, uc + x + 1, uc + x + 2)));
    for (int j = 0; j < T; ++j) {
      const double* const* t = r.t[j];
      corr = _mm256_add_pd(
          corr,
          masked(1 + j, fourth(t[0] + x, t[1] + x, t[2] + x, t[3] + x)));
    }
    _mm256_storeu_pd(r.out + x, _mm256_sub_pd(u, _mm256_mul_pd(vk, corr)));
  }
  if (x < b) span_scalar(r, x, b, k);
}

}  // namespace

void span_avx2(const Row& r, int a, int b, double k) {
  if (r.transverse == 1)
    span<1>(r, a, b, k);
  else
    span<2>(r, a, b, k);
}

}  // namespace subsonic::filter_kernels

#endif  // SUBSONIC_HAVE_AVX2
