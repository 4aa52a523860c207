#include "src/solver/filter.hpp"

#include <cstring>
#include <span>

#include "src/solver/filter_kernels.hpp"

namespace subsonic {

namespace filter_kernels {

namespace {

// The reference arithmetic: each direction's fourth difference is added
// only where its bit is set.  The branches keep gcc from vectorising this
// loop; the AVX2 kernel replaces them with blends.
template <int T>
void span(const Row& r, int a, int b, double k) {
  const double* __restrict uc = r.c;
  const std::uint8_t* __restrict dr = r.dirs;
  double* __restrict out = r.out;
  for (int x = a; x < b; ++x) {
    const std::uint8_t dirs = dr[x];
    double corr = 0.0;
    if (dirs & 1) {
      corr += uc[x - 2] - 4.0 * uc[x - 1] + 6.0 * uc[x] - 4.0 * uc[x + 1] +
              uc[x + 2];
    }
    for (int j = 0; j < T; ++j) {
      const double* const* t = r.t[j];
      if (dirs & (2 << j)) {
        corr += t[0][x] - 4.0 * t[1][x] + 6.0 * uc[x] - 4.0 * t[2][x] +
                t[3][x];
      }
    }
    out[x] = uc[x] - k * corr;
  }
}

}  // namespace

void span_scalar(const Row& r, int a, int b, double k) {
  if (r.transverse == 1)
    span<1>(r, a, b, k);
  else
    span<2>(r, a, b, k);
}

Fn select(SimdLevel level) {
#if defined(SUBSONIC_HAVE_AVX2)
  if (level == SimdLevel::kAvx2) return &span_avx2;
#endif
  (void)level;
  return &span_scalar;
}

}  // namespace filter_kernels

namespace {

// Double-buffered filter: corrected values are computed from the untouched
// current buffer `u` into `out`, and every cell the filter leaves alone
// (gaps between spans, whole ghost-frame rows) is block-copied across, so
// after the swap the new current buffer matches the in-place update at
// every padded cell.  One write per cell instead of a full-field snapshot
// copy plus corrected writes.
//
// Rows are sharded over the domain's worker pool: each row writes only
// its own output row (copy runs + corrected spans) and reads only the
// never-written input buffer, so any static partition is bitwise neutral.

/// Filters row `r` over [xlo, xhi): the span kernel on `spans`, a copy
/// of the input everywhere else.
void filter_row(const filter_kernels::Row& r, std::span<const MaskSpan> spans,
                int xlo, int xhi, double k, filter_kernels::Fn span_fn) {
  const auto copy_run = [&](int a, int b) {
    if (a < b)
      std::memcpy(r.out + a, r.c + a,
                  static_cast<size_t>(b - a) * sizeof(double));
  };
  int cursor = xlo;
  for (const MaskSpan& s : spans) {
    copy_run(cursor, s.x0);
    span_fn(r, s.x0, s.x1, k);
    cursor = s.x1;
  }
  copy_run(cursor, xhi);
}

/// Filters field `u` into `out` over the padded window: the filter's
/// region (the interior plus a one-node ring) through filter_row, every
/// other pencil copied whole.  Transverse direction j of a row is axis
/// j + 1 (y, then z).
template <int Dim>
void filter_field(Domain<Dim>& d, const typename Domain<Dim>::Field& u,
                  typename Domain<Dim>::Field& out) {
  constexpr int kOff[4] = {-2, -1, 1, 2};
  const filter_kernels::Fn span_fn = filter_kernels::select(active_simd());
  const double k = d.params().filter_eps / 16.0;
  const int g = d.ghost();
  const int xlo = -g, xhi = d.nx() + g;
  const auto ring = d.interior().grown(1);
  const auto rlo = ring.lo(), rhi = ring.hi();

  d.for_pencils(d.interior().grown(g), [&](int y, int z) {
    filter_kernels::Row row{pencil(u, y, z), {}, Dim - 1, nullptr,
                            pencil(out, y, z)};
    const int at[3] = {0, y, z};
    for (int a = 1; a < Dim; ++a)
      if (at[a] < rlo[a] || at[a] >= rhi[a]) {
        filter_row(row, {}, xlo, xhi, k, span_fn);
        return;
      }
    for (int j = 0; j < Dim - 1; ++j)
      for (int i = 0; i < 4; ++i)
        row.t[j][i] = pencil(u, y + (j == 0 ? kOff[i] : 0),
                             z + (j == 1 ? kOff[i] : 0));
    row.dirs = d.filter_dirs_row(y, z);
    filter_row(row, pencil(d.filter_spans(), y, z), xlo, xhi, k, span_fn);
  });
}

}  // namespace

template <int Dim>
void apply_filter(Domain<Dim>& d) {
  if (d.params().filter_eps == 0.0) return;
  filter_field(d, d.rho(), d.rho_next());
  for (int a = 0; a < Dim; ++a) filter_field(d, d.v(a), d.v_next(a));
  d.swap_density();
  d.swap_velocity();
}

template void apply_filter(Domain<2>&);
template void apply_filter(Domain<3>&);

}  // namespace subsonic
