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

void filter_field(Domain2D& d, const PaddedField2D<double>& u,
                  PaddedField2D<double>& out) {
  const filter_kernels::Fn span_fn = filter_kernels::select(active_simd());
  const double k = d.params().filter_eps / 16.0;
  const int g = d.ghost();
  const int xlo = -g, xhi = d.nx() + g;

  d.for_rows(-g, d.ny() + g, [&](int y) {
    filter_kernels::Row row{u.row_ptr(y), {}, 1, nullptr, out.row_ptr(y)};
    if (y < -1 || y >= d.ny() + 1) {
      filter_row(row, {}, xlo, xhi, k, span_fn);
      return;
    }
    row.t[0][0] = u.row_ptr(y - 2);
    row.t[0][1] = u.row_ptr(y - 1);
    row.t[0][2] = u.row_ptr(y + 1);
    row.t[0][3] = u.row_ptr(y + 2);
    row.dirs = d.filter_dirs_row(y);
    filter_row(row, d.filter_spans().row(y), xlo, xhi, k, span_fn);
  });
}

void filter_field(Domain3D& d, const PaddedField3D<double>& u,
                  PaddedField3D<double>& out) {
  const filter_kernels::Fn span_fn = filter_kernels::select(active_simd());
  const double k = d.params().filter_eps / 16.0;
  const int g = d.ghost();
  const int xlo = -g, xhi = d.nx() + g;

  d.for_rows(-g, d.ny() + g, -g, d.nz() + g, [&](int y, int z) {
    filter_kernels::Row row{u.row_ptr(y, z), {}, 2, nullptr,
                            out.row_ptr(y, z)};
    if (z < -1 || z >= d.nz() + 1 || y < -1 || y >= d.ny() + 1) {
      filter_row(row, {}, xlo, xhi, k, span_fn);
      return;
    }
    row.t[0][0] = u.row_ptr(y - 2, z);
    row.t[0][1] = u.row_ptr(y - 1, z);
    row.t[0][2] = u.row_ptr(y + 1, z);
    row.t[0][3] = u.row_ptr(y + 2, z);
    row.t[1][0] = u.row_ptr(y, z - 2);
    row.t[1][1] = u.row_ptr(y, z - 1);
    row.t[1][2] = u.row_ptr(y, z + 1);
    row.t[1][3] = u.row_ptr(y, z + 2);
    row.dirs = d.filter_dirs_row(y, z);
    filter_row(row, d.filter_spans().row(y, z), xlo, xhi, k, span_fn);
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
