// Ghost-padded scalar fields.  Each subregion in the decomposition stores
// its interior nodes plus `ghost` layers of padding on every side (the
// paper's "padding" / ghost-cell technique, section 4.2): once neighbour
// boundary data has been copied into the padding, the stencil update of the
// interior needs no knowledge of communication at all.  One class template
// serves both dimensions: storage is a run of pencils (rows along x), z
// outer, then y, and a 2D field is the one plane z = 0, with no z padding.
//
// The pencil pitch can be padded beyond the logical width.  This exists for
// two reasons: (1) it reproduces Appendix E of the paper — on the HP9000/700
// a row length near a multiple of the 4096-byte page caused pathological
// cache behaviour, fixed by lengthening arrays by 200-300 bytes — and our
// bench_padding_4096 measures the modern analogue (set-associativity
// conflicts); (2) it allows alignment experiments without touching callers.
//
// Storage is 64-byte aligned and the pitch is a whole number of cache
// lines, so every pencil starts on a cache-line boundary and the vectorized
// kernels never straddle lines at pencil starts.  The base width (logical
// width + ghosts) and extra_pitch are each rounded up to whole lines
// separately: the Appendix-E experiments ask for N extra elements and get
// at least N, never fewer because the quantization of the base absorbed
// them.
//
// A field is either *owning* (its own contiguous allocation, row stride ==
// pitch) or a *view* into external storage with an arbitrary row stride
// between consecutive pencils.  Views exist for the SoA population slab:
// the LB directions live pencil-interleaved in one allocation (pencil p of
// direction i at slab + (p * Q + i) * pitch), so the collide-stream sweep
// reads and writes one dense sequential region instead of Q scattered
// plane-sized streams — the hardware prefetchers track a handful of
// streams well and a conflicting score of them poorly.  Everything
// pencil-based (pencil, operator(), comparisons, checkpoint
// serialization) works identically on views; only raw() requires an
// owning field, because a view's pencils are not contiguous.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "src/grid/aligned_alloc.hpp"
#include "src/grid/extents.hpp"
#include "src/util/check.hpp"

namespace subsonic {

/// Scalar field with `ghost` padding layers.  Interior coordinates are
/// [0, n) on every axis; any coordinate in [-g, n + g) is valid.  Nodes
/// are addressed as (x, y) in 2D and (x, y, z) in 3D; x is fastest.
template <typename T, int Dim>
class PaddedField {
 public:
  using Extents = typename GridTypes<Dim>::Extents;

  PaddedField() = default;

  /// `extra_pitch` adds unused elements to each pencil (Appendix E
  /// experiments).
  PaddedField(Extents interior, int ghost, int extra_pitch = 0)
      : interior_(interior),
        ghost_(ghost),
        rows_(interior.ny + 2 * ghost),
        planes_(planes_of(interior, ghost)) {
    for (int n : interior.sizes()) SUBSONIC_REQUIRE(n > 0);
    SUBSONIC_REQUIRE(ghost >= 0 && extra_pitch >= 0);
    // Rounding the sum would let the line quantization swallow the extra
    // entirely (width 10 + extra 5 still rounds to 16); quantizing the
    // extra separately guarantees at least `extra_pitch` elements beyond
    // the base pitch, as Appendix E asks for.
    pitch_ = round_pitch<T>(interior.nx + 2 * ghost) +
             round_pitch<T>(extra_pitch);
    row_stride_ = pitch_;
    data_.assign(stored_count(), T{});
  }

  /// Non-owning strided view over external storage: pencil (y, z) starts
  /// at `base + p * row_stride`, p its index in the padded window (z
  /// outer), and owns `pitch` elements there.  The caller keeps the
  /// storage alive and initialized.
  PaddedField(T* base, Extents interior, int ghost, int pitch,
              int row_stride)
      : interior_(interior),
        ghost_(ghost),
        pitch_(pitch),
        row_stride_(row_stride),
        rows_(interior.ny + 2 * ghost),
        planes_(planes_of(interior, ghost)),
        view_(base) {
    SUBSONIC_REQUIRE(base != nullptr);
    SUBSONIC_REQUIRE(pitch >= interior.nx + 2 * ghost);
    SUBSONIC_REQUIRE(row_stride >= pitch);
  }

  Extents interior() const { return interior_; }
  int nx() const { return interior_.nx; }
  int ny() const { return interior_.ny; }
  int nz() const requires(Dim == 3) { return interior_.nz; }
  int ghost() const { return ghost_; }
  int pitch() const { return pitch_; }
  /// Elements between consecutive pencils (== pitch for owning fields).
  int row_stride() const { return row_stride_; }
  /// False for views into an interleaved slab (pencils not contiguous).
  bool contiguous() const { return view_ == nullptr; }

  /// Number of stored elements including padding (a view counts only its
  /// own pencils' exclusive `pitch`-element storage, not the stride gaps).
  std::size_t stored_count() const { return pencils() * pitch_; }

  template <typename... I>
    requires(sizeof...(I) == Dim)
  bool valid(I... c) const {
    const std::array<int, Dim> p{static_cast<int>(c)...};
    const auto n = interior_.sizes();
    for (int a = 0; a < Dim; ++a)
      if (p[a] < -ghost_ || p[a] >= n[a] + ghost_) return false;
    return true;
  }

  template <typename... I>
    requires(sizeof...(I) == Dim)
  T& operator()(I... c) {
    return base()[index(c...)];
  }
  template <typename... I>
    requires(sizeof...(I) == Dim)
  const T& operator()(I... c) const {
    return base()[index(c...)];
  }

  /// Bounds-checked access, for tests and non-hot paths.
  template <typename... I>
    requires(sizeof...(I) == Dim)
  T& at(I... c) {
    SUBSONIC_REQUIRE(valid(c...));
    return base()[index(c...)];
  }
  template <typename... I>
    requires(sizeof...(I) == Dim)
  const T& at(I... c) const {
    SUBSONIC_REQUIRE(valid(c...));
    return base()[index(c...)];
  }

  void fill(T value) {
    if (view_ == nullptr) {
      data_.assign(data_.size(), value);
      return;
    }
    for (std::size_t p = 0; p < pencils(); ++p)
      std::fill_n(view_ + p * row_stride_, pitch_, value);
  }

  /// Contiguous storage of an *owning* field; views have none.
  std::span<T> raw() {
    SUBSONIC_REQUIRE(contiguous());
    return data_;
  }
  std::span<const T> raw() const {
    SUBSONIC_REQUIRE(contiguous());
    return data_;
  }

  /// Moves a view's base pointer by `elems` elements.  The in-place
  /// collide-stream sweep re-homes the population views by whole
  /// interleaved-slab row blocks after each step (domain.hpp); the
  /// caller guarantees every pencil the view can address stays inside
  /// the backing storage.  Owning fields cannot be shifted.
  void shift_view(std::ptrdiff_t elems) {
    SUBSONIC_REQUIRE(view_ != nullptr);
    view_ += elems;
  }

  /// Pointer p into pencil (y, z) such that p[x] is node (x, y, z) for any
  /// valid x, negative ghost coordinates included; p - ghost() starts the
  /// pencil's padded run (row copies).  The kernels hoist these per pencil
  /// so their inner loops run over raw pointers.  A 2D field is the one
  /// plane z = 0.
  T* pencil(int y, int z = 0) { return base() + index(0, y, z); }
  const T* pencil(int y, int z = 0) const { return base() + index(0, y, z); }

  friend bool operator==(const PaddedField& a, const PaddedField& b) {
    if (a.interior_ != b.interior_ || a.ghost_ != b.ghost_) return false;
    const int w = a.nx() + 2 * a.ghost_;
    for (std::size_t p = 0; p < a.pencils(); ++p) {
      const T* pa = a.base() + p * a.row_stride_;
      if (!std::equal(pa, pa + w, b.base() + p * b.row_stride_)) return false;
    }
    return true;
  }

 private:
  /// Padded z planes: nz + 2 * ghost in 3D, the one plane in 2D.
  static int planes_of(const Extents& e, int ghost) {
    return Dim == 3 ? e.sizes()[Dim - 1] + 2 * ghost : 1;
  }

  /// Pencils of the padded window.
  std::size_t pencils() const {
    return static_cast<std::size_t>(rows_) * planes_;
  }

  std::size_t index(int x, int y, int z = 0) const {
    std::size_t p = static_cast<std::size_t>(y + ghost_);
    if constexpr (Dim == 3) p += static_cast<std::size_t>(z + ghost_) * rows_;
    return p * row_stride_ + static_cast<std::size_t>(x + ghost_);
  }

  T* base() { return view_ ? view_ : data_.data(); }
  const T* base() const { return view_ ? view_ : data_.data(); }

  Extents interior_{};
  int ghost_ = 0;
  int pitch_ = 0;
  int row_stride_ = 0;
  int rows_ = 0;    ///< padded pencils per z plane (ny + 2 * ghost)
  int planes_ = 0;  ///< padded z planes; 1 in 2D
  T* view_ = nullptr;  ///< external base when a view; null when owning
  std::vector<T, CacheAlignedAllocator<T>> data_;
};

template <typename T>
using PaddedField2D = PaddedField<T, 2>;
template <typename T>
using PaddedField3D = PaddedField<T, 3>;

}  // namespace subsonic
