// Ghost-padded scalar fields.  Each subregion in the decomposition stores
// its interior nodes plus `ghost` layers of padding on every side (the
// paper's "padding" / ghost-cell technique, section 4.2): once neighbour
// boundary data has been copied into the padding, the stencil update of the
// interior needs no knowledge of communication at all.
//
// The row pitch can be padded beyond the logical width.  This exists for
// two reasons: (1) it reproduces Appendix E of the paper — on the HP9000/700
// a row length near a multiple of the 4096-byte page caused pathological
// cache behaviour, fixed by lengthening arrays by 200-300 bytes — and our
// bench_padding_4096 measures the modern analogue (set-associativity
// conflicts); (2) it allows alignment experiments without touching callers.
//
// Storage is 64-byte aligned and the pitch is a whole number of cache
// lines, so every row starts on a cache-line boundary and the vectorized
// kernels never straddle lines at row starts.  The base width (logical
// width + ghosts) and extra_pitch are each rounded up to whole lines
// separately: the Appendix-E experiments ask for N extra elements and get
// at least N, never fewer because the quantization of the base absorbed
// them.
//
// A field is either *owning* (its own contiguous allocation, row stride ==
// pitch) or a *view* into external storage with an arbitrary row stride.
// Views exist for the SoA population slab: the LB directions live
// row-interleaved in one allocation (row y of direction i at slab +
// (y * Q + i) * pitch), so the collide-stream sweep reads and writes one
// dense sequential region instead of Q scattered plane-sized streams —
// the hardware prefetchers track a handful of streams well and a
// conflicting score of them poorly.  Everything row-based (row_ptr,
// row_begin, operator(), comparisons, checkpoint serialization) works
// identically on views; only raw() requires an owning field, because a
// view's rows are not contiguous.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "src/grid/aligned_alloc.hpp"
#include "src/grid/extents.hpp"
#include "src/util/check.hpp"

namespace subsonic {

/// 2D scalar field with `ghost` padding layers.  Interior coordinates are
/// [0, nx) x [0, ny); any coordinate in [-g, nx+g) x [-g, ny+g) is valid.
/// Storage is row-major with x fastest.
template <typename T>
class PaddedField2D {
 public:
  PaddedField2D() = default;

  /// `extra_pitch` adds unused elements to each row (Appendix E experiments).
  PaddedField2D(Extents2 interior, int ghost, int extra_pitch = 0)
      : interior_(interior), ghost_(ghost) {
    SUBSONIC_REQUIRE(interior.nx > 0 && interior.ny > 0);
    SUBSONIC_REQUIRE(ghost >= 0 && extra_pitch >= 0);
    // Rounding the sum would let the line quantization swallow the extra
    // entirely (width 10 + extra 5 still rounds to 16); quantizing the
    // extra separately guarantees at least `extra_pitch` elements beyond
    // the base pitch, as Appendix E asks for.
    pitch_ = round_pitch<T>(interior.nx + 2 * ghost) +
             round_pitch<T>(extra_pitch);
    row_stride_ = pitch_;
    rows_ = interior.ny + 2 * ghost;
    data_.assign(static_cast<std::size_t>(pitch_) * rows_, T{});
  }

  /// Non-owning strided view over external storage: row y starts at
  /// `base + (y + ghost) * row_stride` and owns `pitch` elements there.
  /// The caller keeps the storage alive and initialized.
  PaddedField2D(T* base, Extents2 interior, int ghost, int pitch,
                int row_stride)
      : interior_(interior),
        ghost_(ghost),
        pitch_(pitch),
        row_stride_(row_stride),
        rows_(interior.ny + 2 * ghost),
        view_(base) {
    SUBSONIC_REQUIRE(base != nullptr);
    SUBSONIC_REQUIRE(pitch >= interior.nx + 2 * ghost);
    SUBSONIC_REQUIRE(row_stride >= pitch);
  }

  Extents2 interior() const { return interior_; }
  int nx() const { return interior_.nx; }
  int ny() const { return interior_.ny; }
  int ghost() const { return ghost_; }
  int pitch() const { return pitch_; }
  /// Elements between consecutive rows (== pitch for owning fields).
  int row_stride() const { return row_stride_; }
  /// False for views into an interleaved slab (rows not contiguous).
  bool contiguous() const { return view_ == nullptr; }

  /// Number of stored elements including padding (a view counts only its
  /// own rows' exclusive `pitch`-element storage, not the stride gaps).
  std::size_t stored_count() const {
    return static_cast<std::size_t>(pitch_) * rows_;
  }

  bool valid(int x, int y) const {
    return x >= -ghost_ && x < interior_.nx + ghost_ && y >= -ghost_ &&
           y < interior_.ny + ghost_;
  }

  T& operator()(int x, int y) { return base()[index(x, y)]; }
  const T& operator()(int x, int y) const { return base()[index(x, y)]; }

  /// Bounds-checked access, for tests and non-hot paths.
  T& at(int x, int y) {
    SUBSONIC_REQUIRE(valid(x, y));
    return base()[index(x, y)];
  }
  const T& at(int x, int y) const {
    SUBSONIC_REQUIRE(valid(x, y));
    return base()[index(x, y)];
  }

  void fill(T value) {
    if (view_ == nullptr) {
      data_.assign(data_.size(), value);
      return;
    }
    for (int r = 0; r < rows_; ++r)
      std::fill_n(view_ + static_cast<std::size_t>(r) * row_stride_, pitch_,
                  value);
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
  /// caller guarantees every row the view can address stays inside the
  /// backing storage.  Owning fields cannot be shifted.
  void shift_view(std::ptrdiff_t elems) {
    SUBSONIC_REQUIRE(view_ != nullptr);
    view_ += elems;
  }

  /// Pointer to the start of row y at x = -ghost (useful for row copies).
  T* row_begin(int y) { return base() + index(-ghost_, y); }
  const T* row_begin(int y) const { return base() + index(-ghost_, y); }

  /// Pointer p into row y such that p[x] == (*this)(x, y) for any valid x
  /// (including negative ghost coordinates).  The kernels hoist these per
  /// row so their inner loops run over raw __restrict pointers.
  T* row_ptr(int y) { return base() + index(0, y); }
  const T* row_ptr(int y) const { return base() + index(0, y); }

  friend bool operator==(const PaddedField2D& a, const PaddedField2D& b) {
    if (a.interior_ != b.interior_ || a.ghost_ != b.ghost_) return false;
    for (int y = -a.ghost_; y < a.ny() + a.ghost_; ++y)
      for (int x = -a.ghost_; x < a.nx() + a.ghost_; ++x)
        if (a(x, y) != b(x, y)) return false;
    return true;
  }

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y + ghost_) * row_stride_ +
           static_cast<std::size_t>(x + ghost_);
  }

  T* base() { return view_ ? view_ : data_.data(); }
  const T* base() const { return view_ ? view_ : data_.data(); }

  Extents2 interior_{};
  int ghost_ = 0;
  int pitch_ = 0;
  int row_stride_ = 0;
  int rows_ = 0;
  T* view_ = nullptr;  ///< external base when a view; null when owning
  std::vector<T, CacheAlignedAllocator<T>> data_;
};

/// 3D scalar field with ghost padding; x fastest, then y, then z.
template <typename T>
class PaddedField3D {
 public:
  PaddedField3D() = default;

  PaddedField3D(Extents3 interior, int ghost, int extra_pitch = 0)
      : interior_(interior), ghost_(ghost) {
    SUBSONIC_REQUIRE(interior.nx > 0 && interior.ny > 0 && interior.nz > 0);
    SUBSONIC_REQUIRE(ghost >= 0 && extra_pitch >= 0);
    // See PaddedField2D: quantize the extra separately so it is never
    // swallowed by the cache-line rounding of the base width.
    pitch_x_ = round_pitch<T>(interior.nx + 2 * ghost) +
               round_pitch<T>(extra_pitch);
    pencil_stride_ = pitch_x_;
    pitch_y_ = interior.ny + 2 * ghost;
    slabs_ = interior.nz + 2 * ghost;
    data_.assign(
        static_cast<std::size_t>(pitch_x_) * pitch_y_ * slabs_, T{});
  }

  /// Non-owning strided view: pencil (y, z) starts at
  /// `base + ((z + ghost) * pitch_y + (y + ghost)) * pencil_stride` and
  /// owns `pitch_x` elements there.  See the 2D view constructor.
  PaddedField3D(T* base, Extents3 interior, int ghost, int pitch_x,
                int pencil_stride)
      : interior_(interior),
        ghost_(ghost),
        pitch_x_(pitch_x),
        pitch_y_(interior.ny + 2 * ghost),
        pencil_stride_(pencil_stride),
        slabs_(interior.nz + 2 * ghost),
        view_(base) {
    SUBSONIC_REQUIRE(base != nullptr);
    SUBSONIC_REQUIRE(pitch_x >= interior.nx + 2 * ghost);
    SUBSONIC_REQUIRE(pencil_stride >= pitch_x);
  }

  Extents3 interior() const { return interior_; }
  int nx() const { return interior_.nx; }
  int ny() const { return interior_.ny; }
  int nz() const { return interior_.nz; }
  int ghost() const { return ghost_; }

  int pitch() const { return pitch_x_; }
  /// Elements between consecutive pencils (== pitch for owning fields).
  int row_stride() const { return pencil_stride_; }
  bool contiguous() const { return view_ == nullptr; }

  std::size_t stored_count() const {
    return static_cast<std::size_t>(pitch_x_) * pitch_y_ * slabs_;
  }

  bool valid(int x, int y, int z) const {
    return x >= -ghost_ && x < interior_.nx + ghost_ && y >= -ghost_ &&
           y < interior_.ny + ghost_ && z >= -ghost_ &&
           z < interior_.nz + ghost_;
  }

  T& operator()(int x, int y, int z) { return base()[index(x, y, z)]; }
  const T& operator()(int x, int y, int z) const {
    return base()[index(x, y, z)];
  }

  T& at(int x, int y, int z) {
    SUBSONIC_REQUIRE(valid(x, y, z));
    return base()[index(x, y, z)];
  }
  const T& at(int x, int y, int z) const {
    SUBSONIC_REQUIRE(valid(x, y, z));
    return base()[index(x, y, z)];
  }

  void fill(T value) {
    if (view_ == nullptr) {
      data_.assign(data_.size(), value);
      return;
    }
    const std::size_t pencils =
        static_cast<std::size_t>(pitch_y_) * slabs_;
    for (std::size_t r = 0; r < pencils; ++r)
      std::fill_n(view_ + r * pencil_stride_, pitch_x_, value);
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

  /// Pointer p into pencil (y, z) with p[x] == (*this)(x, y, z); see the
  /// 2D row_ptr.
  T* row_ptr(int y, int z) { return base() + index(0, y, z); }
  const T* row_ptr(int y, int z) const {
    return base() + index(0, y, z);
  }

  /// Pointer to the start of pencil (y, z) at x = -ghost (row copies).
  T* row_begin(int y, int z) { return base() + index(-ghost_, y, z); }
  const T* row_begin(int y, int z) const {
    return base() + index(-ghost_, y, z);
  }

  friend bool operator==(const PaddedField3D& a, const PaddedField3D& b) {
    if (a.interior_ != b.interior_ || a.ghost_ != b.ghost_) return false;
    for (int z = -a.ghost_; z < a.nz() + a.ghost_; ++z)
      for (int y = -a.ghost_; y < a.ny() + a.ghost_; ++y)
        for (int x = -a.ghost_; x < a.nx() + a.ghost_; ++x)
          if (a(x, y, z) != b(x, y, z)) return false;
    return true;
  }

 private:
  std::size_t index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z + ghost_) * pitch_y_ +
            static_cast<std::size_t>(y + ghost_)) *
               pencil_stride_ +
           static_cast<std::size_t>(x + ghost_);
  }

  T* base() { return view_ ? view_ : data_.data(); }
  const T* base() const { return view_ ? view_ : data_.data(); }

  Extents3 interior_{};
  int ghost_ = 0;
  int pitch_x_ = 0;
  int pitch_y_ = 0;
  int pencil_stride_ = 0;
  int slabs_ = 0;
  T* view_ = nullptr;  ///< external base when a view; null when owning
  std::vector<T, CacheAlignedAllocator<T>> data_;
};

}  // namespace subsonic
