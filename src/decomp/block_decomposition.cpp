#include "src/decomp/block_decomposition.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <tuple>

#include "src/util/check.hpp"
#include "src/util/env_int.hpp"

namespace subsonic {

int block_side_from_env(int fallback) {
  return env_int("SUBSONIC_BLOCKS", fallback, 1, INT_MAX);
}

int resolve_block_side(int requested) {
  return requested < 0 ? block_side_from_env(kDefaultBlockSide) : requested;
}

int block_count_for_axis(int n, int side, int min_side) {
  SUBSONIC_REQUIRE(n >= 1 && side >= 1 && min_side >= 1);
  // Round to the nearest block count, then clamp so even the smallest
  // block (even_split makes them differ by at most one node) is still at
  // least min_side wide.
  int count = std::max(1, (n + side / 2) / side);
  count = std::min(count, std::max(1, n / min_side));
  return count;
}

namespace {

/// The block grid over extents `e`: the rank grid itself at side 0, else
/// the side-targeted count along each axis.
template <typename Extents>
GridShape block_grid(const Extents& e, const GridShape& ranks, int side,
                     int min_side) {
  if (side == 0) return ranks;
  const auto n = e.sizes();
  std::array<int, 3> j{1, 1, 1};
  for (size_t a = 0; a < n.size(); ++a)
    j[a] = block_count_for_axis(n[a], side, min_side);
  return GridShape{j[0], j[1], j[2]};
}

}  // namespace

template <int Dim>
BlockDecomposition<Dim>::BlockDecomposition(const Mask& mask,
                                            const GridShape& grid, int side,
                                            int min_side,
                                            const Periodicity& periodic)
    : blocks_(mask.extents(), block_grid(mask.extents(), grid, side, min_side)),
      ranks_(mask.extents(), grid) {
  active_.assign(block_count(), false);
  owner_.assign(block_count(), -1);
  for (int b : subsonic::active_ranks(blocks_, mask, periodic)) {
    active_[b] = true;
    const Box box = blocks_.box(b);
    const auto lo = box.lo(), hi = box.hi();
    std::array<int, Dim> center;
    for (int a = 0; a < Dim; ++a) center[a] = (lo[a] + hi[a] - 1) / 2;
    owner_[b] = std::apply(
        [this](auto... c) { return ranks_.owner_of(c...); }, center);
  }
}

template <int Dim>
void BlockDecomposition<Dim>::set_owner(int block, int rank) {
  SUBSONIC_REQUIRE(block >= 0 && block < block_count());
  SUBSONIC_REQUIRE_MSG(block_active(block),
                       "cannot assign an inactive (all-solid) block");
  SUBSONIC_REQUIRE(rank >= 0 && rank < rank_count());
  owner_[block] = rank;
}

template <int Dim>
void BlockDecomposition<Dim>::set_owner_map(std::vector<int> owner) {
  SUBSONIC_REQUIRE_MSG(owner.size() == static_cast<size_t>(block_count()),
                       "owner map size does not match the block count");
  for (int b = 0; b < block_count(); ++b) {
    if (block_active(b)) {
      SUBSONIC_REQUIRE_MSG(owner[b] >= 0 && owner[b] < rank_count(),
                           "active block assigned to an out-of-range rank");
    } else {
      SUBSONIC_REQUIRE_MSG(owner[b] == -1,
                           "inactive (all-solid) block must keep owner -1");
    }
  }
  owner_ = std::move(owner);
}

template <int Dim>
std::vector<int> BlockDecomposition<Dim>::blocks_of(int rank) const {
  std::vector<int> out;
  for (int b = 0; b < block_count(); ++b)
    if (owner_[b] == rank) out.push_back(b);
  return out;
}

template <int Dim>
std::vector<int> BlockDecomposition<Dim>::active_ranks() const {
  std::vector<bool> seen(rank_count(), false);
  for (int r : owner_)
    if (r >= 0) seen[r] = true;
  std::vector<int> out;
  for (int r = 0; r < rank_count(); ++r)
    if (seen[r]) out.push_back(r);
  return out;
}

template class BlockDecomposition<2>;
template class BlockDecomposition<3>;

}  // namespace subsonic
