#include "src/decomp/block_decomposition.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "src/util/check.hpp"

namespace subsonic {

int block_side_from_env(int fallback) {
  const char* s = std::getenv("SUBSONIC_BLOCKS");
  if (!s || !*s) return fallback;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0)
    throw std::invalid_argument(
        std::string("SUBSONIC_BLOCKS must be a positive block side, got \"") +
        s + '"');
  return static_cast<int>(v);
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

/// Blocks along an axis of `n` nodes cut into `ranks` subregions: one per
/// subregion for side 0, else the side-targeted count.
int blocks_along(int n, int ranks, int side, int min_side) {
  return side == 0 ? ranks : block_count_for_axis(n, side, min_side);
}

template <typename BlockDecomp>
void validate_owner_map(const BlockDecomp& d, const std::vector<int>& owner) {
  SUBSONIC_REQUIRE_MSG(
      owner.size() == static_cast<size_t>(d.block_count()),
      "owner map size does not match the block count");
  for (int b = 0; b < d.block_count(); ++b) {
    if (d.block_active(b)) {
      SUBSONIC_REQUIRE_MSG(owner[b] >= 0 && owner[b] < d.rank_count(),
                           "active block assigned to an out-of-range rank");
    } else {
      SUBSONIC_REQUIRE_MSG(owner[b] == -1,
                           "inactive (all-solid) block must keep owner -1");
    }
  }
}

template <typename Owner>
std::vector<int> blocks_of_impl(const Owner& owner, int rank) {
  std::vector<int> out;
  for (int b = 0; b < static_cast<int>(owner.size()); ++b)
    if (owner[b] == rank) out.push_back(b);
  return out;
}

template <typename Owner>
std::vector<int> active_ranks_impl(const Owner& owner, int rank_count) {
  std::vector<bool> seen(rank_count, false);
  for (int r : owner)
    if (r >= 0) seen[r] = true;
  std::vector<int> out;
  for (int r = 0; r < rank_count; ++r)
    if (seen[r]) out.push_back(r);
  return out;
}

}  // namespace

BlockDecomposition2D::BlockDecomposition2D(const Mask2D& mask, int jx, int jy,
                                           int side, int min_side)
    : blocks_(mask.extents(),
              blocks_along(mask.extents().nx, jx, side, min_side),
              blocks_along(mask.extents().ny, jy, side, min_side)),
      ranks_(mask.extents(), jx, jy) {
  const auto active = subsonic::active_ranks(blocks_, mask);
  active_.assign(blocks_.rank_count(), false);
  for (int b : active) active_[b] = true;
  owner_.assign(blocks_.rank_count(), -1);
  for (int b : active) {
    const Box2 box = blocks_.box(b);
    owner_[b] = ranks_.owner_of((box.x0 + box.x1 - 1) / 2,
                                (box.y0 + box.y1 - 1) / 2);
  }
}

void BlockDecomposition2D::set_owner(int block, int rank) {
  SUBSONIC_REQUIRE(block >= 0 && block < block_count());
  SUBSONIC_REQUIRE_MSG(block_active(block),
                       "cannot assign an inactive (all-solid) block");
  SUBSONIC_REQUIRE(rank >= 0 && rank < rank_count());
  owner_[block] = rank;
}

void BlockDecomposition2D::set_owner_map(std::vector<int> owner) {
  validate_owner_map(*this, owner);
  owner_ = std::move(owner);
}

std::vector<int> BlockDecomposition2D::blocks_of(int rank) const {
  return blocks_of_impl(owner_, rank);
}

std::vector<int> BlockDecomposition2D::active_ranks() const {
  return active_ranks_impl(owner_, rank_count());
}

BlockDecomposition3D::BlockDecomposition3D(const Mask3D& mask, int jx, int jy,
                                           int jz, int side, int min_side)
    : blocks_(mask.extents(),
              blocks_along(mask.extents().nx, jx, side, min_side),
              blocks_along(mask.extents().ny, jy, side, min_side),
              blocks_along(mask.extents().nz, jz, side, min_side)),
      ranks_(mask.extents(), jx, jy, jz) {
  const auto active = subsonic::active_ranks(blocks_, mask);
  active_.assign(blocks_.rank_count(), false);
  for (int b : active) active_[b] = true;
  owner_.assign(blocks_.rank_count(), -1);
  for (int b : active) {
    const Box3 box = blocks_.box(b);
    owner_[b] = ranks_.owner_of((box.x0 + box.x1 - 1) / 2,
                                (box.y0 + box.y1 - 1) / 2,
                                (box.z0 + box.z1 - 1) / 2);
  }
}

void BlockDecomposition3D::set_owner(int block, int rank) {
  SUBSONIC_REQUIRE(block >= 0 && block < block_count());
  SUBSONIC_REQUIRE_MSG(block_active(block),
                       "cannot assign an inactive (all-solid) block");
  SUBSONIC_REQUIRE(rank >= 0 && rank < rank_count());
  owner_[block] = rank;
}

void BlockDecomposition3D::set_owner_map(std::vector<int> owner) {
  validate_owner_map(*this, owner);
  owner_ = std::move(owner);
}

std::vector<int> BlockDecomposition3D::blocks_of(int rank) const {
  return blocks_of_impl(owner_, rank);
}

std::vector<int> BlockDecomposition3D::active_ranks() const {
  return active_ranks_impl(owner_, rank_count());
}

}  // namespace subsonic
