#include "src/util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/rng.hpp"

namespace subsonic {
namespace {

/// The classic one-byte-at-a-time CRC32 the slicing-by-8 sum replaced,
/// table and all, kept here as the reference its values must match.
std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t len,
                             std::uint32_t seed) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(Rng& rng, std::size_t n) {
  std::vector<unsigned char> v(n);
  for (unsigned char& b : v) b = static_cast<unsigned char>(rng());
  return v;
}

TEST(Crc32, KnownAnswers) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(check, 0), 0u);
}

TEST(Crc32, SlicingMatchesBytewiseReference) {
  Rng rng(20261017);
  // Eight spare bytes in front, so every start alignment 0-7 is reached
  // with the full 4,096-byte tail behind it.
  const std::vector<unsigned char> buf = random_bytes(rng, 4096 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::uint32_t seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(crc32(p, len, seed), bytewise_crc32(p, len, seed))
          << "offset " << offset << ", length " << len << ", seed " << seed;
    }
  }
}

TEST(Crc32, IncrementalSumsMatchOneShot) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.below(3000);
    const std::vector<unsigned char> v = random_bytes(rng, n);
    const std::uint32_t whole = crc32(v.data(), n);
    // Feed the buffer in up to five pieces split at random points.
    std::uint32_t running = 0;
    std::size_t at = 0;
    for (int piece = 0; piece < 4 && at < n; ++piece) {
      const std::size_t len = rng.below(n - at + 1);
      running = crc32(v.data() + at, len, running);
      at += len;
    }
    running = crc32(v.data() + at, n - at, running);
    ASSERT_EQ(running, whole) << "trial " << trial << ", length " << n;
  }
}

}  // namespace
}  // namespace subsonic
