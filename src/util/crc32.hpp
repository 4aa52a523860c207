// CRC32 (the IEEE 802.3 polynomial, reflected form 0xEDB88320) used to
// verify checkpoint payloads.  A dump that survived an atomic rename is
// complete, but a torn write injected past the atomic protocol — or plain
// disk corruption — must never restore silently; the checksum in the dump
// header is the last line of defence.
//
// The sum is computed by slicing-by-8: eight 256-entry tables fold eight
// input bytes per step, so a flue-pipe rank's ~20 MB dump checksums in
// ~12 ms where a one-table, one-byte-a-step loop takes ~60 ms, and every
// dump is summed twice (written by its rank, verified by the supervisor).
// The values are the bytewise loop's; tests/util keeps that loop as the
// reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace subsonic {

namespace detail {

using Crc32Slices = std::array<std::array<std::uint32_t, 256>, 8>;

/// slices[0] is the bytewise table; slices[k][b] is the CRC register
/// after byte b followed by k zero bytes, so the eight lookups of one
/// step each account for one byte at its distance from the step's end.
constexpr Crc32Slices make_crc32_slices() {
  Crc32Slices t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr Crc32Slices kCrc32Slices = make_crc32_slices();

/// Little-endian 32-bit load from any alignment (one mov on x86).
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC32 of `len` bytes at `data`.  Pass a previous result as `seed` to
/// checksum a stream incrementally; the default seed starts a fresh sum.
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  const detail::Crc32Slices& t = detail::kCrc32Slices;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace subsonic
