#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace dcart {

namespace {

// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the CRC
// of byte b followed by k zero bytes, which lets one step fold eight input
// bytes with eight independent lookups (slicing-by-8) instead of a chain of
// eight dependent ones.  Snapshots and tree checksums run CRC32 over
// megabytes, where the byte loop's dependency chain is the cost.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables =
    MakeTables();

// The sliced step reads input words in little-endian order.
static_assert(std::endian::native == std::endian::little);

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, bytes, sizeof lo);
    std::memcpy(&hi, bytes + 4, sizeof hi);
    lo ^= c;
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++bytes) {
    c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace dcart
