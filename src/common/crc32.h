// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven (slicing-by-8).
//
// Used by the write-ahead operation journal to frame records so a torn or
// bit-flipped tail is detected and truncated during recovery instead of
// being replayed as data, by the SN3 snapshot trailer, and by replication's
// tree checksums.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dcart {

/// CRC of `data[0..n)`.  Chain blocks by passing the previous result as
/// `seed` (the seed is pre/post-inverted internally, standard composition).
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace dcart
