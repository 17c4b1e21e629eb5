// Property tests pinning the vectorized node-search kernel against the
// portable scalar reference.  Built under both -DDCART_SIMD=ON and OFF: ON
// exercises the SSE2/AVX2 paths, OFF proves the fallback wiring agrees with
// the same reference.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "common/simd.h"

namespace dcart::simd {
namespace {

// Arrays sized like the real nodes: the vector paths always load the full
// 16/32 bytes, so the tail past `count` must be populated (with bytes that
// could collide) and must never affect the result.
using Keys32 = std::array<std::uint8_t, 32>;

Keys32 RandomKeys(SplitMix64& rng) {
  Keys32 keys;
  for (auto& k : keys) k = static_cast<std::uint8_t>(rng.NextBounded(256));
  return keys;
}

TEST(SimdSearch, MatchesScalarOnRandomNodesAllCounts) {
  SplitMix64 rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    const Keys32 keys = RandomKeys(rng);
    for (int count = 0; count <= 32; ++count) {
      // Probe every present byte, a random byte, and a byte planted just
      // past `count` (must report absent despite sitting in the vector).
      for (int probe = 0; probe <= count + 1; ++probe) {
        const std::uint8_t b = probe <= count
                                   ? keys[static_cast<std::size_t>(
                                         probe % (count > 0 ? count : 1))]
                                   : keys[static_cast<std::size_t>(count) % 32];
        const int expect32 = FindByteScalar(keys.data(), count, b);
        ASSERT_EQ(FindKeyByte32(keys.data(), count, b), expect32)
            << "count=" << count << " b=" << int{b};
        if (count <= 16) {
          ASSERT_EQ(FindKeyByte16(keys.data(), count, b),
                    FindByteScalar(keys.data(), count, b))
              << "count=" << count << " b=" << int{b};
        }
      }
      const auto r = static_cast<std::uint8_t>(rng.NextBounded(256));
      ASSERT_EQ(FindKeyByte32(keys.data(), count, r),
                FindByteScalar(keys.data(), count, r));
    }
  }
}

TEST(SimdSearch, FirstMatchWinsWithDuplicates) {
  // ART nodes never hold duplicate keys, but the kernel contract is
  // first-match so callers need not care; pin it explicitly.
  Keys32 keys{};
  keys.fill(0x7f);
  for (int count = 1; count <= 32; ++count) {
    ASSERT_EQ(FindKeyByte32(keys.data(), count, 0x7f), 0);
    if (count <= 16) {
      ASSERT_EQ(FindKeyByte16(keys.data(), count, 0x7f), 0);
    }
  }
  // A duplicate pair straddling the 16-lane boundary.
  SplitMix64 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    Keys32 k = RandomKeys(rng);
    const auto lo = static_cast<std::size_t>(rng.NextBounded(16));
    const auto hi = static_cast<std::size_t>(16 + rng.NextBounded(16));
    k[lo] = 0xee;
    k[hi] = 0xee;
    for (int count = 0; count <= 32; ++count) {
      ASSERT_EQ(FindKeyByte32(k.data(), count, 0xee),
                FindByteScalar(k.data(), count, 0xee))
          << "count=" << count << " lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(SimdSearch, AbsentByteAndZeroCount) {
  SplitMix64 rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    Keys32 keys = RandomKeys(rng);
    for (auto& k : keys) {
      if (k == 0x42) k = 0x43;  // make 0x42 certainly absent
    }
    for (int count = 0; count <= 32; ++count) {
      ASSERT_EQ(FindKeyByte32(keys.data(), count, 0x42), -1);
      if (count <= 16) {
        ASSERT_EQ(FindKeyByte16(keys.data(), count, 0x42), -1);
      }
    }
    // count == 0 finds nothing even when the byte is everywhere.
    keys.fill(0x42);
    ASSERT_EQ(FindKeyByte16(keys.data(), 0, 0x42), -1);
    ASSERT_EQ(FindKeyByte32(keys.data(), 0, 0x42), -1);
  }
}

}  // namespace
}  // namespace dcart::simd
