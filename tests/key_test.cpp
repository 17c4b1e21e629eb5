// dcart::Key against the std::vector<std::uint8_t> it replaced: seeded
// random edit sequences that cross the inline/heap bound both ways, the
// vector's order, the KeyView conversion and the pinned record sizes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "workload/ops.h"

namespace dcart {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kMaxLen = 64;

Bytes ToBytes(const Key& key) { return Bytes(key.begin(), key.end()); }

Bytes RandomBytes(SplitMix64& rng, std::size_t n) {
  Bytes bytes(n);
  // A four-letter alphabet, so random keys share prefixes and tie often.
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.Next() % 4);
  return bytes;
}

void ExpectMatches(const Key& key, const Bytes& model) {
  ASSERT_EQ(key.size(), model.size());
  EXPECT_EQ(key.empty(), model.empty());
  EXPECT_EQ(ToBytes(key), model);
  EXPECT_GE(key.capacity(), key.size());
  EXPECT_TRUE(key.size() <= Key::kInlineCapacity || key.on_heap());
}

TEST(Key, LayoutIsPinned) {
  // A Key is no bigger than the vector it replaced, and the batch record
  // that holds one stays 48 bytes.
  EXPECT_EQ(sizeof(Key), sizeof(std::vector<std::uint8_t>));
  EXPECT_EQ(sizeof(Operation), 48u);
  // Containers of keys relocate by move only when the move cannot throw.
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<Key>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<Key>);
}

TEST(Key, ConstructorsMatchVector) {
  for (std::size_t n : {0, 1, 22, 23, 40}) {
    EXPECT_EQ(ToBytes(Key(n)), Bytes(n));
    EXPECT_EQ(ToBytes(Key(n, 0xab)), Bytes(n, 0xab));
    const std::string text(n, 'q');
    EXPECT_EQ(ToBytes(Key(text.begin(), text.end())),
              Bytes(text.begin(), text.end()));
    const std::list<std::uint8_t> list(n, 7);  // forward, not contiguous
    EXPECT_EQ(ToBytes(Key(list.begin(), list.end())), Bytes(n, 7));
  }
  EXPECT_EQ(ToBytes(Key{1, 2, 3}), (Bytes{1, 2, 3}));
  EXPECT_EQ(ToBytes(Key{}), Bytes{});
}

TEST(Key, InlineUpToTheBoundAndCompactOnCopy) {
  const Key short_key(Key::kInlineCapacity, 1);
  EXPECT_FALSE(short_key.on_heap());
  const auto* object = reinterpret_cast<const std::uint8_t*>(&short_key);
  EXPECT_GE(short_key.data(), object);
  EXPECT_LE(short_key.data() + short_key.size(), object + sizeof(Key));
  EXPECT_TRUE(Key(Key::kInlineCapacity + 1, 1).on_heap());

  // A heap key shrunk below the bound keeps its block, as a vector keeps
  // its capacity; a copy of it is inline again.
  Key shrunk(40, 2);
  shrunk.resize(3);
  EXPECT_TRUE(shrunk.on_heap());
  const Key copy(shrunk);
  EXPECT_FALSE(copy.on_heap());
  EXPECT_EQ(copy, shrunk);
}

TEST(Key, MoveTakesTheHeapBlockAndLeavesTheSourceEmpty) {
  Key long_key(40, 3);
  const std::uint8_t* block = long_key.data();
  Key moved(std::move(long_key));
  EXPECT_EQ(moved.data(), block);  // a heap key's bytes survive a move
  EXPECT_TRUE(long_key.empty());   // NOLINT(bugprone-use-after-move)
  long_key.push_back(9);           // and the source is usable again
  EXPECT_EQ(ToBytes(long_key), Bytes{9});

  Key short_key(5, 4);
  Key target(30, 1);
  target = std::move(short_key);
  EXPECT_EQ(ToBytes(target), Bytes(5, 4));
  EXPECT_TRUE(short_key.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(Key, ConvertsToKeyView) {
  for (std::size_t n : {0, 4, 22, 23, 64}) {
    const Key key(n, 0x5a);
    const KeyView view = key;
    EXPECT_EQ(view.data(), key.data());
    EXPECT_EQ(view.size(), n);
    // Passed straight to the helpers that take a KeyView.
    const Bytes same(n, 0x5a);
    EXPECT_EQ(HashKey(key), HashKey(same));
    EXPECT_EQ(CompareKeys(key, same), 0);
    EXPECT_TRUE(KeysEqual(key, same));
  }
}

TEST(Key, MapIteratesInVectorOrder) {
  SplitMix64 rng(11);
  std::map<Key, int> keys;
  std::map<Bytes, int> model;
  for (int i = 0; i < 2000; ++i) {
    const Bytes bytes = RandomBytes(rng, rng.NextBounded(kMaxLen / 2 + 1));
    keys.emplace(Key(bytes.begin(), bytes.end()), i);
    model.emplace(bytes, i);
  }
  ASSERT_EQ(keys.size(), model.size());
  auto it = model.begin();
  for (const auto& [key, value] : keys) {
    EXPECT_EQ(ToBytes(key), it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  }
}

// Every mutation the code base uses, plus copy, move, self-assignment and
// swap, applied to a few Keys and to a vector model of each; lengths stay in
// 0..kMaxLen, so keys cross the inline bound in both directions.
TEST(Key, RandomEditsMatchVectorModel) {
  constexpr std::size_t kSlots = 4;
  constexpr int kSteps = 4000;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SplitMix64 rng(seed);
    std::array<Key, kSlots> keys;
    std::array<Bytes, kSlots> models;
    int grew_past_bound = 0, shrank_to_bound = 0;
    const auto length = [&] { return rng.NextBounded(kMaxLen + 1); };
    for (int step = 0; step < kSteps; ++step) {
      const std::size_t a = rng.NextBounded(kSlots);
      const std::size_t b = rng.NextBounded(kSlots);
      Key& key = keys[a];
      Bytes& model = models[a];
      const std::size_t before = model.size();
      const auto byte = static_cast<std::uint8_t>(rng.Next());
      switch (rng.NextBounded(16)) {
        case 0: {
          const std::size_t n = length();
          key.assign(n, byte);
          model.assign(n, byte);
          break;
        }
        case 1: {
          const Bytes src = RandomBytes(rng, length());
          key.assign(src.begin(), src.end());
          model.assign(src.begin(), src.end());
          break;
        }
        case 2: {
          const Bytes bytes = RandomBytes(rng, length());
          const std::list<std::uint8_t> src(bytes.begin(), bytes.end());
          key.assign(src.begin(), src.end());
          model = bytes;
          break;
        }
        case 3: {
          const std::size_t n = length();
          key.resize(n);
          model.resize(n);
          break;
        }
        case 4: {
          const std::size_t n = length();
          key.resize(n, byte);
          model.resize(n, byte);
          break;
        }
        case 5:
          if (model.size() < kMaxLen) {
            key.push_back(byte);
            model.push_back(byte);
          }
          break;
        case 6:
          if (!model.empty()) {
            key.pop_back();
            model.pop_back();
          }
          break;
        case 7:
          if (model.size() < kMaxLen) {
            const std::size_t pos = rng.NextBounded(model.size() + 1);
            EXPECT_EQ(*key.insert(key.begin() + pos, byte), byte);
            model.insert(model.begin() + pos, byte);
          }
          break;
        case 8: {
          const std::size_t pos = rng.NextBounded(model.size() + 1);
          const Bytes src =
              RandomBytes(rng, rng.NextBounded(kMaxLen - model.size() + 1));
          const auto at = key.insert(key.begin() + pos, src.begin(), src.end());
          EXPECT_EQ(at, key.begin() + pos);
          model.insert(model.begin() + pos, src.begin(), src.end());
          break;
        }
        case 9:
          if (!model.empty()) {
            const std::size_t pos = rng.NextBounded(model.size());
            EXPECT_EQ(key.erase(key.begin() + pos), key.begin() + pos);
            model.erase(model.begin() + pos);
          }
          break;
        case 10: {
          std::size_t first = rng.NextBounded(model.size() + 1);
          std::size_t last = rng.NextBounded(model.size() + 1);
          if (first > last) std::swap(first, last);
          key.erase(key.begin() + first, key.begin() + last);
          model.erase(model.begin() + first, model.begin() + last);
          break;
        }
        case 11:
          if (rng.NextBounded(4) == 0) {
            key.clear();
            model.clear();
          } else {
            key.reserve(length());
          }
          break;
        case 12: {
          Key copy(keys[b]);
          ExpectMatches(copy, models[b]);
          key = std::move(copy);
          model = models[b];
          break;
        }
        case 13: {
          const Key& src = keys[b];  // a == b is a self-assignment
          key = src;
          model = models[b];
          break;
        }
        case 14:
          if (a == b) {  // self-move leaves the key as it was
            Key& same = keys[b];
            key = std::move(same);
          } else {
            key = std::move(keys[b]);
            model = std::move(models[b]);
            EXPECT_TRUE(keys[b].empty());  // NOLINT(bugprone-use-after-move)
            models[b].clear();
          }
          break;
        case 15: {
          Key moved(std::move(key));
          EXPECT_TRUE(key.empty());  // NOLINT(bugprone-use-after-move)
          ExpectMatches(moved, model);
          std::swap(keys[a], keys[b]);
          std::swap(models[a], models[b]);
          keys[b] = std::move(moved);  // slot a's bytes, now slot b's model
          break;
        }
      }
      grew_past_bound += before <= Key::kInlineCapacity &&
                         models[a].size() > Key::kInlineCapacity;
      shrank_to_bound += before > Key::kInlineCapacity &&
                         models[a].size() <= Key::kInlineCapacity;
      for (std::size_t i = 0; i < kSlots; ++i) {
        ExpectMatches(keys[i], models[i]);
        for (std::size_t j = 0; j < kSlots; ++j) {
          EXPECT_EQ(keys[i] == keys[j], models[i] == models[j]);
          EXPECT_EQ(keys[i] <=> keys[j], models[i] <=> models[j]);
        }
      }
      if (HasFailure()) return;
    }
    EXPECT_GT(grew_past_bound, 0);
    EXPECT_GT(shrank_to_bound, 0);
  }
}

#ifndef NDEBUG
// Inline bytes are inside the object, so ASan cannot see an over-read of a
// short key: operator[]'s assert is its bounds check.
TEST(KeyDeathTest, IndexPastTheEndAsserts) {
  const Key key(4, 1);
  EXPECT_DEATH(static_cast<void>(key[4]), "");
}
#endif

}  // namespace
}  // namespace dcart
