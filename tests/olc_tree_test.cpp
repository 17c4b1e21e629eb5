// Tests for the concurrent OLC ART: single-threaded model checking against
// std::map, multi-threaded stress with real threads (insert/lookup mixes,
// key ranges that force node growth and path splits), and the traced walks.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/olc_tree.h"
#include "common/key_codec.h"
#include "common/rng.h"

namespace dcart::baselines {
namespace {

using sync::SyncStats;

TEST(OlcTree, EmptyLookup) {
  OlcTree tree;
  SyncStats stats;
  EXPECT_FALSE(tree.Lookup(EncodeU64(1), 0, stats).has_value());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(OlcTree, SingleKey) {
  OlcTree tree;
  SyncStats stats;
  EXPECT_TRUE(tree.Insert(EncodeU64(7), 70, 0, stats));
  EXPECT_EQ(tree.Lookup(EncodeU64(7), 0, stats).value(), 70u);
  EXPECT_FALSE(tree.Insert(EncodeU64(7), 71, 0, stats));  // update
  EXPECT_EQ(tree.Lookup(EncodeU64(7), 0, stats).value(), 71u);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(OlcTree, MatchesModelUnderRandomOps) {
  OlcTree tree;
  SyncStats stats;
  std::map<std::uint64_t, std::uint64_t> model;
  SplitMix64 rng(5);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t k = rng.NextBounded(8000);
    if (rng.NextBounded(2) == 0) {
      const std::uint64_t v = rng.Next();
      tree.Insert(EncodeU64(k), v, 0, stats);
      model[k] = v;
    } else {
      const auto got = tree.Lookup(EncodeU64(k), 0, stats);
      const auto it = model.find(k);
      if (it == model.end()) {
        ASSERT_FALSE(got.has_value()) << k;
      } else {
        ASSERT_EQ(got.value(), it->second) << k;
      }
    }
  }
  EXPECT_EQ(tree.size(), model.size());
}

TEST(OlcTree, StringKeysWithDeepPrefixes) {
  OlcTree tree;
  SyncStats stats;
  const std::string base(30, 'p');
  std::vector<std::string> words;
  for (char a = 'a'; a <= 'z'; ++a) {
    for (char b = 'a'; b <= 'e'; ++b) {
      words.push_back(base + a + b);
    }
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_TRUE(tree.Insert(EncodeString(words[i]), i, 0, stats));
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_EQ(tree.Lookup(EncodeString(words[i]), 0, stats).value(), i);
  }
  // A key diverging inside the long compressed path.
  std::string deviant = base;
  deviant[15] = 'q';
  ASSERT_TRUE(tree.Insert(EncodeString(deviant), 999, 0, stats));
  EXPECT_EQ(tree.Lookup(EncodeString(deviant), 0, stats).value(), 999u);
  EXPECT_EQ(tree.Lookup(EncodeString(words[0]), 0, stats).value(), 0u);
}

TEST(OlcTree, CasLeafUpdatePath) {
  OlcTree tree;
  SyncStats stats;
  tree.Insert(EncodeU64(1), 10, 0, stats);
  EXPECT_FALSE(tree.Insert(EncodeU64(1), 20, 0, stats, nullptr,
                           /*cas_leaf_updates=*/true));
  EXPECT_EQ(tree.Lookup(EncodeU64(1), 0, stats).value(), 20u);
  // Insert of a fresh key through the CAS policy still works.
  EXPECT_TRUE(tree.Insert(EncodeU64(2), 30, 0, stats, nullptr, true));
  EXPECT_EQ(tree.Lookup(EncodeU64(2), 0, stats).value(), 30u);
}

TEST(OlcTree, BulkLoadThenLookup) {
  OlcTree tree;
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    items.emplace_back(EncodeU64(i * 3), i);
  }
  tree.BulkLoad(items);
  EXPECT_EQ(tree.size(), items.size());
  SyncStats stats;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(tree.Lookup(EncodeU64(i * 3), 0, stats).value(), i);
    ASSERT_FALSE(tree.Lookup(EncodeU64(i * 3 + 1), 0, stats).has_value());
  }
}

TEST(OlcTree, FindLeafTracedMatchesLookup) {
  OlcTree tree;
  SyncStats stats;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    tree.Insert(EncodeU64(i), i + 1, 0, stats);
  }
  for (std::uint64_t i = 0; i < 2000; i += 37) {
    const auto* leaf = tree.FindLeafTraced(EncodeU64(i), nullptr);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->value.load(), i + 1);
  }
  EXPECT_EQ(tree.FindLeafTraced(EncodeU64(99999), nullptr), nullptr);
}

TEST(OlcTree, PathHintResumesTraversal) {
  OlcTree tree;
  SyncStats stats;
  // Keys sharing a 2-byte prefix so a depth-2 hint exists.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    tree.Insert(EncodeU64(0xAB00000000000000ull | i), i, 0, stats);
  }
  OlcTree::PathHint hint;
  const auto* leaf = tree.FindLeafTraced(
      EncodeU64(0xAB00000000000000ull | 5), nullptr, &hint, 2);
  ASSERT_NE(leaf, nullptr);
  ASSERT_NE(hint.node, nullptr);
  EXPECT_GE(hint.depth, 2u);
  const auto* resumed = tree.FindLeafTracedFrom(
      hint, EncodeU64(0xAB00000000000000ull | 77), nullptr);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->value.load(), 77u);
}

// ----------------------------------------------------------------- remove --

TEST(OlcTree, RemoveBasics) {
  OlcTree tree;
  SyncStats stats;
  EXPECT_FALSE(tree.Remove(EncodeU64(1), 0, stats));  // empty tree
  tree.Insert(EncodeU64(1), 10, 0, stats);
  EXPECT_FALSE(tree.Remove(EncodeU64(2), 0, stats));  // absent (root leaf)
  EXPECT_TRUE(tree.Remove(EncodeU64(1), 0, stats));   // root leaf
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Lookup(EncodeU64(1), 0, stats).has_value());
}

TEST(OlcTree, RemoveMatchesModel) {
  OlcTree tree;
  SyncStats stats;
  std::map<std::uint64_t, std::uint64_t> model;
  SplitMix64 rng(77);
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t k = rng.NextBounded(5000);
    switch (rng.NextBounded(3)) {
      case 0: {
        tree.Insert(EncodeU64(k), k + 1, 0, stats);
        model[k] = k + 1;
        break;
      }
      case 1: {
        const bool removed = tree.Remove(EncodeU64(k), 0, stats);
        ASSERT_EQ(removed, model.erase(k) > 0) << k;
        break;
      }
      default: {
        const auto got = tree.Lookup(EncodeU64(k), 0, stats);
        const auto it = model.find(k);
        if (it == model.end()) {
          ASSERT_FALSE(got.has_value()) << k;
        } else {
          ASSERT_EQ(got.value(), it->second) << k;
        }
      }
    }
    ASSERT_EQ(tree.size(), model.size());
  }
}

TEST(OlcTree, RemoveMergesSingleChildPaths) {
  OlcTree tree;
  SyncStats stats;
  // Two deep keys sharing a long prefix, plus one shallow key.
  const std::string base(25, 'k');
  tree.Insert(EncodeString(base + "aa"), 1, 0, stats);
  tree.Insert(EncodeString(base + "ab"), 2, 0, stats);
  tree.Insert(EncodeString("z"), 3, 0, stats);
  // Removing one of the deep pair forces the N4 merge + path
  // re-compression.
  EXPECT_TRUE(tree.Remove(EncodeString(base + "aa"), 0, stats));
  EXPECT_EQ(tree.Lookup(EncodeString(base + "ab"), 0, stats).value(), 2u);
  EXPECT_EQ(tree.Lookup(EncodeString("z"), 0, stats).value(), 3u);
  EXPECT_TRUE(tree.Remove(EncodeString(base + "ab"), 0, stats));
  EXPECT_EQ(tree.Lookup(EncodeString("z"), 0, stats).value(), 3u);
  EXPECT_EQ(tree.size(), 1u);
  // Reinsertion into the re-compressed tree works.
  EXPECT_TRUE(tree.Insert(EncodeString(base + "aa"), 4, 0, stats));
  EXPECT_EQ(tree.Lookup(EncodeString(base + "aa"), 0, stats).value(), 4u);
}

TEST(OlcTree, RemoveEverything) {
  OlcTree tree;
  SyncStats stats;
  std::vector<std::uint64_t> keys;
  SplitMix64 rng(13);
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Next());
  for (auto k : keys) tree.Insert(EncodeU64(k), k, 0, stats);
  Shuffle(keys, rng);
  for (auto k : keys) {
    ASSERT_TRUE(tree.Remove(EncodeU64(k), 0, stats));
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.root().IsNull());
}

// -------------------------------------------------- real-thread stress ----

TEST(OlcTreeStress, ConcurrentDisjointInserts) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 4000;
  OlcTree tree(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      SyncStats stats;
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t k = t * 1'000'000 + i;
        ASSERT_TRUE(tree.Insert(EncodeU64(k), k, t, stats));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tree.size(), kThreads * kPerThread);
  // Every key must be reachable both ways: a key filed under a root that a
  // concurrent path split moved one level down is still found by a full
  // scan but missed by a lookup, which keys its descent on the wrong byte.
  SyncStats stats;
  std::size_t missed = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const std::uint64_t k = t * 1'000'000 + i;
      if (tree.Lookup(EncodeU64(k), 0, stats) != std::optional<art::Value>(k)) {
        ++missed;
      }
    }
  }
  EXPECT_EQ(missed, 0u);
  EXPECT_EQ(tree.ScanTraced(Key{}, kThreads * kPerThread + 1, nullptr),
            kThreads * kPerThread);
}

TEST(OlcTreeStress, ConcurrentOverlappingUpserts) {
  // All threads hammer the same small key range: maximal lock contention,
  // growth races and path splits.
  constexpr std::size_t kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  constexpr std::uint64_t kKeySpace = 512;
  OlcTree tree(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      SyncStats stats;
      SplitMix64 rng(t * 7919 + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = rng.NextBounded(kKeySpace);
        tree.Insert(EncodeU64(k), (t << 32) | static_cast<std::uint64_t>(i),
                    t, stats);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tree.size(), kKeySpace);
  SyncStats stats;
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    ASSERT_TRUE(tree.Lookup(EncodeU64(k), 0, stats).has_value()) << k;
  }
}

TEST(OlcTreeStress, ReadersDuringWrites) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kReaders = 4;
  constexpr std::uint64_t kKeySpace = 4096;
  OlcTree tree(kWriters + kReaders);
  // Pre-populate half the space.
  {
    SyncStats stats;
    for (std::uint64_t k = 0; k < kKeySpace; k += 2) {
      tree.Insert(EncodeU64(k), k + 1, 0, stats);
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      SyncStats stats;
      SplitMix64 rng(t + 100);
      for (int i = 0; i < 30000; ++i) {
        const std::uint64_t k = rng.NextBounded(kKeySpace);
        tree.Insert(EncodeU64(k), k + 1, t, stats);
      }
      stop = true;
    });
  }
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      SyncStats stats;
      SplitMix64 rng(t + 500);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.NextBounded(kKeySpace);
        const auto got = tree.Lookup(EncodeU64(k), kWriters + t, stats);
        // Invariant: any value ever stored for key k equals k+1, and keys
        // pre-populated (even k) are always present.
        if (got.has_value() && *got != k + 1) bad_reads.fetch_add(1);
        if (!got.has_value() && (k % 2 == 0)) bad_reads.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_reads.load(), 0u);
}

TEST(OlcTreeStress, ConcurrentInsertRemoveChurn) {
  // Writers insert and delete in overlapping ranges; the invariant checked
  // is key-space partitioning: thread t owns keys with k % kThreads == t,
  // so every thread can verify its own keys exactly.
  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kPerThread = 1500;
  OlcTree tree(kThreads);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> errors{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, &errors, t] {
      SyncStats stats;
      SplitMix64 rng(t * 17 + 3);
      std::map<std::uint64_t, std::uint64_t> mine;
      for (int i = 0; i < 12000; ++i) {
        const std::uint64_t k =
            rng.NextBounded(kPerThread) * kThreads + t;  // owned key
        switch (rng.NextBounded(3)) {
          case 0:
            tree.Insert(EncodeU64(k), k, t, stats);
            mine[k] = k;
            break;
          case 1: {
            const bool removed = tree.Remove(EncodeU64(k), t, stats);
            if (removed != (mine.erase(k) > 0)) errors.fetch_add(1);
            break;
          }
          default: {
            const auto got = tree.Lookup(EncodeU64(k), t, stats);
            if (got.has_value() != mine.contains(k)) errors.fetch_add(1);
            if (got.has_value() && *got != k) errors.fetch_add(1);
          }
        }
      }
      // Final sweep over owned keys.
      for (const auto& [k, v] : mine) {
        if (tree.Lookup(EncodeU64(k), t, stats) != std::optional(v)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
}

TEST(OlcTreeStress, StringKeysConcurrentGrowth) {
  // Email-like keys across threads force N4->N16->N32->N48->N256 growth
  // chains and deep path splits under contention.  The long head is longer
  // than kMaxStoredPrefix, so writers recover prefix bytes from a leaf
  // reached by an optimistic enumerate while other threads add children.
  constexpr std::size_t kThreads = 6;
  for (const std::string head : {"user", "shared/deep/prefix/stress/"}) {
    SCOPED_TRACE(head);
    OlcTree tree(kThreads);
    std::vector<std::set<std::string>> inserted(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&tree, &inserted, &head, t] {
        SyncStats stats;
        SplitMix64 rng(t * 31 + 7);
        for (int i = 0; i < 8000; ++i) {
          std::string s = head;
          s.push_back(static_cast<char>('a' + rng.NextBounded(26)));
          s.push_back(static_cast<char>('a' + rng.NextBounded(26)));
          s += std::to_string(rng.NextBounded(500));
          s += "@example.com";
          tree.Insert(EncodeString(s), t, t, stats);
          inserted[t].insert(s);
        }
      });
    }
    for (auto& th : threads) th.join();
    std::set<std::string> all;
    for (const auto& keys : inserted) all.insert(keys.begin(), keys.end());
    SyncStats stats;
    std::size_t missing = 0;
    for (const std::string& s : all) {
      if (!tree.Lookup(EncodeString(s), 0, stats).has_value()) ++missing;
    }
    EXPECT_EQ(missing, 0u);
    EXPECT_EQ(tree.size(), all.size());
  }
}

}  // namespace
}  // namespace dcart::baselines
