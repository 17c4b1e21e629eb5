// Tests for ordered walks from a lower bound (ScanFrom, MaxKey), prefix
// scans, and sorted bulk-load.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "art/tree.h"
#include "common/key_codec.h"
#include "common/rng.h"

namespace dcart::art {
namespace {

Tree MakeTree(const std::vector<std::uint64_t>& keys) {
  Tree t;
  for (std::uint64_t k : keys) t.Insert(EncodeU64(k), k);
  return t;
}

/// Up to `limit` (>= 1) (key, value) entries from the first key >= `from` on.
std::vector<std::pair<Key, Value>> EntriesFrom(
    const Tree& t, KeyView from,
    std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  std::vector<std::pair<Key, Value>> out;
  t.ScanFrom(from, [&out, limit](KeyView k, Value v) {
    out.emplace_back(Key(k.begin(), k.end()), v);
    return out.size() < limit;
  });
  return out;
}

/// The first key >= `from`, decoded as a u64 (nullopt past the last key).
std::optional<std::uint64_t> LowerBound(const Tree& t, std::uint64_t from) {
  const auto entries = EntriesFrom(t, EncodeU64(from), 1);
  if (entries.empty()) return std::nullopt;
  return DecodeU64(entries.front().first);
}

// --------------------------------- Iterator: walks over ScanFrom / MaxKey --

TEST(Iterator, EmptyTree) {
  Tree t;
  EXPECT_TRUE(EntriesFrom(t, Key{}).empty());
  EXPECT_FALSE(t.MaxKey().has_value());
  EXPECT_TRUE(EntriesFrom(t, EncodeU64(0)).empty());
}

TEST(Iterator, FullForwardWalkIsSorted) {
  SplitMix64 rng(5);
  std::set<std::uint64_t> model;
  Tree t;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t k = rng.Next();
    model.insert(k);
    t.Insert(EncodeU64(k), k);
  }
  const auto entries = EntriesFrom(t, Key{});
  ASSERT_EQ(entries.size(), model.size());
  auto expected = model.begin();
  for (const auto& [key, value] : entries) {
    EXPECT_EQ(DecodeU64(key), *expected);
    EXPECT_EQ(value, *expected);
    ++expected;
  }
}

TEST(Iterator, SeekToLast) {
  Tree t = MakeTree({5, 900, 17, 3, 12345678});
  const auto last = t.MaxKey();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(DecodeU64(*last), 12345678u);
}

TEST(Iterator, SeekFindsLowerBound) {
  Tree t = MakeTree({10, 20, 30, 40, 50});
  EXPECT_EQ(LowerBound(t, 25), 30u);
  EXPECT_EQ(LowerBound(t, 30), 30u);  // exact hit
  EXPECT_EQ(LowerBound(t, 0), 10u);
  EXPECT_EQ(LowerBound(t, 51), std::nullopt);
}

TEST(Iterator, SeekThenNextContinuesInOrder) {
  SplitMix64 rng(11);
  std::set<std::uint64_t> model;
  Tree t;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng.NextBounded(1 << 20);
    model.insert(k);
    t.Insert(EncodeU64(k), k);
  }
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t target = rng.NextBounded(1 << 20);
    std::vector<std::uint64_t> expected;
    for (auto it = model.lower_bound(target);
         it != model.end() && expected.size() < 5; ++it) {
      expected.push_back(*it);
    }
    std::vector<std::uint64_t> got;
    for (const auto& entry : EntriesFrom(t, EncodeU64(target), 5)) {
      got.push_back(DecodeU64(entry.first));
    }
    ASSERT_EQ(got, expected) << "target=" << target;
  }
}

TEST(Iterator, SeekAcrossLongCompressedPaths) {
  Tree t;
  const std::string base(30, 'm');
  t.Insert(EncodeString(base + "a"), 1);
  t.Insert(EncodeString(base + "z"), 2);
  t.Insert(EncodeString("zz"), 3);
  const auto first_from = [&t](const std::string& s) {
    const auto entries = EntriesFrom(t, EncodeString(s), 1);
    return entries.empty() ? std::string("<none>")
                           : DecodeString(entries.front().first);
  };
  // Between the two deep keys.
  EXPECT_EQ(first_from(base + "b"), base + "z");
  // Inside the compressed path: the first deep key.
  EXPECT_EQ(first_from(base), base + "a");
  // Past the whole deep subtree.
  EXPECT_EQ(first_from("n"), "zz");
}

// ------------------------------------------------------------- ScanPrefix --

TEST(ScanPrefix, FindsExactlyMatchingKeys) {
  Tree t;
  const std::vector<std::string> words = {"car",    "card", "care",
                                          "carbon", "cat",  "dog"};
  for (std::size_t i = 0; i < words.size(); ++i) {
    t.Insert(EncodeString(words[i]), i);
  }
  std::vector<std::string> hits;
  t.ScanPrefix(Key{'c', 'a', 'r'}, [&hits](KeyView k, Value) {
    hits.push_back(DecodeString(k));
    return true;
  });
  EXPECT_EQ(hits, (std::vector<std::string>{"car", "carbon", "card", "care"}));
}

TEST(ScanPrefix, EmptyPrefixYieldsEverything) {
  Tree t = MakeTree({1, 2, 3});
  std::size_t n = 0;
  t.ScanPrefix(Key{}, [&n](KeyView, Value) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 3u);
}

TEST(ScanPrefix, AbsentPrefix) {
  Tree t;
  t.Insert(EncodeString("hello"), 1);
  std::size_t n = 0;
  t.ScanPrefix(Key{'x'}, [&n](KeyView, Value) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 0u);
  // Prefix diverging inside a compressed path.
  t.ScanPrefix(Key{'h', 'a'}, [&n](KeyView, Value) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 0u);
}

TEST(ScanPrefix, PrefixLongerThanStoredPath) {
  Tree t;
  const std::string deep(40, 'q');
  t.Insert(EncodeString(deep + "1"), 1);
  t.Insert(EncodeString(deep + "2"), 2);
  std::size_t n = 0;
  t.ScanPrefix(Key(deep.begin(), deep.end()), [&n](KeyView, Value) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 2u);
  // A prefix that mismatches only in the non-stored tail must yield zero.
  std::string wrong = deep;
  wrong[25] = 'r';
  n = 0;
  t.ScanPrefix(Key(wrong.begin(), wrong.end()), [&n](KeyView, Value) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 0u);
}

TEST(ScanPrefix, MatchesBruteForceOnRandomWords) {
  Tree t;
  SplitMix64 rng(31);
  std::vector<std::string> words;
  for (int i = 0; i < 2000; ++i) {
    std::string w;
    const std::size_t len = 1 + rng.NextBounded(8);
    for (std::size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.NextBounded(4)));
    }
    words.push_back(w);
    t.Insert(EncodeString(w), i);
  }
  for (const std::string& prefix : {"a", "ab", "abc", "dd", "abcd"}) {
    std::set<std::string> expected;
    for (const std::string& w : words) {
      if (w.starts_with(prefix)) expected.insert(w);
    }
    std::set<std::string> got;
    t.ScanPrefix(Key(prefix.begin(), prefix.end()),
                 [&got](KeyView k, Value) {
                   got.insert(DecodeString(k));
                   return true;
                 });
    EXPECT_EQ(got, expected) << "prefix=" << prefix;
  }
}

// --------------------------------------------------------- BulkLoadSorted --

TEST(BulkLoad, MatchesIncrementalInsert) {
  SplitMix64 rng(7);
  std::map<Key, Value> model;
  for (int i = 0; i < 20000; ++i) {
    model[EncodeU64(rng.Next())] = static_cast<Value>(i);
  }
  std::vector<std::pair<Key, Value>> sorted(model.begin(), model.end());

  Tree bulk;
  bulk.BulkLoadSorted(sorted);
  EXPECT_EQ(bulk.size(), sorted.size());
  for (const auto& [k, v] : model) {
    ASSERT_EQ(bulk.Get(k).value(), v);
  }
  // Scans agree with incremental construction.
  Tree incremental;
  for (const auto& [k, v] : sorted) incremental.Insert(k, v);
  std::vector<std::uint64_t> a, b;
  const auto collect = [](std::vector<std::uint64_t>& out) {
    return [&out](KeyView k, Value) {
      out.push_back(DecodeU64(k));
      return true;
    };
  };
  bulk.Scan(sorted.front().first, sorted.back().first, collect(a));
  incremental.Scan(sorted.front().first, sorted.back().first, collect(b));
  EXPECT_EQ(a, b);
}

TEST(BulkLoad, EmptyAndSingle) {
  Tree t;
  t.BulkLoadSorted({});
  EXPECT_TRUE(t.empty());
  std::vector<std::pair<Key, Value>> one = {{EncodeU64(7), 70}};
  t.BulkLoadSorted(one);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Get(EncodeU64(7)).value(), 70u);
}

TEST(BulkLoad, ChoosesAdaptiveNodeTypes) {
  std::vector<std::pair<Key, Value>> items;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    items.emplace_back(EncodeU64(i), i);
  }
  Tree t;
  t.BulkLoadSorted(items);
  const MemoryStats ms = t.ComputeMemoryStats();
  EXPECT_GT(ms.n256, 0u);   // dense bottom fanout
  EXPECT_GT(ms.TotalNodes(), 0u);
  EXPECT_EQ(ms.leaves, items.size());
  // Mutations after a bulk-load behave normally.
  EXPECT_TRUE(t.Insert(EncodeU64(999999), 1));
  EXPECT_TRUE(t.Remove(EncodeU64(0)));
  EXPECT_EQ(t.size(), items.size());
}

TEST(BulkLoad, StringKeysWithDeepSharedPrefixes) {
  std::vector<std::pair<Key, Value>> items;
  const std::string base(20, 'w');
  for (char c = 'a'; c <= 'z'; ++c) {
    items.emplace_back(EncodeString(base + c), static_cast<Value>(c));
  }
  Tree t;
  t.BulkLoadSorted(items);
  EXPECT_EQ(t.size(), 26u);
  for (char c = 'a'; c <= 'z'; ++c) {
    ASSERT_EQ(t.Get(EncodeString(base + c)).value(),
              static_cast<Value>(c));
  }
}

}  // namespace
}  // namespace dcart::art
