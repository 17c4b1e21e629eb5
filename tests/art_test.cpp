// Unit tests for the core Adaptive Radix Tree: node operations, inserts,
// lookups, deletes, node growth/shrink, path compression, range scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "art/leaf.h"
#include "art/node.h"
#include "art/tree.h"
#include "common/key_codec.h"
#include "common/rng.h"
#include "leaf_owner.h"

namespace dcart::art {
namespace {

Key K(std::initializer_list<std::uint8_t> bytes) { return Key(bytes); }

using OwnedLeaf = test_util::OwnedLeaf<Leaf>;

OwnedLeaf MakeLeaf(std::initializer_list<std::uint8_t> key, Value value) {
  return test_util::MakeLeaf<Leaf>(K(key), value);
}

// ---------------------------------------------------------------- leaves ----

// One layout serves both value slots: the plain one and the atomic one the
// concurrent trees use (sync::CLeaf).
template <typename LeafT>
class LeafLayout : public ::testing::Test {};
using LeafTypes = ::testing::Types<Leaf, BasicLeaf<std::atomic<Value>>>;
TYPED_TEST_SUITE(LeafLayout, LeafTypes);

TYPED_TEST(LeafLayout, FactoryRoundTripsEveryKeyLength) {
  // Lengths straddle the header padding (< 4), the 8-byte fast compare,
  // malloc's size classes, and the snapshot loader's 1 MiB key cap.
  for (const std::size_t len : {1u, 4u, 8u, 12u, 13u, 24u, 64u, 1u << 20}) {
    Key key(len);
    for (std::size_t i = 0; i < len; ++i) {
      key[i] = static_cast<std::uint8_t>(i * 131 + len);
    }
    TypeParam* leaf = TypeParam::New(key, 0xfeedull + len);
    ASSERT_EQ(leaf->key().size(), len);
    EXPECT_TRUE(std::equal(key.begin(), key.end(), leaf->key().begin()));
    EXPECT_EQ(static_cast<Value>(leaf->value), 0xfeedull + len);
    EXPECT_EQ(TypeParam::BlockBytes(len),
              std::max(sizeof(TypeParam), TypeParam::kHeaderBytes + len));
    leaf->value = ~Value{0};  // the value slot does not overlap the key
    EXPECT_TRUE(std::equal(key.begin(), key.end(), leaf->key().begin()));
    leaf->Delete();
  }
}

TEST(Leaf, HeaderIsValueThenKeyLength) {
  EXPECT_EQ(Leaf::kHeaderBytes, 12u);
  EXPECT_EQ(sizeof(Leaf), 16u);
  EXPECT_EQ(Leaf::BlockBytes(8), 20u);
  // The platform models charge a fixed header, not the host block.
  EXPECT_EQ(kModeledLeafHeaderBytes, 32u);
  EXPECT_EQ(ModeledLeafBytes(8), 40u);
}

// ---------------------------------------------------------- node basics ----

TEST(Node, AddAndFindChildInN4) {
  Node4 n;
  const OwnedLeaf l1 = MakeLeaf({1}, 10), l2 = MakeLeaf({2}, 20);
  AddChild(&n, 7, NodeRef::FromLeaf(l1.get()));
  AddChild(&n, 3, NodeRef::FromLeaf(l2.get()));
  EXPECT_EQ(n.count, 2);
  EXPECT_EQ(FindChild(&n, 7).AsLeaf(), l1.get());
  EXPECT_EQ(FindChild(&n, 3).AsLeaf(), l2.get());
  EXPECT_TRUE(FindChild(&n, 5).IsNull());
  // Sorted insertion: enumeration yields ascending bytes.
  std::vector<int> order;
  EnumerateChildren(&n, [&order](std::uint8_t b, NodeRef) {
    order.push_back(b);
    return true;
  });
  EXPECT_EQ(order, (std::vector<int>{3, 7}));
}

TEST(Node, RemoveChildKeepsOrder) {
  Node4 n;
  const OwnedLeaf leaves[4] = {MakeLeaf({0}, 0), MakeLeaf({1}, 1),
                               MakeLeaf({2}, 2), MakeLeaf({3}, 3)};
  for (int i = 0; i < 4; ++i) {
    AddChild(&n, static_cast<std::uint8_t>(i * 10),
             NodeRef::FromLeaf(leaves[i].get()));
  }
  RemoveChild(&n, 10);
  EXPECT_EQ(n.count, 3);
  EXPECT_TRUE(FindChild(&n, 10).IsNull());
  std::vector<int> order;
  EnumerateChildren(&n, [&order](std::uint8_t b, NodeRef) {
    order.push_back(b);
    return true;
  });
  EXPECT_EQ(order, (std::vector<int>{0, 20, 30}));
}

TEST(Node, GrowChainPreservesChildren) {
  // Fill an N4, grow to N16, fill, grow to N32, fill, grow to N48, fill,
  // grow to N256.
  std::vector<Leaf*> leaves;
  Node* node = new Node4;
  for (int b = 0; b < 256; ++b) {
    if (IsFull(node)) {
      Node* grown = Grown(node);
      DeleteNode(node);
      node = grown;
    }
    Leaf* leaf = Leaf::New(K({static_cast<std::uint8_t>(b)}),
                           static_cast<Value>(b));
    leaves.push_back(leaf);
    AddChild(node, static_cast<std::uint8_t>(b), NodeRef::FromLeaf(leaf));
  }
  EXPECT_EQ(node->type, NodeType::kN256);
  EXPECT_EQ(node->count, 256);
  for (int b = 0; b < 256; ++b) {
    ASSERT_FALSE(FindChild(node, static_cast<std::uint8_t>(b)).IsNull());
    EXPECT_EQ(FindChild(node, static_cast<std::uint8_t>(b)).AsLeaf()->value,
              static_cast<Value>(b));
  }
  for (Leaf* l : leaves) l->Delete();
  DeleteNode(node);
}

TEST(Node, ShrinkChainPreservesChildren) {
  Node* node = new Node256;
  std::vector<Leaf*> leaves;
  for (int b = 0; b < 38; ++b) {
    Leaf* leaf = Leaf::New(K({static_cast<std::uint8_t>(b)}),
                           static_cast<Value>(b));
    leaves.push_back(leaf);
    AddChild(node, static_cast<std::uint8_t>(b), NodeRef::FromLeaf(leaf));
  }
  RemoveChild(node, 0);
  ASSERT_TRUE(IsUnderfull(node));  // 37 children
  Node* n48 = Shrunk(node);
  DeleteNode(node);
  EXPECT_EQ(n48->type, NodeType::kN48);
  EXPECT_EQ(n48->count, 37);
  for (int b = 1; b < 38; ++b) {
    EXPECT_EQ(FindChild(n48, static_cast<std::uint8_t>(b)).AsLeaf()->value,
              static_cast<Value>(b));
  }
  for (Leaf* l : leaves) l->Delete();
  DeleteNode(n48);
}

TEST(Node, GrowBoundary16To32To48) {
  // The 17th child is exactly what forces N16 -> N32, and the 33rd forces
  // N32 -> N48; every hop must keep ascending enumeration and all children.
  std::vector<Leaf*> leaves;
  Node* node = new Node16;
  const auto add = [&](int b) {
    Leaf* leaf = Leaf::New(K({static_cast<std::uint8_t>(b)}),
                           static_cast<Value>(b));
    leaves.push_back(leaf);
    AddChild(node, static_cast<std::uint8_t>(b), NodeRef::FromLeaf(leaf));
  };
  const auto check_all = [&](int upto) {
    std::vector<int> order;
    EnumerateChildren(node, [&order](std::uint8_t b, NodeRef) {
      order.push_back(b);
      return true;
    });
    ASSERT_EQ(static_cast<int>(order.size()), upto);
    for (int b = 0; b < upto; ++b) {
      ASSERT_EQ(order[static_cast<std::size_t>(b)], b * 7);
      ASSERT_EQ(
          FindChild(node, static_cast<std::uint8_t>(b * 7)).AsLeaf()->value,
          static_cast<Value>(b * 7));
    }
  };
  // Insert in descending byte order so sortedness is earned, not inherited.
  for (int b = 15; b >= 0; --b) add(b * 7);
  EXPECT_TRUE(IsFull(node));
  EXPECT_EQ(node->type, NodeType::kN16);
  Node* grown = Grown(node);
  DeleteNode(node);
  node = grown;
  EXPECT_EQ(node->type, NodeType::kN32);
  check_all(16);
  for (int b = 31; b >= 16; --b) add(b * 7);
  EXPECT_TRUE(IsFull(node));
  EXPECT_EQ(node->count, 32);
  check_all(32);
  grown = Grown(node);
  DeleteNode(node);
  node = grown;
  EXPECT_EQ(node->type, NodeType::kN48);
  check_all(32);
  add(32 * 7);
  EXPECT_EQ(node->count, 33);
  check_all(33);
  for (Leaf* l : leaves) l->Delete();
  DeleteNode(node);
}

TEST(Node, ShrinkBoundary48To32To16) {
  // 24 children is the N48 shrink point, 12 the N32 one; both hops must
  // preserve every child in ascending order.
  std::vector<Leaf*> leaves;
  Node* node = new Node48;
  for (int b = 0; b < 25; ++b) {
    Leaf* leaf = Leaf::New(K({static_cast<std::uint8_t>(b)}),
                           static_cast<Value>(b));
    leaves.push_back(leaf);
    AddChild(node, static_cast<std::uint8_t>(b), NodeRef::FromLeaf(leaf));
  }
  EXPECT_FALSE(IsUnderfull(node));
  RemoveChild(node, 24);
  ASSERT_TRUE(IsUnderfull(node));  // 24 children
  Node* shrunk = Shrunk(node);
  DeleteNode(node);
  node = shrunk;
  EXPECT_EQ(node->type, NodeType::kN32);
  EXPECT_EQ(node->count, 24);
  std::vector<int> order;
  EnumerateChildren(node, [&order](std::uint8_t b, NodeRef) {
    order.push_back(b);
    return true;
  });
  ASSERT_EQ(order.size(), 24u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  for (int b = 23; b >= 13; --b) {
    RemoveChild(node, static_cast<std::uint8_t>(b));
    EXPECT_FALSE(IsUnderfull(node));
  }
  RemoveChild(node, 12);
  ASSERT_TRUE(IsUnderfull(node));  // 12 children
  shrunk = Shrunk(node);
  DeleteNode(node);
  node = shrunk;
  EXPECT_EQ(node->type, NodeType::kN16);
  EXPECT_EQ(node->count, 12);
  for (int b = 0; b < 12; ++b) {
    ASSERT_EQ(FindChild(node, static_cast<std::uint8_t>(b)).AsLeaf()->value,
              static_cast<Value>(b));
  }
  for (Leaf* l : leaves) l->Delete();
  DeleteNode(node);
}

TEST(Node, N48SlotReuseAfterRemoval) {
  Node48 n;
  std::vector<OwnedLeaf> leaves;
  for (int i = 0; i < 49; ++i) {
    leaves.push_back(MakeLeaf({static_cast<std::uint8_t>(i)}, 0));
  }
  for (int i = 0; i < 48; ++i) {
    AddChild(&n, static_cast<std::uint8_t>(i),
             NodeRef::FromLeaf(leaves[i].get()));
  }
  EXPECT_TRUE(IsFull(&n));
  RemoveChild(&n, 20);
  EXPECT_FALSE(IsFull(&n));
  AddChild(&n, 200, NodeRef::FromLeaf(leaves[48].get()));
  EXPECT_EQ(FindChild(&n, 200).AsLeaf(), leaves[48].get());
  EXPECT_TRUE(FindChild(&n, 20).IsNull());
}

TEST(Node, PrefixStorageTruncatesLongPaths) {
  Node4 n;
  std::vector<std::uint8_t> bytes(30);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  SetPrefix(&n, bytes.data(), 30);
  EXPECT_EQ(n.prefix_len, 30u);
  EXPECT_EQ(n.stored_prefix_len, kMaxStoredPrefix);
  for (std::size_t i = 0; i < kMaxStoredPrefix; ++i) {
    EXPECT_EQ(n.prefix[i], bytes[i]);
  }
}

TEST(Node, TaggedRefRoundTrip) {
  Node4 node;
  const OwnedLeaf leaf = MakeLeaf({1}, 1);
  const NodeRef nr = NodeRef::FromNode(&node);
  const NodeRef lr = NodeRef::FromLeaf(leaf.get());
  EXPECT_TRUE(nr.IsNode());
  EXPECT_FALSE(nr.IsLeaf());
  EXPECT_TRUE(lr.IsLeaf());
  EXPECT_EQ(nr.AsNode(), &node);
  EXPECT_EQ(lr.AsLeaf(), leaf.get());
  EXPECT_TRUE(NodeRef{}.IsNull());
}

TEST(Node, NodeSizesReflectAdaptivity) {
  // The whole point of ART: small nodes are much smaller than N256.
  EXPECT_LT(NodeSizeBytes(NodeType::kN4), NodeSizeBytes(NodeType::kN16));
  EXPECT_LT(NodeSizeBytes(NodeType::kN16), NodeSizeBytes(NodeType::kN32));
  EXPECT_LT(NodeSizeBytes(NodeType::kN32), NodeSizeBytes(NodeType::kN48));
  EXPECT_LT(NodeSizeBytes(NodeType::kN48), NodeSizeBytes(NodeType::kN256));
}

// ----------------------------------------------------------- tree basics ---

TEST(Tree, EmptyTree) {
  Tree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.Get(EncodeU64(1)).has_value());
  EXPECT_FALSE(t.Remove(EncodeU64(1)));
  EXPECT_FALSE(t.MinKey().has_value());
  EXPECT_EQ(t.Height(), 0u);
}

TEST(Tree, SingleInsertGetRemove) {
  Tree t;
  EXPECT_TRUE(t.Insert(EncodeU64(42), 420));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Get(EncodeU64(42)).value(), 420u);
  EXPECT_FALSE(t.Get(EncodeU64(43)).has_value());
  EXPECT_TRUE(t.Remove(EncodeU64(42)));
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Get(EncodeU64(42)).has_value());
}

TEST(Tree, InsertUpdatesExistingValue) {
  Tree t;
  EXPECT_TRUE(t.Insert(EncodeU64(1), 10));
  EXPECT_FALSE(t.Insert(EncodeU64(1), 11));  // update, not insert
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Get(EncodeU64(1)).value(), 11u);
}

TEST(Tree, SequentialU64Keys) {
  Tree t;
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(t.Insert(EncodeU64(i), i * 2));
  }
  EXPECT_EQ(t.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(t.Get(EncodeU64(i)).value(), i * 2) << i;
  }
  EXPECT_FALSE(t.Get(EncodeU64(kN)).has_value());
}

TEST(Tree, RandomU64KeysInsertGetRemove) {
  Tree t;
  SplitMix64 rng(99);
  std::map<std::uint64_t, std::uint64_t> model;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.Next();
    model[k] = k + 1;
    t.Insert(EncodeU64(k), k + 1);
  }
  EXPECT_EQ(t.size(), model.size());
  for (const auto& [k, v] : model) {
    ASSERT_EQ(t.Get(EncodeU64(k)).value(), v);
  }
  // Remove half.
  std::size_t removed = 0;
  for (auto it = model.begin(); it != model.end();) {
    if (removed % 2 == 0) {
      EXPECT_TRUE(t.Remove(EncodeU64(it->first)));
      it = model.erase(it);
    } else {
      ++it;
    }
    ++removed;
  }
  EXPECT_EQ(t.size(), model.size());
  for (const auto& [k, v] : model) {
    ASSERT_EQ(t.Get(EncodeU64(k)).value(), v);
  }
}

TEST(Tree, StringKeysWithSharedPrefixes) {
  Tree t;
  const std::vector<std::string> words = {
      "romane", "romanus", "romulus", "rubens", "ruber",
      "rubicon", "rubicundus", "r", "rom", "roman"};
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_TRUE(t.Insert(EncodeString(words[i]), i)) << words[i];
  }
  EXPECT_EQ(t.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_EQ(t.Get(EncodeString(words[i])).value(), i) << words[i];
  }
  EXPECT_FALSE(t.Get(EncodeString("roma")).has_value());
  EXPECT_FALSE(t.Get(EncodeString("romanes")).has_value());
}

TEST(Tree, LongCommonPrefixBeyondStoredLimit) {
  // Force compressed paths longer than kMaxStoredPrefix (12 bytes) so the
  // pessimistic mismatch check must consult the minimum leaf.
  Tree t;
  const std::string base(40, 'x');
  ASSERT_TRUE(t.Insert(EncodeString(base + "aaa"), 1));
  ASSERT_TRUE(t.Insert(EncodeString(base + "aab"), 2));
  // Diverge deep inside the long compressed path.
  std::string deviant = base;
  deviant[30] = 'y';
  ASSERT_TRUE(t.Insert(EncodeString(deviant + "zzz"), 3));
  EXPECT_EQ(t.Get(EncodeString(base + "aaa")).value(), 1u);
  EXPECT_EQ(t.Get(EncodeString(base + "aab")).value(), 2u);
  EXPECT_EQ(t.Get(EncodeString(deviant + "zzz")).value(), 3u);
  // Diverge at the very first byte of the path.
  std::string early = base;
  early[0] = 'w';
  ASSERT_TRUE(t.Insert(EncodeString(early), 4));
  EXPECT_EQ(t.Get(EncodeString(early)).value(), 4u);
  EXPECT_EQ(t.size(), 4u);
}

TEST(Tree, RemoveTriggersPathMerging) {
  Tree t;
  ASSERT_TRUE(t.Insert(EncodeString("abcde1"), 1));
  ASSERT_TRUE(t.Insert(EncodeString("abcde2"), 2));
  ASSERT_TRUE(t.Insert(EncodeString("abxyz1"), 3));
  ASSERT_TRUE(t.Insert(EncodeString("abxyz2"), 4));
  // Removing both "abcde*" keys collapses that branch; the surviving N4
  // above must merge with the "abxyz" child.
  EXPECT_TRUE(t.Remove(EncodeString("abcde1")));
  EXPECT_TRUE(t.Remove(EncodeString("abcde2")));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.Get(EncodeString("abxyz1")).value(), 3u);
  EXPECT_EQ(t.Get(EncodeString("abxyz2")).value(), 4u);
  EXPECT_FALSE(t.Get(EncodeString("abcde1")).has_value());
}

TEST(Tree, RemoveEverythingLeavesEmptyTree) {
  Tree t;
  SplitMix64 rng(7);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Next());
  for (auto k : keys) t.Insert(EncodeU64(k), k);
  Shuffle(keys, rng);
  for (auto k : keys) {
    ASSERT_TRUE(t.Remove(EncodeU64(k)));
  }
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.root().IsNull());
}

TEST(Tree, RemoveAbsentKeyVariants) {
  Tree t;
  t.Insert(EncodeString("hello"), 1);
  t.Insert(EncodeString("help"), 2);
  EXPECT_FALSE(t.Remove(EncodeString("he")));      // inside compressed path
  EXPECT_FALSE(t.Remove(EncodeString("hellos")));  // longer than present
  EXPECT_FALSE(t.Remove(EncodeString("world")));   // shares nothing
  EXPECT_FALSE(t.Remove(EncodeString("held")));    // sibling byte absent
  EXPECT_EQ(t.size(), 2u);
}

TEST(Tree, MinMaxKeys) {
  Tree t;
  for (std::uint64_t v : {500ull, 3ull, 77ull, 1000000ull, 4ull}) {
    t.Insert(EncodeU64(v), v);
  }
  EXPECT_EQ(DecodeU64(t.MinKey().value()), 3u);
  EXPECT_EQ(DecodeU64(t.MaxKey().value()), 1000000u);
}

TEST(Tree, HeightShrinksWithPathCompression) {
  // 8-byte keys differing only in the last byte: path compression keeps the
  // tree at height 2 (one inner node + leaves) instead of 8 levels.
  Tree t;
  for (std::uint64_t i = 0; i < 200; ++i) {
    t.Insert(EncodeU64(i), i);
  }
  EXPECT_LE(t.Height(), 3u);
}

TEST(Tree, MemoryStatsCountNodes) {
  Tree t;
  for (std::uint64_t i = 0; i < 1000; ++i) t.Insert(EncodeU64(i), i);
  const MemoryStats ms = t.ComputeMemoryStats();
  EXPECT_EQ(ms.leaves, 1000u);
  EXPECT_GT(ms.TotalNodes(), 0u);
  EXPECT_GT(ms.internal_bytes, 0u);
  EXPECT_GT(ms.leaf_bytes, 1000u * sizeof(Leaf));
}

TEST(Tree, MemoryStatsLeafBytesAreHeaderPlusKeyBytes) {
  Tree t;
  std::size_t key_bytes = 0;
  for (std::size_t len = 4; len <= 40; ++len) {
    Key key(len, 0x5a);
    key[0] = static_cast<std::uint8_t>(len);  // distinct first bytes
    t.Insert(key, len);
    key_bytes += len;
  }
  const MemoryStats ms = t.ComputeMemoryStats();
  EXPECT_EQ(ms.leaves, 37u);
  EXPECT_EQ(ms.leaf_bytes, ms.leaves * Leaf::kHeaderBytes + key_bytes);
}

TEST(Tree, AdaptiveNodesMatchFanout) {
  // Construct subtrees with deliberate fanouts: 10000 dense keys fill
  // bottom-level N256s under an N48 (ceil(10000/256) = 40 children), a
  // 10-key spread in a disjoint region makes an N16, a 20-key spread an
  // N32, and a 3-key spread an N4.
  Tree t;
  for (std::uint64_t i = 0; i < 10000; ++i) t.Insert(EncodeU64(i), i);
  for (std::uint64_t j = 0; j < 10; ++j) {
    t.Insert(EncodeU64((0x10ull << 56) | (j << 40)), j);
  }
  for (std::uint64_t j = 0; j < 20; ++j) {
    t.Insert(EncodeU64((0x18ull << 56) | (j << 40)), j);
  }
  for (std::uint64_t j = 0; j < 3; ++j) {
    t.Insert(EncodeU64((0x20ull << 56) | (j << 40)), j);
  }
  const MemoryStats ms = t.ComputeMemoryStats();
  EXPECT_GT(ms.n4, 0u);
  EXPECT_GT(ms.n16, 0u);
  EXPECT_GT(ms.n32, 0u);
  EXPECT_GT(ms.n48, 0u);
  EXPECT_GT(ms.n256, 0u);
}

TEST(Tree, MoveTransfersOwnership) {
  Tree a;
  a.Insert(EncodeU64(1), 10);
  a.Insert(EncodeU64(2), 20);
  Tree b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Get(EncodeU64(1)).value(), 10u);
  Tree c;
  c.Insert(EncodeU64(9), 90);
  c = std::move(b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Get(EncodeU64(2)).value(), 20u);
}

TEST(Tree, StatsCountTraversalWork) {
  Tree t;
  OpStats stats;
  t.set_stats(&stats);
  for (std::uint64_t i = 0; i < 1000; ++i) t.Insert(EncodeU64(i), i);
  const std::uint64_t after_insert = stats.partial_key_matches;
  EXPECT_GT(after_insert, 0u);
  for (std::uint64_t i = 0; i < 1000; ++i) t.Get(EncodeU64(i));
  EXPECT_GT(stats.partial_key_matches, after_insert);
  EXPECT_EQ(stats.operations, 2000u);
  EXPECT_GT(stats.nodes_visited, stats.partial_key_matches);
}

// ----------------------------------------------------------------- scans ---

TEST(Scan, FullRangeReturnsSortedKeys) {
  Tree t;
  SplitMix64 rng(17);
  std::set<std::uint64_t> model;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t k = rng.Next();
    model.insert(k);
    t.Insert(EncodeU64(k), k);
  }
  std::vector<std::uint64_t> scanned;
  t.Scan(EncodeU64(0), EncodeU64(UINT64_MAX),
         [&scanned](KeyView k, Value) {
           scanned.push_back(DecodeU64(k));
           return true;
         });
  std::vector<std::uint64_t> expected(model.begin(), model.end());
  EXPECT_EQ(scanned, expected);
}

TEST(Scan, BoundedRangeMatchesModel) {
  Tree t;
  std::map<std::uint64_t, std::uint64_t> model;
  SplitMix64 rng(23);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng.NextBounded(100000);
    model[k] = k;
    t.Insert(EncodeU64(k), k);
  }
  for (int trial = 0; trial < 50; ++trial) {
    std::uint64_t lo = rng.NextBounded(100000);
    std::uint64_t hi = rng.NextBounded(100000);
    if (lo > hi) std::swap(lo, hi);
    std::vector<std::uint64_t> scanned;
    t.Scan(EncodeU64(lo), EncodeU64(hi), [&scanned](KeyView k, Value) {
      scanned.push_back(DecodeU64(k));
      return true;
    });
    std::vector<std::uint64_t> expected;
    for (auto it = model.lower_bound(lo);
         it != model.end() && it->first <= hi; ++it) {
      expected.push_back(it->first);
    }
    ASSERT_EQ(scanned, expected) << "lo=" << lo << " hi=" << hi;
  }
}

TEST(Scan, SortedScanAcrossNode32Fanout) {
  // A 24-way fanout lands in an N32; a full scan must still come out in
  // key order even though the keys went in shuffled.
  Tree t;
  SplitMix64 rng(41);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t j = 0; j < 24; ++j) keys.push_back(j << 40);
  Shuffle(keys, rng);
  for (std::uint64_t k : keys) t.Insert(EncodeU64(k), k);
  const MemoryStats ms = t.ComputeMemoryStats();
  EXPECT_GT(ms.n32, 0u);
  std::vector<std::uint64_t> scanned;
  t.Scan(EncodeU64(0), EncodeU64(UINT64_MAX), [&scanned](KeyView k, Value) {
    scanned.push_back(DecodeU64(k));
    return true;
  });
  ASSERT_EQ(scanned.size(), 24u);
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  for (std::size_t j = 0; j < scanned.size(); ++j) {
    EXPECT_EQ(scanned[j], static_cast<std::uint64_t>(j) << 40);
  }
}

TEST(Scan, EarlyStopViaCallback) {
  Tree t;
  for (std::uint64_t i = 0; i < 100; ++i) t.Insert(EncodeU64(i), i);
  std::size_t seen = 0;
  t.Scan(EncodeU64(0), EncodeU64(UINT64_MAX), [&seen](KeyView, Value) {
    ++seen;
    return seen < 10;
  });
  EXPECT_EQ(seen, 10u);
}

TEST(Scan, StringRange) {
  Tree t;
  const std::vector<std::string> words = {"apple",  "apricot", "banana",
                                          "cherry", "date",    "fig"};
  for (std::size_t i = 0; i < words.size(); ++i) {
    t.Insert(EncodeString(words[i]), i);
  }
  std::vector<std::string> scanned;
  t.Scan(EncodeString("apricot"), EncodeString("date"),
         [&scanned](KeyView k, Value) {
           scanned.push_back(DecodeString(k));
           return true;
         });
  EXPECT_EQ(scanned,
            (std::vector<std::string>{"apricot", "banana", "cherry", "date"}));
}

TEST(Scan, EmptyRangeAndEmptyTree) {
  Tree t;
  std::size_t count = 0;
  const auto counter = [&count](KeyView, Value) {
    ++count;
    return true;
  };
  t.Scan(EncodeU64(0), EncodeU64(100), counter);
  EXPECT_EQ(count, 0u);
  t.Insert(EncodeU64(50), 1);
  t.Scan(EncodeU64(60), EncodeU64(100), counter);  // range after the key
  EXPECT_EQ(count, 0u);
  t.Scan(EncodeU64(100), EncodeU64(60), counter);  // inverted range
  EXPECT_EQ(count, 0u);
  t.Scan(EncodeU64(50), EncodeU64(50), counter);  // exact single key
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace dcart::art
