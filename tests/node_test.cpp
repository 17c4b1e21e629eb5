// One typed suite for the ART node ladder (art/node.h), run on each of its
// three access policies: the serial tree's, OLC's and ROWEX's.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

#include "art/node.h"
#include "baselines/rowex_tree.h"
#include "common/rng.h"
#include "leaf_owner.h"
#include "sync/cnode.h"

namespace dcart {
namespace {

using art::NodeType;
using RowexPolicy = baselines::rowex::RowexPolicy;

template <typename P>
class NodeLadder : public ::testing::Test {
 protected:
  using Node = art::BasicNode<P>;
  using Ref = art::BasicRef<P>;
  using Leaf = typename P::Leaf;

  NodeLadder() {
    for (std::size_t b = 0; b < 256; ++b) {
      leaves_.push_back(test_util::MakeLeaf<Leaf>(
          Key{static_cast<std::uint8_t>(b)}, static_cast<art::Value>(b)));
    }
  }

  Ref LeafRef(std::uint8_t b) const {
    return Ref::FromLeaf(leaves_[b].get());
  }

  /// Every byte 0..255 in an order fixed by `seed`.
  static std::vector<std::uint8_t> Shuffled(std::uint64_t seed) {
    std::vector<std::uint8_t> bytes(256);
    std::iota(bytes.begin(), bytes.end(), std::uint8_t{0});
    SplitMix64 rng(seed);
    for (std::size_t i = bytes.size() - 1; i > 0; --i) {
      std::swap(bytes[i], bytes[rng.NextBounded(i + 1)]);
    }
    return bytes;
  }

  /// The smallest tier that holds `count` children on the way up.
  static NodeType TierFor(std::size_t count) {
    if (count <= 4) return NodeType::kN4;
    if (count <= 16) return NodeType::kN16;
    if (count <= 32) return NodeType::kN32;
    if (count <= 48) return NodeType::kN48;
    return NodeType::kN256;
  }

  /// FindChild and FindChildSlot agree with `present` for all 256 bytes,
  /// and enumeration yields each present child exactly once (ascending
  /// under sorted keys).
  void ExpectHolds(Node* node, const std::array<bool, 256>& present) {
    const auto expected = static_cast<std::size_t>(
        std::count(present.begin(), present.end(), true));
    ASSERT_EQ(node->count, expected);
    for (std::size_t b = 0; b < 256; ++b) {
      const auto byte = static_cast<std::uint8_t>(b);
      const Ref child = art::FindChild(node, byte);
      Ref* slot = art::FindChildSlot(node, byte);
      if (present[b]) {
        ASSERT_EQ(child, LeafRef(byte)) << "byte " << b;
        ASSERT_NE(slot, nullptr) << "byte " << b;
        ASSERT_EQ(*slot, LeafRef(byte)) << "byte " << b;
      } else {
        ASSERT_TRUE(child.IsNull()) << "byte " << b;
        ASSERT_EQ(slot, nullptr) << "byte " << b;
      }
    }
    std::vector<int> seen;
    art::EnumerateChildren(node, [&](std::uint8_t b, Ref child) {
      EXPECT_EQ(child, LeafRef(b));
      seen.push_back(b);
      return true;
    });
    ASSERT_EQ(seen.size(), expected);
    if (P::kSortedKeys) {
      EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
    for (const int b : seen) EXPECT_TRUE(present[static_cast<std::size_t>(b)]);
  }

  /// A node holding every byte, grown N4 -> N256 in `order`.
  Node* Fill(const std::vector<std::uint8_t>& order,
             std::array<bool, 256>& present) {
    Node* node = new art::BasicNode4<P>;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (art::IsFull(node)) {
        Node* grown = art::Grown(node);
        art::DeleteNode(node);
        node = grown;
      }
      art::AddChild(node, order[i], LeafRef(order[i]));
      present[order[i]] = true;
      EXPECT_EQ(node->type, TierFor(i + 1)) << "after " << i + 1;
      ExpectHolds(node, present);
      if (::testing::Test::HasFatalFailure()) break;
    }
    return node;
  }

  std::vector<test_util::OwnedLeaf<Leaf>> leaves_;
};

using Policies = ::testing::Types<art::ArtPolicy, sync::OlcPolicy, RowexPolicy>;
TYPED_TEST_SUITE(NodeLadder, Policies);

TYPED_TEST(NodeLadder, SizesArePinned) {
  // The values every tree had before the ladder was shared: the serial
  // tree's header is 20 bytes; OLC adds a lock word, ROWEX its lock,
  // packed prefix word and obsolete flag.
  using P = TypeParam;
  constexpr bool kPlain = std::is_same_v<P, art::ArtPolicy>;
  const std::array<std::size_t, 5> expected =
      kPlain ? std::array<std::size_t, 5>{56, 168, 312, 664, 2072}
             : std::array<std::size_t, 5>{64, 176, 320, 672, 2080};
  const std::array<std::size_t, 5> actual = {
      sizeof(art::BasicNode4<P>), sizeof(art::BasicNode16<P>),
      sizeof(art::BasicNode32<P>), sizeof(art::BasicNode48<P>),
      sizeof(art::BasicNode256<P>)};
  EXPECT_EQ(actual, expected);
  const std::array<NodeType, 5> tiers = {NodeType::kN4, NodeType::kN16,
                                         NodeType::kN32, NodeType::kN48,
                                         NodeType::kN256};
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    EXPECT_EQ(art::NodeSizeBytes<P>(tiers[i]), expected[i]);
  }
}

TYPED_TEST(NodeLadder, GrowsThroughEveryTier) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    std::array<bool, 256> present{};
    typename TestFixture::Node* node =
        this->Fill(TestFixture::Shuffled(seed), present);
    art::DeleteNode(node);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TYPED_TEST(NodeLadder, RemovesBackDownEveryTier) {
  using P = TypeParam;
  if constexpr (!P::kSortedKeys) {
    // Append-only keys: removal and shrinking do not exist.
    static_assert(!requires(typename TestFixture::Node* n) {
      art::RemoveChild(n, std::uint8_t{0});
    });
    static_assert(!requires(typename TestFixture::Node* n) {
      art::Shrunk(n);
    });
    static_assert(!requires(typename TestFixture::Node* n) {
      art::IsUnderfull(n);
    });
  } else {
    // The serial tree shrinks at each hysteresis point on the way down;
    // OLC never shrinks a node, so its N256 empties in place.
    constexpr bool kShrinks = std::is_same_v<P, art::ArtPolicy>;
    std::array<bool, 256> present{};
    typename TestFixture::Node* node =
        this->Fill(TestFixture::Shuffled(3), present);
    if (::testing::Test::HasFatalFailure()) {
      art::DeleteNode(node);
      return;
    }
    std::vector<std::pair<std::size_t, NodeType>> shrinks;
    const std::vector<std::uint8_t> order = TestFixture::Shuffled(11);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      art::RemoveChild(node, order[i]);
      present[order[i]] = false;
      if (kShrinks && art::IsUnderfull(node)) {
        auto* shrunk = art::Shrunk(node);
        art::DeleteNode(node);
        node = shrunk;
        shrinks.emplace_back(node->count, node->type);
      }
      this->ExpectHolds(node, present);
      if (::testing::Test::HasFatalFailure()) break;
    }
    if (kShrinks) {
      const std::vector<std::pair<std::size_t, NodeType>> expected = {
          {37, NodeType::kN48},
          {24, NodeType::kN32},
          {12, NodeType::kN16},
          {3, NodeType::kN4}};
      EXPECT_EQ(shrinks, expected);
    } else {
      EXPECT_EQ(node->type, NodeType::kN256);
    }
    art::DeleteNode(node);
  }
}

TYPED_TEST(NodeLadder, TaggedRefRoundTrip) {
  using Ref = typename TestFixture::Ref;
  auto node = std::make_unique<art::BasicNode256<TypeParam>>();
  const Ref nr = Ref::FromNode(node.get());
  const Ref lr = this->LeafRef(9);
  EXPECT_TRUE(nr.IsNode());
  EXPECT_FALSE(nr.IsLeaf());
  EXPECT_TRUE(lr.IsLeaf());
  EXPECT_FALSE(lr.IsNode());
  EXPECT_EQ(nr.AsNode(), node.get());
  EXPECT_EQ(lr.AsLeaf(), this->leaves_[9].get());
  EXPECT_EQ(Ref::FromRaw(lr.raw()), lr);
  EXPECT_TRUE(Ref{}.IsNull());
}

TYPED_TEST(NodeLadder, MinimumFollowsFirstChild) {
  // Two levels: the minimum is the first child's first leaf -- the
  // smallest key under sorted keys, the first added otherwise.
  using Ref = typename TestFixture::Ref;
  auto* root = new art::BasicNode4<TypeParam>;
  auto* inner = new art::BasicNode4<TypeParam>;
  art::AddChild(inner, 5, this->LeafRef(5));
  art::AddChild(inner, 1, this->LeafRef(1));
  art::AddChild(root, 9, this->LeafRef(9));
  art::AddChild(root, 3, Ref::FromNode(inner));
  const auto* expected =
      TypeParam::kSortedKeys ? this->leaves_[1].get() : this->leaves_[9].get();
  EXPECT_EQ(art::Minimum(Ref::FromNode(root)), expected);
  art::DeleteNode(inner);
  art::DeleteNode(root);
}

}  // namespace
}  // namespace dcart
