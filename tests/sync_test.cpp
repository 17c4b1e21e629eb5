// Tests for the synchronization substrate: optimistic version locks,
// epoch-based reclamation, and the concurrent node structures.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "leaf_owner.h"
#include "sync/cnode.h"
#include "sync/epoch.h"
#include "sync/version_lock.h"

namespace dcart::sync {
namespace {

using OwnedLeaf = test_util::OwnedLeaf<CLeaf>;

OwnedLeaf MakeLeaf(const Key& key, art::Value value) {
  return test_util::MakeLeaf<CLeaf>(key, value);
}

// ---------------------------------------------------------- VersionLock ----

TEST(VersionLock, ReadLockReturnsStableVersion) {
  VersionLock lock;
  SyncStats stats;
  bool restart = false;
  const std::uint64_t v1 = lock.ReadLockOrRestart(restart, stats);
  EXPECT_FALSE(restart);
  lock.ReadUnlockOrRestart(v1, restart, stats);
  EXPECT_FALSE(restart);
}

TEST(VersionLock, WriteBumpsVersion) {
  VersionLock lock;
  SyncStats stats;
  bool restart = false;
  std::uint64_t v = lock.ReadLockOrRestart(restart, stats);
  lock.UpgradeToWriteLockOrRestart(v, restart, stats);
  ASSERT_FALSE(restart);
  lock.WriteUnlock(stats);
  // A reader holding the pre-write version must now restart.
  std::uint64_t v2 = lock.ReadLockOrRestart(restart, stats);
  EXPECT_NE(v2, v);
  bool stale = false;
  lock.ReadUnlockOrRestart(v - VersionLock::kLockedBit, stale, stats);
  EXPECT_TRUE(stale);
}

TEST(VersionLock, UpgradeFailsOnVersionChange) {
  VersionLock lock;
  SyncStats stats;
  bool restart = false;
  std::uint64_t v = lock.ReadLockOrRestart(restart, stats);
  // Simulate an intervening writer.
  lock.WriteLockOrRestart(restart, stats);
  ASSERT_FALSE(restart);
  lock.WriteUnlock(stats);
  bool failed = false;
  lock.UpgradeToWriteLockOrRestart(v, failed, stats);
  EXPECT_TRUE(failed);
  EXPECT_GT(stats.lock_contentions, 0u);
}

TEST(VersionLock, ObsoleteForcesRestart) {
  VersionLock lock;
  SyncStats stats;
  bool restart = false;
  lock.WriteLockOrRestart(restart, stats);
  ASSERT_FALSE(restart);
  lock.WriteUnlockObsolete(stats);
  EXPECT_TRUE(lock.IsObsolete());
  bool rs = false;
  lock.ReadLockOrRestart(rs, stats);
  EXPECT_TRUE(rs);
}

TEST(VersionLock, ContendedWritersSerialize) {
  VersionLock lock;
  std::atomic<int> in_critical{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      SyncStats stats;
      for (int i = 0; i < 2000; ++i) {
        bool restart = false;
        lock.WriteLockOrRestart(restart, stats);
        ASSERT_FALSE(restart);
        if (in_critical.fetch_add(1) != 0) overlap = true;
        in_critical.fetch_sub(1);
        lock.WriteUnlock(stats);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(overlap.load());
}

// ---------------------------------------------------------- EpochManager ---

TEST(Epoch, RetiredObjectsFreedAfterQuiescence) {
  EpochManager epochs(2);
  bool freed = false;
  epochs.Enter(0);
  epochs.Retire(0, [&freed] { freed = true; });
  epochs.Exit(0);
  EXPECT_FALSE(freed);  // scans are batched
  // Push enough epochs to trigger the scan.
  for (int i = 0; i < 200; ++i) {
    epochs.Enter(0);
    epochs.Exit(0);
  }
  EXPECT_TRUE(freed);
}

TEST(Epoch, ActiveReaderBlocksReclamation) {
  EpochManager epochs(2);
  bool freed = false;
  epochs.Enter(1);  // reader pins the current epoch
  epochs.Enter(0);
  epochs.Retire(0, [&freed] { freed = true; });
  epochs.Exit(0);
  for (int i = 0; i < 200; ++i) {
    epochs.Enter(0);
    epochs.Exit(0);
  }
  EXPECT_FALSE(freed) << "object freed while a reader could still hold it";
  epochs.Exit(1);
  for (int i = 0; i < 200; ++i) {
    epochs.Enter(0);
    epochs.Exit(0);
  }
  EXPECT_TRUE(freed);
}

TEST(Epoch, DeferModeHoldsEverythingUntilDrain) {
  EpochManager epochs(1);
  epochs.set_defer(true);
  int freed = 0;
  for (int i = 0; i < 500; ++i) {
    epochs.Enter(0);
    epochs.Retire(0, [&freed] { ++freed; });
    epochs.Exit(0);
  }
  EXPECT_EQ(freed, 0);
  epochs.DrainAll();
  EXPECT_EQ(freed, 500);
}

TEST(Epoch, GuardIsRaii) {
  EpochManager epochs(1);
  {
    EpochManager::Guard guard(epochs, 0);
    // Slot pinned inside the scope.
  }
  bool freed = false;
  epochs.Retire(0, [&freed] { freed = true; });
  epochs.DrainAll();
  EXPECT_TRUE(freed);
}

// ----------------------------------------------------------------- CLeaf ---

TEST(CLeaf, ValueIsAlignedAndLockFree) {
  static_assert(std::atomic<art::Value>::is_always_lock_free);
  EXPECT_EQ(alignof(CLeaf), 8u);
  EXPECT_EQ(CLeaf::kHeaderBytes, art::Leaf::kHeaderBytes);
  for (const std::size_t len : {1u, 8u, 13u}) {
    const OwnedLeaf leaf = MakeLeaf(Key(len, 0x7e), 5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&leaf->value) % 8, 0u);
    EXPECT_TRUE(leaf->value.is_lock_free());
    EXPECT_EQ(leaf->value.load(), 5u);
  }
}

// ----------------------------------------------------------------- CNode ---

TEST(CNode, AddFindEnumerate) {
  CNode4 n;
  const OwnedLeaf l1 = MakeLeaf(Key{1}, 10), l2 = MakeLeaf(Key{2}, 20);
  n.lock.AssertThreadPrivate();  // stack-local node: single-threaded test
  CAddChild(&n, 9, CRef::FromLeaf(l1.get()));
  CAddChild(&n, 4, CRef::FromLeaf(l2.get()));
  EXPECT_EQ(art::FindChild(&n, 9).AsLeaf(), l1.get());
  EXPECT_EQ(art::FindChild(&n, 4).AsLeaf(), l2.get());
  EXPECT_TRUE(art::FindChild(&n, 5).IsNull());
  std::vector<int> order;
  art::EnumerateChildren(&n, [&order](std::uint8_t b, CRef) {
    order.push_back(b);
    return true;
  });
  EXPECT_EQ(order, (std::vector<int>{4, 9}));
}

TEST(CNode, GrowChainKeepsChildren) {
  std::vector<CLeaf*> leaves;
  CNode* node = new CNode4;
  for (int b = 0; b < 256; ++b) {
    node->lock.AssertThreadPrivate();  // never published: test-local tree
    if (CIsFull(node)) {
      CNode* grown = CGrown(node);
      art::DeleteNode(node);
      node = grown;
    }
    CLeaf* leaf = CLeaf::New(Key{static_cast<std::uint8_t>(b)},
                             static_cast<art::Value>(b));
    leaves.push_back(leaf);
    CAddChild(node, static_cast<std::uint8_t>(b), CRef::FromLeaf(leaf));
  }
  EXPECT_EQ(node->type, NodeType::kN256);
  for (int b = 0; b < 256; ++b) {
    EXPECT_EQ(art::FindChild(node, static_cast<std::uint8_t>(b))
                  .AsLeaf()
                  ->value,
              static_cast<art::Value>(b));
  }
  for (CLeaf* l : leaves) l->Delete();
  art::DeleteNode(node);
}

TEST(CNode, MinimumFindsLeftmostLeaf) {
  CNode4 root;
  CNode4 child;
  const OwnedLeaf l1 = MakeLeaf(Key{1, 1}, 11), l2 = MakeLeaf(Key{1, 5}, 15),
                  l3 = MakeLeaf(Key{9}, 9);
  child.lock.AssertThreadPrivate();  // stack-local nodes: no concurrency
  root.lock.AssertThreadPrivate();
  CAddChild(&child, 1, CRef::FromLeaf(l1.get()));
  CAddChild(&child, 5, CRef::FromLeaf(l2.get()));
  CAddChild(&root, 9, CRef::FromLeaf(l3.get()));
  CAddChild(&root, 1, CRef::FromNode(&child));
  EXPECT_EQ(art::Minimum(CRef::FromNode(&root)), l1.get());
}

TEST(CNode, PrefixRoundTrip) {
  CNode16 n;
  const Key key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  n.lock.AssertThreadPrivate();  // stack-local node: single-threaded test
  CSetPrefixFromKey(&n, key, 2, 13);
  EXPECT_EQ(n.prefix_len, 13u);
  EXPECT_EQ(n.stored_prefix_len, kMaxStoredPrefix);
  for (std::size_t i = 0; i < kMaxStoredPrefix; ++i) {
    EXPECT_EQ(n.prefix[i], key[2 + i]);
  }
}

TEST(CNode, TaggedRefs) {
  CNode256 node;
  const OwnedLeaf leaf = MakeLeaf(Key{1}, 1);
  EXPECT_TRUE(CRef::FromNode(&node).IsNode());
  EXPECT_TRUE(CRef::FromLeaf(leaf.get()).IsLeaf());
  EXPECT_TRUE(CRef{}.IsNull());
  EXPECT_EQ(CRef::FromLeaf(leaf.get()).AsLeaf(), leaf.get());
}

}  // namespace
}  // namespace dcart::sync
