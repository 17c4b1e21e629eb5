#include "baselines/rowex_tree.h"

#include <algorithm>
#include <cassert>

namespace dcart::baselines {

using namespace rowex;
using art::DeleteNode;
using art::DestroySubtree;
using art::FindChild;
using art::FindChildSlot;
using art::Grown;
using art::IsFull;
using art::Minimum;
using art::ScanCost;
using sync::SyncStats;

namespace {

PackedPrefix MakePrefixFromKey(std::uint16_t level, std::uint16_t len,
                               KeyView full_key, std::size_t offset) {
  std::uint8_t bytes[PackedPrefix::kMaxStored] = {};
  const unsigned stored =
      std::min<unsigned>(len, PackedPrefix::kMaxStored);
  for (unsigned i = 0; i < stored; ++i) {
    bytes[i] = full_key[offset + i];
  }
  return PackedPrefix::Make(level, len, bytes);
}

}  // namespace

RowexTree::RowexTree(std::size_t max_threads)
    : epochs_(std::make_unique<sync::EpochManager>(max_threads)) {}

RowexTree::~RowexTree() {
  epochs_->DrainAll();
  DestroySubtree(root());
}

void RowexTree::BulkLoad(
    const std::vector<std::pair<Key, art::Value>>& items) {
  SyncStats scratch;
  for (const auto& [key, value] : items) {
    Insert(key, value, 0, scratch);
  }
}

std::optional<art::Value> RowexTree::Lookup(KeyView key, std::size_t tid,
                                            SyncStats& stats) const {
  (void)stats;  // readers take no locks and never restart under ROWEX
  sync::EpochManager::Guard guard(*epochs_, tid);
  // RowexPolicy::ReadPath reads each node's (level, prefix) pair in ONE
  // atomic load, and the descent matches at the node's own level, so a
  // concurrent split (which moves the level forward and shrinks the prefix
  // together) is harmless.  Bytes beyond the 4 stored ones are verified by
  // the leaf's full key.
  const CLeaf* leaf = art::Descend(root(), 0, key, art::NoHook{});
  if (leaf == nullptr) return std::nullopt;
  return leaf->value.load(std::memory_order_acquire);
}

bool RowexTree::Insert(KeyView key, art::Value value, std::size_t tid,
                       SyncStats& stats, OpTracer* tracer) {
  assert(!key.empty());
  assert(key.size() < (1u << 16) && "ROWEX levels are 16-bit");
  sync::EpochManager::Guard guard(*epochs_, tid);
  for (;;) {
    const Outcome outcome = TryInsert(key, value, tid, stats, tracer);
    if (outcome != Outcome::kRestart) return outcome == Outcome::kInserted;
  }
}

// NO_THREAD_SAFETY_ANALYSIS justification: ROWEX writers lock parent and
// node *conditionally* (`if (parent) ...` acquire/release ladders), and
// clang's analysis does not model conditionally-held capabilities — every
// join point after an `if (parent)` would warn.  Acquisition success is
// also reported through the `need_restart` out-parameter, outside the
// analysis' try-lock model.  Checked dynamically by the TSan CI job
// (rowex_test runs under -fsanitize=thread).
RowexTree::Outcome RowexTree::TryInsert(KeyView key, art::Value value,
                                        std::size_t tid, SyncStats& stats,
                                        OpTracer* tracer)
    NO_THREAD_SAFETY_ANALYSIS {
  bool rs = false;

  std::uintptr_t root_raw = root_.load(std::memory_order_acquire);
  RRef root_ref = RRef::FromRaw(root_raw);

  if (root_ref.IsNull()) {
    CLeaf* leaf = CLeaf::New(key, value);
    ++stats.atomic_ops;
    if (root_.compare_exchange_strong(root_raw, RRef::FromLeaf(leaf).raw(),
                                      std::memory_order_acq_rel)) {
      size_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kInserted;
    }
    leaf->Delete();  // dcart-lint: disable(DL011) CAS lost; leaf was never published, no reader can hold it
    ++stats.lock_contentions;
    return Outcome::kRestart;
  }

  if (root_ref.IsLeaf()) {
    CLeaf* leaf = root_ref.AsLeaf();
    const KeyView leaf_key = leaf->key();
    if (KeysEqual(leaf_key, key)) {
      ++stats.atomic_ops;
      leaf->value.store(value, std::memory_order_release);
      return Outcome::kUpdated;
    }
    const std::size_t lcp = CommonPrefixLength(leaf_key, key);
    assert(lcp < key.size() && lcp < leaf_key.size());
    auto* branch = new RNode4;
    branch->set_prefix(MakePrefixFromKey(0, static_cast<std::uint16_t>(lcp),
                                         key, 0));
    CLeaf* new_leaf = CLeaf::New(key, value);
    RAddChild(branch, key[lcp], RRef::FromLeaf(new_leaf));
    RAddChild(branch, leaf_key[lcp], root_ref);
    ++stats.atomic_ops;
    if (root_.compare_exchange_strong(root_raw, RRef::FromNode(branch).raw(),
                                      std::memory_order_acq_rel)) {
      ++stats.lock_acquisitions;
      size_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kInserted;
    }
    new_leaf->Delete();  // dcart-lint: disable(DL011) CAS lost; leaf was never published, no reader can hold it
    DeleteNode(branch);
    ++stats.lock_contentions;
    return Outcome::kRestart;
  }

  RNode* node = root_ref.AsNode();
  RNode* parent = nullptr;
  std::uint8_t parent_key = 0;

  for (;;) {
    const PackedPrefix pp = node->prefix();
    const std::size_t level = pp.level();
    const std::size_t prefix_len = pp.prefix_len();
    if (tracer) {
      tracer->VisitInternal(reinterpret_cast<std::uintptr_t>(node),
                            pp.stored(), ScanCost(node));
    }

    // Writer-side prefix verification must be exact: the stored 4 bytes
    // come from the packed word, the rest from any leaf of the subtree
    // (those bytes are common to the whole subtree).
    std::size_t mismatch = prefix_len;
    {
      const unsigned stored = pp.stored();
      for (unsigned i = 0; i < stored; ++i) {
        if (pp.byte(i) != key[level + i]) {
          mismatch = i;
          break;
        }
      }
      if (mismatch == prefix_len && prefix_len > stored) {
        const CLeaf* probe = Minimum(RRef::FromNode(node));
        if (probe == nullptr) return Outcome::kRestart;
        const KeyView probe_key = probe->key();
        for (std::size_t i = stored; i < prefix_len; ++i) {
          if (probe_key[level + i] != key[level + i]) {
            mismatch = i;
            break;
          }
        }
      }
    }
    // A shorter key can end inside the prefix only by differing from it.
    assert(level + mismatch < key.size() && "keys must be prefix-free");

    if (mismatch < prefix_len) {
      // Split the compressed path.  Lock the parent (spin) and the node
      // (try, to stay deadlock-free against growers), then re-verify.
      if (parent != nullptr) {
        parent->lock.WriteLockOrRestart(rs, stats);
        if (rs) return Outcome::kRestart;
        if (parent->obsolete.load(std::memory_order_acquire) ||
            FindChildSlot(parent, parent_key) == nullptr ||
            !(RowexAccess::LoadSlot(*FindChildSlot(parent, parent_key)) ==
              RRef::FromNode(node))) {
          parent->lock.WriteUnlock(stats);
          return Outcome::kRestart;
        }
      }
      node->lock.TryWriteLockOrRestart(rs, stats);
      if (rs) {
        if (parent) parent->lock.WriteUnlock(stats);
        return Outcome::kRestart;
      }
      if (node->obsolete.load(std::memory_order_acquire) ||
          node->prefix().word != pp.word) {
        node->lock.WriteUnlock(stats);
        if (parent) parent->lock.WriteUnlock(stats);
        return Outcome::kRestart;
      }
      const CLeaf* probe = Minimum(RRef::FromNode(node));
      if (probe == nullptr) {
        node->lock.WriteUnlock(stats);
        if (parent) parent->lock.WriteUnlock(stats);
        return Outcome::kRestart;
      }
      const KeyView probe_key = probe->key();
      auto* branch = new RNode4;
      branch->set_prefix(MakePrefixFromKey(
          static_cast<std::uint16_t>(level),
          static_cast<std::uint16_t>(mismatch), probe_key, level));
      RAddChild(branch, key[level + mismatch],
                RRef::FromLeaf(CLeaf::New(key, value)));
      RAddChild(branch, probe_key[level + mismatch], RRef::FromNode(node));
      // Install the branch, THEN advance the node's (level, prefix) in one
      // atomic store — readers anchored on either value stay consistent.
      if (parent != nullptr) {
        RowexAccess::StoreSlot(*FindChildSlot(parent, parent_key),
                               RRef::FromNode(branch));
      } else {
        root_.store(RRef::FromNode(branch).raw(), std::memory_order_release);
      }
      node->set_prefix(MakePrefixFromKey(
          static_cast<std::uint16_t>(level + mismatch + 1),
          static_cast<std::uint16_t>(prefix_len - mismatch - 1), probe_key,
          level + mismatch + 1));
      if (tracer) {
        if (parent) {
          tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(parent), true);
        }
        tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
      }
      node->lock.WriteUnlock(stats);
      if (parent) parent->lock.WriteUnlock(stats);
      size_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kInserted;
    }

    const std::size_t next_depth = level + prefix_len;
    const std::uint8_t node_key = key[next_depth];
    const RRef next = FindChild(node, node_key);

    if (next.IsNull()) {
      node->lock.WriteLockOrRestart(rs, stats);
      if (rs) return Outcome::kRestart;
      if (node->obsolete.load(std::memory_order_acquire) ||
          node->prefix().word != pp.word) {
        node->lock.WriteUnlock(stats);
        return Outcome::kRestart;
      }
      if (FindChildSlot(node, node_key) != nullptr) {
        // The child appeared while we were locking; redo this level.
        node->lock.WriteUnlock(stats);
        continue;
      }
      if (IsFull(node)) {
        // Replace the node with a grown copy: try-lock the parent, swap
        // the slot, freeze and retire the old node.
        if (parent != nullptr) {
          parent->lock.TryWriteLockOrRestart(rs, stats);
          if (rs) {
            node->lock.WriteUnlock(stats);
            return Outcome::kRestart;
          }
          if (parent->obsolete.load(std::memory_order_acquire) ||
              FindChildSlot(parent, parent_key) == nullptr ||
              !(RowexAccess::LoadSlot(*FindChildSlot(parent, parent_key)) ==
                RRef::FromNode(node))) {
            parent->lock.WriteUnlock(stats);
            node->lock.WriteUnlock(stats);
            return Outcome::kRestart;
          }
        }
        RNode* bigger = Grown(node);
        RAddChild(bigger, node_key, RRef::FromLeaf(CLeaf::New(key, value)));
        if (parent != nullptr) {
          RowexAccess::StoreSlot(*FindChildSlot(parent, parent_key),
                                 RRef::FromNode(bigger));
          parent->lock.WriteUnlock(stats);
        } else {
          root_.store(RRef::FromNode(bigger).raw(),
                      std::memory_order_release);
        }
        node->obsolete.store(true, std::memory_order_release);
        if (tracer) {
          if (parent) {
            tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(parent), true);
          }
          tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
        }
        node->lock.WriteUnlock(stats);
        epochs_->Retire(tid, [node] { DeleteNode(node); });
      } else {
        RAddChild(node, node_key, RRef::FromLeaf(CLeaf::New(key, value)));
        if (tracer) {
          tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
        }
        node->lock.WriteUnlock(stats);
      }
      size_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kInserted;
    }

    if (next.IsLeaf()) {
      CLeaf* leaf = next.AsLeaf();
      const KeyView leaf_key = leaf->key();
      if (tracer) tracer->VisitLeaf(leaf);
      node->lock.WriteLockOrRestart(rs, stats);
      if (rs) return Outcome::kRestart;
      RRef* slot = FindChildSlot(node, node_key);
      if (node->obsolete.load(std::memory_order_acquire) || slot == nullptr ||
          !(RowexAccess::LoadSlot(*slot) == next)) {
        node->lock.WriteUnlock(stats);
        return Outcome::kRestart;
      }
      if (KeysEqual(leaf_key, key)) {
        // ROWEX write exclusion: the update happens under the node lock.
        if (tracer) {
          tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
        }
        leaf->value.store(value, std::memory_order_release);
        node->lock.WriteUnlock(stats);
        return Outcome::kUpdated;
      }
      // Expand the leaf into an N4 holding the two keys' common path.
      const std::size_t lcp = CommonPrefixLength(
          leaf_key.subspan(next_depth + 1), key.subspan(next_depth + 1));
      assert(next_depth + 1 + lcp < key.size() &&
             next_depth + 1 + lcp < leaf_key.size());
      auto* branch = new RNode4;
      branch->set_prefix(MakePrefixFromKey(
          static_cast<std::uint16_t>(next_depth + 1),
          static_cast<std::uint16_t>(lcp), key, next_depth + 1));
      RAddChild(branch, key[next_depth + 1 + lcp],
                RRef::FromLeaf(CLeaf::New(key, value)));
      RAddChild(branch, leaf_key[next_depth + 1 + lcp], next);
      RowexAccess::StoreSlot(*slot, RRef::FromNode(branch));
      if (tracer) {
        tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
      }
      node->lock.WriteUnlock(stats);
      size_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kInserted;
    }

    parent = node;
    parent_key = node_key;
    node = next.AsNode();
  }
}

std::size_t RowexTree::ScanTraced(
    KeyView start, std::size_t limit, OpTracer* tracer,
    const std::function<void(KeyView, art::Value)>& on_entry) const {
  return TracedScan(root(), start, limit, tracer, on_entry);
}

sync::CLeaf* RowexTree::FindLeafTraced(
    KeyView key, OpTracer* tracer,
    const rowex::RNode** last_internal) const {
  return art::Descend(
      root(), 0, key,
      art::Overload{[tracer](RRef leaf) {
                      if (tracer) tracer->VisitLeaf(leaf.AsLeaf());
                    },
                    [tracer, last_internal](RRef ref,
                                            const art::NodePath& path) {
                      if (last_internal) *last_internal = ref.AsNode();
                      if (tracer) {
                        tracer->VisitInternal(ref.raw(), path.stored,
                                              ScanCost(ref.AsNode()));
                      }
                    }});
}

}  // namespace dcart::baselines
