#include "baselines/olc_tree.h"

#include <algorithm>
#include <cassert>

namespace dcart::baselines {

using art::DeleteNode;
using art::DestroySubtree;
using art::EnumerateChildren;
using art::FindChild;
using art::FindChildSlot;
using art::Minimum;
using art::ScanCost;
using sync::CAddChild;
using sync::CGrown;
using sync::CIsFull;
using sync::CLeaf;
using sync::CNode;
using sync::CNode4;
using sync::CRef;
using sync::CRemoveChild;
using sync::CSetPrefixFromKey;
using sync::OlcAccess;
using sync::RelaxedLoad;
using sync::SyncStats;

namespace {

/// Minimum leaf with null-tolerance: under optimistic concurrency a torn
/// observation can momentarily show no children; report restart instead of
/// crashing.
CLeaf* CMinimumOrRestart(CRef ref, bool& need_restart) {
  CLeaf* leaf = ref.IsNull() ? nullptr : Minimum(ref);
  if (leaf == nullptr) need_restart = true;
  return leaf;
}

/// The traced point descent's hook: the tracer's accounting, and the
/// captures SMART's path cache and lock-based readers use.
struct TracedDescent {
  OpTracer* tracer;
  bool compact_layout;
  OlcTree::PathHint* hint_out = nullptr;
  std::size_t hint_depth = 0;
  const CNode** last_internal_out = nullptr;

  void operator()(CRef leaf) const {
    if (tracer) tracer->VisitLeaf(leaf.AsLeaf());
  }
  void operator()(CRef ref, const art::NodePath& path) const {
    const CNode* node = ref.AsNode();
    if (last_internal_out) *last_internal_out = node;
    if (hint_out && hint_out->node == nullptr && path.level >= hint_depth) {
      *hint_out = OlcTree::PathHint{node, path.level};
    }
    if (tracer) {
      tracer->VisitInternal(ref.raw(), path.stored, ScanCost(node),
                            compact_layout);
    }
  }
};

}  // namespace

OlcTree::OlcTree(std::size_t max_threads)
    : epochs_(std::make_unique<sync::EpochManager>(max_threads)) {}

OlcTree::~OlcTree() {
  epochs_->DrainAll();
  DestroySubtree(root());
}

void OlcTree::BulkLoad(const std::vector<std::pair<Key, art::Value>>& items) {
  SyncStats scratch;
  for (const auto& [key, value] : items) {
    Insert(key, value, /*tid=*/0, scratch);
  }
}

void OlcTree::Retire(std::size_t tid, CNode* node) {
  epochs_->set_defer(defer_reclamation_.load(std::memory_order_relaxed));
  epochs_->Retire(tid, [node] { DeleteNode(node); });
}

bool OlcTree::Insert(KeyView key, art::Value value, std::size_t tid,
                     SyncStats& stats, OpTracer* tracer,
                     bool cas_leaf_updates) {
  assert(!key.empty());
  sync::EpochManager::Guard guard(*epochs_, tid);
  for (;;) {
    const WriteOutcome outcome =
        TryInsert(key, value, tid, stats, tracer, cas_leaf_updates);
    if (outcome != WriteOutcome::kRestart) {
      return outcome == WriteOutcome::kInserted;
    }
  }
}

// NO_THREAD_SAFETY_ANALYSIS justification: optimistic lock coupling holds
// the parent's lock *conditionally* (`if (parent) ...` on every acquire and
// release), and clang's analysis does not model conditionally-held
// capabilities — every join point after an `if (parent)` would warn.  The
// acquisition itself is also conditional through the `need_restart`
// out-parameter, outside the analysis' try-lock model.  The lock discipline
// of this function is checked dynamically by the TSan CI job
// (parallel_runtime_test + olc_tree_test run under -fsanitize=thread).
OlcTree::WriteOutcome OlcTree::TryInsert(KeyView key, art::Value value,
                                         std::size_t tid, SyncStats& stats,
                                         OpTracer* tracer,
                                         bool cas_leaf_updates)
    NO_THREAD_SAFETY_ANALYSIS {
  bool rs = false;  // need_restart flag threaded through the lock protocol

  std::uintptr_t root_raw = root_.load(std::memory_order_acquire);
  CRef root_ref = CRef::FromRaw(root_raw);

  if (root_ref.IsNull()) {
    CLeaf* leaf = CLeaf::New(key, value);
    ++stats.atomic_ops;
    if (root_.compare_exchange_strong(root_raw, CRef::FromLeaf(leaf).raw(),
                                      std::memory_order_acq_rel)) {
      size_.fetch_add(1, std::memory_order_relaxed);
      return WriteOutcome::kInserted;
    }
    leaf->Delete();  // dcart-lint: disable(DL011) CAS lost; leaf was never published, no reader can hold it
    ++stats.lock_contentions;
    return WriteOutcome::kRestart;
  }

  if (root_ref.IsLeaf()) {
    CLeaf* leaf = root_ref.AsLeaf();
    const KeyView leaf_key = leaf->key();
    if (tracer) tracer->VisitLeaf(leaf);
    if (KeysEqual(leaf_key, key)) {
      if (tracer) tracer->SyncPoint(root_ref.raw(), true);
      ++stats.atomic_ops;
      leaf->value.store(value, std::memory_order_release);
      return WriteOutcome::kUpdated;
    }
    // Grow the root leaf into an N4 via CAS on the root slot.
    const std::size_t lcp = CommonPrefixLength(leaf_key, key);
    assert(lcp < key.size() && lcp < leaf_key.size());
    auto* branch = new CNode4;
    CSetPrefixFromKey(branch, key, 0, static_cast<std::uint32_t>(lcp));
    CLeaf* new_leaf = CLeaf::New(key, value);
    CAddChild(branch, key[lcp], CRef::FromLeaf(new_leaf));
    CAddChild(branch, leaf_key[lcp], root_ref);
    ++stats.atomic_ops;
    if (tracer) tracer->SyncPoint(root_ref.raw(), true);
    if (root_.compare_exchange_strong(root_raw, CRef::FromNode(branch).raw(),
                                      std::memory_order_acq_rel)) {
      ++stats.lock_acquisitions;
      size_.fetch_add(1, std::memory_order_relaxed);
      return WriteOutcome::kInserted;
    }
    new_leaf->Delete();  // dcart-lint: disable(DL011) CAS lost; leaf was never published, no reader can hold it
    DeleteNode(branch);
    ++stats.lock_contentions;
    return WriteOutcome::kRestart;
  }

  CNode* node = root_ref.AsNode();
  CNode* parent = nullptr;
  std::uint8_t parent_key = 0;
  std::uint64_t v = node->lock.ReadLockOrRestart(rs, stats);
  if (rs || RootMoved(root_raw)) return WriteOutcome::kRestart;
  std::uint64_t pv = 0;
  std::size_t depth = 0;

  for (;;) {
    // --- pessimistic prefix check (optimistically read, then validated) ---
    const std::uint32_t prefix_len = RelaxedLoad(node->prefix_len);
    const std::uint8_t stored = RelaxedLoad(node->stored_prefix_len);
    const auto max_cmp = static_cast<std::uint32_t>(
        std::min<std::size_t>(prefix_len, key.size() - depth));
    std::uint32_t mismatch = 0;
    {
      const std::uint32_t cmp_stored = std::min<std::uint32_t>(max_cmp, stored);
      while (mismatch < cmp_stored &&
             RelaxedLoad(node->prefix[mismatch]) == key[depth + mismatch]) {
        ++mismatch;
      }
      if (mismatch == cmp_stored && mismatch < max_cmp && prefix_len > stored) {
        // Recover the non-stored tail from the subtree's minimum leaf.
        CLeaf* min_leaf = CMinimumOrRestart(CRef::FromNode(node), rs);
        if (rs) return WriteOutcome::kRestart;
        const KeyView min_key = min_leaf->key();
        while (mismatch < max_cmp &&
               min_key[depth + mismatch] == key[depth + mismatch]) {
          ++mismatch;
        }
      }
    }
    node->lock.CheckOrRestart(v, rs, stats);
    if (rs) return WriteOutcome::kRestart;

    if (mismatch < prefix_len) {
      // The key diverges inside this node's compressed path: split it.
      // Lock parent (the slot we re-point) and the node (whose prefix we
      // trim), in that order.
      if (parent) {
        parent->lock.UpgradeToWriteLockOrRestart(pv, rs, stats);
        if (rs) return WriteOutcome::kRestart;
      }
      node->lock.UpgradeToWriteLockOrRestart(v, rs, stats);
      if (rs) {
        if (parent) parent->lock.WriteUnlock(stats);
        return WriteOutcome::kRestart;
      }
      if (tracer) {
        if (parent) tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(parent),
                                      true);
        tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
      }
      // State is stable now; everything read above was validated by the
      // successful upgrades.
      assert(depth + mismatch < key.size() && "keys must be prefix-free");
      bool unused = false;
      const KeyView min_key =
          CMinimumOrRestart(CRef::FromNode(node), unused)->key();
      auto* branch = new CNode4;
      CSetPrefixFromKey(branch, min_key, depth, mismatch);
      CAddChild(branch, key[depth + mismatch],
                CRef::FromLeaf(CLeaf::New(key, value)));
      CAddChild(branch, min_key[depth + mismatch], CRef::FromNode(node));
      CSetPrefixFromKey(node, min_key, depth + mismatch + 1,
                        prefix_len - mismatch - 1);
      if (parent) {
        OlcAccess::StoreSlot(*FindChildSlot(parent, parent_key),
                  CRef::FromNode(branch));
      } else {
        root_.store(CRef::FromNode(branch).raw(), std::memory_order_release);
      }
      node->lock.WriteUnlock(stats);
      if (parent) parent->lock.WriteUnlock(stats);
      size_.fetch_add(1, std::memory_order_relaxed);
      return WriteOutcome::kInserted;
    }

    depth += prefix_len;
    assert(depth < key.size() && "keys must be prefix-free");
    const std::uint8_t node_key = key[depth];
    const CRef next = FindChild(node, node_key);
    const unsigned scanned = ScanCost(node);
    node->lock.CheckOrRestart(v, rs, stats);
    if (rs) return WriteOutcome::kRestart;
    if (tracer) {
      tracer->VisitInternal(reinterpret_cast<std::uintptr_t>(node), stored,
                            scanned);
    }

    if (next.IsNull()) {
      // Insert a new leaf under this node.
      if (CIsFull(node)) {
        // Replace the node with the next-larger type: lock parent + node.
        if (parent) {
          parent->lock.UpgradeToWriteLockOrRestart(pv, rs, stats);
          if (rs) return WriteOutcome::kRestart;
        }
        node->lock.UpgradeToWriteLockOrRestart(v, rs, stats);
        if (rs) {
          if (parent) parent->lock.WriteUnlock(stats);
          return WriteOutcome::kRestart;
        }
        if (tracer) {
          if (parent) {
            tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(parent), true);
          }
          tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
        }
        CNode* bigger = CGrown(node);
        CAddChild(bigger, node_key, CRef::FromLeaf(CLeaf::New(key, value)));
        if (parent) {
          OlcAccess::StoreSlot(*FindChildSlot(parent, parent_key),
                    CRef::FromNode(bigger));
        } else {
          root_.store(CRef::FromNode(bigger).raw(),
                      std::memory_order_release);
        }
        node->lock.WriteUnlockObsolete(stats);
        Retire(tid, node);
        if (parent) parent->lock.WriteUnlock(stats);
      } else {
        node->lock.UpgradeToWriteLockOrRestart(v, rs, stats);
        if (rs) return WriteOutcome::kRestart;
        if (tracer) {
          tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
        }
        CAddChild(node, node_key, CRef::FromLeaf(CLeaf::New(key, value)));
        node->lock.WriteUnlock(stats);
      }
      size_.fetch_add(1, std::memory_order_relaxed);
      return WriteOutcome::kInserted;
    }

    if (parent) {
      parent->lock.ReadUnlockOrRestart(pv, rs, stats);
      if (rs) return WriteOutcome::kRestart;
    }

    if (next.IsLeaf()) {
      CLeaf* leaf = next.AsLeaf();
      const KeyView leaf_key = leaf->key();
      if (tracer) tracer->VisitLeaf(leaf);
      if (KeysEqual(leaf_key, key)) {
        if (cas_leaf_updates) {
          // Heart/SMART protocol: CAS the leaf value directly; the parent
          // node is only validated, never locked.
          node->lock.CheckOrRestart(v, rs, stats);
          if (rs) return WriteOutcome::kRestart;
          if (tracer) tracer->SyncPoint(next.raw(), true);
          ++stats.atomic_ops;
          leaf->value.store(value, std::memory_order_release);
          return WriteOutcome::kUpdated;
        }
        // Lock-based protocol: write-lock the leaf's parent node
        // (ROWEX-style write exclusion).
        node->lock.UpgradeToWriteLockOrRestart(v, rs, stats);
        if (rs) return WriteOutcome::kRestart;
        if (tracer) {
          tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
        }
        leaf->value.store(value, std::memory_order_release);
        node->lock.WriteUnlock(stats);
        return WriteOutcome::kUpdated;
      }
      // Expand the leaf into an N4 carrying the two keys' common path.
      node->lock.UpgradeToWriteLockOrRestart(v, rs, stats);
      if (rs) return WriteOutcome::kRestart;
      if (tracer) {
        tracer->SyncPoint(reinterpret_cast<std::uintptr_t>(node), true);
      }
      const std::size_t lcp = CommonPrefixLength(
          leaf_key.subspan(depth + 1), key.subspan(depth + 1));
      assert(depth + 1 + lcp < key.size() &&
             depth + 1 + lcp < leaf_key.size() && "keys must be prefix-free");
      auto* branch = new CNode4;
      CSetPrefixFromKey(branch, key, depth + 1,
                        static_cast<std::uint32_t>(lcp));
      CAddChild(branch, key[depth + 1 + lcp],
                CRef::FromLeaf(CLeaf::New(key, value)));
      CAddChild(branch, leaf_key[depth + 1 + lcp], next);
      OlcAccess::StoreSlot(*FindChildSlot(node, node_key),
                           CRef::FromNode(branch));
      node->lock.WriteUnlock(stats);
      size_.fetch_add(1, std::memory_order_relaxed);
      return WriteOutcome::kInserted;
    }

    parent = node;
    pv = v;
    parent_key = node_key;
    node = next.AsNode();
    ++depth;
    v = node->lock.ReadLockOrRestart(rs, stats);
    if (rs) return WriteOutcome::kRestart;
    // Hand-over-hand, as in TryLookup: a path split of `node` after its
    // pointer was read re-points the parent's slot and leaves `node` live
    // one level deeper with a fresh version.  Latching that version at
    // this depth would key its children on the wrong byte.
    parent->lock.CheckOrRestart(pv, rs, stats);
    if (rs) return WriteOutcome::kRestart;
  }
}

bool OlcTree::Remove(KeyView key, std::size_t tid, SyncStats& stats) {
  sync::EpochManager::Guard guard(*epochs_, tid);
  for (;;) {
    const RemoveOutcome outcome = TryRemove(key, tid, stats);
    if (outcome != RemoveOutcome::kRestart) {
      return outcome == RemoveOutcome::kRemoved;
    }
  }
}

// NO_THREAD_SAFETY_ANALYSIS justification: same conditionally-held
// parent/sibling lock chains as TryInsert (see the comment there); the
// three-node unlock ladders on the merge path are beyond the analysis'
// conditional-capability model.  Checked dynamically by the TSan CI job.
OlcTree::RemoveOutcome OlcTree::TryRemove(KeyView key, std::size_t tid,
                                          SyncStats& stats)
    NO_THREAD_SAFETY_ANALYSIS {
  bool rs = false;

  std::uintptr_t root_raw = root_.load(std::memory_order_acquire);
  const CRef root_ref = CRef::FromRaw(root_raw);
  if (root_ref.IsNull()) return RemoveOutcome::kNotFound;

  if (root_ref.IsLeaf()) {
    CLeaf* leaf = root_ref.AsLeaf();
    if (!KeysEqual(leaf->key(), key)) return RemoveOutcome::kNotFound;
    ++stats.atomic_ops;
    if (root_.compare_exchange_strong(root_raw, 0,
                                      std::memory_order_acq_rel)) {
      epochs_->Retire(tid, [leaf] { leaf->Delete(); });
      size_.fetch_sub(1, std::memory_order_relaxed);
      return RemoveOutcome::kRemoved;
    }
    ++stats.lock_contentions;
    return RemoveOutcome::kRestart;
  }

  CNode* node = root_ref.AsNode();
  CNode* parent = nullptr;
  std::uint8_t parent_key = 0;
  std::uint64_t v = node->lock.ReadLockOrRestart(rs, stats);
  if (rs || RootMoved(root_raw)) return RemoveOutcome::kRestart;
  std::uint64_t pv = 0;
  std::size_t depth = 0;

  for (;;) {
    // Optimistic prefix check; a stale positive is caught at the leaf.
    const std::uint8_t stored = RelaxedLoad(node->stored_prefix_len);
    const std::uint32_t prefix_len = RelaxedLoad(node->prefix_len);
    const std::size_t cmp =
        std::min<std::size_t>(stored, key.size() - depth);
    for (std::size_t i = 0; i < cmp; ++i) {
      if (RelaxedLoad(node->prefix[i]) != key[depth + i]) {
        node->lock.CheckOrRestart(v, rs, stats);
        return rs ? RemoveOutcome::kRestart : RemoveOutcome::kNotFound;
      }
    }
    if (key.size() - depth < prefix_len) {
      node->lock.CheckOrRestart(v, rs, stats);
      return rs ? RemoveOutcome::kRestart : RemoveOutcome::kNotFound;
    }
    depth += prefix_len;
    if (depth >= key.size()) {
      node->lock.CheckOrRestart(v, rs, stats);
      return rs ? RemoveOutcome::kRestart : RemoveOutcome::kNotFound;
    }
    const std::uint8_t node_key = key[depth];
    const CRef next = FindChild(node, node_key);
    node->lock.CheckOrRestart(v, rs, stats);
    if (rs) return RemoveOutcome::kRestart;
    if (next.IsNull()) return RemoveOutcome::kNotFound;

    if (next.IsLeaf()) {
      CLeaf* leaf = next.AsLeaf();
      if (!KeysEqual(leaf->key(), key)) return RemoveOutcome::kNotFound;

      const std::uint16_t count = RelaxedLoad(node->count);
      if (count == 2) {
        // Removing this leaf would leave a single child: replace the node
        // with its remaining sibling (re-compressing the path).  Lock
        // parent slot holder + node; the sibling is try-locked to avoid a
        // hold-and-spin cycle with descents that hold it.
        if (parent) {
          parent->lock.UpgradeToWriteLockOrRestart(pv, rs, stats);
          if (rs) return RemoveOutcome::kRestart;
        }
        node->lock.UpgradeToWriteLockOrRestart(v, rs, stats);
        if (rs) {
          if (parent) parent->lock.WriteUnlock(stats);
          return RemoveOutcome::kRestart;
        }
        CRef sibling;
        EnumerateChildren(node, [&](std::uint8_t, CRef child) {
          if (!(child == next)) sibling = child;
          return true;
        });
        assert(!sibling.IsNull());

        if (sibling.IsLeaf()) {
          if (parent) {
            OlcAccess::StoreSlot(*FindChildSlot(parent, parent_key),
                                 sibling);
          } else {
            root_.store(sibling.raw(), std::memory_order_release);
          }
        } else {
          CNode* sib = sibling.AsNode();
          sib->lock.TryWriteLockOrRestart(rs, stats);
          if (rs) {
            node->lock.WriteUnlock(stats);
            if (parent) parent->lock.WriteUnlock(stats);
            return RemoveOutcome::kRestart;
          }
          // sibling.prefix := node.prefix + branch_byte + sibling.prefix;
          // the bytes are recovered from the sibling's minimum leaf, whose
          // key holds the full path (stable: the whole chain is locked).
          const std::uint32_t total =
              RelaxedLoad(node->prefix_len) + 1 +
              RelaxedLoad(sib->prefix_len);
          bool min_rs = false;
          CLeaf* min_leaf = CMinimumOrRestart(sibling, min_rs);
          if (min_rs) {
            sib->lock.WriteUnlock(stats);
            node->lock.WriteUnlock(stats);
            if (parent) parent->lock.WriteUnlock(stats);
            return RemoveOutcome::kRestart;
          }
          const std::size_t node_start = depth - RelaxedLoad(node->prefix_len);
          CSetPrefixFromKey(sib, min_leaf->key(), node_start, total);
          if (parent) {
            OlcAccess::StoreSlot(*FindChildSlot(parent, parent_key),
                                 sibling);
          } else {
            root_.store(sibling.raw(), std::memory_order_release);
          }
          sib->lock.WriteUnlock(stats);
        }
        node->lock.WriteUnlockObsolete(stats);
        Retire(tid, node);
        if (parent) parent->lock.WriteUnlock(stats);
        epochs_->Retire(tid, [leaf] { leaf->Delete(); });
        size_.fetch_sub(1, std::memory_order_relaxed);
        return RemoveOutcome::kRemoved;
      }

      // Plain removal under the node's write lock.
      node->lock.UpgradeToWriteLockOrRestart(v, rs, stats);
      if (rs) return RemoveOutcome::kRestart;
      CRemoveChild(node, node_key);
      node->lock.WriteUnlock(stats);
      epochs_->Retire(tid, [leaf] { leaf->Delete(); });
      size_.fetch_sub(1, std::memory_order_relaxed);
      return RemoveOutcome::kRemoved;
    }

    if (parent) {
      parent->lock.ReadUnlockOrRestart(pv, rs, stats);
      if (rs) return RemoveOutcome::kRestart;
    }
    parent = node;
    pv = v;
    parent_key = node_key;
    node = next.AsNode();
    ++depth;
    v = node->lock.ReadLockOrRestart(rs, stats);
    if (rs) return RemoveOutcome::kRestart;
    parent->lock.CheckOrRestart(pv, rs, stats);  // as in TryInsert
    if (rs) return RemoveOutcome::kRestart;
  }
}

std::optional<art::Value> OlcTree::Lookup(KeyView key, std::size_t tid,
                                          SyncStats& stats) const {
  sync::EpochManager::Guard guard(*epochs_, tid);
  for (;;) {
    bool rs = false;
    auto result = TryLookup(key, stats, rs);
    if (!rs) return result;
  }
}

std::optional<art::Value> OlcTree::TryLookup(KeyView key, SyncStats& stats,
                                             bool& need_restart) const {
  const std::uintptr_t root_raw = root_.load(std::memory_order_acquire);
  CRef ref = CRef::FromRaw(root_raw);
  const CNode* parent = nullptr;
  std::uint64_t pv = 0;
  std::size_t depth = 0;

  for (;;) {
    if (ref.IsNull()) {
      if (parent) {
        parent->lock.CheckOrRestart(pv, need_restart, stats);
        if (need_restart) return std::nullopt;
      }
      return std::nullopt;
    }
    if (ref.IsLeaf()) {
      CLeaf* leaf = ref.AsLeaf();
      if (parent) {
        parent->lock.CheckOrRestart(pv, need_restart, stats);
        if (need_restart) return std::nullopt;
      }
      if (KeysEqual(leaf->key(), key)) {
        return leaf->value.load(std::memory_order_acquire);
      }
      return std::nullopt;
    }

    const CNode* node = ref.AsNode();
    const std::uint64_t v = node->lock.ReadLockOrRestart(need_restart, stats);
    if (need_restart) return std::nullopt;
    if (parent) {
      // Hand-over-hand validation: the parent must not have changed between
      // reading the child pointer and latching the child's version.
      parent->lock.CheckOrRestart(pv, need_restart, stats);
      if (need_restart) return std::nullopt;
    } else if (RootMoved(root_raw)) {
      need_restart = true;
      return std::nullopt;
    }

    // Optimistic path compression: compare the stored prefix bytes only;
    // leaves hold complete keys, so a mismatch in the non-stored tail is
    // caught by the final key comparison.
    const std::uint8_t stored = RelaxedLoad(node->stored_prefix_len);
    const std::uint32_t prefix_len = RelaxedLoad(node->prefix_len);
    const std::size_t cmp =
        std::min<std::size_t>(stored, key.size() - depth);
    for (std::size_t i = 0; i < cmp; ++i) {
      if (RelaxedLoad(node->prefix[i]) != key[depth + i]) {
        node->lock.CheckOrRestart(v, need_restart, stats);
        return std::nullopt;
      }
    }
    if (key.size() - depth < prefix_len) {
      node->lock.CheckOrRestart(v, need_restart, stats);
      return std::nullopt;
    }
    depth += prefix_len;
    if (depth >= key.size()) {
      node->lock.CheckOrRestart(v, need_restart, stats);
      return std::nullopt;
    }

    const CRef next = FindChild(node, key[depth]);
    node->lock.CheckOrRestart(v, need_restart, stats);
    if (need_restart) return std::nullopt;

    parent = node;
    pv = v;
    ref = next;
    ++depth;
  }
}

sync::CLeaf* OlcTree::FindLeafTraced(KeyView key, OpTracer* tracer,
                                     PathHint* hint_out,
                                     std::size_t hint_depth,
                                     bool compact_layout,
                                     const sync::CNode** last_internal_out)
    const {
  return art::Descend(root(), 0, key,
                      TracedDescent{tracer, compact_layout, hint_out,
                                    hint_depth, last_internal_out});
}

sync::CLeaf* OlcTree::FindLeafTracedFrom(const PathHint& hint, KeyView key,
                                         OpTracer* tracer,
                                         bool compact_layout) const {
  assert(hint.node != nullptr);
  return art::Descend(CRef::FromNode(const_cast<CNode*>(hint.node)),
                      hint.depth, key, TracedDescent{tracer, compact_layout});
}

std::size_t OlcTree::ScanTraced(
    KeyView start, std::size_t limit, OpTracer* tracer,
    const std::function<void(KeyView, art::Value)>& on_entry) const {
  return TracedScan(root(), start, limit, tracer, on_entry);
}

}  // namespace dcart::baselines
