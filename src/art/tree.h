// Single-threaded Adaptive Radix Tree.
//
// This is the core index every engine in the repository builds on: the
// concurrent CPU baselines share its node ladder and its point descent and
// range walk (art/node.h) under their own synchronization, the DCART
// accelerator simulator walks this tree through its modeled memory
// hierarchy, and DCART-C operates on it directly (safe because the CTT
// model partitions operations into disjoint subtrees).
//
// Keys must be binary-comparable and prefix-free (see common/key_codec.h);
// values are 64-bit (a TID or a pointer in a real system).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "art/node.h"
#include "common/bytes.h"
#include "common/stats.h"

namespace dcart::art {

/// Per-node-type population counts and byte totals.
struct MemoryStats {
  std::size_t n4 = 0, n16 = 0, n32 = 0, n48 = 0, n256 = 0, leaves = 0;
  std::size_t internal_bytes = 0;
  std::size_t leaf_bytes = 0;
  std::size_t TotalNodes() const { return n4 + n16 + n32 + n48 + n256; }
  std::size_t TotalBytes() const { return internal_bytes + leaf_bytes; }
  std::string ToString() const;
};

/// Observer hook for traversal-level instrumentation (redundancy studies,
/// the accelerator's memory model).  Kept as a plain interface so the hot
/// path costs a single predictable branch when unset.
class TraversalObserver {
 public:
  virtual ~TraversalObserver() = default;
  /// `ref` is the node or leaf just touched during a descent.
  virtual void OnNodeVisit(NodeRef ref) = 0;
  /// An internal node was replaced in place (grow/shrink); simulated caches
  /// keyed by node address must invalidate `old_ref`.
  virtual void OnNodeReplaced(NodeRef old_ref, NodeRef new_ref) {
    (void)old_ref;
    (void)new_ref;
  }
};

class Tree {
 public:
  Tree() = default;
  ~Tree();

  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;
  Tree(Tree&& other) noexcept;
  Tree& operator=(Tree&& other) noexcept;

  /// Insert or update.  Returns true iff the key was newly inserted;
  /// `out_leaf`, if given, receives the leaf now holding `key`.
  bool Insert(KeyView key, Value value, Leaf** out_leaf = nullptr);

  // --- Subtree-scoped operations -------------------------------------------
  //
  // The parallel CTT runtime (DCART-CP) shards a batch by root branch byte
  // and lets each worker mutate one root-child subtree.  These entry points
  // expose Insert/Remove/FindLeaf scoped to a subtree rooted at `slot` (the
  // memory location holding the subtree's NodeRef, i.e. a child entry of the
  // root node) with `depth` bytes of the key already consumed above it.
  //
  // They deliberately do NOT touch `size_` or bump `stats_->operations`
  // (callers aggregate per-worker deltas and apply them via AdjustSize), and
  // they never modify any node above `slot` — which is what makes concurrent
  // calls on disjoint subtrees safe as long as `stats_`/`observer_` are
  // detached.  Operations that would need to restructure the parent (a new
  // root child, deleting a subtree's last key) are the caller's job.

  /// Insert or update within the subtree at `*slot`.  Precondition: `*slot`
  /// is non-null.  Returns true iff newly inserted; `out_leaf`, if given,
  /// receives the leaf now holding `key`.
  bool InsertInSubtree(NodeRef* slot, std::size_t depth, KeyView key,
                       Value value, Leaf** out_leaf = nullptr);

  /// Remove within the subtree at `*slot`.  Precondition: `*slot` is an
  /// internal node (a leaf-rooted subtree collapse must restructure the
  /// parent, so the caller handles it).  Returns true iff the key existed.
  bool RemoveInSubtree(NodeRef* slot, std::size_t depth, KeyView key);

  /// Point lookup within the subtree at `ref` (`depth` key bytes consumed).
  Leaf* FindLeafInSubtree(NodeRef ref, std::size_t depth, KeyView key) const;

  /// Apply a net size delta computed externally (per-worker insert/remove
  /// counts from subtree-scoped mutations).
  void AdjustSize(std::ptrdiff_t delta) {
    size_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(size_) + delta);
  }

  /// Point lookup.
  std::optional<Value> Get(KeyView key) const;

  /// Point lookup returning the leaf itself (nullptr if absent).  The leaf
  /// stays valid until the key is removed or the tree is destroyed.
  Leaf* FindLeaf(KeyView key) const;

  /// Delete.  Returns true iff the key was present.
  bool Remove(KeyView key);

  /// In-order visit of every (key, value) with lo <= key <= hi.  The
  /// callback returns false to stop early.
  void Scan(KeyView lo, KeyView hi,
            const std::function<bool(KeyView, Value)>& callback) const;

  /// In-order visit of every key that starts with `prefix` (the affix
  /// queries radix trees excel at).  The callback returns false to stop.
  void ScanPrefix(KeyView prefix,
                  const std::function<bool(KeyView, Value)>& callback) const;

  /// In-order visit of every (key, value) with key >= lo, unbounded above;
  /// the callback returns false to stop (the idiom for "next N entries").
  void ScanFrom(KeyView lo,
                const std::function<bool(KeyView, Value)>& callback) const;

  /// Build the tree from sorted, duplicate-free, prefix-free items in
  /// O(n); ~5x faster than repeated Insert.  Precondition: the tree is
  /// empty and `items` is sorted by key.
  void BulkLoadSorted(std::span<const std::pair<Key, Value>> items);

  /// Smallest / largest key in the tree (nullopt when empty).
  std::optional<Key> MinKey() const;
  std::optional<Key> MaxKey() const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeRef root() const { return root_; }

  /// Longest root-to-leaf path measured in nodes (0 for empty tree).
  std::size_t Height() const;

  MemoryStats ComputeMemoryStats() const;

  /// Attach counters; pass nullptr to detach.  Not owned.
  void set_stats(OpStats* stats) { stats_ = stats; }
  void set_observer(TraversalObserver* observer) { observer_ = observer; }

 private:
  // Length of the agreeing part of node's compressed path vs key at `depth`,
  // in [0, prefix_len].  Pessimistic: recovers bytes beyond the stored
  // prefix from the subtree's minimum leaf.
  std::uint32_t PrefixMismatch(const Node* node, KeyView key,
                               std::size_t depth) const;

  void NoteVisit(NodeRef ref) const;

  NodeRef root_;
  std::size_t size_ = 0;
  OpStats* stats_ = nullptr;
  TraversalObserver* observer_ = nullptr;
};

}  // namespace dcart::art
