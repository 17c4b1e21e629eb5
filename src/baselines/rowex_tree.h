// Concurrent ART with ROWEX (Read-Optimized Write EXclusion),
// the protocol of Leis et al., DaMoN 2016, Section 4.3 — and the paper's
// cited baseline "ART [9]".
//
// Unlike optimistic lock coupling (olc_tree.h), ROWEX readers take no locks
// and NEVER restart; writers hold per-node spinlocks.  Keeping readers safe
// without validation requires that every node is consistent at every
// instant:
//
//   * N4/N16/N32 store their keys UNSORTED, so an insert appends: child
//     slot first (release), then the key byte, then the count — a
//     concurrent scan sees either the node before or after the insert,
//     never a torn middle.  (The node ladder itself is shared with the
//     other trees, art/node.h; RowexPolicy below picks this behaviour.)
//   * Structural replacement (grow, path split) builds the new node
//     completely, swaps one parent slot atomically, and freezes the old
//     node (retired through the epoch manager; late readers traverse the
//     frozen copy safely).
//   * Path compression is the subtle part: a split must shrink a node's
//     prefix, and a reader that entered through the new branch must not
//     re-match bytes it already consumed.  ROWEX packs (level, prefix_len,
//     4 prefix bytes) into ONE atomic 64-bit word: readers derive the match
//     offset from the node's own level instead of their running depth, so
//     they always see a consistent (level, prefix) pair.  Prefix bytes
//     beyond the 4 stored ones are verified at the leaf (single-value
//     leaves hold complete keys).
//
// Deletes are not supported (the removal of an unsorted-array entry cannot
// be made invisible to lock-free scans without versioning; the paper's
// workloads never delete).  Use OlcTree when deletion is required.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "art/node.h"
#include "baselines/cpu_trace.h"
#include "common/bytes.h"
#include "common/thread_annotations.h"
#include "sync/cnode.h"
#include "sync/epoch.h"
#include "sync/version_lock.h"

namespace dcart::baselines {

namespace rowex {

using art::NodeType;
using art::Value;
using sync::CLeaf;

/// (level, prefix_len, prefix[4]) packed into one atomically-updated word.
/// Layout: [level:16][prefix_len:16][prefix bytes:32].
struct PackedPrefix {
  std::uint64_t word = 0;

  static constexpr unsigned kMaxStored = 4;

  static PackedPrefix Make(std::uint16_t level, std::uint16_t len,
                           const std::uint8_t* bytes) {
    PackedPrefix p;
    p.word = (static_cast<std::uint64_t>(level) << 48) |
             (static_cast<std::uint64_t>(len) << 32);
    const unsigned stored = len < kMaxStored ? len : kMaxStored;
    for (unsigned i = 0; i < stored; ++i) {
      p.word |= static_cast<std::uint64_t>(bytes[i]) << (8 * (3 - i));
    }
    return p;
  }
  std::uint16_t level() const {
    return static_cast<std::uint16_t>(word >> 48);
  }
  std::uint16_t prefix_len() const {
    return static_cast<std::uint16_t>(word >> 32);
  }
  std::uint8_t byte(unsigned i) const {
    return static_cast<std::uint8_t>(word >> (8 * (3 - i)));
  }
  unsigned stored() const {
    const std::uint16_t len = prefix_len();
    return len < kMaxStored ? len : kMaxStored;
  }
};

struct RowexHeader {
  explicit RowexHeader(NodeType t) : type(t) {}
  const NodeType type;
  sync::VersionLock lock;  // used as a plain writer spinlock
  std::atomic<std::uint64_t> packed{0};  // PackedPrefix
  std::uint16_t count = 0;  // accessed through RowexPolicy::Access
  std::atomic<bool> obsolete{false};

  PackedPrefix prefix() const {
    return PackedPrefix{packed.load(std::memory_order_acquire)};
  }
  void set_prefix(PackedPrefix p) {
    packed.store(p.word, std::memory_order_release);
  }
  void CopyPrefixFrom(const RowexHeader& src) { set_prefix(src.prefix()); }
};

/// ROWEX's instantiation of the node ladder (art/node.h): append-only key
/// arrays published slot, then key byte, then count, each with release,
/// and read with acquire.
struct RowexPolicy {
  using Header = RowexHeader;
  using Leaf = CLeaf;
  using Access = art::AtomicAccess<std::memory_order_acquire,
                                   std::memory_order_release>;
  static constexpr bool kSortedKeys = false;
  /// One acquire load of the packed word, anchored at the node's own level
  /// (the reader's running depth is not used).
  static art::NodePath ReadPath(const Header& header, std::size_t) {
    const PackedPrefix pp = header.prefix();
    art::NodePath path;
    path.level = pp.level();
    path.len = pp.prefix_len();
    path.stored = pp.stored();
    for (unsigned i = 0; i < path.stored; ++i) path.bytes[i] = pp.byte(i);
    return path;
  }
};

using RowexAccess = RowexPolicy::Access;
using RNode = art::BasicNode<RowexPolicy>;
using RNode4 = art::BasicNode4<RowexPolicy>;
using RNode16 = art::BasicNode16<RowexPolicy>;
using RNode32 = art::BasicNode32<RowexPolicy>;
using RNode48 = art::BasicNode48<RowexPolicy>;
using RNode256 = art::BasicNode256<RowexPolicy>;
using RRef = art::BasicRef<RowexPolicy>;

/// Append a child (caller holds the node lock, or owns the unpublished
/// node).
inline void RAddChild(RNode* node, std::uint8_t b, RRef child)
    REQUIRES(node->lock) {
  art::AddChild(node, b, child);
}

}  // namespace rowex

class RowexTree {
 public:
  explicit RowexTree(std::size_t max_threads = 64);
  ~RowexTree();

  RowexTree(const RowexTree&) = delete;
  RowexTree& operator=(const RowexTree&) = delete;

  void BulkLoad(const std::vector<std::pair<Key, art::Value>>& items);

  /// Thread-safe insert-or-update under ROWEX write exclusion.  Returns
  /// true iff newly inserted.  `tracer` (optional, single-threaded model
  /// runs) observes node touches and synchronization points.
  bool Insert(KeyView key, art::Value value, std::size_t tid,
              sync::SyncStats& stats, OpTracer* tracer = nullptr);

  /// Thread-safe lookup: lock-free, restart-free.
  std::optional<art::Value> Lookup(KeyView key, std::size_t tid,
                                   sync::SyncStats& stats) const;

  /// Single-threaded traced walk (platform-model runs).  Returns the leaf
  /// or nullptr; `last_internal` receives the leaf's parent (what the
  /// lock-based protocol synchronizes on).
  sync::CLeaf* FindLeafTraced(KeyView key, OpTracer* tracer,
                              const rowex::RNode** last_internal =
                                  nullptr) const;

  /// Single-threaded traced ordered scan: up to `limit` entries with
  /// key >= start (ROWEX nodes are unsorted, so each node's children are
  /// ordered on the fly).  Returns the entry count.
  std::size_t ScanTraced(
      KeyView start, std::size_t limit, OpTracer* tracer,
      const std::function<void(KeyView, art::Value)>& on_entry = {}) const;

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  rowex::RRef root() const {
    return rowex::RRef::FromRaw(root_.load(std::memory_order_acquire));
  }
  sync::EpochManager& epochs() { return *epochs_; }

 private:
  enum class Outcome { kInserted, kUpdated, kRestart };
  Outcome TryInsert(KeyView key, art::Value value, std::size_t tid,
                    sync::SyncStats& stats, OpTracer* tracer);

  mutable std::atomic<std::uintptr_t> root_{0};
  std::atomic<std::size_t> size_{0};
  std::unique_ptr<sync::EpochManager> epochs_;
};

}  // namespace dcart::baselines
