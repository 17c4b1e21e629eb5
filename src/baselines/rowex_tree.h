// Concurrent ART with ROWEX (Read-Optimized Write EXclusion),
// the protocol of Leis et al., DaMoN 2016, Section 4.3 — and the paper's
// cited baseline "ART [9]".
//
// Unlike optimistic lock coupling (olc_tree.h), ROWEX readers take no locks
// and NEVER restart; writers hold per-node spinlocks.  Keeping readers safe
// without validation requires that every node is consistent at every
// instant:
//
//   * N4/N16 store their keys UNSORTED, so an insert appends: child slot
//     first (release), then the key byte, then the count — a concurrent
//     scan sees either the node before or after the insert, never a torn
//     middle.
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
#include <memory>
#include <optional>
#include <vector>

#include "art/node.h"
#include "baselines/cpu_trace.h"
#include "common/bytes.h"
#include "sync/cnode.h"
#include "sync/epoch.h"
#include "sync/version_lock.h"

namespace dcart::baselines {

namespace rowex {

using art::NodeType;
using art::Value;
using sync::CLeaf;

struct RNode;

/// Tagged reference (bit 0 => leaf), stored in atomic slots.
class RRef {
 public:
  constexpr RRef() = default;
  static RRef FromNode(RNode* n) {
    return RRef(reinterpret_cast<std::uintptr_t>(n));
  }
  static RRef FromLeaf(CLeaf* l) {
    return RRef(reinterpret_cast<std::uintptr_t>(l) | 1u);
  }
  static RRef FromRaw(std::uintptr_t raw) { return RRef(raw); }
  bool IsNull() const { return raw_ == 0; }
  bool IsLeaf() const { return (raw_ & 1u) != 0; }
  bool IsNode() const { return raw_ != 0 && (raw_ & 1u) == 0; }
  RNode* AsNode() const { return reinterpret_cast<RNode*>(raw_); }
  CLeaf* AsLeaf() const {
    return reinterpret_cast<CLeaf*>(raw_ & ~std::uintptr_t{1});
  }
  std::uintptr_t raw() const { return raw_; }
  friend bool operator==(RRef a, RRef b) { return a.raw_ == b.raw_; }

 private:
  explicit constexpr RRef(std::uintptr_t raw) : raw_(raw) {}
  std::uintptr_t raw_ = 0;
};

using RSlot = std::atomic<std::uintptr_t>;

inline RRef LoadSlot(const RSlot& slot) {
  return RRef::FromRaw(slot.load(std::memory_order_acquire));
}
inline void StoreSlot(RSlot& slot, RRef ref) {
  slot.store(ref.raw(), std::memory_order_release);
}

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

struct RNode {
  explicit RNode(NodeType t) : type(t) {}
  const NodeType type;
  sync::VersionLock lock;  // used as a plain writer spinlock
  std::atomic<std::uint64_t> packed{0};  // PackedPrefix
  std::atomic<std::uint16_t> count{0};
  std::atomic<bool> obsolete{false};

  PackedPrefix prefix() const {
    return PackedPrefix{packed.load(std::memory_order_acquire)};
  }
  void set_prefix(PackedPrefix p) {
    packed.store(p.word, std::memory_order_release);
  }
};

struct RNode4 : RNode {
  RNode4() : RNode(NodeType::kN4) {}
  std::array<std::atomic<std::uint8_t>, 4> keys{};
  std::array<RSlot, 4> children{};
};
struct RNode16 : RNode {
  RNode16() : RNode(NodeType::kN16) {}
  std::array<std::atomic<std::uint8_t>, 16> keys{};
  std::array<RSlot, 16> children{};
};
struct RNode32 : RNode {
  RNode32() : RNode(NodeType::kN32) {}
  std::array<std::atomic<std::uint8_t>, 32> keys{};
  std::array<RSlot, 32> children{};
};
struct RNode48 : RNode {
  static constexpr std::uint8_t kEmptySlot = 0xff;
  RNode48() : RNode(NodeType::kN48) {
    for (auto& e : child_index) e.store(kEmptySlot, std::memory_order_relaxed);
  }
  std::array<std::atomic<std::uint8_t>, 256> child_index;
  std::array<RSlot, 48> children{};
};
struct RNode256 : RNode {
  RNode256() : RNode(NodeType::kN256) {}
  std::array<RSlot, 256> children{};
};

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
