// Concurrent ART node structures shared by the CPU baselines (ART-OLC,
// Heart-like, SMART-like).
//
// Layout mirrors art/node.h with two additions: every node carries a
// VersionLock, and all fields that optimistic readers may load concurrently
// are accessed through relaxed atomics (see atomic_util.h).  Writers mutate
// nodes only while holding the write lock; structural replacement (grow,
// path split) installs a fresh node and marks the old one obsolete, whose
// memory is reclaimed through the EpochManager.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>

#include "art/node.h"
#include "common/bytes.h"
#include "common/thread_annotations.h"
#include "sync/atomic_util.h"
#include "sync/version_lock.h"

namespace dcart::sync {

using art::kMaxStoredPrefix;
using art::NodeType;
using art::Value;

/// Leaf shared by the concurrent trees (OLC and ROWEX): the art/leaf.h
/// layout with an atomic value that writers store in place while readers
/// load it without locks.
using CLeaf = art::BasicLeaf<std::atomic<Value>>;

struct CNode;

/// Tagged reference: bit 0 set => CLeaf, clear => CNode.
class CRef {
 public:
  constexpr CRef() = default;
  static CRef FromNode(CNode* node) {
    return CRef(reinterpret_cast<std::uintptr_t>(node));
  }
  static CRef FromLeaf(CLeaf* leaf) {
    return CRef(reinterpret_cast<std::uintptr_t>(leaf) | 1u);
  }
  static CRef FromRaw(std::uintptr_t raw) { return CRef(raw); }

  bool IsNull() const { return raw_ == 0; }
  bool IsLeaf() const { return (raw_ & 1u) != 0; }
  bool IsNode() const { return raw_ != 0 && (raw_ & 1u) == 0; }
  CNode* AsNode() const {
    assert(IsNode());
    return reinterpret_cast<CNode*>(raw_);
  }
  CLeaf* AsLeaf() const {
    assert(IsLeaf());
    return reinterpret_cast<CLeaf*>(raw_ & ~std::uintptr_t{1});
  }
  std::uintptr_t raw() const { return raw_; }
  friend bool operator==(CRef a, CRef b) { return a.raw_ == b.raw_; }

 private:
  explicit constexpr CRef(std::uintptr_t raw) : raw_(raw) {}
  std::uintptr_t raw_ = 0;
};

/// Atomic slot holding a CRef.
using CSlot = std::atomic<std::uintptr_t>;

inline CRef LoadSlot(const CSlot& slot) {
  return CRef::FromRaw(slot.load(std::memory_order_acquire));
}
inline void StoreSlot(CSlot& slot, CRef ref) {
  slot.store(ref.raw(), std::memory_order_release);
}

struct CNode {
  explicit CNode(NodeType t) : type(t) {}

  VersionLock lock;
  const NodeType type;
  std::uint8_t stored_prefix_len = 0;
  std::uint16_t count = 0;
  std::uint32_t prefix_len = 0;
  std::array<std::uint8_t, kMaxStoredPrefix> prefix{};
};

struct CNode4 : CNode {
  CNode4() : CNode(NodeType::kN4) {}
  std::array<std::uint8_t, 4> keys{};
  std::array<CSlot, 4> children{};
};

struct CNode16 : CNode {
  CNode16() : CNode(NodeType::kN16) {}
  std::array<std::uint8_t, 16> keys{};
  std::array<CSlot, 16> children{};
};

struct CNode32 : CNode {
  CNode32() : CNode(NodeType::kN32) {}
  std::array<std::uint8_t, 32> keys{};
  std::array<CSlot, 32> children{};
};

struct CNode48 : CNode {
  static constexpr std::uint8_t kEmptySlot = 0xff;
  CNode48() : CNode(NodeType::kN48) { child_index.fill(kEmptySlot); }
  std::array<std::uint8_t, 256> child_index;
  std::array<CSlot, 48> children{};
};

struct CNode256 : CNode {
  CNode256() : CNode(NodeType::kN256) {}
  std::array<CSlot, 256> children{};
};

// --- Reader-side operations (safe under optimistic concurrency) -----------

/// Child for key byte `b`, or null.  Callers must validate the node version
/// afterwards; a concurrent writer can make the result stale but not unsafe.
CRef CFindChild(const CNode* node, std::uint8_t b);

/// Mutable slot for byte `b` (writer-side, under lock), or nullptr.
CSlot* CFindChildSlot(CNode* node, std::uint8_t b);

/// Leftmost leaf of the subtree; used to recover non-stored prefix bytes.
/// Must be called on a locked/stable subtree (writer-side).
CLeaf* CMinimum(CRef ref);

/// Ascending-byte enumeration (writer-side or quiescent).
bool CEnumerateChildren(const CNode* node,
                        const std::function<bool(std::uint8_t, CRef)>& fn);

// --- Writer-side operations (caller holds the node's write lock) ----------
//
// REQUIRES(node->lock) lets the clang thread-safety build prove the caller
// established exclusivity first — either a successful conditional
// acquisition followed by VersionLock::AssertHeld(), or a thread-private
// (not yet published) node via AssertThreadPrivate().

bool CIsFull(const CNode* node) REQUIRES(node->lock);
void CAddChild(CNode* node, std::uint8_t b, CRef child) REQUIRES(node->lock);

/// Remove the child for byte `b`.  Precondition: present; caller holds the
/// write lock.  Concurrent optimistic readers may observe transient
/// duplicates while N4/N16 entries shift; their version validation catches
/// it.
void CRemoveChild(CNode* node, std::uint8_t b) REQUIRES(node->lock);

CNode* CGrown(const CNode* node) REQUIRES(node->lock);

void CSetPrefix(CNode* node, const std::uint8_t* bytes, std::uint32_t len)
    REQUIRES(node->lock);
void CSetPrefixFromKey(CNode* node, KeyView full_key, std::size_t offset,
                       std::uint32_t len) REQUIRES(node->lock);

void CDeleteNode(CNode* node);
void CDestroySubtree(CRef ref);

std::size_t CNodeSizeBytes(NodeType type);

}  // namespace dcart::sync
