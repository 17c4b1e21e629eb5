// OLC's instantiation of the node ladder (art/node.h), shared by the CPU
// baselines (ART-OLC, Heart-like, SMART-like).
//
// Every node carries a VersionLock in front of the art prefix header, and
// every node field that optimistic readers may load concurrently goes
// through the policy's relaxed atomic_ref access (child slots through
// acquire/release).  Writers mutate nodes only while holding the write
// lock; structural replacement (grow, path split) installs a fresh node and
// marks the old one obsolete, whose memory is reclaimed through the
// EpochManager.
#pragma once

#include <atomic>
#include <cstdint>

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

/// The lock word that precedes art's prefix header in every OLC node.
struct NodeLock {
  VersionLock lock;
};

struct OlcHeader : NodeLock, art::PrefixHeader {
  using art::PrefixHeader::PrefixHeader;
};

struct OlcPolicy {
  using Header = OlcHeader;
  using Leaf = CLeaf;
  using Access = art::AtomicAccess<std::memory_order_relaxed,
                                   std::memory_order_relaxed>;
  static constexpr bool kSortedKeys = true;
  static art::NodePath ReadPath(const Header& header, std::size_t depth) {
    return art::ReadPrefixPath<Access>(header, depth);
  }
};

using OlcAccess = OlcPolicy::Access;
using CNode = art::BasicNode<OlcPolicy>;
using CNode4 = art::BasicNode4<OlcPolicy>;
using CNode16 = art::BasicNode16<OlcPolicy>;
using CNode32 = art::BasicNode32<OlcPolicy>;
using CNode48 = art::BasicNode48<OlcPolicy>;
using CNode256 = art::BasicNode256<OlcPolicy>;
using CRef = art::BasicRef<OlcPolicy>;

// --- Writer-side operations (caller holds the node's write lock) ----------
//
// REQUIRES(node->lock) lets the clang thread-safety build prove the caller
// established exclusivity first — either a successful conditional
// acquisition followed by VersionLock::AssertHeld(), or a thread-private
// (not yet published) node via AssertThreadPrivate().

inline bool CIsFull(const CNode* node) REQUIRES(node->lock) {
  return art::IsFull(node);
}
inline void CAddChild(CNode* node, std::uint8_t b, CRef child)
    REQUIRES(node->lock) {
  art::AddChild(node, b, child);
}
inline void CRemoveChild(CNode* node, std::uint8_t b) REQUIRES(node->lock) {
  art::RemoveChild(node, b);
}
inline CNode* CGrown(const CNode* node) REQUIRES(node->lock) {
  return art::Grown(node);
}
inline void CSetPrefixFromKey(CNode* node, KeyView full_key,
                              std::size_t offset, std::uint32_t len)
    REQUIRES(node->lock) {
  art::SetPrefixFromKey(node, full_key, offset, len);
}

}  // namespace dcart::sync
