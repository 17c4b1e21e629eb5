// Adaptive Radix Tree node ladder (Leis et al., ICDE 2013), written once
// for every tree in the repository.
//
// Five internal node sizes (N4 / N16 / N32 / N48 / N256) adapt to the
// fanout actually present, and a compressed path ("prefix") removes chains
// of single-child nodes.  N32 extends the paper's ladder with a node sized
// for one 256-bit vector: its key search is a single AVX2
// compare-and-movemask (two SSE2 halves otherwise), so fanouts 17..32 pay
// one probe where an N48 indirection or a scalar scan used to sit.  Values
// live in single-value leaves (art/leaf.h) that store the complete key,
// which lets lookups verify optimistically-skipped prefix bytes at the end
// of the descent.
//
// Child references are tagged pointers (`BasicRef`): bit 0 set means the
// reference addresses a leaf, clear means an internal node.  These
// low-level primitives are public because the DCART accelerator simulator
// performs its own instrumented node walks over the tree.
//
// The layouts and operations are templates over an access policy `P`, so
// the serial tree and the two concurrent baselines share one ladder:
//
//   policy       field access               key order     header
//   ArtPolicy    plain                      sorted        12 prefix bytes
//   OlcPolicy    relaxed; acq/rel slots     sorted        lock + 12 bytes
//   RowexPolicy  acquire/release            append-only   lock, packed
//                                                         level/prefix word,
//                                                         obsolete flag
//
// (OlcPolicy lives in sync/cnode.h, RowexPolicy in baselines/rowex_tree.h.)
// A policy provides:
//
//   Header       the fields every node starts with: `type` (set by the
//                constructor), `count`, the policy's prefix, and
//                CopyPrefixFrom(const Header&), which Grown/Shrunk use
//   ReadPath     ReadPath(const Header&, depth) -> NodePath: the node's
//                compressed path as one value, for the shared reads below
//   Leaf         the leaf type a child reference addresses
//   Access       PlainAccess or AtomicAccess (below): how count, key bytes,
//                N48 index entries and child slots are read and written,
//                and whether readers may use the vector key search
//   kSortedKeys  true: N4/N16/N32 keep their keys sorted and support
//                RemoveChild/Shrunk.  false: entries are appended and never
//                move, so lock-free readers never see one shift; removal
//                and shrinking do not exist (calling them fails to compile)
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "art/leaf.h"
#include "common/bytes.h"
#include "common/simd.h"

namespace dcart::art {

/// Bytes of the compressed path kept inline in the node header.  Longer
/// prefixes keep only their first kMaxStoredPrefix bytes inline; the rest is
/// recovered from the minimum leaf of the subtree when needed (hybrid
/// pessimistic/optimistic path compression from the ART paper).
inline constexpr std::size_t kMaxStoredPrefix = 12;

enum class NodeType : std::uint8_t {
  kN4 = 0,
  kN16 = 1,
  kN48 = 2,
  kN256 = 3,
  kN32 = 4,  // appended (serialized format stability); ladder order is
             // N4 < N16 < N32 < N48 < N256
};

// ---------------------------------------------------------------------------
// Field access.
// ---------------------------------------------------------------------------

/// Plain loads and stores, for a tree with no concurrent readers.  The
/// vector key search is always allowed (common/simd.h falls back to a
/// scalar loop when it is compiled out).
struct PlainAccess {
  static constexpr bool kVectorReads = true;
  template <typename T>
  static T Load(const T& field) {
    return field;
  }
  template <typename T>
  static void Store(T& field, T value) {
    field = value;
  }
  template <typename T>
  static T LoadSlot(const T& slot) {
    return slot;
  }
  template <typename T>
  static void StoreSlot(T& slot, T ref) {
    slot = ref;
  }
};

/// Every node field through std::atomic_ref, for trees whose readers run
/// beside a locked writer: no read can race a store, and the node layout
/// stays that of the plain tree.  Scalar fields (count, key bytes, N48
/// index entries) use the policy's orderings; child slots always use
/// acquire/release, so a reader that loads a reference sees the node or
/// leaf behind it fully built.
template <std::memory_order kLoadOrder, std::memory_order kStoreOrder>
struct AtomicAccess {
  // The SIMD rule for concurrent readers.  The vector search loads the key
  // array as plain memory: byte for byte what the atomic scalar loop reads,
  // and each protocol tolerates it (OLC re-validates the node version;
  // ROWEX entries below `count` never change once published), but it is a
  // formal data race.  So wherever the vector paths are compiled out --
  // ThreadSanitizer builds and DCART_SIMD=OFF -- readers take the atomic
  // scalar loop instead of the plain one.
  static constexpr bool kVectorReads = DCART_SIMD_X86;

  template <typename T>
  static T Load(const T& field) {
    return std::atomic_ref<T>(const_cast<T&>(field)).load(kLoadOrder);
  }
  template <typename T>
  static void Store(T& field, T value) {
    std::atomic_ref<T>(field).store(value, kStoreOrder);
  }
  template <typename T>
  static T LoadSlot(const T& slot) {
    return std::atomic_ref<T>(const_cast<T&>(slot))
        .load(std::memory_order_acquire);
  }
  template <typename T>
  static void StoreSlot(T& slot, T ref) {
    std::atomic_ref<T>(slot).store(ref, std::memory_order_release);
  }
};

// ---------------------------------------------------------------------------
// Layouts.
// ---------------------------------------------------------------------------

/// A node's compressed path, read once: `len` key bytes starting at key
/// byte `level`, the first `stored` of them inline.  The rest live only in
/// the subtree's leaves, whose keys all carry the whole path.
struct NodePath {
  std::size_t level = 0;
  std::uint32_t len = 0;
  std::uint32_t stored = 0;  // <= min(len, kMaxStoredPrefix)
  std::array<std::uint8_t, kMaxStoredPrefix> bytes{};
};

/// Header of the serial tree's nodes; OLC puts a lock word in front of it.
struct PrefixHeader {
  explicit PrefixHeader(NodeType t) : type(t) {}

  /// Copy the compressed path (the source is locked or not shared).
  void CopyPrefixFrom(const PrefixHeader& src) {
    stored_prefix_len = src.stored_prefix_len;
    prefix_len = src.prefix_len;
    prefix = src.prefix;
  }

  const NodeType type;
  std::uint8_t stored_prefix_len = 0;  // == min(prefix_len, kMaxStoredPrefix)
  std::uint16_t count = 0;             // number of children
  std::uint32_t prefix_len = 0;        // full compressed-path length
  std::array<std::uint8_t, kMaxStoredPrefix> prefix{};
};

/// ReadPath of a PrefixHeader node: prefix_len, stored_prefix_len and the
/// inline bytes through `A`.  The header keeps no level, so the path
/// starts at the reader's running depth.  All kMaxStoredPrefix bytes are
/// copied: a fixed-size copy compiles to a few moves where one bounded by
/// `stored` became a `rep movs` on every node.
template <typename A>
NodePath ReadPrefixPath(const PrefixHeader& header, std::size_t depth) {
  NodePath path;
  path.level = depth;
  path.len = A::Load(header.prefix_len);
  path.stored = A::Load(header.stored_prefix_len);
  for (std::size_t i = 0; i < kMaxStoredPrefix; ++i) {
    path.bytes[i] = A::Load(header.prefix[i]);
  }
  return path;
}

template <typename P>
struct BasicNode;

/// Tagged pointer to either an internal node or a leaf.
template <typename P>
class BasicRef {
 public:
  using Leaf = typename P::Leaf;

  constexpr BasicRef() = default;

  static BasicRef FromNode(BasicNode<P>* node) {
    return BasicRef(reinterpret_cast<std::uintptr_t>(node));
  }
  static BasicRef FromLeaf(Leaf* leaf) {
    return BasicRef(reinterpret_cast<std::uintptr_t>(leaf) | kLeafTag);
  }
  static BasicRef FromRaw(std::uintptr_t raw) { return BasicRef(raw); }

  bool IsNull() const { return raw_ == 0; }
  bool IsLeaf() const { return (raw_ & kLeafTag) != 0; }
  bool IsNode() const { return raw_ != 0 && (raw_ & kLeafTag) == 0; }

  BasicNode<P>* AsNode() const {
    assert(IsNode());
    return reinterpret_cast<BasicNode<P>*>(raw_);
  }
  Leaf* AsLeaf() const {
    assert(IsLeaf());
    return reinterpret_cast<Leaf*>(raw_ & ~kLeafTag);
  }

  /// Stable identifier usable as a simulated memory address.
  std::uintptr_t raw() const { return raw_; }

  friend bool operator==(BasicRef a, BasicRef b) { return a.raw_ == b.raw_; }

 private:
  static constexpr std::uintptr_t kLeafTag = 1;
  explicit constexpr BasicRef(std::uintptr_t raw) : raw_(raw) {}
  std::uintptr_t raw_ = 0;
};

/// Common base of all internal nodes: the policy's header.
template <typename P>
struct BasicNode : P::Header {
  using Policy = P;
  explicit BasicNode(NodeType t) : P::Header(t) {}
};

/// N4, N16 and N32: the child for keys[i] is children[i], i < count.
template <typename P, NodeType kTier, std::size_t kSlots>
struct BasicKeyedNode : BasicNode<P> {
  BasicKeyedNode() : BasicNode<P>(kTier) {}
  std::array<std::uint8_t, kSlots> keys{};
  std::array<BasicRef<P>, kSlots> children{};
};

template <typename P>
using BasicNode4 = BasicKeyedNode<P, NodeType::kN4, 4>;
template <typename P>
using BasicNode16 = BasicKeyedNode<P, NodeType::kN16, 16>;
template <typename P>
using BasicNode32 = BasicKeyedNode<P, NodeType::kN32, 32>;

template <typename P>
struct BasicNode48 : BasicNode<P> {
  static constexpr std::uint8_t kEmptySlot = 0xff;
  BasicNode48() : BasicNode<P>(NodeType::kN48) {
    child_index.fill(kEmptySlot);
  }
  std::array<std::uint8_t, 256> child_index;  // key byte -> children slot
  std::array<BasicRef<P>, 48> children{};
};

template <typename P>
struct BasicNode256 : BasicNode<P> {
  BasicNode256() : BasicNode<P>(NodeType::kN256) {}
  std::array<BasicRef<P>, 256> children{};
};

// ---------------------------------------------------------------------------
// Node operations.  Free functions so that every tree variant (the core
// tree, OLC, ROWEX, the DCART simulator's walker) shares one
// implementation.  Readers of a concurrent policy may call FindChild,
// EnumerateChildren, Minimum, IsFull and ScanCost without the node lock;
// everything that mutates a node requires it (sync/cnode.h and
// baselines/rowex_tree.h state that contract in annotated forwarders).
// ---------------------------------------------------------------------------

namespace detail {

template <typename Tier, typename NodeT>
auto* TierCast(NodeT* node) {
  if constexpr (std::is_const_v<NodeT>) {
    return static_cast<const Tier*>(node);
  } else {
    return static_cast<Tier*>(node);
  }
}

/// Call `fn` with `node` cast to its tier's type (const-ness kept).
template <typename NodeT, typename Fn>
decltype(auto) Visit(NodeT* node, Fn&& fn) {
  using P = typename std::remove_const_t<NodeT>::Policy;
  switch (node->type) {
    case NodeType::kN4:
      return fn(TierCast<BasicNode4<P>>(node));
    case NodeType::kN16:
      return fn(TierCast<BasicNode16<P>>(node));
    case NodeType::kN32:
      return fn(TierCast<BasicNode32<P>>(node));
    case NodeType::kN48:
      return fn(TierCast<BasicNode48<P>>(node));
    case NodeType::kN256:
      break;
  }
  return fn(TierCast<BasicNode256<P>>(node));
}

/// Index of byte `b` among keys[0..count), or -1.  Vector search where the
/// policy allows it (AtomicAccess states the rule), else a scalar loop
/// through the policy's loads.
template <typename A, std::size_t kSlots>
int FindKey(const std::array<std::uint8_t, kSlots>& keys, int count,
            std::uint8_t b) {
  if constexpr (A::kVectorReads && kSlots == 16) {
    return simd::FindKeyByte16(keys.data(), count, b);
  } else if constexpr (A::kVectorReads && kSlots == 32) {
    return simd::FindKeyByte32(keys.data(), count, b);
  } else {
    for (int i = 0; i < count; ++i) {
      if (A::Load(keys[static_cast<std::size_t>(i)]) == b) return i;
    }
    return -1;
  }
}

}  // namespace detail

/// Child for key byte `b`, or a null ref.  A concurrent reader must
/// validate afterwards (OLC); a concurrent writer can make the result stale
/// but not unsafe.
template <typename P>
BasicRef<P> FindChild(const BasicNode<P>* node, std::uint8_t b) {
  using A = typename P::Access;
  return detail::Visit(node, [b](const auto* n) -> BasicRef<P> {
    if constexpr (requires { n->keys; }) {
      const int i = detail::FindKey<A>(n->keys, A::Load(n->count), b);
      return i < 0 ? BasicRef<P>{}
                   : A::LoadSlot(n->children[static_cast<std::size_t>(i)]);
    } else if constexpr (requires { n->child_index; }) {
      const std::uint8_t slot = A::Load(n->child_index[b]);
      return slot == n->kEmptySlot ? BasicRef<P>{}
                                   : A::LoadSlot(n->children[slot]);
    } else {
      return A::LoadSlot(n->children[b]);
    }
  });
}

/// Mutable slot holding the child for byte `b`, or nullptr.
template <typename P>
BasicRef<P>* FindChildSlot(BasicNode<P>* node, std::uint8_t b) {
  using A = typename P::Access;
  return detail::Visit(node, [b](auto* n) -> BasicRef<P>* {
    if constexpr (requires { n->keys; }) {
      const int i = detail::FindKey<A>(n->keys, A::Load(n->count), b);
      return i < 0 ? nullptr : &n->children[static_cast<std::size_t>(i)];
    } else if constexpr (requires { n->child_index; }) {
      const std::uint8_t slot = A::Load(n->child_index[b]);
      return slot == n->kEmptySlot ? nullptr : &n->children[slot];
    } else {
      return A::LoadSlot(n->children[b]).IsNull() ? nullptr : &n->children[b];
    }
  });
}

/// True when the node has no free slot for a new child.
template <typename P>
bool IsFull(const BasicNode<P>* node) {
  const std::uint16_t count = P::Access::Load(node->count);
  switch (node->type) {
    case NodeType::kN4:
      return count >= 4;
    case NodeType::kN16:
      return count >= 16;
    case NodeType::kN32:
      return count >= 32;
    case NodeType::kN48:
      return count >= 48;
    case NodeType::kN256:
      break;
  }
  return false;
}

/// Add child for byte `b`.  Preconditions: !IsFull(node), `b` absent.
/// The new entry's slot is stored before its key byte, and both before
/// `count`: an append-only node publishes the entry whole.
template <typename P>
void AddChild(BasicNode<P>* node, std::uint8_t b, BasicRef<P> child) {
  using A = typename P::Access;
  assert(!IsFull(node));
  const std::uint16_t count = A::Load(node->count);
  detail::Visit(node, [&](auto* n) {
    if constexpr (requires { n->keys; }) {
      std::uint16_t pos = count;
      if constexpr (P::kSortedKeys) {
        pos = 0;
        while (pos < count && A::Load(n->keys[pos]) < b) ++pos;
        for (std::uint16_t i = count; i > pos; --i) {
          A::Store(n->keys[i], A::Load(n->keys[i - 1]));
          A::StoreSlot(n->children[i], A::LoadSlot(n->children[i - 1]));
        }
      }
      A::StoreSlot(n->children[pos], child);
      A::Store(n->keys[pos], b);
    } else if constexpr (requires { n->child_index; }) {
      assert(A::Load(n->child_index[b]) == n->kEmptySlot);
      // RemoveChild compacts, so slots 0..count-1 are dense and count is
      // the first free slot.
      const auto slot = static_cast<std::uint8_t>(count);
      assert(A::LoadSlot(n->children[slot]).IsNull());
      A::StoreSlot(n->children[slot], child);
      A::Store(n->child_index[b], slot);
    } else {
      assert(A::LoadSlot(n->children[b]).IsNull());
      A::StoreSlot(n->children[b], child);
    }
  });
  A::Store(node->count, static_cast<std::uint16_t>(count + 1));
}

/// Remove the child for byte `b`.  Precondition: `b` present.  Concurrent
/// optimistic readers may observe transient duplicates while entries
/// shift; their version validation catches it.
template <typename P>
  requires P::kSortedKeys
void RemoveChild(BasicNode<P>* node, std::uint8_t b) {
  using A = typename P::Access;
  const std::uint16_t count = A::Load(node->count);
  detail::Visit(node, [&](auto* n) {
    if constexpr (requires { n->keys; }) {
      std::uint16_t pos = 0;
      while (pos < count && A::Load(n->keys[pos]) != b) ++pos;
      assert(pos < count);
      for (std::uint16_t i = pos; i + 1 < count; ++i) {
        A::Store(n->keys[i], A::Load(n->keys[i + 1]));
        A::StoreSlot(n->children[i], A::LoadSlot(n->children[i + 1]));
      }
      A::StoreSlot(n->children[count - 1], BasicRef<P>{});
    } else if constexpr (requires { n->child_index; }) {
      const std::uint8_t slot = A::Load(n->child_index[b]);
      assert(slot != n->kEmptySlot);
      A::Store(n->child_index[b], n->kEmptySlot);
      // Keep slots 0..count-1 dense (AddChild relies on it): move the last
      // occupied slot into the hole and repoint its index entry.
      const auto last = static_cast<std::uint8_t>(count - 1);
      if (slot != last) {
        A::StoreSlot(n->children[slot], A::LoadSlot(n->children[last]));
        for (std::size_t bi = 0; bi < 256; ++bi) {
          if (A::Load(n->child_index[bi]) == last) {
            A::Store(n->child_index[bi], slot);
            break;
          }
        }
      }
      A::StoreSlot(n->children[last], BasicRef<P>{});
    } else {
      assert(!A::LoadSlot(n->children[b]).IsNull());
      A::StoreSlot(n->children[b], BasicRef<P>{});
    }
  });
  A::Store(node->count, static_cast<std::uint16_t>(count - 1));
}

/// Invoke `fn(byte, child)` for every child -- in ascending key-byte order,
/// except in the append-only policy's N4/N16/N32, which yield insertion
/// order.  `fn` returning false stops the walk early; the function returns
/// false iff stopped early.
template <typename P, typename Fn>
bool EnumerateChildren(const BasicNode<P>* node, Fn&& fn) {
  using A = typename P::Access;
  return detail::Visit(node, [&fn](const auto* n) -> bool {
    if constexpr (requires { n->keys; }) {
      const std::uint16_t count = A::Load(n->count);
      for (std::uint16_t i = 0; i < count; ++i) {
        if (!fn(A::Load(n->keys[i]), A::LoadSlot(n->children[i]))) {
          return false;
        }
      }
    } else if constexpr (requires { n->child_index; }) {
      for (std::size_t b = 0; b < 256; ++b) {
        const std::uint8_t slot = A::Load(n->child_index[b]);
        if (slot != n->kEmptySlot &&
            !fn(static_cast<std::uint8_t>(b), A::LoadSlot(n->children[slot]))) {
          return false;
        }
      }
    } else {
      for (std::size_t b = 0; b < 256; ++b) {
        const BasicRef<P> child = A::LoadSlot(n->children[b]);
        if (!child.IsNull() && !fn(static_cast<std::uint8_t>(b), child)) {
          return false;
        }
      }
    }
    return true;
  });
}

namespace detail {

/// New `Tier` node with `src`'s prefix and children.
template <typename Tier, typename P>
BasicNode<P>* CopiedInto(const BasicNode<P>* src) {
  auto* dst = new Tier;
  dst->CopyPrefixFrom(*src);
  EnumerateChildren(src, [dst](std::uint8_t b, BasicRef<P> child) {
    AddChild<P>(dst, b, child);
    return true;
  });
  return dst;
}

}  // namespace detail

/// Allocate the next-larger node type with the same header and children.
/// The caller owns both nodes afterwards (typically retires the old one).
template <typename P>
BasicNode<P>* Grown(const BasicNode<P>* node) {
  switch (node->type) {
    case NodeType::kN4:
      return detail::CopiedInto<BasicNode16<P>>(node);
    case NodeType::kN16:
      return detail::CopiedInto<BasicNode32<P>>(node);
    case NodeType::kN32:
      return detail::CopiedInto<BasicNode48<P>>(node);
    case NodeType::kN48:
      return detail::CopiedInto<BasicNode256<P>>(node);
    case NodeType::kN256:
      break;
  }
  assert(false && "N256 cannot grow");
  return nullptr;
}

/// True when the node would fit in the next-smaller type with hysteresis
/// (N16 at <=3 children, N32 at <=12, N48 at <=24, N256 at <=37).  N4 never
/// shrinks this way; a 1-child N4 is merged with its child by the tree
/// instead.
template <typename P>
  requires P::kSortedKeys
bool IsUnderfull(const BasicNode<P>* node) {
  const std::uint16_t count = P::Access::Load(node->count);
  switch (node->type) {
    case NodeType::kN4:
      break;
    case NodeType::kN16:
      return count <= 3;
    case NodeType::kN32:
      return count <= 12;
    case NodeType::kN48:
      return count <= 24;
    case NodeType::kN256:
      return count <= 37;
  }
  return false;
}

/// Allocate the next-smaller node type with the same header and children.
/// Precondition: IsUnderfull(node).
template <typename P>
  requires P::kSortedKeys
BasicNode<P>* Shrunk(const BasicNode<P>* node) {
  assert(IsUnderfull(node));
  switch (node->type) {
    case NodeType::kN16:
      return detail::CopiedInto<BasicNode4<P>>(node);
    case NodeType::kN32:
      return detail::CopiedInto<BasicNode16<P>>(node);
    case NodeType::kN48:
      return detail::CopiedInto<BasicNode32<P>>(node);
    case NodeType::kN256:
      return detail::CopiedInto<BasicNode48<P>>(node);
    case NodeType::kN4:
      break;
  }
  assert(false && "N4 merges with its child instead of shrinking");
  return nullptr;
}

/// Leaf reached by always descending into the first enumerated child: the
/// minimum-key leaf under sorted keys, some leaf of the subtree otherwise
/// (its key still carries every prefix byte of the subtree).  Returns
/// nullptr if a concurrent reader catches a node with no child yet visible
/// (the caller restarts).  Precondition: !ref.IsNull().
template <typename P>
typename P::Leaf* Minimum(BasicRef<P> ref) {
  assert(!ref.IsNull());
  while (ref.IsNode()) {
    BasicRef<P> first;
    EnumerateChildren(ref.AsNode(), [&first](std::uint8_t, BasicRef<P> child) {
      first = child;
      return false;  // stop at the first child
    });
    ref = first;
  }
  return ref.IsLeaf() ? ref.AsLeaf() : nullptr;
}

/// Rightmost (maximum-key) leaf of a subtree.  Precondition: !ref.IsNull().
template <typename P>
  requires P::kSortedKeys
typename P::Leaf* Maximum(BasicRef<P> ref) {
  assert(!ref.IsNull());
  while (!ref.IsLeaf()) {
    BasicRef<P> last;
    EnumerateChildren(ref.AsNode(), [&last](std::uint8_t, BasicRef<P> child) {
      last = child;
      return true;  // keep going; remember the last child
    });
    assert(!last.IsNull());
    ref = last;
  }
  return ref.AsLeaf();
}

/// Set the compressed path of a PrefixHeader node from `len` bytes at
/// `bytes` (stores at most kMaxStoredPrefix of them inline).
template <typename P>
void SetPrefix(BasicNode<P>* node, const std::uint8_t* bytes,
               std::uint32_t len) {
  using A = typename P::Access;
  const auto stored =
      static_cast<std::uint8_t>(std::min<std::uint32_t>(len, kMaxStoredPrefix));
  for (std::uint8_t i = 0; i < stored; ++i) A::Store(node->prefix[i], bytes[i]);
  A::Store(node->stored_prefix_len, stored);
  A::Store(node->prefix_len, len);
}

/// Set the compressed path to key bytes [offset, offset+len) of `full_key`,
/// which must be long enough.
template <typename P>
void SetPrefixFromKey(BasicNode<P>* node, KeyView full_key,
                      std::size_t offset, std::uint32_t len) {
  assert(offset + len <= full_key.size());
  SetPrefix(node, full_key.data() + offset, len);
}

/// Key-array slots a point lookup's child search examines (the platform
/// models' scan-cost input): half an N4 on average; one vectorized
/// compare-and-movemask for N16/N32 on the modeled platform (SSE2 / AVX2,
/// see common/simd.h), the same as the N48/N256 direct index.
template <typename P>
unsigned ScanCost(const BasicNode<P>* node) {
  if (node->type != NodeType::kN4) return 1;
  return std::max(1u, P::Access::Load(node->count) / 2u);
}

/// In-memory size of a node of the given type (used by the memory model).
template <typename P>
std::size_t NodeSizeBytes(NodeType type) {
  switch (type) {
    case NodeType::kN4:
      return sizeof(BasicNode4<P>);
    case NodeType::kN16:
      return sizeof(BasicNode16<P>);
    case NodeType::kN32:
      return sizeof(BasicNode32<P>);
    case NodeType::kN48:
      return sizeof(BasicNode48<P>);
    case NodeType::kN256:
      break;
  }
  return sizeof(BasicNode256<P>);
}

/// Free one internal node (not its children) with the right derived type.
template <typename P>
void DeleteNode(BasicNode<P>* node) {
  detail::Visit(node, [](auto* n) { delete n; });
}

/// Recursively free a subtree (nodes and leaves).
template <typename P>
void DestroySubtree(BasicRef<P> ref) {
  if (ref.IsNull()) return;
  if (ref.IsLeaf()) {
    ref.AsLeaf()->Delete();
    return;
  }
  BasicNode<P>* node = ref.AsNode();
  EnumerateChildren(node, [](std::uint8_t, BasicRef<P> child) {
    DestroySubtree(child);
    return true;
  });
  DeleteNode(node);
}

// ---------------------------------------------------------------------------
// Reads.  One point descent and one ordered range walk serve every tree:
// the serial tree's lookups and scans, ROWEX's lock-free lookup, and the
// traced walks the platform models count.  Neither locks or validates
// anything, so OLC's version-checked reads stay its own.  The caller's
// accounting rides in a hook, called on each touch before it is inspected:
//
//   hook(ref)          a leaf
//   hook(ref, path)    an internal node, with the NodePath the read uses
//
// Overload{leaf_fn, node_fn} builds one from two lambdas; NoHook counts
// nothing.
// ---------------------------------------------------------------------------

template <typename... Fns>
struct Overload : Fns... {
  using Fns::operator()...;
};
template <typename... Fns>
Overload(Fns...) -> Overload<Fns...>;

struct NoHook {
  template <typename... Args>
  void operator()(const Args&...) const {}
};

/// Leaf holding `key` under `ref` (`depth` key bytes consumed above it), or
/// nullptr.  Optimistic path compression: only the inline path bytes are
/// compared on the way down, and the leaf's full key settles the rest.
/// Each node's path is read once, and the key's length is checked against
/// it before any key byte is, so a lock-free reader never indexes past the
/// key.  The next depth comes from the path's level, so a policy whose
/// nodes record their level (ROWEX) stays anchored through a concurrent
/// path split.
template <typename P, typename Hook>
typename P::Leaf* Descend(BasicRef<P> ref, std::size_t depth, KeyView key,
                          Hook&& hook) {
  while (!ref.IsNull()) {
    if (ref.IsLeaf()) {
      hook(ref);
      typename P::Leaf* leaf = ref.AsLeaf();
      return KeysEqual(leaf->key(), key) ? leaf : nullptr;
    }
    const BasicNode<P>* node = ref.AsNode();
    const NodePath path = P::ReadPath(*node, depth);
    hook(ref, path);
    if (key.size() <= path.level + path.len) return nullptr;
    for (std::uint32_t i = 0; i < path.stored; ++i) {
      if (path.bytes[i] != key[path.level + i]) return nullptr;
    }
    depth = path.level + path.len;
    ref = FindChild(node, key[depth]);
    ++depth;
  }
  return nullptr;
}

namespace detail {

/// EnumerateChildren in ascending key-byte order under every policy: an
/// append-only N4/N16/N32 is sorted on the stack first.
template <typename P, typename Fn>
bool EnumerateChildrenInOrder(const BasicNode<P>* node, Fn&& fn) {
  if constexpr (P::kSortedKeys) {
    return EnumerateChildren(node, fn);
  } else {
    using A = typename P::Access;
    return Visit(node, [&fn](const auto* n) -> bool {
      if constexpr (requires { n->keys; }) {
        std::array<std::pair<std::uint8_t, BasicRef<P>>,
                   std::tuple_size_v<decltype(n->keys)>>
            sorted;
        const std::uint16_t count = A::Load(n->count);
        for (std::uint16_t i = 0; i < count; ++i) {
          sorted[i] = {A::Load(n->keys[i]), A::LoadSlot(n->children[i])};
        }
        std::sort(sorted.begin(), sorted.begin() + count,
                  [](const auto& a, const auto& b) {
                    return a.first < b.first;
                  });
        for (std::uint16_t i = 0; i < count; ++i) {
          if (!fn(sorted[i].first, sorted[i].second)) return false;
        }
        return true;
      } else {
        return EnumerateChildren<P>(n, fn);
      }
    });
  }
}

template <typename P, typename Hook, typename Emit>
bool WalkRange(BasicRef<P> ref, std::size_t depth, KeyView lo,
               const std::optional<KeyView>& hi, bool lo_edge, bool hi_edge,
               Hook& hook, Emit& emit) {
  // `lo_edge` / `hi_edge`: the keys under `ref` agree with lo / hi on every
  // byte above `depth`.  Off an edge, the whole subtree is inside that bound.
  if (ref.IsLeaf()) {
    hook(ref);
    const typename P::Leaf* leaf = ref.AsLeaf();
    if (hi_edge && CompareKeys(leaf->key(), *hi) > 0) return false;
    if (lo_edge && CompareKeys(leaf->key(), lo) < 0) return true;
    return emit(leaf);
  }
  const BasicNode<P>* node = ref.AsNode();
  const NodePath path = P::ReadPath(*node, depth);
  hook(ref, path);
  // Walk the path byte by byte against the bounds still on an edge; bytes
  // past the inline ones come from the subtree's minimum leaf.
  const typename P::Leaf* min_leaf = nullptr;
  for (std::uint32_t i = 0; i < path.len && (lo_edge || hi_edge); ++i) {
    const std::size_t pos = path.level + i;
    std::uint8_t p;
    if (i < path.stored) {
      p = path.bytes[i];
    } else {
      if (min_leaf == nullptr) min_leaf = Minimum(ref);
      if (min_leaf == nullptr) return true;  // no child visible yet
      p = min_leaf->key()[pos];
    }
    if (lo_edge) {
      if (pos >= lo.size() || p > lo[pos]) {
        lo_edge = false;  // the whole subtree is above lo
      } else if (p < lo[pos]) {
        return true;  // the whole subtree is below lo: skip it
      }
    }
    if (hi_edge) {
      if (pos >= hi->size() || p > (*hi)[pos]) {
        return false;  // the whole subtree is above hi: stop the walk
      }
      if (p < (*hi)[pos]) hi_edge = false;
    }
  }
  depth = path.level + path.len;
  return EnumerateChildrenInOrder(node, [&](std::uint8_t b, BasicRef<P> child) {
    bool child_lo = false;
    bool child_hi = false;
    if (lo_edge && depth < lo.size()) {
      if (b < lo[depth]) return true;  // below the range: skip the child
      child_lo = b == lo[depth];
    }
    if (hi_edge) {
      if (depth >= hi->size() || b > (*hi)[depth]) {
        return false;  // above the range: stop the walk
      }
      child_hi = b == (*hi)[depth];
    }
    return WalkRange(child, depth + 1, lo, hi, child_lo, child_hi, hook, emit);
  });
}

}  // namespace detail

/// Visit, in key order, every leaf under `ref` (`depth` key bytes consumed
/// above it) whose key lies in [lo, hi], or is >= lo when `hi` is nullopt:
/// `emit(leaf)` returns false to stop the walk.  Pessimistic: a subtree is
/// skipped only when its path puts it wholly outside the range.  Returns
/// false iff stopped.
template <typename P, typename Hook, typename Emit>
bool WalkRange(BasicRef<P> ref, std::size_t depth, KeyView lo,
               const std::optional<KeyView>& hi, Hook&& hook, Emit&& emit) {
  if (ref.IsNull()) return true;
  return detail::WalkRange(ref, depth, lo, hi, /*lo_edge=*/true,
                           /*hi_edge=*/hi.has_value(), hook, emit);
}

inline const char* NodeTypeName(NodeType type) {
  switch (type) {
    case NodeType::kN4:
      return "N4";
    case NodeType::kN16:
      return "N16";
    case NodeType::kN32:
      return "N32";
    case NodeType::kN48:
      return "N48";
    case NodeType::kN256:
      return "N256";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// The serial tree's instantiation.
// ---------------------------------------------------------------------------

struct ArtPolicy {
  using Header = PrefixHeader;
  using Leaf = art::Leaf;
  using Access = PlainAccess;
  static constexpr bool kSortedKeys = true;
  static NodePath ReadPath(const Header& header, std::size_t depth) {
    return ReadPrefixPath<Access>(header, depth);
  }
};

using Node = BasicNode<ArtPolicy>;
using Node4 = BasicNode4<ArtPolicy>;
using Node16 = BasicNode16<ArtPolicy>;
using Node32 = BasicNode32<ArtPolicy>;
using Node48 = BasicNode48<ArtPolicy>;
using Node256 = BasicNode256<ArtPolicy>;
using NodeRef = BasicRef<ArtPolicy>;

inline std::size_t NodeSizeBytes(NodeType type) {
  return NodeSizeBytes<ArtPolicy>(type);
}

}  // namespace dcart::art
