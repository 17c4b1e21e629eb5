// Adaptive Radix Tree node structures (Leis et al., ICDE 2013).
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
// Child references are tagged pointers (`NodeRef`): bit 0 set means the
// reference addresses a `Leaf`, clear means an internal `Node`.  These
// low-level primitives are public because the DCART accelerator simulator
// performs its own instrumented node walks over the tree.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>

#include "art/leaf.h"
#include "common/bytes.h"

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

struct Node;

/// Tagged pointer to either an internal Node or a Leaf.
class NodeRef {
 public:
  constexpr NodeRef() = default;

  static NodeRef FromNode(Node* node) {
    return NodeRef(reinterpret_cast<std::uintptr_t>(node));
  }
  static NodeRef FromLeaf(Leaf* leaf) {
    return NodeRef(reinterpret_cast<std::uintptr_t>(leaf) | kLeafTag);
  }

  bool IsNull() const { return raw_ == 0; }
  bool IsLeaf() const { return (raw_ & kLeafTag) != 0; }
  bool IsNode() const { return raw_ != 0 && (raw_ & kLeafTag) == 0; }

  Node* AsNode() const {
    assert(IsNode());
    return reinterpret_cast<Node*>(raw_);
  }
  Leaf* AsLeaf() const {
    assert(IsLeaf());
    return reinterpret_cast<Leaf*>(raw_ & ~kLeafTag);
  }

  /// Stable identifier usable as a simulated memory address.
  std::uintptr_t raw() const { return raw_; }

  friend bool operator==(NodeRef a, NodeRef b) { return a.raw_ == b.raw_; }

 private:
  static constexpr std::uintptr_t kLeafTag = 1;
  explicit constexpr NodeRef(std::uintptr_t raw) : raw_(raw) {}
  std::uintptr_t raw_ = 0;
};

/// Common header of all internal nodes.
struct Node {
  explicit Node(NodeType t) : type(t) {}

  NodeType type;
  std::uint8_t stored_prefix_len = 0;  // == min(prefix_len, kMaxStoredPrefix)
  std::uint16_t count = 0;             // number of children
  std::uint32_t prefix_len = 0;        // full compressed-path length
  std::array<std::uint8_t, kMaxStoredPrefix> prefix{};
};

struct Node4 : Node {
  Node4() : Node(NodeType::kN4) {}
  std::array<std::uint8_t, 4> keys{};
  std::array<NodeRef, 4> children{};
};

struct Node16 : Node {
  Node16() : Node(NodeType::kN16) {}
  std::array<std::uint8_t, 16> keys{};
  std::array<NodeRef, 16> children{};
};

struct Node32 : Node {
  Node32() : Node(NodeType::kN32) {}
  std::array<std::uint8_t, 32> keys{};
  std::array<NodeRef, 32> children{};
};

struct Node48 : Node {
  static constexpr std::uint8_t kEmptySlot = 0xff;
  Node48() : Node(NodeType::kN48) { child_index.fill(kEmptySlot); }
  std::array<std::uint8_t, 256> child_index;  // key byte -> children slot
  std::array<NodeRef, 48> children{};
};

struct Node256 : Node {
  Node256() : Node(NodeType::kN256) {}
  std::array<NodeRef, 256> children{};
};

// ---------------------------------------------------------------------------
// Node operations.  These are free functions so that several tree variants
// (the core tree, the DCART simulator's walker) share one implementation.
// ---------------------------------------------------------------------------

/// Child for key byte `b`, or a null ref.
NodeRef FindChild(const Node* node, std::uint8_t b);

/// Mutable slot holding the child for byte `b`, or nullptr.
NodeRef* FindChildSlot(Node* node, std::uint8_t b);

/// True when the node has no free slot for a new child.
bool IsFull(const Node* node);

/// Add child for byte `b`.  Preconditions: !IsFull(node), `b` absent.
void AddChild(Node* node, std::uint8_t b, NodeRef child);

/// Remove the child for byte `b`.  Precondition: `b` present.
void RemoveChild(Node* node, std::uint8_t b);

/// Allocate the next-larger node type with the same header and children.
/// The caller owns both nodes afterwards (typically deletes the old one).
Node* Grown(const Node* node);

/// True when the node would fit in the next-smaller type with hysteresis
/// (N16 at <=3 children, N32 at <=12, N48 at <=24, N256 at <=37).  N4 never
/// shrinks this way; a 1-child N4 is merged with its child by the tree
/// instead.
bool IsUnderfull(const Node* node);

/// Allocate the next-smaller node type with the same header and children.
/// Precondition: IsUnderfull(node).
Node* Shrunk(const Node* node);

/// Invoke `fn(byte, child)` for every child in ascending key-byte order.
/// `fn` returning false stops the walk early; the function returns false iff
/// stopped early.
bool EnumerateChildren(const Node* node,
                       const std::function<bool(std::uint8_t, NodeRef)>& fn);

/// Leftmost (minimum-key) leaf of a subtree.  Precondition: !ref.IsNull().
Leaf* Minimum(NodeRef ref);

/// Rightmost (maximum-key) leaf of a subtree.  Precondition: !ref.IsNull().
Leaf* Maximum(NodeRef ref);

/// Set the compressed path from `len` bytes at `bytes` (stores at most
/// kMaxStoredPrefix of them inline).
void SetPrefix(Node* node, const std::uint8_t* bytes, std::uint32_t len);

/// Set the compressed path to key bytes [offset, offset+len) of `full_key`,
/// which must be long enough.
void SetPrefixFromKey(Node* node, KeyView full_key, std::size_t offset,
                      std::uint32_t len);

/// In-memory size of a node of the given type (used by the memory model).
std::size_t NodeSizeBytes(NodeType type);

/// Free one internal node (not its children) with the right derived type.
void DeleteNode(Node* node);

/// Recursively free a subtree (nodes and leaves).
void DestroySubtree(NodeRef ref);

const char* NodeTypeName(NodeType type);

}  // namespace dcart::art
