#include "art/node.h"

#include <algorithm>

#include "common/simd.h"

namespace dcart::art {

namespace {

const Node4* AsN4(const Node* n) { return static_cast<const Node4*>(n); }
const Node16* AsN16(const Node* n) { return static_cast<const Node16*>(n); }
const Node32* AsN32(const Node* n) { return static_cast<const Node32*>(n); }
const Node48* AsN48(const Node* n) { return static_cast<const Node48*>(n); }
const Node256* AsN256(const Node* n) { return static_cast<const Node256*>(n); }
Node4* AsN4(Node* n) { return static_cast<Node4*>(n); }
Node16* AsN16(Node* n) { return static_cast<Node16*>(n); }
Node32* AsN32(Node* n) { return static_cast<Node32*>(n); }
Node48* AsN48(Node* n) { return static_cast<Node48*>(n); }
Node256* AsN256(Node* n) { return static_cast<Node256*>(n); }

void CopyHeader(Node* dst, const Node* src) {
  dst->stored_prefix_len = src->stored_prefix_len;
  dst->prefix_len = src->prefix_len;
  dst->prefix = src->prefix;
}

}  // namespace

NodeRef FindChild(const Node* node, std::uint8_t b) {
  switch (node->type) {
    case NodeType::kN4: {
      const auto* n = AsN4(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (n->keys[i] == b) return n->children[i];
      }
      return {};
    }
    case NodeType::kN16: {
      const auto* n = AsN16(node);
      const int i = simd::FindKeyByte16(n->keys.data(), n->count, b);
      return i < 0 ? NodeRef{} : n->children[static_cast<std::size_t>(i)];
    }
    case NodeType::kN32: {
      const auto* n = AsN32(node);
      const int i = simd::FindKeyByte32(n->keys.data(), n->count, b);
      return i < 0 ? NodeRef{} : n->children[static_cast<std::size_t>(i)];
    }
    case NodeType::kN48: {
      const auto* n = AsN48(node);
      const std::uint8_t slot = n->child_index[b];
      return slot == Node48::kEmptySlot ? NodeRef{} : n->children[slot];
    }
    case NodeType::kN256:
      return AsN256(node)->children[b];
  }
  return {};
}

NodeRef* FindChildSlot(Node* node, std::uint8_t b) {
  switch (node->type) {
    case NodeType::kN4: {
      auto* n = AsN4(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (n->keys[i] == b) return &n->children[i];
      }
      return nullptr;
    }
    case NodeType::kN16: {
      auto* n = AsN16(node);
      const int i = simd::FindKeyByte16(n->keys.data(), n->count, b);
      return i < 0 ? nullptr : &n->children[static_cast<std::size_t>(i)];
    }
    case NodeType::kN32: {
      auto* n = AsN32(node);
      const int i = simd::FindKeyByte32(n->keys.data(), n->count, b);
      return i < 0 ? nullptr : &n->children[static_cast<std::size_t>(i)];
    }
    case NodeType::kN48: {
      auto* n = AsN48(node);
      const std::uint8_t slot = n->child_index[b];
      return slot == Node48::kEmptySlot ? nullptr : &n->children[slot];
    }
    case NodeType::kN256: {
      auto* n = AsN256(node);
      return n->children[b].IsNull() ? nullptr : &n->children[b];
    }
  }
  return nullptr;
}

bool IsFull(const Node* node) {
  switch (node->type) {
    case NodeType::kN4:
      return node->count >= 4;
    case NodeType::kN16:
      return node->count >= 16;
    case NodeType::kN32:
      return node->count >= 32;
    case NodeType::kN48:
      return node->count >= 48;
    case NodeType::kN256:
      return false;
  }
  return false;
}

void AddChild(Node* node, std::uint8_t b, NodeRef child) {
  assert(!IsFull(node));
  switch (node->type) {
    case NodeType::kN4: {
      auto* n = AsN4(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] < b) ++pos;
      for (std::uint16_t i = n->count; i > pos; --i) {
        n->keys[i] = n->keys[i - 1];
        n->children[i] = n->children[i - 1];
      }
      n->keys[pos] = b;
      n->children[pos] = child;
      break;
    }
    case NodeType::kN16: {
      auto* n = AsN16(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] < b) ++pos;
      for (std::uint16_t i = n->count; i > pos; --i) {
        n->keys[i] = n->keys[i - 1];
        n->children[i] = n->children[i - 1];
      }
      n->keys[pos] = b;
      n->children[pos] = child;
      break;
    }
    case NodeType::kN32: {
      auto* n = AsN32(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] < b) ++pos;
      for (std::uint16_t i = n->count; i > pos; --i) {
        n->keys[i] = n->keys[i - 1];
        n->children[i] = n->children[i - 1];
      }
      n->keys[pos] = b;
      n->children[pos] = child;
      break;
    }
    case NodeType::kN48: {
      auto* n = AsN48(node);
      assert(n->child_index[b] == Node48::kEmptySlot);
      // Removals compact (RemoveChild moves the last slot into the hole), so
      // slots 0..count-1 are dense and count is the first free slot.
      const auto slot = static_cast<std::uint8_t>(n->count);
      assert(n->children[slot].IsNull());
      n->children[slot] = child;
      n->child_index[b] = slot;
      break;
    }
    case NodeType::kN256: {
      auto* n = AsN256(node);
      assert(n->children[b].IsNull());
      n->children[b] = child;
      break;
    }
  }
  ++node->count;
}

void RemoveChild(Node* node, std::uint8_t b) {
  switch (node->type) {
    case NodeType::kN4: {
      auto* n = AsN4(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] != b) ++pos;
      assert(pos < n->count);
      for (std::uint16_t i = pos; i + 1 < n->count; ++i) {
        n->keys[i] = n->keys[i + 1];
        n->children[i] = n->children[i + 1];
      }
      n->children[n->count - 1] = {};
      break;
    }
    case NodeType::kN16: {
      auto* n = AsN16(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] != b) ++pos;
      assert(pos < n->count);
      for (std::uint16_t i = pos; i + 1 < n->count; ++i) {
        n->keys[i] = n->keys[i + 1];
        n->children[i] = n->children[i + 1];
      }
      n->children[n->count - 1] = {};
      break;
    }
    case NodeType::kN32: {
      auto* n = AsN32(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] != b) ++pos;
      assert(pos < n->count);
      for (std::uint16_t i = pos; i + 1 < n->count; ++i) {
        n->keys[i] = n->keys[i + 1];
        n->children[i] = n->children[i + 1];
      }
      n->children[n->count - 1] = {};
      break;
    }
    case NodeType::kN48: {
      auto* n = AsN48(node);
      const std::uint8_t slot = n->child_index[b];
      assert(slot != Node48::kEmptySlot);
      n->child_index[b] = Node48::kEmptySlot;
      // Keep slots 0..count-1 dense (AddChild relies on it): move the last
      // occupied slot into the hole and repoint its index entry.
      const auto last = static_cast<std::uint8_t>(n->count - 1);
      if (slot != last) {
        n->children[slot] = n->children[last];
        for (int bi = 0; bi < 256; ++bi) {
          if (n->child_index[bi] == last) {
            n->child_index[bi] = slot;
            break;
          }
        }
      }
      n->children[last] = {};
      break;
    }
    case NodeType::kN256: {
      auto* n = AsN256(node);
      assert(!n->children[b].IsNull());
      n->children[b] = {};
      break;
    }
  }
  --node->count;
}

Node* Grown(const Node* node) {
  switch (node->type) {
    case NodeType::kN4: {
      const auto* src = AsN4(node);
      auto* dst = new Node16;
      CopyHeader(dst, src);
      for (std::uint16_t i = 0; i < src->count; ++i) {
        dst->keys[i] = src->keys[i];
        dst->children[i] = src->children[i];
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN16: {
      const auto* src = AsN16(node);
      auto* dst = new Node32;
      CopyHeader(dst, src);
      for (std::uint16_t i = 0; i < src->count; ++i) {
        dst->keys[i] = src->keys[i];
        dst->children[i] = src->children[i];
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN32: {
      const auto* src = AsN32(node);
      auto* dst = new Node48;
      CopyHeader(dst, src);
      for (std::uint16_t i = 0; i < src->count; ++i) {
        dst->children[i] = src->children[i];
        dst->child_index[src->keys[i]] = static_cast<std::uint8_t>(i);
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN48: {
      const auto* src = AsN48(node);
      auto* dst = new Node256;
      CopyHeader(dst, src);
      for (int b = 0; b < 256; ++b) {
        const std::uint8_t slot = src->child_index[b];
        if (slot != Node48::kEmptySlot) {
          dst->children[b] = src->children[slot];
        }
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN256:
      assert(false && "N256 cannot grow");
      return nullptr;
  }
  return nullptr;
}

bool IsUnderfull(const Node* node) {
  switch (node->type) {
    case NodeType::kN4:
      return false;
    case NodeType::kN16:
      return node->count <= 3;
    case NodeType::kN32:
      return node->count <= 12;
    case NodeType::kN48:
      return node->count <= 24;
    case NodeType::kN256:
      return node->count <= 37;
  }
  return false;
}

Node* Shrunk(const Node* node) {
  assert(IsUnderfull(node));
  switch (node->type) {
    case NodeType::kN16: {
      const auto* src = AsN16(node);
      auto* dst = new Node4;
      CopyHeader(dst, src);
      for (std::uint16_t i = 0; i < src->count; ++i) {
        dst->keys[i] = src->keys[i];
        dst->children[i] = src->children[i];
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN32: {
      const auto* src = AsN32(node);
      auto* dst = new Node16;
      CopyHeader(dst, src);
      for (std::uint16_t i = 0; i < src->count; ++i) {
        dst->keys[i] = src->keys[i];
        dst->children[i] = src->children[i];
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN48: {
      const auto* src = AsN48(node);
      auto* dst = new Node32;
      CopyHeader(dst, src);
      std::uint16_t out = 0;
      for (int b = 0; b < 256; ++b) {
        const std::uint8_t slot = src->child_index[b];
        if (slot != Node48::kEmptySlot) {
          dst->keys[out] = static_cast<std::uint8_t>(b);
          dst->children[out] = src->children[slot];
          ++out;
        }
      }
      dst->count = out;
      return dst;
    }
    case NodeType::kN256: {
      const auto* src = AsN256(node);
      auto* dst = new Node48;
      CopyHeader(dst, src);
      std::uint8_t out = 0;
      for (int b = 0; b < 256; ++b) {
        if (!src->children[b].IsNull()) {
          dst->children[out] = src->children[b];
          dst->child_index[b] = out;
          ++out;
        }
      }
      dst->count = out;
      return dst;
    }
    case NodeType::kN4:
      assert(false && "N4 merges with its child instead of shrinking");
      return nullptr;
  }
  return nullptr;
}

bool EnumerateChildren(const Node* node,
                       const std::function<bool(std::uint8_t, NodeRef)>& fn) {
  switch (node->type) {
    case NodeType::kN4: {
      const auto* n = AsN4(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (!fn(n->keys[i], n->children[i])) return false;
      }
      return true;
    }
    case NodeType::kN16: {
      const auto* n = AsN16(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (!fn(n->keys[i], n->children[i])) return false;
      }
      return true;
    }
    case NodeType::kN32: {
      const auto* n = AsN32(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (!fn(n->keys[i], n->children[i])) return false;
      }
      return true;
    }
    case NodeType::kN48: {
      const auto* n = AsN48(node);
      for (int b = 0; b < 256; ++b) {
        const std::uint8_t slot = n->child_index[b];
        if (slot != Node48::kEmptySlot) {
          if (!fn(static_cast<std::uint8_t>(b), n->children[slot])) {
            return false;
          }
        }
      }
      return true;
    }
    case NodeType::kN256: {
      const auto* n = AsN256(node);
      for (int b = 0; b < 256; ++b) {
        if (!n->children[b].IsNull()) {
          if (!fn(static_cast<std::uint8_t>(b), n->children[b])) return false;
        }
      }
      return true;
    }
  }
  return true;
}

Leaf* Minimum(NodeRef ref) {
  assert(!ref.IsNull());
  while (!ref.IsLeaf()) {
    NodeRef first;
    EnumerateChildren(ref.AsNode(), [&first](std::uint8_t, NodeRef child) {
      first = child;
      return false;  // stop at the first (smallest) child
    });
    assert(!first.IsNull());
    ref = first;
  }
  return ref.AsLeaf();
}

Leaf* Maximum(NodeRef ref) {
  assert(!ref.IsNull());
  while (!ref.IsLeaf()) {
    NodeRef last;
    EnumerateChildren(ref.AsNode(), [&last](std::uint8_t, NodeRef child) {
      last = child;
      return true;  // keep going; remember the last child
    });
    assert(!last.IsNull());
    ref = last;
  }
  return ref.AsLeaf();
}

void SetPrefix(Node* node, const std::uint8_t* bytes, std::uint32_t len) {
  node->prefix_len = len;
  const auto stored =
      static_cast<std::uint8_t>(std::min<std::uint32_t>(len, kMaxStoredPrefix));
  node->stored_prefix_len = stored;
  std::copy_n(bytes, stored, node->prefix.begin());
}

void SetPrefixFromKey(Node* node, KeyView full_key, std::size_t offset,
                      std::uint32_t len) {
  assert(offset + len <= full_key.size());
  SetPrefix(node, full_key.data() + offset, len);
}

std::size_t NodeSizeBytes(NodeType type) {
  switch (type) {
    case NodeType::kN4:
      return sizeof(Node4);
    case NodeType::kN16:
      return sizeof(Node16);
    case NodeType::kN32:
      return sizeof(Node32);
    case NodeType::kN48:
      return sizeof(Node48);
    case NodeType::kN256:
      return sizeof(Node256);
  }
  return 0;
}

void DeleteNode(Node* node) {
  switch (node->type) {
    case NodeType::kN4:
      delete static_cast<Node4*>(node);
      break;
    case NodeType::kN16:
      delete static_cast<Node16*>(node);
      break;
    case NodeType::kN32:
      delete static_cast<Node32*>(node);
      break;
    case NodeType::kN48:
      delete static_cast<Node48*>(node);
      break;
    case NodeType::kN256:
      delete static_cast<Node256*>(node);
      break;
  }
}

void DestroySubtree(NodeRef ref) {
  if (ref.IsNull()) return;
  if (ref.IsLeaf()) {
    ref.AsLeaf()->Delete();
    return;
  }
  Node* node = ref.AsNode();
  EnumerateChildren(node, [](std::uint8_t, NodeRef child) {
    DestroySubtree(child);
    return true;
  });
  DeleteNode(node);
}

const char* NodeTypeName(NodeType type) {
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

}  // namespace dcart::art
