#include "art/iterator.h"

#include <algorithm>

namespace dcart::art {

NodeRef Iterator::ChildAt(const Node* node, int pos) {
  NodeRef result;
  int index = 0;
  EnumerateChildren(node, [&](std::uint8_t, NodeRef child) {
    if (index++ == pos) {
      result = child;
      return false;
    }
    return true;
  });
  return result;
}

void Iterator::DescendToMin(NodeRef ref) {
  while (ref.IsNode()) {
    stack_.push_back({ref.AsNode(), 0});
    ref = ChildAt(ref.AsNode(), 0);
  }
  current_ = ref.IsLeaf() ? ref.AsLeaf() : nullptr;
}

void Iterator::SeekToFirst() {
  stack_.clear();
  current_ = nullptr;
  if (!tree_.root().IsNull()) DescendToMin(tree_.root());
}

void Iterator::SeekToLast() {
  stack_.clear();
  current_ = nullptr;
  NodeRef ref = tree_.root();
  if (ref.IsNull()) return;
  while (ref.IsNode()) {
    const Node* node = ref.AsNode();
    stack_.push_back({node, node->count - 1});
    ref = ChildAt(node, node->count - 1);
  }
  current_ = ref.AsLeaf();
}

void Iterator::Next() {
  current_ = nullptr;
  while (!stack_.empty()) {
    Frame& top = stack_.back();
    ++top.position;
    const NodeRef sibling = ChildAt(top.node, top.position);
    if (!sibling.IsNull()) {
      DescendToMin(sibling);
      return;
    }
    stack_.pop_back();
  }
}

namespace {

/// Exact byte of a node's compressed path (recovering the non-stored tail
/// from the minimum leaf, which holds the full path bytes at `pos`).
std::uint8_t PrefixByte(NodeRef ref, const Node* node, std::uint32_t i,
                        std::size_t pos, const Leaf*& min_leaf) {
  if (i < node->stored_prefix_len) return node->prefix[i];
  if (min_leaf == nullptr) min_leaf = Minimum(ref);
  return min_leaf->key()[pos];
}

}  // namespace

void Iterator::Seek(KeyView target) {
  stack_.clear();
  current_ = nullptr;
  if (tree_.root().IsNull()) return;

  // Recursive descent mirroring Tree::ScanRec's lower-edge logic: find the
  // leftmost leaf >= target, building the frame stack on the way.
  const std::function<bool(NodeRef, std::size_t, bool)> seek =
      [&](NodeRef ref, std::size_t depth, bool lo_edge) -> bool {
    if (ref.IsLeaf()) {
      const Leaf* leaf = ref.AsLeaf();
      if (CompareKeys(leaf->key(), target) >= 0) {
        current_ = leaf;
        return true;
      }
      return false;
    }
    const Node* node = ref.AsNode();
    if (lo_edge) {
      const Leaf* min_leaf = nullptr;
      std::size_t pos = depth;
      for (std::uint32_t i = 0; i < node->prefix_len && lo_edge; ++i, ++pos) {
        const std::uint8_t p = PrefixByte(ref, node, i, pos, min_leaf);
        if (pos >= target.size() || p > target[pos]) {
          lo_edge = false;  // whole subtree is above the target
        } else if (p < target[pos]) {
          return false;  // whole subtree is below the target
        }
      }
    }
    const std::size_t child_depth = depth + node->prefix_len;

    int position = -1;
    bool found = false;
    EnumerateChildren(node, [&](std::uint8_t b, NodeRef child) {
      ++position;
      bool child_lo = false;
      if (lo_edge) {
        if (child_depth < target.size()) {
          if (b < target[child_depth]) return true;  // skip: below target
          child_lo = (b == target[child_depth]);
        }
      }
      stack_.push_back({node, position});
      if (seek(child, child_depth + 1, child_lo)) {
        found = true;
        return false;  // stop enumeration, stack holds the path
      }
      stack_.pop_back();
      return true;
    });
    return found;
  };

  seek(tree_.root(), 0, /*lo_edge=*/true);
}

}  // namespace dcart::art
