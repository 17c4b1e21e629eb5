#include "art/tree.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace dcart::art {

std::string MemoryStats::ToString() const {
  std::ostringstream os;
  os << "N4=" << n4 << " N16=" << n16 << " N32=" << n32 << " N48=" << n48
     << " N256=" << n256
     << " leaves=" << leaves << " internal_bytes=" << internal_bytes
     << " leaf_bytes=" << leaf_bytes;
  return os.str();
}

Tree::~Tree() { DestroySubtree(root_); }

Tree::Tree(Tree&& other) noexcept
    : root_(other.root_), size_(other.size_) {
  other.root_ = {};
  other.size_ = 0;
}

Tree& Tree::operator=(Tree&& other) noexcept {
  if (this != &other) {
    DestroySubtree(root_);
    root_ = other.root_;
    size_ = other.size_;
    other.root_ = {};
    other.size_ = 0;
  }
  return *this;
}

void Tree::NoteVisit(NodeRef ref) const {
  if (stats_) ++stats_->nodes_visited;
  if (observer_) observer_->OnNodeVisit(ref);
}

std::uint32_t Tree::PrefixMismatch(const Node* node, KeyView key,
                                   std::size_t depth) const {
  const auto max_cmp = static_cast<std::uint32_t>(
      std::min<std::size_t>(node->prefix_len, key.size() - depth));
  std::uint32_t i = 0;
  const std::uint32_t stored =
      std::min<std::uint32_t>(max_cmp, node->stored_prefix_len);
  for (; i < stored; ++i) {
    if (node->prefix[i] != key[depth + i]) return i;
  }
  if (i < max_cmp && node->prefix_len > node->stored_prefix_len) {
    // Recover the non-stored tail of the compressed path from the subtree's
    // minimum leaf, whose key contains the full path bytes at [depth, ...).
    const Leaf* min_leaf = Minimum(NodeRef::FromNode(const_cast<Node*>(node)));
    for (; i < max_cmp; ++i) {
      if (min_leaf->key()[depth + i] != key[depth + i]) return i;
    }
  }
  return i;
}

bool Tree::Insert(KeyView key, Value value, Leaf** out_leaf) {
  assert(!key.empty() && "keys must be non-empty (see key_codec.h)");
  if (root_.IsNull()) {
    Leaf* leaf = Leaf::New(key, value);
    root_ = NodeRef::FromLeaf(leaf);
    size_ = 1;
    if (stats_) ++stats_->operations;
    if (out_leaf) *out_leaf = leaf;
    return true;
  }
  if (stats_) ++stats_->operations;
  const bool inserted = InsertInSubtree(&root_, 0, key, value, out_leaf);
  if (inserted) ++size_;
  return inserted;
}

bool Tree::InsertInSubtree(NodeRef* slot, std::size_t depth, KeyView key,
                           Value value, Leaf** out_leaf) {
  assert(!slot->IsNull() && "InsertInSubtree requires a non-empty subtree");
  for (;;) {
    const NodeRef cur = *slot;
    NoteVisit(cur);

    if (cur.IsLeaf()) {
      Leaf* leaf = cur.AsLeaf();
      if (stats_) ++stats_->leaf_accesses;
      const KeyView leaf_key = leaf->key();
      if (KeysEqual(leaf_key, key)) {
        leaf->value = value;
        if (out_leaf) *out_leaf = leaf;
        return false;
      }
      // Split this leaf: a new N4 holds the common prefix and both leaves.
      const std::size_t lcp = CommonPrefixLength(leaf_key.subspan(depth),
                                                 key.subspan(depth));
      assert(depth + lcp < key.size() && depth + lcp < leaf_key.size() &&
             "stored keys must be prefix-free");
      auto* branch = new Node4;
      SetPrefixFromKey(branch, key, depth, static_cast<std::uint32_t>(lcp));
      Leaf* new_leaf = Leaf::New(key, value);
      AddChild(branch, key[depth + lcp], NodeRef::FromLeaf(new_leaf));
      AddChild(branch, leaf_key[depth + lcp], cur);
      *slot = NodeRef::FromNode(branch);
      if (out_leaf) *out_leaf = new_leaf;
      return true;
    }

    Node* node = cur.AsNode();
    if (stats_) ++stats_->partial_key_matches;
    const std::uint32_t mismatch = PrefixMismatch(node, key, depth);
    if (mismatch < node->prefix_len) {
      // The key diverges inside the compressed path: split the path.
      assert(depth + mismatch < key.size() &&
             "stored keys must be prefix-free");
      const Leaf* min_leaf = Minimum(cur);  // full path bytes live here
      auto* branch = new Node4;
      SetPrefixFromKey(branch, min_leaf->key(), depth, mismatch);
      const std::uint8_t node_byte = min_leaf->key()[depth + mismatch];
      SetPrefixFromKey(node, min_leaf->key(), depth + mismatch + 1,
                       node->prefix_len - mismatch - 1);
      Leaf* new_leaf = Leaf::New(key, value);
      AddChild(branch, key[depth + mismatch], NodeRef::FromLeaf(new_leaf));
      AddChild(branch, node_byte, cur);
      *slot = NodeRef::FromNode(branch);
      if (out_leaf) *out_leaf = new_leaf;
      return true;
    }

    depth += node->prefix_len;
    assert(depth < key.size() && "stored keys must be prefix-free");
    const std::uint8_t b = key[depth];
    NodeRef* child_slot = FindChildSlot(node, b);
    if (child_slot == nullptr) {
      if (IsFull(node)) {
        Node* grown = Grown(node);
        *slot = NodeRef::FromNode(grown);
        if (observer_) {
          observer_->OnNodeReplaced(cur, NodeRef::FromNode(grown));
        }
        DeleteNode(node);
        node = grown;
      }
      Leaf* new_leaf = Leaf::New(key, value);
      AddChild(node, b, NodeRef::FromLeaf(new_leaf));
      if (out_leaf) *out_leaf = new_leaf;
      return true;
    }
    slot = child_slot;
    ++depth;
  }
}

std::optional<Value> Tree::Get(KeyView key) const {
  const Leaf* leaf = FindLeaf(key);
  if (leaf == nullptr) return std::nullopt;
  return leaf->value;
}

Leaf* Tree::FindLeaf(KeyView key) const {
  if (stats_) ++stats_->operations;
  return FindLeafInSubtree(root_, 0, key);
}

Leaf* Tree::FindLeafInSubtree(NodeRef ref, std::size_t depth,
                              KeyView key) const {
  return Descend(ref, depth, key,
                 Overload{[this](NodeRef leaf) {
                            NoteVisit(leaf);
                            if (stats_) ++stats_->leaf_accesses;
                          },
                          [this](NodeRef node, const NodePath&) {
                            NoteVisit(node);
                            if (stats_) ++stats_->partial_key_matches;
                          }});
}

bool Tree::Remove(KeyView key) {
  if (stats_) ++stats_->operations;
  if (root_.IsNull()) return false;
  if (root_.IsLeaf()) {
    Leaf* leaf = root_.AsLeaf();
    NoteVisit(root_);
    if (!KeysEqual(leaf->key(), key)) return false;
    leaf->Delete();
    root_ = {};
    size_ = 0;
    return true;
  }
  const bool removed = RemoveInSubtree(&root_, 0, key);
  if (removed) --size_;
  return removed;
}

bool Tree::RemoveInSubtree(NodeRef* slot, std::size_t depth, KeyView key) {
  assert(slot->IsNode() && "RemoveInSubtree requires an internal-node root");
  for (;;) {
    Node* node = slot->AsNode();
    NoteVisit(*slot);
    if (stats_) ++stats_->partial_key_matches;
    const std::size_t cmp = std::min<std::size_t>(
        node->stored_prefix_len, key.size() - depth);
    for (std::size_t i = 0; i < cmp; ++i) {
      if (node->prefix[i] != key[depth + i]) return false;
    }
    if (key.size() - depth < node->prefix_len) return false;
    depth += node->prefix_len;
    if (depth >= key.size()) return false;
    const std::uint8_t b = key[depth];
    NodeRef* child_slot = FindChildSlot(node, b);
    if (child_slot == nullptr) return false;

    if (child_slot->IsLeaf()) {
      Leaf* leaf = child_slot->AsLeaf();
      NoteVisit(*child_slot);
      if (stats_) ++stats_->leaf_accesses;
      if (!KeysEqual(leaf->key(), key)) return false;
      leaf->Delete();
      RemoveChild(node, b);

      if (node->type == NodeType::kN4 && node->count == 1) {
        // Merge a single-child N4 into its child, concatenating the paths:
        // child.prefix := node.prefix + branch_byte + child.prefix.
        NodeRef remaining;
        EnumerateChildren(node, [&remaining](std::uint8_t, NodeRef c) {
          remaining = c;
          return false;
        });
        if (!remaining.IsLeaf()) {
          Node* child = remaining.AsNode();
          const std::uint32_t total =
              node->prefix_len + 1 + child->prefix_len;
          const Leaf* min_leaf = Minimum(remaining);
          const std::size_t node_start = depth - node->prefix_len;
          SetPrefixFromKey(child, min_leaf->key(), node_start, total);
        }
        if (observer_) {
          observer_->OnNodeReplaced(NodeRef::FromNode(node), remaining);
        }
        *slot = remaining;
        DeleteNode(node);
      } else if (IsUnderfull(node)) {
        Node* shrunk = Shrunk(node);
        if (observer_) {
          observer_->OnNodeReplaced(NodeRef::FromNode(node),
                                    NodeRef::FromNode(shrunk));
        }
        *slot = NodeRef::FromNode(shrunk);
        DeleteNode(node);
      }
      return true;
    }
    slot = child_slot;
    ++depth;
  }
}

void Tree::Scan(KeyView lo, KeyView hi,
                const std::function<bool(KeyView, Value)>& callback) const {
  WalkRange(root_, 0, lo, hi, NoHook{}, [&callback](const Leaf* leaf) {
    return callback(leaf->key(), leaf->value);
  });
}

void Tree::ScanFrom(KeyView lo,
                    const std::function<bool(KeyView, Value)>& callback)
    const {
  WalkRange(root_, 0, lo, std::nullopt, NoHook{},
            [&callback](const Leaf* leaf) {
              return callback(leaf->key(), leaf->value);
            });
}

void Tree::ScanPrefix(KeyView prefix,
                      const std::function<bool(KeyView, Value)>& callback)
    const {
  // The keys that start with `prefix` follow one another from its lower
  // bound on, so the walk stops at the first key without it.
  ScanFrom(prefix, [&prefix, &callback](KeyView key, Value value) {
    return CommonPrefixLength(key, prefix) == prefix.size() &&
           callback(key, value);
  });
}

namespace {

NodeRef BuildSorted(std::span<const std::pair<Key, Value>> items,
                    std::size_t depth, std::size_t& count) {
  assert(!items.empty());
  if (items.size() == 1) {
    ++count;
    return NodeRef::FromLeaf(
        Leaf::New(items.front().first, items.front().second));
  }
  // All keys in `items` agree on bytes [0, depth).  The common prefix of
  // the sorted range is the common prefix of its first and last keys.
  const KeyView first{items.front().first};
  const KeyView last{items.back().first};
  const std::size_t lcp =
      CommonPrefixLength(first.subspan(depth), last.subspan(depth));
  assert(depth + lcp < first.size() && "keys must be prefix-free");
  const std::size_t at = depth + lcp;  // the discriminating byte

  // Count the children first, so the node is allocated in its final size
  // before its subtree: nodes and leaves then lie in key order, as sorted
  // inserts leave them, which is what an in-order scan reads.
  std::size_t children = 1;
  for (std::size_t i = 1; i < items.size(); ++i) {
    children += items[i].first[at] != items[i - 1].first[at];
  }
  Node* node;
  if (children <= 4) {
    node = new Node4;
  } else if (children <= 16) {
    node = new Node16;
  } else if (children <= 32) {
    node = new Node32;
  } else if (children <= 48) {
    node = new Node48;
  } else {
    node = new Node256;
  }
  SetPrefixFromKey(node, first, depth, static_cast<std::uint32_t>(lcp));
  for (std::size_t begin = 0; begin < items.size();) {
    const std::uint8_t byte = items[begin].first[at];
    std::size_t end = begin + 1;
    while (end < items.size() && items[end].first[at] == byte) ++end;
    AddChild(node, byte,
             BuildSorted(items.subspan(begin, end - begin), at + 1, count));
    begin = end;
  }
  return NodeRef::FromNode(node);
}

}  // namespace

void Tree::BulkLoadSorted(std::span<const std::pair<Key, Value>> items) {
  assert(root_.IsNull() && "BulkLoadSorted requires an empty tree");
  if (items.empty()) return;
  assert(std::is_sorted(items.begin(), items.end(),
                        [](const auto& a, const auto& b) {
                          return CompareKeys(a.first, b.first) < 0;
                        }));
  std::size_t count = 0;
  root_ = BuildSorted(items, 0, count);
  size_ = count;
}

std::optional<Key> Tree::MinKey() const {
  if (root_.IsNull()) return std::nullopt;
  const KeyView key = Minimum(root_)->key();
  return Key(key.begin(), key.end());
}

std::optional<Key> Tree::MaxKey() const {
  if (root_.IsNull()) return std::nullopt;
  const KeyView key = Maximum(root_)->key();
  return Key(key.begin(), key.end());
}

namespace {

std::size_t SubtreeHeight(NodeRef ref) {
  if (ref.IsNull()) return 0;
  if (ref.IsLeaf()) return 1;
  std::size_t deepest = 0;
  EnumerateChildren(ref.AsNode(), [&deepest](std::uint8_t, NodeRef child) {
    deepest = std::max(deepest, SubtreeHeight(child));
    return true;
  });
  return deepest + 1;
}

void AccumulateMemory(NodeRef ref, MemoryStats& stats) {
  if (ref.IsNull()) return;
  if (ref.IsLeaf()) {
    ++stats.leaves;
    stats.leaf_bytes += Leaf::BlockBytes(ref.AsLeaf()->key().size());
    return;
  }
  const Node* node = ref.AsNode();
  stats.internal_bytes += NodeSizeBytes(node->type);
  switch (node->type) {
    case NodeType::kN4:
      ++stats.n4;
      break;
    case NodeType::kN16:
      ++stats.n16;
      break;
    case NodeType::kN32:
      ++stats.n32;
      break;
    case NodeType::kN48:
      ++stats.n48;
      break;
    case NodeType::kN256:
      ++stats.n256;
      break;
  }
  EnumerateChildren(node, [&stats](std::uint8_t, NodeRef child) {
    AccumulateMemory(child, stats);
    return true;
  });
}

}  // namespace

std::size_t Tree::Height() const { return SubtreeHeight(root_); }

MemoryStats Tree::ComputeMemoryStats() const {
  MemoryStats stats;
  AccumulateMemory(root_, stats);
  return stats;
}

}  // namespace dcart::art
