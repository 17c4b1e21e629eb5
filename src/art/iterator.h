// Stateful ordered iterator over an ART.
//
// Complements Tree::Scan (callback-driven) with pull-style iteration:
//   Iterator it(tree);
//   for (it.SeekToFirst(); it.Valid(); it.Next()) { it.key(); it.value(); }
//   it.Seek(lower_bound_key);   // first key >= bound
//
// The iterator holds an explicit descent stack.  It is invalidated by any
// tree mutation (standard single-writer iterator contract).
#pragma once

#include <cstdint>
#include <vector>

#include "art/node.h"
#include "art/tree.h"
#include "common/bytes.h"

namespace dcart::art {

class Iterator {
 public:
  explicit Iterator(const Tree& tree) : tree_(tree) {}

  /// Position on the smallest key; invalid if the tree is empty.
  void SeekToFirst();

  /// Position on the largest key; invalid if the tree is empty.
  void SeekToLast();

  /// Position on the first key >= `target`; invalid if none exists.
  void Seek(KeyView target);

  bool Valid() const { return current_ != nullptr; }

  /// Advance to the next key in order; becomes invalid past the last key.
  /// Precondition: Valid().
  void Next();

  /// Precondition: Valid().
  KeyView key() const { return current_->key(); }
  Value value() const { return current_->value; }

 private:
  struct Frame {
    const Node* node;
    // Index into the node's ordered child list (0-based position, not the
    // key byte), pointing at the child we descended into.
    int position;
  };

  /// Descend to the leftmost leaf under `ref`, pushing frames.
  void DescendToMin(NodeRef ref);

  /// Child of `node` at ordered position `pos` (null if past the end).
  static NodeRef ChildAt(const Node* node, int pos);

  const Tree& tree_;
  std::vector<Frame> stack_;
  const Leaf* current_ = nullptr;
};

}  // namespace dcart::art
