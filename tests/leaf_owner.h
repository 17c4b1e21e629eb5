// Owning handle for factory-built leaves in tests.
//
// A leaf is one heap block sized to its key (art/leaf.h), so it cannot
// live on the stack or by value in a container; tests that wire leaves
// into hand-built nodes hold them through this handle, which frees them
// with Delete().
#pragma once

#include <memory>

#include "art/leaf.h"
#include "common/bytes.h"

namespace dcart::test_util {

template <typename LeafT>
struct LeafDeleter {
  void operator()(LeafT* leaf) const { leaf->Delete(); }
};

template <typename LeafT>
using OwnedLeaf = std::unique_ptr<LeafT, LeafDeleter<LeafT>>;

template <typename LeafT>
OwnedLeaf<LeafT> MakeLeaf(KeyView key, art::Value value) {
  return OwnedLeaf<LeafT>(LeafT::New(key, value));
}

}  // namespace dcart::test_util
