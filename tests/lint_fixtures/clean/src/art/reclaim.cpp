#include "sync/epoch.h"

struct Node { Node* child; };

namespace {

// Teardown helper: single-threaded by contract, so direct delete is fine
// and the *Delete* symbol name sanctions it.
void DeleteSubtree(Node* n) {
  delete n;
}

}  // namespace

void Remove(EpochManager& epochs, std::size_t tid, Node* n) {
  epochs.Retire(tid, [n] { delete n; });
}

void Teardown(Node* root) { DeleteSubtree(root); }

// Factory-built leaves free through Delete(); the same contexts sanction it.
struct Leaf { void Delete(); };

void RemoveLeaf(EpochManager& epochs, std::size_t tid, Leaf* leaf) {
  epochs.Retire(tid, [leaf] { leaf->Delete(); });
}

void DestroyLeaf(Leaf* leaf) { leaf->Delete(); }
