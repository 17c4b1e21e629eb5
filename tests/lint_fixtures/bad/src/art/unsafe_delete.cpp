#include "sync/epoch.h"

struct Node { Node* child; };

void Remove(Node* n) {
  delete n;
}

struct Leaf { void Delete(); };

void RemoveLeaf(Leaf* leaf) {
  leaf->Delete();
}
