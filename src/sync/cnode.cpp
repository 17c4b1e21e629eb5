#include "sync/cnode.h"

#include <algorithm>

#include "common/simd.h"

namespace dcart::sync {

namespace {

const CNode4* AsN4(const CNode* n) { return static_cast<const CNode4*>(n); }
const CNode16* AsN16(const CNode* n) { return static_cast<const CNode16*>(n); }
const CNode32* AsN32(const CNode* n) { return static_cast<const CNode32*>(n); }
const CNode48* AsN48(const CNode* n) { return static_cast<const CNode48*>(n); }
const CNode256* AsN256(const CNode* n) {
  return static_cast<const CNode256*>(n);
}
CNode4* AsN4(CNode* n) { return static_cast<CNode4*>(n); }
CNode16* AsN16(CNode* n) { return static_cast<CNode16*>(n); }
CNode32* AsN32(CNode* n) { return static_cast<CNode32*>(n); }
CNode48* AsN48(CNode* n) { return static_cast<CNode48*>(n); }
CNode256* AsN256(CNode* n) { return static_cast<CNode256*>(n); }

void CopyHeader(CNode* dst, const CNode* src) {
  dst->stored_prefix_len = src->stored_prefix_len;
  dst->prefix_len = src->prefix_len;
  dst->prefix = src->prefix;
}

}  // namespace

CRef CFindChild(const CNode* node, std::uint8_t b) {
  switch (node->type) {
    case NodeType::kN4: {
      const auto* n = AsN4(node);
      const std::uint16_t count = RelaxedLoad(n->count);
      for (std::uint16_t i = 0; i < count && i < 4; ++i) {
        if (RelaxedLoad(n->keys[i]) == b) return LoadSlot(n->children[i]);
      }
      return {};
    }
    case NodeType::kN16: {
      const auto* n = AsN16(node);
      const std::uint16_t count = RelaxedLoad(n->count);
#if DCART_SIMD_X86
      // Vector load over the concurrently-mutated key bytes: byte-wise the
      // same values the relaxed scalar loop would read, and the caller's
      // ReadUnlockOrRestart validation catches any torn view.  Compiled out
      // under TSan (a plain 16-byte load is a formal race) — see
      // common/simd.h.
      const int i = simd::FindKeyByte16(n->keys.data(), count, b);
      return i < 0 ? CRef{}
                   : LoadSlot(n->children[static_cast<std::size_t>(i)]);
#else
      for (std::uint16_t i = 0; i < count && i < 16; ++i) {
        if (RelaxedLoad(n->keys[i]) == b) return LoadSlot(n->children[i]);
      }
      return {};
#endif
    }
    case NodeType::kN32: {
      const auto* n = AsN32(node);
      const std::uint16_t count = RelaxedLoad(n->count);
#if DCART_SIMD_X86
      const int i = simd::FindKeyByte32(n->keys.data(), count, b);
      return i < 0 ? CRef{}
                   : LoadSlot(n->children[static_cast<std::size_t>(i)]);
#else
      for (std::uint16_t i = 0; i < count && i < 32; ++i) {
        if (RelaxedLoad(n->keys[i]) == b) return LoadSlot(n->children[i]);
      }
      return {};
#endif
    }
    case NodeType::kN48: {
      const auto* n = AsN48(node);
      const std::uint8_t slot = RelaxedLoad(n->child_index[b]);
      if (slot == CNode48::kEmptySlot || slot >= 48) return {};
      return LoadSlot(n->children[slot]);
    }
    case NodeType::kN256:
      return LoadSlot(AsN256(node)->children[b]);
  }
  return {};
}

CSlot* CFindChildSlot(CNode* node, std::uint8_t b) {
  switch (node->type) {
    case NodeType::kN4: {
      auto* n = AsN4(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (n->keys[i] == b) return &n->children[i];
      }
      return nullptr;
    }
    case NodeType::kN16: {
      // Writer-side (exclusive under the lock), so the plain vector load is
      // race-free; falls back to the scalar loop when SIMD is compiled out.
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
      return slot == CNode48::kEmptySlot ? nullptr : &n->children[slot];
    }
    case NodeType::kN256: {
      auto* n = AsN256(node);
      return LoadSlot(n->children[b]).IsNull() ? nullptr : &n->children[b];
    }
  }
  return nullptr;
}

CLeaf* CMinimum(CRef ref) {
  assert(!ref.IsNull());
  while (!ref.IsLeaf()) {
    CRef first;
    CEnumerateChildren(ref.AsNode(), [&first](std::uint8_t, CRef child) {
      first = child;
      return false;
    });
    assert(!first.IsNull());
    ref = first;
  }
  return ref.AsLeaf();
}

bool CEnumerateChildren(const CNode* node,
                        const std::function<bool(std::uint8_t, CRef)>& fn) {
  switch (node->type) {
    case NodeType::kN4: {
      const auto* n = AsN4(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (!fn(n->keys[i], LoadSlot(n->children[i]))) return false;
      }
      return true;
    }
    case NodeType::kN16: {
      const auto* n = AsN16(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (!fn(n->keys[i], LoadSlot(n->children[i]))) return false;
      }
      return true;
    }
    case NodeType::kN32: {
      const auto* n = AsN32(node);
      for (std::uint16_t i = 0; i < n->count; ++i) {
        if (!fn(n->keys[i], LoadSlot(n->children[i]))) return false;
      }
      return true;
    }
    case NodeType::kN48: {
      const auto* n = AsN48(node);
      for (int b = 0; b < 256; ++b) {
        const std::uint8_t slot = n->child_index[b];
        if (slot != CNode48::kEmptySlot) {
          if (!fn(static_cast<std::uint8_t>(b), LoadSlot(n->children[slot]))) {
            return false;
          }
        }
      }
      return true;
    }
    case NodeType::kN256: {
      const auto* n = AsN256(node);
      for (int b = 0; b < 256; ++b) {
        const CRef child = LoadSlot(n->children[b]);
        if (!child.IsNull()) {
          if (!fn(static_cast<std::uint8_t>(b), child)) return false;
        }
      }
      return true;
    }
  }
  return true;
}

bool CIsFull(const CNode* node) {
  // Relaxed, not plain: OLC probes fullness optimistically before the lock
  // upgrade (the upgrade's version check invalidates a stale answer), so
  // this read can race with a locked writer's count store.
  const std::uint16_t count = RelaxedLoad(node->count);
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
      return false;
  }
  return false;
}

void CAddChild(CNode* node, std::uint8_t b, CRef child) {
  assert(!CIsFull(node));
  switch (node->type) {
    case NodeType::kN4: {
      auto* n = AsN4(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] < b) ++pos;
      for (std::uint16_t i = n->count; i > pos; --i) {
        RelaxedStore(n->keys[i], n->keys[i - 1]);
        StoreSlot(n->children[i], LoadSlot(n->children[i - 1]));
      }
      RelaxedStore(n->keys[pos], b);
      StoreSlot(n->children[pos], child);
      break;
    }
    case NodeType::kN16: {
      auto* n = AsN16(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] < b) ++pos;
      for (std::uint16_t i = n->count; i > pos; --i) {
        RelaxedStore(n->keys[i], n->keys[i - 1]);
        StoreSlot(n->children[i], LoadSlot(n->children[i - 1]));
      }
      RelaxedStore(n->keys[pos], b);
      StoreSlot(n->children[pos], child);
      break;
    }
    case NodeType::kN32: {
      auto* n = AsN32(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] < b) ++pos;
      for (std::uint16_t i = n->count; i > pos; --i) {
        RelaxedStore(n->keys[i], n->keys[i - 1]);
        StoreSlot(n->children[i], LoadSlot(n->children[i - 1]));
      }
      RelaxedStore(n->keys[pos], b);
      StoreSlot(n->children[pos], child);
      break;
    }
    case NodeType::kN48: {
      auto* n = AsN48(node);
      assert(n->child_index[b] == CNode48::kEmptySlot);
      // CRemoveChild compacts, so slots 0..count-1 are dense and count is
      // the first free slot.
      const auto slot = static_cast<std::uint8_t>(n->count);
      assert(LoadSlot(n->children[slot]).IsNull());
      StoreSlot(n->children[slot], child);
      RelaxedStore(n->child_index[b], slot);
      break;
    }
    case NodeType::kN256: {
      auto* n = AsN256(node);
      StoreSlot(n->children[b], child);
      break;
    }
  }
  RelaxedStore(node->count, static_cast<std::uint16_t>(node->count + 1));
}

void CRemoveChild(CNode* node, std::uint8_t b) {
  switch (node->type) {
    case NodeType::kN4: {
      auto* n = AsN4(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] != b) ++pos;
      assert(pos < n->count);
      for (std::uint16_t i = pos; i + 1 < n->count; ++i) {
        RelaxedStore(n->keys[i], n->keys[i + 1]);
        StoreSlot(n->children[i], LoadSlot(n->children[i + 1]));
      }
      StoreSlot(n->children[n->count - 1], CRef{});
      break;
    }
    case NodeType::kN16: {
      auto* n = AsN16(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] != b) ++pos;
      assert(pos < n->count);
      for (std::uint16_t i = pos; i + 1 < n->count; ++i) {
        RelaxedStore(n->keys[i], n->keys[i + 1]);
        StoreSlot(n->children[i], LoadSlot(n->children[i + 1]));
      }
      StoreSlot(n->children[n->count - 1], CRef{});
      break;
    }
    case NodeType::kN32: {
      auto* n = AsN32(node);
      std::uint16_t pos = 0;
      while (pos < n->count && n->keys[pos] != b) ++pos;
      assert(pos < n->count);
      for (std::uint16_t i = pos; i + 1 < n->count; ++i) {
        RelaxedStore(n->keys[i], n->keys[i + 1]);
        StoreSlot(n->children[i], LoadSlot(n->children[i + 1]));
      }
      StoreSlot(n->children[n->count - 1], CRef{});
      break;
    }
    case NodeType::kN48: {
      auto* n = AsN48(node);
      const std::uint8_t slot = n->child_index[b];
      assert(slot != CNode48::kEmptySlot);
      RelaxedStore(n->child_index[b], CNode48::kEmptySlot);
      // Keep slots 0..count-1 dense (CAddChild relies on it): move the last
      // occupied slot into the hole.  Optimistic readers may transiently see
      // the moved child at both slots or at neither; their version
      // validation restarts them — same contract as the N4/N16 shifts above.
      const auto last = static_cast<std::uint8_t>(n->count - 1);
      if (slot != last) {
        StoreSlot(n->children[slot], LoadSlot(n->children[last]));
        for (int bi = 0; bi < 256; ++bi) {
          if (n->child_index[bi] == last) {
            RelaxedStore(n->child_index[bi], slot);
            break;
          }
        }
      }
      StoreSlot(n->children[last], CRef{});
      break;
    }
    case NodeType::kN256: {
      StoreSlot(AsN256(node)->children[b], CRef{});
      break;
    }
  }
  RelaxedStore(node->count, static_cast<std::uint16_t>(node->count - 1));
}

CNode* CGrown(const CNode* node) {
  switch (node->type) {
    case NodeType::kN4: {
      const auto* src = AsN4(node);
      auto* dst = new CNode16;
      CopyHeader(dst, src);
      for (std::uint16_t i = 0; i < src->count; ++i) {
        dst->keys[i] = src->keys[i];
        StoreSlot(dst->children[i], LoadSlot(src->children[i]));
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN16: {
      const auto* src = AsN16(node);
      auto* dst = new CNode32;
      CopyHeader(dst, src);
      for (std::uint16_t i = 0; i < src->count; ++i) {
        dst->keys[i] = src->keys[i];
        StoreSlot(dst->children[i], LoadSlot(src->children[i]));
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN32: {
      const auto* src = AsN32(node);
      auto* dst = new CNode48;
      CopyHeader(dst, src);
      for (std::uint16_t i = 0; i < src->count; ++i) {
        StoreSlot(dst->children[i], LoadSlot(src->children[i]));
        dst->child_index[src->keys[i]] = static_cast<std::uint8_t>(i);
      }
      dst->count = src->count;
      return dst;
    }
    case NodeType::kN48: {
      const auto* src = AsN48(node);
      auto* dst = new CNode256;
      CopyHeader(dst, src);
      for (int b = 0; b < 256; ++b) {
        const std::uint8_t slot = src->child_index[b];
        if (slot != CNode48::kEmptySlot) {
          StoreSlot(dst->children[b], LoadSlot(src->children[slot]));
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

void CSetPrefix(CNode* node, const std::uint8_t* bytes, std::uint32_t len) {
  const auto stored =
      static_cast<std::uint8_t>(std::min<std::uint32_t>(len, kMaxStoredPrefix));
  for (std::uint8_t i = 0; i < stored; ++i) {
    RelaxedStore(node->prefix[i], bytes[i]);
  }
  RelaxedStore(node->stored_prefix_len, stored);
  RelaxedStore(node->prefix_len, len);
}

void CSetPrefixFromKey(CNode* node, KeyView full_key, std::size_t offset,
                       std::uint32_t len) {
  assert(offset + len <= full_key.size());
  CSetPrefix(node, full_key.data() + offset, len);
}

void CDeleteNode(CNode* node) {
  switch (node->type) {
    case NodeType::kN4:
      delete static_cast<CNode4*>(node);
      break;
    case NodeType::kN16:
      delete static_cast<CNode16*>(node);
      break;
    case NodeType::kN32:
      delete static_cast<CNode32*>(node);
      break;
    case NodeType::kN48:
      delete static_cast<CNode48*>(node);
      break;
    case NodeType::kN256:
      delete static_cast<CNode256*>(node);
      break;
  }
}

void CDestroySubtree(CRef ref) {
  if (ref.IsNull()) return;
  if (ref.IsLeaf()) {
    ref.AsLeaf()->Delete();
    return;
  }
  CNode* node = ref.AsNode();
  CEnumerateChildren(node, [](std::uint8_t, CRef child) {
    CDestroySubtree(child);
    return true;
  });
  CDeleteNode(node);
}

std::size_t CNodeSizeBytes(NodeType type) {
  switch (type) {
    case NodeType::kN4:
      return sizeof(CNode4);
    case NodeType::kN16:
      return sizeof(CNode16);
    case NodeType::kN32:
      return sizeof(CNode32);
    case NodeType::kN48:
      return sizeof(CNode48);
    case NodeType::kN256:
      return sizeof(CNode256);
  }
  return 0;
}

}  // namespace dcart::sync
