// Single-value ART leaves: one heap block per key.
//
// A leaf is a 12-byte header — the value slot and the key length — with
// the key bytes stored right after it, so holding a key costs one
// allocation of 12 + key_len bytes and the key compare that ends every
// descent reads the same cache line as the value (libart's layout).  The
// layout is written once, as a template over the value slot: the
// single-threaded tree stores a plain Value, the concurrent trees (OLC and
// ROWEX) share one leaf, sync::CLeaf, whose value is a std::atomic<Value>
// that writers update in place.
//
// Leaves are created with New() and freed with Delete() only; the key is
// immutable after construction.
//
// The platform models do not charge this host struct: they charge
// ModeledLeafBytes(), pinned to the original two-block leaf, so modeled
// figures stay independent of how the host lays leaves out.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/bytes.h"
#include "common/check.h"

namespace dcart::art {

using Value = std::uint64_t;

template <typename Slot>
class BasicLeaf {
  static_assert(sizeof(Slot) == sizeof(Value) &&
                    alignof(Slot) == alignof(Value),
                "the value slot must be one 8-byte aligned word");

 public:
  /// Bytes ahead of the key: the value slot and the u32 key length.
  static constexpr std::size_t kHeaderBytes =
      sizeof(Slot) + sizeof(std::uint32_t);

  /// Allocate a leaf holding a copy of `key`.
  static BasicLeaf* New(KeyView key, Value value) {
    DCART_CHECK(key.size() <= UINT32_MAX, "leaf key exceeds its u32 length");
    void* block = ::operator new(BlockBytes(key.size()));
    auto* leaf =
        new (block) BasicLeaf(value, static_cast<std::uint32_t>(key.size()));
    if (!key.empty()) {
      std::memcpy(static_cast<std::uint8_t*>(block) + kHeaderBytes,
                  key.data(), key.size());
    }
    return leaf;
  }

  /// Free a leaf made by New().
  void Delete() {
    this->~BasicLeaf();
    ::operator delete(static_cast<void*>(this));
  }

  KeyView key() const {
    return {reinterpret_cast<const std::uint8_t*>(this) + kHeaderBytes,
            key_len_};
  }

  /// Bytes of the heap block holding a leaf with `key_len` key bytes:
  /// kHeaderBytes + key_len, never less than the header struct itself
  /// (whose alignment padding the first key bytes occupy).
  static constexpr std::size_t BlockBytes(std::size_t key_len) {
    return std::max(sizeof(BasicLeaf), kHeaderBytes + key_len);
  }

  Slot value;

 private:
  BasicLeaf(Value v, std::uint32_t key_len) : value(v), key_len_(key_len) {}
  ~BasicLeaf() = default;
  BasicLeaf(const BasicLeaf&) = delete;
  BasicLeaf& operator=(const BasicLeaf&) = delete;

  std::uint32_t key_len_;
};

/// Leaf of the single-threaded tree (the concurrent trees' leaf is
/// sync::CLeaf).
using Leaf = BasicLeaf<Value>;

/// Header bytes the platform models charge per leaf: the 32-byte header of
/// the original two-block leaf (a key vector plus the value).
inline constexpr std::size_t kModeledLeafHeaderBytes = 32;

/// Modeled size of a leaf holding `key_len` key bytes.
constexpr std::size_t ModeledLeafBytes(std::size_t key_len) {
  return kModeledLeafHeaderBytes + key_len;
}

}  // namespace dcart::art
