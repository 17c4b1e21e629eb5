// Byte-string keys and small helpers shared across the whole project.
//
// ART is a trie over binary-comparable byte strings.  Every engine in this
// repository (the core tree, the concurrent baselines, the DCART simulator)
// operates on `Key`, an owning byte string that keeps a short key inside
// the object (see the class), and reads through `KeyView`, a span over one.
// Encoders that turn integers / strings / IPs into binary-comparable keys
// live in key_codec.h.
//
// ByteWriter and ByteReader are the one writer and the one reader every
// durable and wire format goes through: SN1-SN3 snapshots, DCWTRC02
// traces, DCJRNL01 journals and their record payloads, and the
// replication wire header.
#pragma once

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace dcart {

/// A byte-string key with the part of `std::vector<std::uint8_t>`'s API the
/// code uses, in the vector's 24 bytes.  A key of up to kInlineCapacity
/// bytes lives inside the object; a longer one lives in one heap block.  So
/// a short key in a batch's `Operation` or in a load item costs no
/// allocation of its own and is read from its holder's bytes.
///
/// Layout (8-byte aligned):
///   inline: bytes [0, 22) the key, byte 22 its length, byte 23 zero;
///   heap:   bytes [0, 8) the block, [8, 12) the length, [12, 16) the
///           block's capacity, byte 23 non-zero.
///
/// A view or `data()` pointer into a `Key` is valid while that `Key` neither
/// moves nor grows.  Unlike a vector's heap buffer, inline bytes move with
/// the object: `std::move`, `swap` and the growth of a container of keys
/// (or of structs holding keys) all leave such a view dangling.
class Key {
 public:
  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  static constexpr size_type kInlineCapacity = 22;

  Key() noexcept = default;
  explicit Key(size_type n) { resize(n); }
  Key(size_type n, std::uint8_t byte) { assign(n, byte); }
  template <std::forward_iterator It>
  Key(It first, It last) {
    assign(first, last);
  }
  Key(std::initializer_list<std::uint8_t> bytes)
      : Key(bytes.begin(), bytes.end()) {}

  Key(const Key& other) { *this = other; }
  Key(Key&& other) noexcept { Take(other); }
  Key& operator=(const Key& other) {
    if (this == &other) return *this;
    if (!on_heap() && !other.on_heap()) {
      std::memcpy(rep_, other.rep_, sizeof rep_);  // bytes and length at once
    } else {
      assign(other.begin(), other.end());
    }
    return *this;
  }
  Key& operator=(Key&& other) noexcept {
    if (this != &other) {
      Free();
      Take(other);
    }
    return *this;
  }
  ~Key() { Free(); }

  bool on_heap() const noexcept { return rep_[kHeapFlag] != 0; }
  std::uint8_t* data() noexcept { return on_heap() ? HeapBlock() : rep_; }
  const std::uint8_t* data() const noexcept {
    return on_heap() ? HeapBlock() : rep_;
  }
  size_type size() const noexcept {
    return on_heap() ? HeapField(kHeapSize) : rep_[kInlineSize];
  }
  size_type capacity() const noexcept {
    return on_heap() ? HeapField(kHeapCapacity) : kInlineCapacity;
  }
  bool empty() const noexcept { return size() == 0; }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size(); }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size(); }

  // Inline bytes sit inside the object, so an over-read of a short key is
  // no address-sanitizer report; this assert is the bounds check.
  std::uint8_t& operator[](size_type i) noexcept {
    assert(i < size());
    return data()[i];
  }
  const std::uint8_t& operator[](size_type i) const noexcept {
    assert(i < size());
    return data()[i];
  }
  std::uint8_t& front() noexcept { return (*this)[0]; }
  const std::uint8_t& front() const noexcept { return (*this)[0]; }
  std::uint8_t& back() noexcept { return (*this)[size() - 1]; }
  const std::uint8_t& back() const noexcept { return (*this)[size() - 1]; }

  void reserve(size_type n) {
    if (n > capacity()) Reallocate(n);
  }
  void clear() noexcept { SetSize(0); }
  void resize(size_type n, std::uint8_t byte = 0) {
    const size_type old = size();
    if (n > old) std::memset(Grow(n) + old, byte, n - old);
    SetSize(n);
  }
  void push_back(std::uint8_t byte) {
    const size_type n = size();
    Grow(n + 1)[n] = byte;
    SetSize(n + 1);
  }
  void pop_back() noexcept {
    assert(!empty());
    SetSize(size() - 1);
  }

  void assign(size_type n, std::uint8_t byte) {
    if (n > capacity()) Reallocate(n, /*keep=*/0);
    std::memset(data(), byte, n);
    SetSize(n);
  }
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    if (n > capacity()) {
      std::uint8_t* block = Allocate(n);
      std::copy(first, last, block);
      Adopt(block, n);
    } else {
      std::copy(first, last, data());
    }
    SetSize(n);
  }

  iterator insert(const_iterator pos, std::uint8_t byte) {
    std::uint8_t* gap = OpenGap(pos, 1);
    *gap = byte;
    return gap;
  }
  template <std::forward_iterator It>
  iterator insert(const_iterator pos, It first, It last) {
    std::uint8_t* gap =
        OpenGap(pos, static_cast<size_type>(std::distance(first, last)));
    std::copy(first, last, gap);
    return gap;
  }

  iterator erase(const_iterator pos) noexcept { return erase(pos, pos + 1); }
  iterator erase(const_iterator first, const_iterator last) noexcept {
    std::uint8_t* bytes = data();
    const size_type at = static_cast<size_type>(first - bytes);
    const size_type n = static_cast<size_type>(last - first);
    const size_type old = size();
    std::memmove(bytes + at, bytes + at + n, old - at - n);
    SetSize(old - n);
    return bytes + at;
  }

  friend bool operator==(const Key& a, const Key& b) noexcept {
    const size_type n = a.size();
    return n == b.size() && std::memcmp(a.data(), b.data(), n) == 0;
  }
  /// The vector's order: lexicographic by unsigned byte, a prefix first.
  friend std::strong_ordering operator<=>(const Key& a,
                                          const Key& b) noexcept {
    const size_type n = std::min(a.size(), b.size());
    const int c = std::memcmp(a.data(), b.data(), n);
    if (c != 0) return c < 0 ? std::strong_ordering::less
                             : std::strong_ordering::greater;
    return a.size() <=> b.size();
  }

 private:
  // Byte offsets into rep_ (see the class comment).
  static constexpr size_type kHeapSize = 8;
  static constexpr size_type kHeapCapacity = 12;
  static constexpr size_type kInlineSize = kInlineCapacity;
  static constexpr size_type kHeapFlag = kInlineCapacity + 1;
  // The heap length and capacity fields are 32 bits wide.
  static constexpr size_type kMaxSize =
      std::numeric_limits<std::uint32_t>::max();

  std::uint8_t* HeapBlock() const noexcept {
    std::uint8_t* block;
    std::memcpy(&block, rep_, sizeof block);
    return block;
  }
  size_type HeapField(size_type at) const noexcept {
    std::uint32_t value;
    std::memcpy(&value, rep_ + at, sizeof value);
    return value;
  }
  void SetHeapField(size_type at, size_type value) noexcept {
    const auto narrow = static_cast<std::uint32_t>(value);
    std::memcpy(rep_ + at, &narrow, sizeof narrow);
  }
  void SetSize(size_type n) noexcept {
    if (on_heap()) {
      SetHeapField(kHeapSize, n);
    } else {
      rep_[kInlineSize] = static_cast<std::uint8_t>(n);
    }
  }

  static std::uint8_t* Allocate(size_type n) {
    if (n > kMaxSize) throw std::length_error("dcart::Key too long");
    return new std::uint8_t[n];
  }
  // Frees the old block, if any, and makes `block` (capacity n) the key's;
  // the caller sets the size.
  void Adopt(std::uint8_t* block, size_type n) noexcept {
    Free();
    std::memcpy(rep_, &block, sizeof block);
    SetHeapField(kHeapCapacity, n);
    rep_[kHeapFlag] = 1;
  }
  // Moves the first `keep` bytes into a heap block of `n` bytes.
  void Reallocate(size_type n, size_type keep) {
    std::uint8_t* block = Allocate(n);
    std::memcpy(block, data(), keep);
    Adopt(block, n);
    SetSize(keep);
  }
  void Reallocate(size_type n) { Reallocate(n, size()); }
  // Capacity for `n` bytes, growing by doubling the size as a vector does;
  // returns data().
  std::uint8_t* Grow(size_type n) {
    if (n > capacity()) {
      Reallocate(std::max(n, std::min(2 * size(), kMaxSize)));
    }
    return data();
  }
  // Shifts [pos, end) right by n bytes and returns the n-byte gap at pos.
  std::uint8_t* OpenGap(const_iterator pos, size_type n) {
    const size_type at = static_cast<size_type>(pos - begin());
    const size_type old = size();
    std::uint8_t* bytes = Grow(old + n);
    std::memmove(bytes + at + n, bytes + at, old - at);
    SetSize(old + n);
    return bytes + at;
  }
  void Free() noexcept {
    if (on_heap()) delete[] HeapBlock();
  }
  // Takes other's bytes (its block, if any) and leaves it empty.
  void Take(Key& other) noexcept {
    std::memcpy(rep_, other.rep_, sizeof rep_);
    std::memset(other.rep_, 0, sizeof other.rep_);
  }

  alignas(std::uint8_t*) std::uint8_t rep_[kInlineCapacity + 2] = {};
};

using KeyView = std::span<const std::uint8_t>;

/// Length of the longest common prefix of two byte strings.
inline std::size_t CommonPrefixLength(KeyView a, KeyView b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Three-way comparison with byte-wise (memcmp) semantics.
inline int CompareKeys(KeyView a, KeyView b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// True when `key` sorts after `prev` and does not extend it: the order of
/// a prefix-free key set, which tree keys are (key_codec.h).
inline bool FollowsInOrder(KeyView prev, KeyView key) {
  const std::size_t lcp = CommonPrefixLength(prev, key);
  return lcp < prev.size() && lcp < key.size() && prev[lcp] < key[lcp];
}

inline bool KeysEqual(KeyView a, KeyView b) {
  if (a.size() != b.size()) return false;
  if (a.size() == sizeof(std::uint64_t)) {
    // The dominant case (fixed 8-byte integer keys): two loads and a
    // compare, inlined — a libc memcmp call costs more than the compare.
    std::uint64_t x, y;
    std::memcpy(&x, a.data(), sizeof(x));
    std::memcpy(&y, b.data(), sizeof(y));
    return x == y;
  }
  return a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// Hex rendering for diagnostics ("0x0008a4...").
std::string ToHex(KeyView key, std::size_t max_bytes = 16);

/// FNV-1a over the key, folded a word at a time (with a byte-wise tail) so
/// hashing a typical 8-byte key is one xor-multiply instead of eight; used
/// by shortcut tables and bucket hashing.
inline std::uint64_t HashKey(KeyView key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, key.data() + i, sizeof(word));
    h = (h ^ word) * 0x100000001b3ull;
  }
  for (; i < key.size(); ++i) {
    h = (h ^ key[i]) * 0x100000001b3ull;
  }
  // One multiply per word mixes upward only; finalize so the low bits
  // (which index power-of-two tables) see the whole key.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

/// Takes encoded bytes a piece at a time (a file, a frame payload); false
/// stops the encoder.
using ByteSink = std::function<bool(std::span<const std::uint8_t>)>;

/// A sink that appends every piece to `out`.
inline ByteSink AppendTo(std::vector<std::uint8_t>& out) {
  return [&out](std::span<const std::uint8_t> piece) {
    out.insert(out.end(), piece.begin(), piece.end());
    return true;
  };
}

/// Appends fields to a byte buffer, little-endian (host order: every
/// supported target is little-endian).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void Bytes(const void* data, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, data, n);
  }

  template <typename T>
  void Pod(T value) {
    Bytes(&value, sizeof value);
  }

  /// Overwrite the `T` written at `pos`, a placeholder until it was known.
  template <typename T>
  void PodAt(std::size_t pos, T value) {
    std::memcpy(out_.data() + pos, &value, sizeof value);
  }

  /// u32 length, then the bytes.
  void Blob(KeyView bytes) {
    Pod(static_cast<std::uint32_t>(bytes.size()));
    Bytes(bytes.data(), bytes.size());
  }

  /// LEB128: 7 bits per byte, low bits first.
  void Varint(std::size_t value) {
    for (; value >= 0x80; value >>= 7) {
      out_.push_back(static_cast<std::uint8_t>(value | 0x80));
    }
    out_.push_back(static_cast<std::uint8_t>(value));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked reads over an in-memory image.  Every length read from
/// the input is checked against remaining() before it drives a read or an
/// allocation, so a corrupt count or length never reaches past the input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  bool Bytes(void* out, std::size_t n) {
    if (remaining() < n) return false;
    if (n > 0) std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool Pod(T& value) {
    return Bytes(&value, sizeof value);
  }

  /// The next `n` bytes in place, without a copy.
  bool Span(std::size_t n, std::span<const std::uint8_t>& out) {
    if (remaining() < n) return false;
    out = bytes_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  /// u32 length, then that many bytes into `out`.
  bool Blob(Key& out) {
    std::uint32_t len = 0;
    if (!Pod(len) || len > remaining()) return false;
    out.resize(len);
    return Bytes(out.data(), len);
  }

  /// LEB128 of at most `kMaxBytes` bytes; a longer one is corrupt.
  template <int kMaxBytes>
  bool Varint(std::uint32_t& value) {
    static_assert(kMaxBytes <= 5, "every 7-bit group must shift into a u32");
    value = 0;
    for (int i = 0; i < kMaxBytes && pos_ < bytes_.size(); ++i) {
      const std::uint8_t byte = bytes_[pos_++];
      value |= static_cast<std::uint32_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) return true;
    }
    return false;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace dcart
