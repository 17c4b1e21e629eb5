// Byte-string keys and small helpers shared across the whole project.
//
// ART is a trie over binary-comparable byte strings.  Every engine in this
// repository (the core tree, the concurrent baselines, the DCART simulator)
// operates on `Key`, a plain byte vector.  Encoders that turn integers /
// strings / IPs into binary-comparable keys live in key_codec.h.
//
// ByteWriter and ByteReader are the one writer and the one reader every
// durable and wire format goes through: SN1-SN3 snapshots, DCWTRC02
// traces, DCJRNL01 journals and their record payloads, and the
// replication wire header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace dcart {

using Key = std::vector<std::uint8_t>;
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
