#include "art/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/crc32.h"
#include "resilience/fault_injector.h"

namespace dcart::art {

namespace {

constexpr char kMagic[8] = {'D', 'C', 'A', 'R', 'T', 'S', 'N', '3'};
constexpr char kMagicV2[8] = {'D', 'C', 'A', 'R', 'T', 'S', 'N', '2'};
constexpr char kMagicV1[8] = {'D', 'C', 'A', 'R', 'T', 'S', 'N', '1'};
// Smallest possible serialized entry: SN3 is two 1-byte varints, one suffix
// byte and the u64 value; SN1/SN2 a u32 key_len, one key byte and the value.
constexpr std::uint64_t kMinEntryBytes = 1 + 1 + 1 + 8;
constexpr std::uint64_t kMinLegacyEntryBytes = 4 + 1 + 8;
constexpr std::uint32_t kMaxKeyBytes = 1u << 20;
// 7 bits per varint byte: three bytes cover every length up to kMaxKeyBytes.
constexpr int kMaxVarintBytes = 3;
// SaveTree hands the file whole chunks of about this size, not entries.
constexpr std::size_t kChunkBytes = 64 << 10;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// All writes funnel through here so the kFileShortWrite site models a
/// process dying (or a disk filling) mid-write: part of the data lands,
/// then the write "fails" — leaving exactly the torn file a loader must
/// survive.
bool WriteBytes(std::FILE* f, const void* data, std::size_t n) {
  if (resilience::FaultCheck(resilience::FaultSite::kFileShortWrite)) {
    if (n > 1) std::fwrite(data, 1, n / 2, f);
    return false;
  }
  return std::fwrite(data, 1, n, f) == n;
}

bool ReadBytes(std::FILE* f, void* data, std::size_t n) {
  if (resilience::FaultCheck(resilience::FaultSite::kFileShortRead)) {
    if (n > 1) std::fread(data, 1, n / 2, f);
    return false;
  }
  return std::fread(data, 1, n, f) == n;
}

void AppendBytes(std::vector<std::uint8_t>& buffer, const void* data,
                 std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer.insert(buffer.end(), bytes, bytes + n);
}

template <typename T>
void AppendPod(std::vector<std::uint8_t>& buffer, T value) {
  AppendBytes(buffer, &value, sizeof value);
}

void AppendVarint(std::vector<std::uint8_t>& buffer, std::size_t value) {
  while (value >= 0x80) {
    buffer.push_back(static_cast<std::uint8_t>(value | 0x80));
    value >>= 7;
  }
  buffer.push_back(static_cast<std::uint8_t>(value));
}

/// Bytes from the current position to EOF, or -1 when unknowable.
long RemainingBytes(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (std::fseek(f, pos, SEEK_SET) != 0) return -1;
  return end >= pos ? end - pos : -1;
}

/// Bounds-checked reads over an in-memory image.  Every length field read
/// from a file is checked against remaining(), so a corrupt count or length
/// can never drive a read or an allocation past what the file holds.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  bool Read(void* out, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadPod(T& value) {
    return Read(&value, sizeof value);
  }

  /// LEB128 of at most kMaxVarintBytes bytes; a longer one is corrupt.
  bool ReadVarint(std::uint32_t& value) {
    value = 0;
    for (int i = 0; i < kMaxVarintBytes && pos_ < bytes_.size(); ++i) {
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

/// The tree's invariant, which BulkLoadSorted relies on: each key is
/// greater than its predecessor and does not extend it (keys are
/// prefix-free).
bool FollowsInOrder(KeyView prev, KeyView key) {
  const std::size_t lcp = CommonPrefixLength(prev, key);
  return lcp < prev.size() && lcp < key.size() && prev[lcp] < key[lcp];
}

}  // namespace

bool SaveTree(const Tree& tree, const std::string& path) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  std::vector<std::uint8_t> chunk;
  chunk.reserve(2 * kChunkBytes);
  std::uint32_t crc = 0;
  // Each chunk joins the running CRC as it is written, so the trailer
  // covers every byte before it without a second pass over the image.
  const auto flush = [&] {
    crc = Crc32(chunk.data(), chunk.size(), crc);
    const bool written = WriteBytes(f.get(), chunk.data(), chunk.size());
    chunk.clear();
    return written;
  };
  AppendBytes(chunk, kMagic, sizeof kMagic);
  AppendPod(chunk, static_cast<std::uint64_t>(tree.size()));
  bool ok = true;
  Key prev;
  if (!tree.empty()) {
    tree.ScanFrom(Key{}, [&](KeyView key, Value value) {
      const std::size_t shared = CommonPrefixLength(prev, key);
      AppendVarint(chunk, shared);
      AppendVarint(chunk, key.size() - shared);
      AppendBytes(chunk, key.data() + shared, key.size() - shared);
      AppendPod(chunk, value);
      prev.assign(key.begin(), key.end());
      if (chunk.size() >= kChunkBytes) ok = flush();
      return ok;
    });
  }
  if (!ok || !flush()) return false;
  return WriteBytes(f.get(), &crc, sizeof crc) && std::fflush(f.get()) == 0;
}

bool LoadTree(const std::string& path, Tree& out) {
  // Refuse (rather than debug-assert) so a release build cannot silently
  // merge a snapshot into a non-empty tree.
  if (!out.empty()) return false;
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  const long size = RemainingBytes(f.get());
  if (size < static_cast<long>(sizeof kMagic)) return false;
  std::vector<std::uint8_t> image(static_cast<std::size_t>(size));
  if (!ReadBytes(f.get(), image.data(), image.size())) return false;

  std::span<const std::uint8_t> body(image);
  const bool sn3 = std::memcmp(body.data(), kMagic, sizeof kMagic) == 0;
  if (!sn3 && std::memcmp(body.data(), kMagicV2, sizeof kMagic) != 0 &&
      std::memcmp(body.data(), kMagicV1, sizeof kMagic) != 0) {
    return false;
  }
  if (sn3) {
    // Verify the trailer before trusting any field it seals.
    std::uint32_t crc = 0;
    if (image.size() < sizeof kMagic + sizeof crc) return false;
    body = body.first(image.size() - sizeof crc);
    std::memcpy(&crc, image.data() + body.size(), sizeof crc);
    if (Crc32(body.data(), body.size()) != crc) return false;
  }
  Reader in(body.subspan(sizeof kMagic));

  std::uint64_t count = 0;
  if (!in.ReadPod(count)) return false;
  // A flipped bit in `count` must not become a multi-gigabyte reserve: the
  // file physically cannot hold more entries than its remaining bytes allow.
  if (count > in.remaining() / (sn3 ? kMinEntryBytes : kMinLegacyEntryBytes)) {
    return false;
  }
  std::vector<std::pair<Key, Value>> items;
  items.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const KeyView prev =
        items.empty() ? KeyView{} : KeyView{items.back().first};
    // The magic decides only how the key bytes are stored.
    std::uint32_t shared = 0;
    std::uint32_t stored = 0;
    if (sn3) {
      if (!in.ReadVarint(shared) || !in.ReadVarint(stored) ||
          shared > prev.size() || stored == 0) {
        return false;
      }
    } else if (!in.ReadPod(stored)) {
      return false;
    }
    const std::uint64_t key_len = std::uint64_t{shared} + stored;
    if (key_len == 0 || key_len > kMaxKeyBytes || stored > in.remaining()) {
      return false;
    }
    Key key(key_len);
    std::copy_n(prev.begin(), shared, key.begin());
    Value value = 0;
    if (!in.Read(key.data() + shared, stored) || !in.ReadPod(value)) {
      return false;
    }
    // The stream came from an in-order scan of a prefix-free key set.
    if (!items.empty() && !FollowsInOrder(prev, key)) return false;
    items.emplace_back(std::move(key), value);
  }
  if (in.remaining() != 0) return false;  // bytes no entry accounts for
  out.BulkLoadSorted(items);
  return true;
}

}  // namespace dcart::art
