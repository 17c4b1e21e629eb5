#include "art/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
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
// 7 bits per varint byte: three bytes cover every length up to kMaxKeyBytes.
constexpr int kMaxVarintBytes = 3;
// EncodeTree hands its sink whole chunks of about this size, not entries.
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

/// Bytes from the current position to EOF, or -1 when unknowable.
long RemainingBytes(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (std::fseek(f, pos, SEEK_SET) != 0) return -1;
  return end >= pos ? end - pos : -1;
}

}  // namespace

bool EncodeTree(const Tree& tree, const ByteSink& sink) {
  std::vector<std::uint8_t> chunk;
  chunk.reserve(2 * kChunkBytes);
  ByteWriter out(chunk);
  std::uint32_t crc = 0;
  // Each chunk joins the running CRC as it is handed on, so the trailer
  // covers every byte before it without a second pass over the image.
  const auto flush = [&] {
    crc = Crc32(chunk.data(), chunk.size(), crc);
    const bool written = sink(chunk);
    chunk.clear();
    return written;
  };
  out.Bytes(kMagic, sizeof kMagic);
  out.Pod(static_cast<std::uint64_t>(tree.size()));
  bool ok = true;
  Key prev;
  tree.ScanFrom(Key{}, [&](KeyView key, Value value) {
    // A key DecodeTree would reject (one a Release build let into the
    // tree) stops the image short of its trailer: it never loads.
    if (key.empty() || key.size() > kMaxKeyBytes ||
        (!prev.empty() && !FollowsInOrder(prev, key))) {
      return ok = false;
    }
    const std::size_t shared = CommonPrefixLength(prev, key);
    out.Varint(shared);
    out.Varint(key.size() - shared);
    out.Bytes(key.data() + shared, key.size() - shared);
    out.Pod(value);
    prev.assign(key.begin(), key.end());
    if (chunk.size() >= kChunkBytes) ok = flush();
    return ok;
  });
  if (!ok || !flush()) return false;
  return sink({reinterpret_cast<const std::uint8_t*>(&crc), sizeof crc});
}

bool DecodeTree(std::span<const std::uint8_t> image, Tree& out) {
  // Refuse (rather than debug-assert) so a release build cannot silently
  // merge a snapshot into a non-empty tree.
  if (!out.empty() || image.size() < sizeof kMagic) return false;
  std::span<const std::uint8_t> body = image;
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
  ByteReader in(body.subspan(sizeof kMagic));

  std::uint64_t count = 0;
  if (!in.Pod(count)) return false;
  // A flipped bit in `count` must not become a multi-gigabyte reserve: the
  // image physically cannot hold more entries than its remaining bytes allow.
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
      if (!in.Varint<kMaxVarintBytes>(shared) ||
          !in.Varint<kMaxVarintBytes>(stored) || shared > prev.size() ||
          stored == 0) {
        return false;
      }
    } else if (!in.Pod(stored)) {
      return false;
    }
    const std::uint64_t key_len = std::uint64_t{shared} + stored;
    if (key_len == 0 || key_len > kMaxKeyBytes || stored > in.remaining()) {
      return false;
    }
    Key key(key_len);
    std::copy_n(prev.begin(), shared, key.begin());
    Value value = 0;
    if (!in.Bytes(key.data() + shared, stored) || !in.Pod(value)) {
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

bool SaveTree(const Tree& tree, const std::string& path) {
  return WriteFile(path, [&tree](const ByteSink& sink) {
    return EncodeTree(tree, sink);
  });
}

bool LoadTree(const std::string& path, Tree& out) {
  std::vector<std::uint8_t> image;
  return out.empty() && ReadFile(path, image) && DecodeTree(image, out);
}

bool WriteFile(const std::string& path,
               const std::function<bool(const ByteSink&)>& encode) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  const ByteSink sink = [&f](std::span<const std::uint8_t> piece) {
    return WriteBytes(f.get(), piece.data(), piece.size());
  };
  return encode(sink) && std::fflush(f.get()) == 0;
}

bool ReadFile(const std::string& path, std::vector<std::uint8_t>& bytes) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  const long size = RemainingBytes(f.get());
  if (size < 0) return false;
  bytes.resize(static_cast<std::size_t>(size));
  return ReadBytes(f.get(), bytes.data(), bytes.size());
}

}  // namespace dcart::art
