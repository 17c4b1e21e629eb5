#include "workload/trace_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "art/serialize.h"

namespace dcart {

namespace {

constexpr char kMagic[8] = {'D', 'C', 'W', 'T', 'R', 'C', '0', '2'};
// Smallest possible load item on disk: u32 key_len + u64 value.
constexpr std::uint64_t kMinItemBytes = 4 + 8;
constexpr std::uint32_t kMaxNameBytes = 4096;
// EncodeWorkload hands its sink chunks of about this size.
constexpr std::size_t kChunkBytes = 64 << 10;

/// The body of DecodeWorkload: parse `bytes` into `out`, which is left
/// partly filled on failure.
bool ParseWorkload(std::span<const std::uint8_t> bytes, Workload& out) {
  ByteReader in(bytes);
  char magic[sizeof kMagic];
  std::uint32_t name_len = 0;
  if (!in.Bytes(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0 || !in.Pod(name_len) ||
      name_len > kMaxNameBytes) {
    return false;
  }
  out.name.resize(name_len);
  std::uint64_t load_count = 0;
  // Corrupt counts must not drive allocations the bytes cannot back: cap
  // every count by what the remaining bytes could physically encode.
  if (!in.Bytes(out.name.data(), name_len) || !in.Pod(load_count) ||
      load_count > in.remaining() / kMinItemBytes) {
    return false;
  }
  // Tree keys are never empty (art::Tree::Insert), so an empty load or
  // write key is corruption, not a workload an engine could run.  Reads
  // and removes of an empty key are misses every engine answers.
  out.load_items.resize(load_count);
  for (auto& [key, value] : out.load_items) {
    if (!in.Blob(key) || key.empty() || key.size() > art::kMaxKeyBytes ||
        !in.Pod(value)) {
      return false;
    }
  }
  std::uint64_t op_count = 0;
  if (!in.Pod(op_count) || op_count > in.remaining() / kMinOpBytes) {
    return false;
  }
  out.ops.resize(op_count);
  for (Operation& op : out.ops) {
    if (!DecodeOp(in, op) || op.key.size() > art::kMaxKeyBytes ||
        (op.type == OpType::kWrite && op.key.empty())) {
      return false;
    }
  }
  return true;
}

/// Load and write keys become tree keys, which must be prefix-free: sorted
/// and deduplicated, no key may extend its predecessor.
bool TreeKeysPrefixFree(const Workload& workload) {
  std::vector<KeyView> keys;
  keys.reserve(workload.load_items.size() + workload.ops.size());
  for (const auto& item : workload.load_items) keys.emplace_back(item.first);
  for (const Operation& op : workload.ops) {
    if (op.type == OpType::kWrite) keys.emplace_back(op.key);
  }
  std::sort(keys.begin(), keys.end(), [](KeyView a, KeyView b) {
    return CompareKeys(a, b) < 0;
  });
  keys.erase(std::unique(keys.begin(), keys.end(), KeysEqual), keys.end());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (!FollowsInOrder(keys[i - 1], keys[i])) return false;
  }
  return true;
}

}  // namespace

void EncodeOp(const Operation& op, ByteWriter& out) {
  out.Pod(static_cast<std::uint8_t>(op.type));
  out.Blob(op.key);
  out.Pod(op.value);
  out.Pod(op.scan_count);
}

bool DecodeOp(ByteReader& in, Operation& op) {
  // kRemove encodes as 3 — `type > 3` (not > 2) or removes would be
  // rejected as corruption on the way back in.
  std::uint8_t type = 0;
  if (!in.Pod(type) || type > 3 || !in.Blob(op.key) || !in.Pod(op.value) ||
      !in.Pod(op.scan_count)) {
    return false;
  }
  op.type = static_cast<OpType>(type);
  return true;
}

bool EncodeWorkload(const Workload& workload, const ByteSink& sink) {
  std::vector<std::uint8_t> chunk;
  ByteWriter out(chunk);
  const auto flush = [&] {
    const bool written = sink(chunk);
    chunk.clear();
    return written;
  };
  out.Bytes(kMagic, sizeof kMagic);
  out.Pod(static_cast<std::uint32_t>(workload.name.size()));
  out.Bytes(workload.name.data(), workload.name.size());
  out.Pod(static_cast<std::uint64_t>(workload.load_items.size()));
  for (const auto& [key, value] : workload.load_items) {
    out.Blob(key);
    out.Pod(value);
    if (chunk.size() >= kChunkBytes && !flush()) return false;
  }
  out.Pod(static_cast<std::uint64_t>(workload.ops.size()));
  for (const Operation& op : workload.ops) {
    EncodeOp(op, out);
    if (chunk.size() >= kChunkBytes && !flush()) return false;
  }
  return flush();
}

bool DecodeWorkload(std::span<const std::uint8_t> bytes, Workload& out) {
  out = Workload{};
  if (ParseWorkload(bytes, out) && TreeKeysPrefixFree(out)) return true;
  out = Workload{};
  return false;
}

bool SaveWorkload(const Workload& workload, const std::string& path) {
  return art::WriteFile(path, [&workload](const ByteSink& sink) {
    return EncodeWorkload(workload, sink);
  });
}

bool LoadWorkload(const std::string& path, Workload& out) {
  std::vector<std::uint8_t> bytes;
  if (art::ReadFile(path, bytes)) return DecodeWorkload(bytes, out);
  out = Workload{};
  return false;
}

}  // namespace dcart
