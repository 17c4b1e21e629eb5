#include "workload/trace_io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "resilience/fault_injector.h"

namespace dcart {

namespace {

constexpr char kMagic[8] = {'D', 'C', 'W', 'T', 'R', 'C', '0', '2'};
// Smallest possible load item (u32 key_len + u64 value) and operation
// (u8 type + u32 key_len + u64 value + u32 scan_count) on disk.
constexpr std::uint64_t kMinItemBytes = 4 + 8;
constexpr std::uint64_t kMinOpBytes = 1 + 4 + 8 + 4;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// The injected short write/read models a crash or full disk mid-transfer:
/// half the bytes move, then the call fails — producing exactly the torn
/// files the loader bounds checks must survive.
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

template <typename T>
bool WritePod(std::FILE* f, T value) {
  return WriteBytes(f, &value, sizeof value);
}

template <typename T>
bool ReadPod(std::FILE* f, T& value) {
  return ReadBytes(f, &value, sizeof value);
}

bool WriteKey(std::FILE* f, const Key& key) {
  return WritePod(f, static_cast<std::uint32_t>(key.size())) &&
         WriteBytes(f, key.data(), key.size());
}

bool ReadKey(std::FILE* f, Key& key) {
  std::uint32_t len = 0;
  if (!ReadPod(f, len)) return false;
  // Keys beyond 1 MiB indicate a corrupt file, not a real key; so does a
  // length the file's remaining bytes cannot possibly cover.
  if (len > (1u << 20)) return false;
  if (len > 0) {
    const long remaining = RemainingBytes(f);
    if (remaining < 0 || len > static_cast<std::uint64_t>(remaining)) {
      return false;
    }
  }
  key.resize(len);
  return len == 0 || ReadBytes(f, key.data(), len);
}

}  // namespace

bool SaveWorkload(const Workload& workload, const std::string& path) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  if (!WriteBytes(f.get(), kMagic, sizeof kMagic)) return false;
  if (!WritePod(f.get(), static_cast<std::uint32_t>(workload.name.size())) ||
      !WriteBytes(f.get(), workload.name.data(), workload.name.size())) {
    return false;
  }
  if (!WritePod(f.get(),
                static_cast<std::uint64_t>(workload.load_items.size()))) {
    return false;
  }
  for (const auto& [key, value] : workload.load_items) {
    if (!WriteKey(f.get(), key) || !WritePod(f.get(), value)) return false;
  }
  if (!WritePod(f.get(), static_cast<std::uint64_t>(workload.ops.size()))) {
    return false;
  }
  for (const Operation& op : workload.ops) {
    if (!WritePod(f.get(), static_cast<std::uint8_t>(op.type)) ||
        !WriteKey(f.get(), op.key) || !WritePod(f.get(), op.value) ||
        !WritePod(f.get(), op.scan_count)) {
      return false;
    }
  }
  return true;
}

namespace {

/// The body of LoadWorkload: parse the open file into `out`, which is left
/// partly filled on failure.
bool ReadWorkload(std::FILE* f, Workload& out) {
  char magic[sizeof kMagic];
  if (!ReadBytes(f, magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return false;
  }
  std::uint32_t name_len = 0;
  if (!ReadPod(f, name_len) || name_len > 4096) return false;
  out.name.resize(name_len);
  if (name_len > 0 && !ReadBytes(f, out.name.data(), name_len)) {
    return false;
  }
  std::uint64_t load_count = 0;
  if (!ReadPod(f, load_count)) return false;
  // Corrupt counts must not drive allocations the file cannot back: cap
  // every count by what the remaining bytes could physically encode.
  long remaining = RemainingBytes(f);
  if (remaining < 0 ||
      load_count > static_cast<std::uint64_t>(remaining) / kMinItemBytes) {
    return false;
  }
  // Tree keys are never empty (art::Tree::Insert), so an empty load or
  // write key is corruption, not a workload an engine could run.  Reads
  // and removes of an empty key are misses every engine answers.
  out.load_items.reserve(load_count);
  for (std::uint64_t i = 0; i < load_count; ++i) {
    Key key;
    art::Value value = 0;
    if (!ReadKey(f, key) || key.empty() || !ReadPod(f, value)) return false;
    out.load_items.emplace_back(std::move(key), value);
  }
  std::uint64_t op_count = 0;
  if (!ReadPod(f, op_count)) return false;
  remaining = RemainingBytes(f);
  if (remaining < 0 ||
      op_count > static_cast<std::uint64_t>(remaining) / kMinOpBytes) {
    return false;
  }
  out.ops.reserve(op_count);
  for (std::uint64_t i = 0; i < op_count; ++i) {
    std::uint8_t type = 0;
    Operation op;
    // kRemove encodes as 3 — `type > 3` (not > 2) or removes in a saved
    // trace would be rejected as corruption on the way back in.
    if (!ReadPod(f, type) || type > 3 || !ReadKey(f, op.key) ||
        !ReadPod(f, op.value) || !ReadPod(f, op.scan_count)) {
      return false;
    }
    op.type = static_cast<OpType>(type);
    if (op.type == OpType::kWrite && op.key.empty()) return false;
    out.ops.push_back(std::move(op));
  }
  return true;
}

}  // namespace

bool LoadWorkload(const std::string& path, Workload& out) {
  out = Workload{};
  File f(std::fopen(path.c_str(), "rb"));
  if (f && ReadWorkload(f.get(), out)) return true;
  out = Workload{};
  return false;
}

}  // namespace dcart
