#include "resilience/journal.h"

#include <cstring>
#include <filesystem>
#include <iterator>

#include "art/serialize.h"
#include "common/crc32.h"
#include "resilience/fault_injector.h"
#include "workload/trace_io.h"

namespace dcart::resilience {

namespace {

constexpr char kMagic[8] = {'D', 'C', 'J', 'R', 'N', 'L', '0', '1'};

/// Replay needs only the ops that change the tree: reads and scans are
/// answered at execution time and leave nothing to redo.
bool ChangesState(OpType type) {
  return type == OpType::kWrite || type == OpType::kRemove;
}

}  // namespace

std::uint32_t EncodeRecordPayload(std::uint64_t sequence,
                                  std::span<const Operation> ops,
                                  std::vector<std::uint8_t>& payload) {
  payload.clear();
  ByteWriter out(payload);
  out.Pod(sequence);
  std::uint32_t op_count = 0;
  out.Pod(op_count);  // patched once the ops are counted
  for (const Operation& op : ops) {
    if (!ChangesState(op.type)) continue;
    EncodeOp(op, out);
    ++op_count;
  }
  out.PodAt(sizeof sequence, op_count);
  return Crc32(payload.data(), payload.size());
}

Status DecodeRecordPayload(std::span<const std::uint8_t> payload,
                           std::uint64_t& sequence,
                           std::vector<Operation>& out) {
  ByteReader in(payload);
  std::uint32_t op_count = 0;
  if (!in.Pod(sequence) || !in.Pod(op_count)) {
    return Status::Error("record payload truncated in header");
  }
  // Bound the count by the bytes that follow before reserving for it.
  if (op_count > in.remaining() / kMinOpBytes) {
    return Status::Error("record payload op_count exceeds its length");
  }
  std::vector<Operation> ops;
  ops.reserve(op_count);
  for (std::uint32_t i = 0; i < op_count; ++i) {
    Operation op;
    if (!DecodeOp(in, op)) {
      return Status::Error("record payload malformed at op " +
                           std::to_string(i));
    }
    if (!ChangesState(op.type)) continue;
    // An empty-key write would break a non-empty tree on replay (tree keys
    // are prefix-free).  An empty-key remove is a batch's no-op: the engine
    // acknowledges it and Tree::Remove finds no such key, here as there.
    if (op.type == OpType::kWrite && op.key.empty()) {
      return Status::Error("record payload has an empty write key at op " +
                           std::to_string(i));
    }
    ops.push_back(std::move(op));
  }
  if (in.remaining() != 0) {
    return Status::Error("record payload has trailing bytes");
  }
  out.insert(out.end(), std::make_move_iterator(ops.begin()),
             std::make_move_iterator(ops.end()));
  return Status::Ok();
}

OpJournal::~OpJournal() { Close(); }

bool OpJournal::Open(const std::string& path) {
  Close();
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return false;
  sequence_ = 0;
  if (std::fwrite(kMagic, 1, sizeof kMagic, file_) != sizeof kMagic) {
    Close();
    return false;
  }
  std::fflush(file_);
  bytes_ = sizeof kMagic;
  return true;
}

Status OpJournal::Append(std::span<const Operation> ops) {
  if (file_ == nullptr) return Status::Error("journal is not open");

  std::vector<std::uint8_t>& payload = scratch_;
  const std::uint32_t crc = EncodeRecordPayload(sequence_, ops, payload);

  const auto len = static_cast<std::uint32_t>(payload.size());
  if (std::fwrite(&len, sizeof len, 1, file_) != 1 ||
      std::fwrite(&crc, sizeof crc, 1, file_) != 1) {
    return Status::Error("journal header write failed");
  }
  // A crash mid-append leaves a torn record: the header is down but the
  // payload is cut short, which is exactly what ReplayJournal's CRC check
  // truncates.  Flush what made it out so the on-disk state is the one a
  // dying process would leave.
  if (FaultCheck(FaultSite::kCrashMidBatch)) {
    std::fwrite(payload.data(), 1, payload.size() / 2, file_);
    std::fflush(file_);
    return Status::Error("simulated crash mid-batch (torn journal record)");
  }
  if (std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size() ||
      std::fflush(file_) != 0) {
    return Status::Error("journal payload write failed");
  }
  ++sequence_;
  bytes_ += sizeof len + sizeof crc + payload.size();
  return Status::Ok();
}

void OpJournal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::uint64_t DecodeJournal(std::span<const std::uint8_t> image,
                            std::vector<Operation>& out) {
  ByteReader in(image);
  char magic[sizeof kMagic];
  if (!in.Bytes(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return 0;
  }
  std::uint64_t records = 0;
  for (;;) {
    // Stop at the end, a torn record (a length past the bytes left), a CRC
    // mismatch, or a record that passed its CRC but does not parse or
    // carries the wrong sequence; that record contributes nothing.
    const std::size_t record_start = out.size();
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::span<const std::uint8_t> payload;
    std::uint64_t sequence = 0;
    if (!in.Pod(len) || !in.Pod(crc) || !in.Span(len, payload) ||
        Crc32(payload.data(), payload.size()) != crc ||
        !DecodeRecordPayload(payload, sequence, out).ok() ||
        sequence != records) {
      out.resize(record_start);
      return records;
    }
    ++records;
  }
}

Status ReplayJournal(const std::string& path, std::vector<Operation>& out,
                     std::uint64_t* records) {
  std::vector<std::uint8_t> image;
  std::uint64_t decoded = 0;
  if (art::ReadFile(path, image)) {
    decoded = DecodeJournal(image, out);
  } else {
    std::error_code missing;
    if (std::filesystem::exists(path, missing) || missing) {
      return Status::Error("journal " + path + " exists but is unreadable");
    }
  }
  if (records != nullptr) *records = decoded;
  return Status::Ok();
}

}  // namespace dcart::resilience
