#include "resilience/journal.h"

#include <cstring>
#include <iterator>

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
  return Status::Ok();
}

void OpJournal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::uint64_t ReplayJournal(const std::string& path,
                            std::vector<Operation>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;

  std::uint64_t records = 0;
  char magic[sizeof kMagic];
  if (std::fread(magic, 1, sizeof magic, f) != sizeof magic ||
      std::memcmp(magic, kMagic, sizeof magic) != 0) {
    std::fclose(f);
    return 0;
  }

  const std::size_t checkpoint = out.size();
  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint32_t len = 0;
    std::uint32_t expected_crc = 0;
    if (std::fread(&len, sizeof len, 1, f) != 1 ||
        std::fread(&expected_crc, sizeof expected_crc, 1, f) != 1) {
      break;  // clean EOF or torn header
    }
    if (len > kMaxPayloadBytes) break;  // corrupt length field
    payload.resize(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) break;
    if (Crc32(payload.data(), payload.size()) != expected_crc) break;

    // Decode the payload.  A record that passed its CRC but does not parse
    // (or carries the wrong sequence) is treated like corruption: stop,
    // replaying nothing from it.
    std::uint64_t sequence = 0;
    const std::size_t record_start = out.size();
    const Status decoded = DecodeRecordPayload(payload, sequence, out);
    if (!decoded.ok() || sequence != records) {
      out.resize(record_start);
      break;
    }
    ++records;
  }
  std::fclose(f);
  if (records == 0) out.resize(checkpoint);
  return records;
}

}  // namespace dcart::resilience
