// Write-ahead operation journal: the durability half of the fault-tolerant
// execution layer.
//
// Before a batch executes, its writes and removes are appended as one framed
// record and flushed; a batch is *acknowledged* once its record is fully on
// disk.  Reads and scans change no state, so they are not journaled; a
// read-only batch still appends one record, with no ops, so every batch
// keeps its own sequence number.  After a crash, recovery loads the latest
// valid SaveTree snapshot and replays the journal tail — the CRC framing
// makes a torn or bit-flipped tail record detectable, so it is truncated
// rather than trusted.  Replay reads a journal whole and decodes the bytes
// in memory (DecodeJournal), so a forged length can never size a read or
// an allocation beyond the file.
//
// Format (little-endian; the per-op encoding is the DCWTRC02 trace's, one
// EncodeOp/DecodeOp pair in workload/trace_io.h):
//   magic "DCJRNL01"
//   record:  u32 payload_len, u32 crc32(payload), payload
//   payload: u64 sequence, u32 op_count,
//            per op: u8 type, u32 key_len, key bytes, u64 value,
//                    u32 scan_count
// The layout is the one records had when they held every op of a batch, so
// such older records, reads and scans included, still replay.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/ops.h"

namespace dcart::resilience {

/// The longest frame payload the replication wire framing accepts: a
/// record holds one batch, and a kSnapshot frame one SN3 tree image.  A
/// length field above it is corruption.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

// ------------------------------------------------------ record streaming --
// The journal's record payload encoding, exposed so the replication layer
// (resilience/replication.h) can ship *sealed journal records* — the exact
// bytes the primary made durable, CRC and all — instead of inventing a
// second wire format.  A record payload is:
//   u64 sequence, u32 op_count,
//   per op: u8 type, u32 key_len, key bytes, u64 value, u32 scan_count
// and the per-op part is EncodeOp/DecodeOp's (workload/trace_io.h).  Unlike
// a trace, a record bounds no key length: whatever the engine acknowledged
// must replay.

/// Serialize `sequence` and the writes and removes of `ops`, in order, into
/// `payload` (cleared first); op_count counts the ops encoded.  Returns the
/// CRC32 the journal framing would carry for it.
std::uint32_t EncodeRecordPayload(std::uint64_t sequence,
                                  std::span<const Operation> ops,
                                  std::vector<std::uint8_t>& payload);

/// Parse a record payload back into (sequence, ops-appended-to-out).  All
/// four op types parse; only writes and removes are appended, so an older
/// record holding reads and scans replays like a new one.  Rejects
/// malformed payloads (bad op type, an op_count or lengths that overrun the
/// payload, a write with an empty key) without touching `out` or
/// allocating for them; CRC verification is the caller's job — the replica
/// re-checks the frame CRC against the payload bytes before decoding.
Status DecodeRecordPayload(std::span<const std::uint8_t> payload,
                           std::uint64_t& sequence,
                           std::vector<Operation>& out);

class OpJournal {
 public:
  OpJournal() = default;
  ~OpJournal();

  OpJournal(const OpJournal&) = delete;
  OpJournal& operator=(const OpJournal&) = delete;

  /// Create/truncate the journal at `path` and write the magic.
  bool Open(const std::string& path);

  /// Append one record holding the writes and removes of `ops` (an empty
  /// record when there are none) and flush it to the OS.  On a torn
  /// write (injected kCrashMidBatch / kFileShortWrite, or a real I/O error)
  /// the record is left incomplete on disk and an error is returned — the
  /// batch is NOT acknowledged, and recovery will truncate the tear.
  Status Append(std::span<const Operation> ops);

  void Close();

  bool is_open() const { return file_ != nullptr; }
  std::uint64_t records() const { return sequence_; }
  /// The journal file's size: the magic plus every framed record appended
  /// since Open().
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t sequence_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<std::uint8_t> scratch_;  // payload build buffer, reused
};

/// Decode the valid prefix of a journal image: append the writes and
/// removes of its records to `out`, in order.  Parses the bytes through
/// one ByteReader, so every length is checked against the bytes present
/// before it drives a read or an allocation.  Stops at the end, the first
/// torn record, a CRC mismatch, a malformed payload or an out-of-order
/// sequence — everything before the stop point is intact by construction,
/// and nothing of the record it stops at is kept.  Returns the number of
/// complete records consumed (0 for an image without the magic).
std::uint64_t DecodeJournal(std::span<const std::uint8_t> image,
                            std::vector<Operation>& out);

/// DecodeJournal over the file at `path`, read whole through art::ReadFile
/// (the file-short-read fault site); the record count goes to `*records`
/// when it is given.  A missing journal holds no records.  One that exists
/// but cannot be read is an error naming it: replaying without it would
/// drop acknowledged batches.
Status ReplayJournal(const std::string& path, std::vector<Operation>& out,
                     std::uint64_t* records = nullptr);

}  // namespace dcart::resilience
