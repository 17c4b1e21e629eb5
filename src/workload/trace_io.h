// Binary workload (trace) serialization.
//
// Lets a workload — bulk-load set plus operation stream — be saved and
// replayed bit-exactly, and lets users run the harness on *real* traces
// (e.g. an actual GeoLite2 dump or a production key log) instead of the
// synthetic generators: convert the trace to this format and load it.
//
// Format (little-endian):
//   magic "DCWTRC02"
//   u32 name_len, name bytes
//   u64 load_count,  load items:  u32 key_len, key bytes, u64 value
//   u64 op_count,    operations:  u8 type, u32 key_len, key bytes, u64 value, u32 scan_count
//
// The operation encoding is the one DCJRNL01 journal records use too
// (resilience/journal.h): EncodeOp and DecodeOp below are its one copy.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "common/bytes.h"
#include "workload/ops.h"

namespace dcart {

/// The smallest encoded operation: type, key_len, value and scan_count
/// around an empty key.
inline constexpr std::size_t kMinOpBytes = 1 + 4 + 8 + 4;

/// Append `op` as u8 type, u32 key_len, key bytes, u64 value, u32
/// scan_count.
void EncodeOp(const Operation& op, ByteWriter& out);

/// Parse one operation; false when the bytes run out or the type is not
/// one of the four.  Any key length the bytes hold parses: a journal record
/// must replay every key the engine acknowledged.
bool DecodeOp(ByteReader& in, Operation& op);

/// Hand the DCWTRC02 image of `workload` to `sink` in pieces of about
/// 64 KiB.  False as soon as `sink` fails.
bool EncodeWorkload(const Workload& workload, const ByteSink& sink);

/// Parse a DCWTRC02 image into `out`.  Rejects a bad magic, a name over
/// 4096 bytes, a count the bytes cannot hold, a key over art::kMaxKeyBytes,
/// an op type past kRemove, an empty load or write key, and load and write
/// keys that are not prefix-free taken together (duplicates aside), since
/// all of them become tree keys.  Reads, removes and scans may name any
/// key.  `out` is left empty on failure.
bool DecodeWorkload(std::span<const std::uint8_t> bytes, Workload& out);

/// Write `workload` to `path`.  Returns false on I/O failure.
bool SaveWorkload(const Workload& workload, const std::string& path);

/// Read the file at `path` whole and DecodeWorkload it.  Returns false on
/// I/O failure or a malformed file (`out` is left empty then).
bool LoadWorkload(const std::string& path, Workload& out);

}  // namespace dcart
