// Tree snapshot serialization: persist an ART to a file and reload it.
// EncodeTree and DecodeTree work on bytes; SaveTree and LoadTree are their
// file wrappers, and HA resync ships the same image in kSnapshot frames.
//
// The on-disk form is the sorted (key, value) stream — order is the tree's
// own invariant — so loading is a single O(n) BulkLoadSorted pass and the
// reloaded tree is structurally canonical regardless of the original
// insertion order.
//
// Format SN3 (little-endian), the only one SaveTree writes:
//   magic "DCARTSN3", u64 count
//   per entry, in key order:
//     varint shared      bytes shared with the previous key (0 on the first)
//     varint suffix_len  at least 1
//     suffix bytes
//     u64 value          fixed width: values are hashes or random numbers
//   u32 crc32 of every byte before it
// Varints are LEB128 of at most 3 bytes (keys are at most kMaxKeyBytes,
// 1 MiB, and prefix-free: none extends the key before it).  Sorted
// keys share long prefixes, so front coding stores each key's new bytes
// only; the trailer lets a flipped bit anywhere in the image be rejected.
//
// LoadTree also reads the two earlier formats, which carry no checksum:
//   "DCARTSN1" / "DCARTSN2"  u64 count, per entry: u32 key_len, key bytes,
//                            u64 value
// SN2 == SN1 after the magic (bumped when Node32 joined the ladder).  No
// format stores node types, so any of them rebuilds with the current ladder.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "art/tree.h"
#include "common/bytes.h"

namespace dcart::art {

/// The longest key a snapshot or a trace holds; a longer length field is
/// corruption.  Durable engines refuse writes of longer keys, so every
/// acknowledged write stays snapshottable.
inline constexpr std::uint32_t kMaxKeyBytes = 1u << 20;

/// Hand the SN3 image of `tree` to `sink` in pieces of about 64 KiB, the
/// CRC trailer last, so a file writer never holds the image whole.  False
/// as soon as `sink` fails, and before any byte of a tree holding a key
/// DecodeTree would reject (empty, longer than kMaxKeyBytes, or extending
/// its predecessor).  HA resync ships this same image (replication.h).
bool EncodeTree(const Tree& tree, const ByteSink& sink);

/// Parse an SN1, SN2 or SN3 image into `out` (must be empty): the magic and
/// CRC trailer, a count the bytes can hold, every key 1..kMaxKeyBytes long
/// and following its predecessor in order without extending it (keys are
/// prefix-free), and no trailing bytes.  False on a malformed image; `out`
/// is left empty then.  Ends in BulkLoadSorted.
bool DecodeTree(std::span<const std::uint8_t> image, Tree& out);

/// Write an SN3 snapshot of `tree` to `path`.  Returns false on I/O failure
/// or a tree EncodeTree refuses.
bool SaveTree(const Tree& tree, const std::string& path);

/// Load an SN1, SN2 or SN3 snapshot into `out` (must be empty).  Returns
/// false on I/O failure or a malformed file; `out` is left empty then.
bool LoadTree(const std::string& path, Tree& out);

// The fault-injected file I/O that snapshots and traces (workload/trace_io)
// go through: the kFileShortWrite and kFileShortRead sites fire here.

/// Create `path` and write to it every piece `encode` hands its sink.
/// False when a write, `encode` itself or the final flush fails; a short
/// write leaves the torn file a loader must reject.
bool WriteFile(const std::string& path,
               const std::function<bool(const ByteSink&)>& encode);

/// Read the whole file at `path` into `bytes`.
bool ReadFile(const std::string& path, std::vector<std::uint8_t>& bytes);

}  // namespace dcart::art
