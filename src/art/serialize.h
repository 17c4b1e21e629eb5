// Tree snapshot serialization: persist an ART to a file and reload it.
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
// Varints are LEB128 of at most 3 bytes (keys are at most 1 MiB).  Sorted
// keys share long prefixes, so front coding stores each key's new bytes
// only; the trailer lets a flipped bit anywhere in the image be rejected.
//
// LoadTree also reads the two earlier formats, which carry no checksum:
//   "DCARTSN1" / "DCARTSN2"  u64 count, per entry: u32 key_len, key bytes,
//                            u64 value
// SN2 == SN1 after the magic (bumped when Node32 joined the ladder).  No
// format stores node types, so any of them rebuilds with the current ladder.
#pragma once

#include <string>

#include "art/tree.h"

namespace dcart::art {

/// Write an SN3 snapshot of `tree` to `path`.  Returns false on I/O failure.
bool SaveTree(const Tree& tree, const std::string& path);

/// Load an SN1, SN2 or SN3 snapshot into `out` (must be empty).  Returns
/// false on I/O failure or a malformed file; `out` is left empty then.
bool LoadTree(const std::string& path, Tree& out);

}  // namespace dcart::art
