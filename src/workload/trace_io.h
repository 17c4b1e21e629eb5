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
#pragma once

#include <string>

#include "workload/ops.h"

namespace dcart {

/// Write `workload` to `path`.  Returns false on I/O failure.
bool SaveWorkload(const Workload& workload, const std::string& path);

/// Read a workload from `path`.  Returns false on I/O failure or a
/// malformed file, which includes an empty load or write key (in which
/// case `out` is left empty).
bool LoadWorkload(const std::string& path, Workload& out);

}  // namespace dcart
