// Snapshots in the fixed-width layout SaveTree wrote before SN3: magic
// "DCARTSN1" or "DCARTSN2", u64 count, then per entry in key order u32
// key_len, key bytes, u64 value (art/serialize.h).  Tests forge such files
// to check that LoadTree still reads what older builds left on disk.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "art/tree.h"

namespace dcart::test_util {

/// The legacy image of `tree`; `version` is '1' or '2'.
inline std::vector<std::uint8_t> LegacySnapshotImage(const art::Tree& tree,
                                                     char version) {
  std::vector<std::uint8_t> image = {'D', 'C', 'A', 'R', 'T', 'S', 'N',
                                     static_cast<std::uint8_t>(version)};
  const auto append = [&image](const void* data, std::size_t n) {
    const std::size_t pos = image.size();
    image.resize(pos + n);
    std::memcpy(image.data() + pos, data, n);
  };
  const std::uint64_t count = tree.size();
  append(&count, sizeof count);
  tree.ScanFrom({}, [&append](KeyView key, art::Value value) {
    const auto key_len = static_cast<std::uint32_t>(key.size());
    append(&key_len, sizeof key_len);
    append(key.data(), key.size());
    append(&value, sizeof value);
    return true;
  });
  return image;
}

inline void WriteBytesToFile(const std::string& path,
                             const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace dcart::test_util
