// The serial oracle the engine tests share: every engine, wrapper and
// failover path must leave exactly the state a serial op-for-op replay on a
// plain art::Tree leaves.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "art/serialize.h"
#include "art/tree.h"
#include "common/bytes.h"
#include "dcartc/parallel_runtime.h"
#include "workload/ops.h"

namespace dcart {

/// Serial ground truth: a stream applied op for op to a plain art::Tree,
/// counting what reads and scans found.
struct SerialReplay {
  art::Tree tree;
  std::uint64_t reads_hit = 0;
  std::uint64_t scan_entries = 0;

  void Load(const std::vector<std::pair<Key, art::Value>>& items) {
    for (const auto& [key, value] : items) tree.Insert(key, value);
  }
  void Apply(std::span<const Operation> ops) {
    for (const Operation& op : ops) {
      switch (op.type) {
        case OpType::kRead:
          if (tree.Get(op.key).has_value()) ++reads_hit;
          break;
        case OpType::kWrite:
          tree.Insert(op.key, op.value);
          break;
        case OpType::kRemove:
          tree.Remove(op.key);
          break;
        case OpType::kScan: {
          std::size_t entries = 0;
          tree.ScanFrom(op.key, [&entries, &op](KeyView, art::Value) {
            return ++entries < op.scan_count;
          });
          scan_entries += entries;
          break;
        }
      }
    }
  }
};

/// The serial replay of `w`'s load and its first `op_count` operations.
inline art::Tree ReplayPrefix(const Workload& w, std::size_t op_count) {
  SerialReplay replay;
  replay.Load(w.load_items);
  replay.Apply(std::span<const Operation>(w.ops).first(op_count));
  return std::move(replay.tree);
}

/// Full-state diff: every key in the reference is present with the same
/// value, and the sizes match (so no extra keys either).
inline void ExpectSameState(const dcartc::DcartCpEngine& engine,
                            const art::Tree& reference) {
  ASSERT_EQ(engine.tree().size(), reference.size());
  std::size_t checked = 0;
  reference.ScanFrom({}, [&](KeyView key, art::Value value) {
    const auto got = engine.Lookup(key);
    EXPECT_TRUE(got.has_value()) << "missing key after parallel run";
    if (got.has_value()) {
      EXPECT_EQ(*got, value);
    }
    ++checked;
    return true;
  });
  EXPECT_EQ(checked, reference.size());
}

/// Byte-identical compare of the two trees' SN3 images: EncodeTree writes
/// a tree's canonical sorted form, so equal images mean equal contents.
inline void ExpectTreesByteIdentical(const art::Tree& got,
                                     const art::Tree& want,
                                     const std::string& tag) {
  std::vector<std::uint8_t> got_bytes;
  std::vector<std::uint8_t> want_bytes;
  ASSERT_TRUE(art::EncodeTree(got, AppendTo(got_bytes))) << tag;
  ASSERT_TRUE(art::EncodeTree(want, AppendTo(want_bytes))) << tag;
  ASSERT_FALSE(want_bytes.empty());
  EXPECT_TRUE(got_bytes == want_bytes)
      << tag << ": trees differ (" << got_bytes.size() << " vs "
      << want_bytes.size() << " bytes)";
}

}  // namespace dcart
