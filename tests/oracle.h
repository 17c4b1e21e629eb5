// The serial oracle the engine tests share: every engine, wrapper and
// failover path must leave exactly the state a serial op-for-op replay on a
// plain art::Tree leaves.  Also the churn stream and the run config the
// wrapper tests drive their engines with, and the fault suites' seed and
// scratch directories.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "art/serialize.h"
#include "art/tree.h"
#include "baselines/engine.h"
#include "common/bytes.h"
#include "dcartc/parallel_runtime.h"
#include "workload/generators.h"
#include "workload/ops.h"

namespace dcart {

/// The churn the wrapper tests share: uniform random 8-byte keys (RS),
/// `keys` of them loaded, then `ops` requests with 40 % writes and 15 %
/// removes.
inline Workload ChurnWorkload(std::size_t keys, std::size_t ops) {
  WorkloadConfig cfg;
  cfg.num_keys = keys;
  cfg.num_ops = ops;
  cfg.write_ratio = 0.4;
  cfg.remove_ratio = 0.15;
  return MakeWorkload(WorkloadKind::kRS, cfg);
}

/// A run in batches of `batch` ops on `threads` DCART-CP workers.
inline RunConfig BatchRun(std::size_t batch, std::size_t threads) {
  RunConfig run;
  run.batch_size = batch;
  run.cpu.wall_threads = threads;
  return run;
}

/// The seed of a fault suite's plans: DCART_FAULT_SEED, else 1.  CI runs
/// the suites under a seed matrix; their properties must hold for every
/// seed, only exact fire placements may move.
inline std::uint64_t FaultSeed() {
  const char* env = std::getenv("DCART_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// A fresh, empty directory under the test temp root, named for `prefix`,
/// `name` and this process: ctest runs every test, and every link variant
/// of one, as its own process, so parallel runs never share a directory.
inline std::string FreshDir(const std::string& prefix,
                            const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + prefix + "_" + name +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Serial ground truth under the runtime stack's batch contract: in each
/// batch of `batch_size` ops, the point ops apply op for op to a plain
/// art::Tree in arrival order, then the batch's scans run.  A batch size
/// of 1 is strict arrival order.  Counts what reads and scans found.
struct SerialReplay {
  art::Tree tree;
  std::uint64_t reads_hit = 0;
  std::uint64_t scan_entries = 0;

  void Load(const std::vector<std::pair<Key, art::Value>>& items) {
    for (const auto& [key, value] : items) tree.Insert(key, value);
  }
  void Apply(std::span<const Operation> ops, std::size_t batch_size = 1) {
    batch_size = std::max<std::size_t>(1, batch_size);
    for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
      const auto batch =
          ops.subspan(begin, std::min(batch_size, ops.size() - begin));
      for (const Operation& op : batch) {
        if (op.type != OpType::kScan) ApplyOne(op);
      }
      for (const Operation& op : batch) {
        if (op.type == OpType::kScan) ApplyOne(op);
      }
    }
  }

 private:
  void ApplyOne(const Operation& op) {
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
