// Range-scan operation support across every engine (the YCSB-E-style
// extension): scans must return exactly the entries a sorted reference
// returns, mixed with concurrent-point-op semantics.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "baselines/cpu_engines.h"
#include "baselines/cuart.h"
#include "baselines/rowex_engine.h"
#include "common/key_codec.h"
#include "common/rng.h"
#include "dcart/accelerator.h"
#include "dcartc/dcartc.h"
#include "workload/generators.h"

namespace dcart {
namespace {

std::vector<std::unique_ptr<IndexEngine>> ScanEngines() {
  std::vector<std::unique_ptr<IndexEngine>> engines;
  engines.push_back(std::make_unique<baselines::ArtRowexEngine>());
  engines.push_back(baselines::MakeArtOlcEngine());
  engines.push_back(baselines::MakeSmartEngine());
  engines.push_back(std::make_unique<baselines::CuartEngine>());
  engines.push_back(std::make_unique<dcartc::DcartCEngine>());
  engines.push_back(std::make_unique<accel::DcartEngine>());
  return engines;
}

TEST(ScanOps, PureScanStreamReturnsExactEntryCounts) {
  // Static tree (no writes): entry counts are exactly computable.
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    items.emplace_back(EncodeU64(i * 2), i);  // even keys
  }
  std::map<Key, art::Value> model(items.begin(), items.end());

  std::vector<Operation> ops;
  SplitMix64 rng(3);
  std::uint64_t expected_entries = 0;
  for (int i = 0; i < 500; ++i) {
    Operation op;
    op.type = OpType::kScan;
    op.key = EncodeU64(rng.NextBounded(4100));  // may start between keys
    op.scan_count = 1 + static_cast<std::uint32_t>(rng.NextBounded(50));
    auto it = model.lower_bound(op.key);
    for (std::uint32_t k = 0; k < op.scan_count && it != model.end();
         ++k, ++it) {
      ++expected_entries;
    }
    ops.push_back(std::move(op));
  }

  for (auto& engine : ScanEngines()) {
    SCOPED_TRACE(engine->name());
    engine->Load(items);
    const ExecutionResult r = engine->Run(ops, RunConfig{});
    EXPECT_EQ(r.stats.scan_entries, expected_entries);
    EXPECT_EQ(r.stats.operations, ops.size());
    EXPECT_GT(r.seconds, 0.0);
  }
}

TEST(ScanOps, MixedStreamStillLandsWritesCorrectly) {
  WorkloadConfig cfg;
  cfg.num_keys = 3000;
  cfg.num_ops = 10000;
  cfg.write_ratio = 0.4;
  cfg.scan_ratio = 0.2;
  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, cfg);
  EXPECT_GT(w.NumScans(), 0u);
  EXPECT_GT(w.NumWrites(), 0u);

  std::map<Key, art::Value> final_state;
  for (const auto& [k, v] : w.load_items) final_state[k] = v;
  for (const Operation& op : w.ops) {
    if (op.type == OpType::kWrite) final_state[op.key] = op.value;
  }

  for (auto& engine : ScanEngines()) {
    SCOPED_TRACE(engine->name());
    engine->Load(w.load_items);
    const ExecutionResult r = engine->Run(w.ops, RunConfig{});
    EXPECT_GT(r.stats.scan_entries, 0u);
    std::size_t checked = 0;
    for (const auto& [k, v] : final_state) {
      if (++checked % 23 != 0) continue;
      ASSERT_EQ(engine->Lookup(k).value(), v) << ToHex(k);
    }
  }
}

TEST(ScanOps, GeneratorHonorsScanRatio) {
  WorkloadConfig cfg;
  cfg.num_keys = 2000;
  cfg.num_ops = 40000;
  cfg.write_ratio = 0.3;
  cfg.scan_ratio = 0.25;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);
  EXPECT_NEAR(static_cast<double>(w.NumScans()) /
                  static_cast<double>(w.ops.size()),
              0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(w.NumWrites()) /
                  static_cast<double>(w.ops.size()),
              0.30, 0.02);
  for (const Operation& op : w.ops) {
    if (op.type == OpType::kScan) {
      ASSERT_GE(op.scan_count, 1u);
      ASSERT_LE(op.scan_count, cfg.max_scan_count);
    }
  }
}

TEST(ScanOps, CoreTreeScanFromIsUnbounded) {
  art::Tree tree;
  for (std::uint64_t i = 0; i < 100; ++i) tree.Insert(EncodeU64(i), i);
  std::vector<std::uint64_t> got;
  tree.ScanFrom(EncodeU64(95), [&got](KeyView k, art::Value) {
    got.push_back(DecodeU64(k));
    return true;
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{95, 96, 97, 98, 99}));
}

TEST(ScanOps, OlcAndRowexTracedScansAgree) {
  // The shared descent and range walk (art/node.h) behind OLC's and ROWEX's
  // traced reads, ROWEX's lock-free lookup, CuART's traversal and the
  // serial tree's Scan, checked against a std::map.  Two key sets: 8-byte
  // integers, and strings whose shared prefixes run past OLC's 12 inline
  // path bytes (and ROWEX's 4), so the walks read path bytes from the
  // subtree's minimum leaf and the descents settle them at the leaf.
  SplitMix64 rng(5);
  std::vector<Key> ints;
  for (int i = 0; i < 3000; ++i) {
    ints.push_back(EncodeU64(rng.NextBounded(100000)));
  }
  std::vector<Key> strings;
  const std::string stems[] = {"user-profile-settings/",
                               "user-profile-sessions/",
                               "zz-archive-2024-quarter-"};
  for (int i = 0; i < 1500; ++i) {
    strings.push_back(EncodeString(stems[i % 3] +
                                   std::to_string(rng.NextBounded(5000))));
  }

  for (const std::vector<Key>* keys : {&ints, &strings}) {
    std::map<Key, art::Value> model;
    for (const Key& k : *keys) model.emplace(k, model.size());
    const std::vector<std::pair<Key, art::Value>> items(model.begin(),
                                                        model.end());
    baselines::OlcTree olc;
    baselines::RowexTree rowex_tree;
    art::Tree tree;
    sync::SyncStats stats;
    for (const auto& [k, v] : items) {
      olc.Insert(k, v, 0, stats);
      rowex_tree.Insert(k, v, 0, stats);
      tree.Insert(k, v);
    }
    baselines::CuartEngine cuart;
    cuart.Load(items);

    // Probes: stored keys; absent keys between them, sharing their long
    // prefix up to a late byte, or extending them; and keys below the
    // minimum and above the maximum.
    std::vector<Key> probes = {Key{}, Key{0x00}, Key(20, 0xff)};
    for (int i = 0; i < 60; ++i) {
      Key present = items[rng.NextBounded(items.size())].first;
      probes.push_back(present);
      Key extended = present;
      extended.push_back(0x01);
      probes.push_back(extended);
      Key late = present;
      late[std::min<std::size_t>(late.size() - 1, 14)] ^= 0x20;
      probes.push_back(late);
    }

    for (std::size_t p = 0; p < probes.size(); ++p) {
      const Key& probe = probes[p];
      SCOPED_TRACE(ToHex(probe));
      const auto it = model.find(probe);
      const std::optional<art::Value> want =
          it == model.end() ? std::nullopt : std::optional(it->second);
      const sync::CLeaf* leaf = olc.FindLeafTraced(probe, nullptr);
      EXPECT_EQ(leaf == nullptr ? std::nullopt
                                : std::optional(leaf->value.load()),
                want);
      EXPECT_EQ(rowex_tree.Lookup(probe, 0, stats), want);
      EXPECT_EQ(cuart.Lookup(probe), want);
      EXPECT_EQ(tree.Get(probe), want);

      // Limits inside the tree and past its end.
      for (const std::size_t limit : {std::size_t{20}, items.size() + 10}) {
        std::vector<std::pair<Key, art::Value>> expected;
        for (auto m = model.lower_bound(probe);
             m != model.end() && expected.size() < limit; ++m) {
          expected.push_back(*m);
        }
        std::vector<std::pair<Key, art::Value>> a, b;
        const auto into = [](std::vector<std::pair<Key, art::Value>>& out) {
          return [&out](KeyView k, art::Value v) {
            out.emplace_back(Key(k.begin(), k.end()), v);
          };
        };
        EXPECT_EQ(olc.ScanTraced(probe, limit, nullptr, into(a)),
                  expected.size());
        EXPECT_EQ(rowex_tree.ScanTraced(probe, limit, nullptr, into(b)),
                  expected.size());
        ASSERT_EQ(a, expected) << "limit=" << limit;
        ASSERT_EQ(b, expected) << "limit=" << limit;
      }

      // The serial tree's bounded scan, to the next probe (an empty range
      // when that one sorts lower).
      const Key& hi = probes[(p + 1) % probes.size()];
      std::vector<std::pair<Key, art::Value>> expected, got;
      for (auto m = model.lower_bound(probe);
           m != model.end() && CompareKeys(m->first, hi) <= 0; ++m) {
        expected.push_back(*m);
      }
      tree.Scan(probe, hi, [&got](KeyView k, art::Value v) {
        got.emplace_back(Key(k.begin(), k.end()), v);
        return true;
      });
      ASSERT_EQ(got, expected) << "hi=" << ToHex(hi);
    }
  }
}

}  // namespace
}  // namespace dcart
