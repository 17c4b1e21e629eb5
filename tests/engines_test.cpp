// Integration tests across all six engines: functional correctness of Run()
// (post-state, read hits), statistics sanity, and the paper's qualitative
// shape (DCART coalescing slashes partial-key matches and lock contentions;
// the accelerator is the fastest platform; energy ordering holds).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/cpu_engines.h"
#include "baselines/cuart.h"
#include "baselines/rowex_engine.h"
#include "dcart/accelerator.h"
#include "dcartc/dcartc.h"
#include "workload/generators.h"

namespace dcart {
namespace {

using baselines::CuartEngine;
using baselines::MakeArtOlcEngine;
using baselines::MakeHeartEngine;
using baselines::MakeSmartEngine;

Workload SmallWorkload(WorkloadKind kind = WorkloadKind::kIPGEO,
                       double write_ratio = 0.5) {
  WorkloadConfig cfg;
  cfg.num_keys = 8000;
  cfg.num_ops = 30000;
  cfg.write_ratio = write_ratio;
  cfg.seed = 11;
  return MakeWorkload(kind, cfg);
}

std::vector<std::unique_ptr<IndexEngine>> AllEngines() {
  std::vector<std::unique_ptr<IndexEngine>> engines;
  engines.push_back(std::make_unique<baselines::ArtRowexEngine>());
  engines.push_back(MakeArtOlcEngine());
  engines.push_back(MakeHeartEngine());
  engines.push_back(MakeSmartEngine());
  engines.push_back(std::make_unique<CuartEngine>());
  engines.push_back(std::make_unique<dcartc::DcartCEngine>());
  engines.push_back(std::make_unique<accel::DcartEngine>());
  return engines;
}

/// Reference final state: replay the op stream on a std::map.
std::map<Key, art::Value> FinalState(const Workload& w) {
  std::map<Key, art::Value> model;
  for (const auto& [key, value] : w.load_items) model[key] = value;
  for (const Operation& op : w.ops) {
    if (op.type == OpType::kWrite) model[op.key] = op.value;
  }
  return model;
}

// Every mergeable field of two parts gets a distinct prime, so a dropped or
// crossed field shows up as a wrong sum.
TEST(ExecutionResult, MergeFoldsEveryField) {
  ExecutionResult total, part;
  total.platform = "cpu";
  total.wallclock = true;
  total.stats.operations = 2;
  part.stats.operations = 3;
  total.seconds = 5;
  part.seconds = 7;
  total.energy_joules = 11;
  part.energy_joules = 13;
  total.phase_breakdown = {17, 19, 23, 29};
  part.phase_breakdown = {31, 37, 41, 43};
  total.latency_ns.RecordMany(100, 47);
  part.latency_ns.RecordMany(200, 53);
  total.reads_hit = 59;
  part.reads_hit = 61;
  part.status = Status::Error("part failed");
  part.demoted_to_serial = true;
  total.bucket_retries = 73;
  part.bucket_retries = 79;
  total.invariant_breaches = 83;
  part.invariant_breaches = 89;
  total.ops_acknowledged = 97;
  part.ops_acknowledged = 101;
  part.partial = true;
  total.unavailable_ops = 103;
  part.unavailable_ops = 107;
  part.platform = "fpga";

  total.Merge(part);
  EXPECT_EQ(total.stats.operations, 5u);
  EXPECT_EQ(total.seconds, 12.0);
  EXPECT_EQ(total.energy_joules, 24.0);
  EXPECT_EQ(total.phase_breakdown.combine_seconds, 48.0);
  EXPECT_EQ(total.phase_breakdown.traverse_seconds, 56.0);
  EXPECT_EQ(total.phase_breakdown.trigger_seconds, 64.0);
  EXPECT_EQ(total.phase_breakdown.other_seconds, 72.0);
  EXPECT_EQ(total.latency_ns.Count(), 100u);
  EXPECT_EQ(total.reads_hit, 120u);
  EXPECT_FALSE(total.status.ok());
  EXPECT_EQ(total.status.message(), "part failed");
  EXPECT_TRUE(total.demoted_to_serial);
  EXPECT_EQ(total.bucket_retries, 152u);
  EXPECT_EQ(total.invariant_breaches, 172u);
  EXPECT_EQ(total.ops_acknowledged, 198u);
  EXPECT_TRUE(total.partial);
  EXPECT_EQ(total.unavailable_ops, 210u);
  // The caller's own description of the run is not merged.
  EXPECT_EQ(total.platform, "cpu");
  EXPECT_TRUE(total.wallclock);

  // A second failure keeps the first one's message in front.
  ExecutionResult later;
  later.status = Status::Error("later");
  total.Merge(later);
  EXPECT_EQ(total.status.message(), "part failed; then: later");
}

TEST(Engines, AllProduceCorrectFinalState) {
  const Workload w = SmallWorkload();
  const auto model = FinalState(w);
  for (auto& engine : AllEngines()) {
    SCOPED_TRACE(engine->name());
    engine->Load(w.load_items);
    RunConfig cfg;
    const ExecutionResult result = engine->Run(w.ops, cfg);
    EXPECT_EQ(result.stats.operations, w.ops.size());
    // Spot-check the final state against the reference.
    std::size_t checked = 0;
    for (const auto& [key, value] : model) {
      if (++checked % 17 != 0) continue;
      const auto got = engine->Lookup(key);
      ASSERT_TRUE(got.has_value()) << ToHex(key);
      ASSERT_EQ(*got, value) << ToHex(key);
    }
  }
}

TEST(Engines, ReadHitsMatchReferenceReplay) {
  const Workload w = SmallWorkload();
  // Replay to count reads that should find their key.
  std::map<Key, art::Value> state;
  for (const auto& [key, value] : w.load_items) state[key] = value;
  std::uint64_t expected_hits = 0;
  for (const Operation& op : w.ops) {
    if (op.type == OpType::kWrite) {
      state[op.key] = op.value;
    } else if (state.contains(op.key)) {
      ++expected_hits;
    }
  }
  for (auto& engine : AllEngines()) {
    SCOPED_TRACE(engine->name());
    engine->Load(w.load_items);
    const ExecutionResult result = engine->Run(w.ops, RunConfig{});
    EXPECT_EQ(result.reads_hit, expected_hits);
  }
}

TEST(Engines, StatsAndModelOutputsAreSane) {
  const Workload w = SmallWorkload();
  for (auto& engine : AllEngines()) {
    SCOPED_TRACE(engine->name());
    engine->Load(w.load_items);
    const ExecutionResult r = engine->Run(w.ops, RunConfig{});
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.energy_joules, 0.0);
    EXPECT_GT(r.stats.partial_key_matches, 0u);
    EXPECT_GT(r.stats.nodes_visited, r.stats.partial_key_matches);
    EXPECT_GT(r.ThroughputOpsPerSec(), 0.0);
    EXPECT_FALSE(r.platform.empty());
  }
}

TEST(Engines, LatencyCollectionFillsHistogram) {
  const Workload w = SmallWorkload();
  for (auto& engine : AllEngines()) {
    SCOPED_TRACE(engine->name());
    engine->Load(w.load_items);
    RunConfig cfg;
    cfg.collect_latency = true;
    const ExecutionResult r = engine->Run(w.ops, cfg);
    EXPECT_EQ(r.latency_ns.Count(), w.ops.size());
    EXPECT_GT(r.latency_ns.Quantile(0.99), 0u);
    EXPECT_GE(r.latency_ns.Quantile(0.99), r.latency_ns.Quantile(0.5));
  }
}

// ------------------------------------------------------ paper shape -------

TEST(Shape, CoalescingSlashesPartialKeyMatches) {
  // Fig. 8: DCART* perform a small fraction of the baselines' partial key
  // matches on skewed workloads.
  const Workload w = SmallWorkload();
  auto art = MakeArtOlcEngine();
  art->Load(w.load_items);
  const auto art_result = art->Run(w.ops, RunConfig{});

  accel::DcartEngine dcart;
  dcart.Load(w.load_items);
  const auto dcart_result = dcart.Run(w.ops, RunConfig{});

  EXPECT_LT(dcart_result.stats.partial_key_matches,
            art_result.stats.partial_key_matches / 4)
      << "DCART pkm=" << dcart_result.stats.partial_key_matches
      << " ART pkm=" << art_result.stats.partial_key_matches;
}

TEST(Shape, CoalescingSlashesLockContentions) {
  // Fig. 7: DCART* contentions are a small fraction of the baselines'.
  const Workload w = SmallWorkload();
  auto art = MakeArtOlcEngine();
  art->Load(w.load_items);
  const auto art_result = art->Run(w.ops, RunConfig{});

  dcartc::DcartCEngine dcartc_engine;
  dcartc_engine.Load(w.load_items);
  const auto ctt_result = dcartc_engine.Run(w.ops, RunConfig{});

  ASSERT_GT(art_result.stats.lock_contentions, 0u);
  EXPECT_LT(ctt_result.stats.lock_contentions,
            art_result.stats.lock_contentions / 2);
}

TEST(Shape, AcceleratorIsFastestAndMostEfficient) {
  // Fig. 9 / Fig. 11 ordering: DCART beats every software solution in both
  // modeled time and modeled energy.
  const Workload w = SmallWorkload();
  std::vector<std::unique_ptr<IndexEngine>> engines = AllEngines();
  double dcart_seconds = 0, dcart_energy = 0;
  std::vector<std::pair<std::string, std::pair<double, double>>> others;
  for (auto& engine : engines) {
    engine->Load(w.load_items);
    const auto r = engine->Run(w.ops, RunConfig{});
    if (engine->name() == "DCART") {
      dcart_seconds = r.seconds;
      dcart_energy = r.energy_joules;
    } else {
      others.emplace_back(engine->name(),
                          std::make_pair(r.seconds, r.energy_joules));
    }
  }
  ASSERT_GT(dcart_seconds, 0.0);
  for (const auto& [name, cost] : others) {
    EXPECT_GT(cost.first, dcart_seconds) << name << " faster than DCART";
    EXPECT_GT(cost.second, dcart_energy) << name << " more efficient";
  }
}

TEST(Shape, SmartBeatsArtOnSkewedReads) {
  // The paper's Fig. 2/9: SMART is the strongest CPU baseline.
  const Workload w = SmallWorkload(WorkloadKind::kIPGEO, /*write_ratio=*/0.2);
  auto art = MakeArtOlcEngine();
  auto smart = MakeSmartEngine();
  art->Load(w.load_items);
  smart->Load(w.load_items);
  const auto art_r = art->Run(w.ops, RunConfig{});
  const auto smart_r = smart->Run(w.ops, RunConfig{});
  EXPECT_LT(smart_r.seconds, art_r.seconds);
  EXPECT_LE(smart_r.stats.partial_key_matches,
            art_r.stats.partial_key_matches);
}

TEST(Shape, ContentionGrowsWithInflightOps) {
  // Fig. 2(d) / Fig. 12(a): more concurrent operations => more conflicts.
  const Workload w = SmallWorkload();
  std::uint64_t prev = 0;
  for (std::size_t inflight : {64u, 1024u, 8192u}) {
    auto art = MakeArtOlcEngine();
    art->Load(w.load_items);
    RunConfig cfg;
    cfg.inflight_ops = inflight;
    const auto r = art->Run(w.ops, cfg);
    EXPECT_GE(r.stats.lock_contentions, prev);
    prev = r.stats.lock_contentions;
  }
  EXPECT_GT(prev, 0u);
}

TEST(Shape, WriteRatioIncreasesBaselineCost) {
  // Fig. 2(e): lock-based performance degrades as the write share rises.
  double read_heavy = 0, write_heavy = 0;
  {
    const Workload w = SmallWorkload(WorkloadKind::kIPGEO, 0.1);
    auto art = MakeArtOlcEngine();
    art->Load(w.load_items);
    read_heavy = art->Run(w.ops, RunConfig{}).seconds;
  }
  {
    const Workload w = SmallWorkload(WorkloadKind::kIPGEO, 0.9);
    auto art = MakeArtOlcEngine();
    art->Load(w.load_items);
    write_heavy = art->Run(w.ops, RunConfig{}).seconds;
  }
  EXPECT_GT(write_heavy, read_heavy);
}

TEST(Engines, RunThreadedExecutesForRealAndLandsAllWrites) {
  const Workload w = SmallWorkload();
  const auto model = FinalState(w);
  // The OLC protocols and ROWEX deal the stream over one client loop.
  const auto check = [&w, &model](auto& engine) {
    SCOPED_TRACE(engine.name());
    engine.Load(w.load_items);
    OpStats stats;
    const double wall = engine.RunThreaded(w.ops, 4, stats);
    EXPECT_GT(wall, 0.0);
    EXPECT_EQ(stats.operations, w.ops.size());
    // Writes land; reads are concurrent so only final state is checked.
    // Per-key order across threads is not defined, so check presence.
    std::size_t checked = 0;
    for (const auto& [key, value] : model) {
      if (++checked % 29 != 0) continue;
      ASSERT_TRUE(engine.Lookup(key).has_value()) << ToHex(key);
    }
  };
  for (auto make : {&MakeArtOlcEngine, &MakeHeartEngine, &MakeSmartEngine}) {
    check(*make(simhw::CpuModel{}));
  }
  baselines::ArtRowexEngine rowex;
  check(rowex);
}

TEST(Shape, DcartShortcutHitsServeHotKeys) {
  // Shortcuts are per key-group: the cold Zipf tail always misses, but the
  // hot keys — the bulk of the distinct groups formed after the first
  // batch — must be served by shortcuts.
  const Workload w = SmallWorkload();
  accel::DcartEngine dcart;
  dcart.Load(w.load_items);
  const auto r = dcart.Run(w.ops, RunConfig{});
  EXPECT_GT(r.stats.shortcut_hits, r.stats.shortcut_misses / 2);
  EXPECT_GT(r.stats.combined_ops, 0u);
}

}  // namespace
}  // namespace dcart
