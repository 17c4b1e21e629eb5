// Tests for DCART-CP, the real-threads parallel CTT runtime
// (dcartc/parallel_runtime.h).  The load-bearing property: running any
// operation stream through the batched/sharded/parallel engine must leave
// the tree in EXACTLY the state a serial op-for-op ART replay produces —
// including the per-key read-hit pattern, which is sensitive to per-key
// operation order surviving the deferral protocol.  The stress test is the
// designated ThreadSanitizer target (see DCART_TSAN in CMakeLists.txt).
#include <gtest/gtest.h>

#include <vector>

#include "common/key_codec.h"
#include "common/rng.h"
#include "dcartc/parallel_runtime.h"
#include "oracle.h"
#include "workload/generators.h"

namespace dcart {
namespace {

RunConfig CpRun(std::size_t threads, std::size_t batch) {
  RunConfig run;
  run.cpu.wall_threads = threads;
  run.batch_size = batch;
  return run;
}

TEST(DcartCp, MatchesSerialReplayOnMixedStream) {
  // Skewed mixed insert/read/remove stream, many batches, 8 real threads.
  WorkloadConfig cfg;
  cfg.num_keys = 8000;
  cfg.num_ops = 60000;
  cfg.write_ratio = 0.3;
  cfg.remove_ratio = 0.15;
  cfg.zipf_theta = 1.1;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  const ExecutionResult r = engine.Run(w.ops, CpRun(8, 512));

  SerialReplay ref;
  ref.Load(w.load_items);
  ref.Apply(w.ops);

  EXPECT_TRUE(r.wallclock);
  EXPECT_EQ(r.stats.operations, w.ops.size());
  // Per-key order surviving bucketing + deferral makes hit/miss outcomes
  // deterministic and equal to the serial replay's.
  EXPECT_EQ(r.reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, MatchesSerialReplayOnDenseKeysWithScans) {
  // Dense keys share a long root prefix (exercises the prefix-offset
  // bucketing); scans are always deferred and must still count entries.
  WorkloadConfig cfg;
  cfg.num_keys = 5000;
  cfg.num_ops = 30000;
  cfg.write_ratio = 0.25;
  cfg.remove_ratio = 0.1;
  cfg.scan_ratio = 0.05;
  const Workload w = MakeWorkload(WorkloadKind::kDE, cfg);

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  const ExecutionResult r = engine.Run(w.ops, CpRun(4, 256));
  EXPECT_GT(r.stats.scan_entries, 0u);

  SerialReplay ref;
  ref.Load(w.load_items);
  ref.Apply(w.ops);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, MatchesSerialReplayOnVariableLengthKeys) {
  // Dictionary words: variable lengths, some keys exhaust the root's
  // compressed path (forced deferral class).
  WorkloadConfig cfg;
  cfg.num_keys = 4000;
  cfg.num_ops = 20000;
  cfg.write_ratio = 0.3;
  cfg.remove_ratio = 0.2;
  const Workload w = MakeWorkload(WorkloadKind::kDICT, cfg);

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  engine.Run(w.ops, CpRun(8, 128));

  SerialReplay ref;
  ref.Load(w.load_items);
  ref.Apply(w.ops);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, GrowsFromEmptyTree) {
  // Nothing loaded: the first batches run fully serial until a root exists
  // to shard on, then the engine transitions to parallel batches.
  std::vector<Operation> ops;
  SplitMix64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const Key key = EncodeU64(rng.NextBounded(3000));
    ops.push_back({i % 3 == 0 ? OpType::kWrite : OpType::kRead, key,
                   static_cast<art::Value>(i)});
  }
  dcartc::DcartCpEngine engine;
  const ExecutionResult r = engine.Run(ops, CpRun(4, 512));

  SerialReplay ref;
  ref.Apply(ops);
  EXPECT_EQ(r.reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, RemoveReinsertSameKeyWithinBatch) {
  // remove -> reinsert -> read of one key inside a single batch.  The
  // remove may empty its bucket (deferral + key pinning) and the shortcut
  // entry must never point at the reclaimed leaf.
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t i = 0; i < 512; ++i) items.emplace_back(EncodeU64(i), i);

  std::vector<Operation> ops;
  for (std::uint64_t i = 0; i < 512; ++i) {
    const Key key = EncodeU64(i);
    ops.push_back({OpType::kRead, key, 0});             // warm the shortcut
    ops.push_back({OpType::kRemove, key, 0});
    ops.push_back({OpType::kWrite, key, i + 1000});     // reinsert
    ops.push_back({OpType::kRead, key, 0});
  }
  dcartc::DcartCpEngine engine;
  engine.Load(items);
  const ExecutionResult r = engine.Run(ops, CpRun(8, ops.size()));

  SerialReplay ref;
  ref.Load(items);
  ref.Apply(ops);
  EXPECT_EQ(r.reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
  EXPECT_EQ(engine.Lookup(EncodeU64(3)), art::Value{1003});
}

TEST(DcartCp, StressManyThreadsSkewedMixedBatches) {
  // The ThreadSanitizer target: 8+ workers, hot skewed keys (bucket
  // imbalance -> work stealing), inserts/reads/removes interleaved across
  // many small batches, twice through the same engine so shortcut tables
  // persist across Run() calls.
  WorkloadConfig cfg;
  cfg.num_keys = 6000;
  cfg.num_ops = 40000;
  cfg.write_ratio = 0.35;
  cfg.remove_ratio = 0.15;
  cfg.zipf_theta = 1.3;  // paper-calibrated skew
  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, cfg);

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  SerialReplay ref;
  ref.Load(w.load_items);

  for (int round = 0; round < 2; ++round) {
    engine.Run(w.ops, CpRun(12, 64));
    ref.Apply(w.ops);
  }
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, LatencyHistogramCoversEveryOp) {
  WorkloadConfig cfg;
  cfg.num_keys = 2000;
  cfg.num_ops = 8000;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);
  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  RunConfig run = CpRun(4, 512);
  run.collect_latency = true;
  const ExecutionResult r = engine.Run(w.ops, run);
  EXPECT_EQ(r.latency_ns.Count(), w.ops.size());
  EXPECT_GT(r.phase_breakdown.Total(), 0.0);
}

}  // namespace
}  // namespace dcart
