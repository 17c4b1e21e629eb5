// End-to-end chaos property tests for the sharded HA cluster, composing the
// replication layer's per-pair chaos matrix with the cluster's routing,
// watchdog failover, and rebalance machinery:
//
//   Zero acknowledged-op loss — killing any shard's primary at any record
//     boundary must end with every operation acknowledged (the mid-run
//     failover retries the interrupted sub-batch) and the cluster contents
//     byte-identical to a serial oracle.
//   Partition convergence — with every link fault armed probabilistically
//     on every shard's link, the run must converge with nothing lost.
//   Crash-during-rebalance — a primary crash in the split's copy phase
//     aborts with the directory untouched; a crash in the retire phase
//     fails over mid-split and still preserves every owned key.
//
// Seeds come from DCART_FAULT_SEED (the CI chaos matrix sweeps several).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "oracle.h"
#include "resilience/fault_injector.h"
#include "workload/generators.h"

namespace dcart {
namespace {

using cluster::ClusterEngine;
using cluster::ClusterOptions;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSite;
using resilience::LinkKind;

std::uint64_t EnvSeed() {
  const char* env = std::getenv("DCART_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

constexpr std::size_t kBatch = 128;

class ClusterChaosTest : public ::testing::TestWithParam<LinkKind> {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }

  ClusterOptions WithLink(ClusterOptions options = {}) const {
    options.replication.link = GetParam();
    return options;
  }
};

Workload ChaosWorkload(std::size_t num_ops) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.num_ops = num_ops;
  cfg.write_ratio = 0.4;
  cfg.remove_ratio = 0.15;
  return MakeWorkload(WorkloadKind::kRS, cfg);
}

RunConfig ChaosRun(const FaultPlan& plan = {}) {
  RunConfig run;
  run.batch_size = kBatch;
  run.cpu.wall_threads = 2;
  run.faults = plan;
  return run;
}

TEST_P(ClusterChaosTest, KillAnyPrimaryAtAnyRecordBoundaryLosesNothing) {
  // Sweep the crash trigger across every record boundary the run performs.
  // The Nth check lands in whichever shard ships its Nth record there —
  // over the sweep every shard's primary dies at every position it ships.
  // Each death must be absorbed by a mid-run failover with zero
  // acknowledged-op loss and byte-identical convergence.
  const Workload w = ChaosWorkload(1024);
  const art::Tree oracle = ReplayPrefix(w, w.ops.size());

  // Measure the number of crash checks a run performs, with a trigger far
  // beyond the run so the armed injector counts but never fires.
  std::uint64_t total_checks = 0;
  {
    ClusterOptions options = WithLink();
    options.shards = 3;
    ClusterEngine engine(options);
    engine.Load(w.load_items);
    FaultPlan count_plan;
    count_plan.seed = EnvSeed();
    count_plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = 1'000'000;
    ASSERT_TRUE(engine.Run(w.ops, ChaosRun(count_plan)).status.ok());
    total_checks =
        FaultInjector::Global().checks(FaultSite::kCrashAtBatchBoundary);
    FaultInjector::Global().Disarm();
    ASSERT_GT(total_checks, 0u);
  }

  for (std::uint64_t crash_at = 1; crash_at <= total_checks; ++crash_at) {
    SCOPED_TRACE(crash_at);
    ClusterOptions options = WithLink();
    options.shards = 3;
    ClusterEngine engine(options);
    engine.Load(w.load_items);

    FaultPlan plan;
    plan.seed = EnvSeed();
    plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = crash_at;
    const ExecutionResult r = engine.Run(w.ops, ChaosRun(plan));
    const bool fired =
        FaultInjector::Global().fires(FaultSite::kCrashAtBatchBoundary) > 0;
    FaultInjector::Global().Disarm();

    ASSERT_TRUE(fired) << "crash point beyond the run's checks";
    // Zero acknowledged-op loss: the failover retry absorbed the death.
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.ops_acknowledged, w.ops.size());
    EXPECT_EQ(engine.failovers(), 1u);
    ExpectTreesByteIdentical(engine.ContentsTree(), oracle, "kill_sweep");
  }
}

TEST_P(ClusterChaosTest, EveryShardLinkPartitionedStillConverges) {
  // Probabilistic chaos on every shard's link at once: drops, delays,
  // reorders, duplicates, truncations — the per-pair retransmit machinery
  // must converge every shard with nothing lost.
  const Workload w = ChaosWorkload(1024);
  ClusterOptions options = WithLink();
  options.shards = 4;
  ClusterEngine engine(options);
  engine.Load(w.load_items);

  FaultPlan plan;
  plan.seed = EnvSeed();
  plan.Probability(FaultSite::kReplDrop) = 0.1;
  plan.Probability(FaultSite::kReplDelay) = 0.1;
  plan.Probability(FaultSite::kReplReorder) = 0.1;
  plan.Probability(FaultSite::kReplDuplicate) = 0.1;
  plan.Probability(FaultSite::kReplTruncate) = 0.1;
  plan.Probability(FaultSite::kNetPartialRead) = 0.1;
  plan.Probability(FaultSite::kNetPartialWrite) = 0.05;
  const ExecutionResult r = engine.Run(w.ops, ChaosRun(plan));
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  EXPECT_FALSE(r.partial);
  ExpectTreesByteIdentical(engine.ContentsTree(), ReplayPrefix(w, w.ops.size()),
                           "partition");
}

TEST_P(ClusterChaosTest, HardLinkCutTriggersWatchdogFailover) {
  // A deterministic full tear on one shard's link mid-run: retransmits ride
  // it out; afterwards a dead primary is detected by heartbeat silence and
  // the watchdog promotes without any operator involvement.
  const Workload w = ChaosWorkload(512);
  ClusterOptions options = WithLink();
  options.shards = 3;
  ClusterEngine engine(options);
  engine.Load(w.load_items);

  FaultPlan plan;
  plan.seed = EnvSeed();
  plan.TriggerAt(FaultSite::kReplDisconnect) = 3;
  const ExecutionResult r = engine.Run(w.ops, ChaosRun(plan));
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());

  engine.KillShardPrimary(1);
  std::size_t ticks = 0;
  while (engine.failovers() == 0 && ticks < 1000) {
    engine.Tick();
    ++ticks;
  }
  ASSERT_EQ(engine.failovers(), 1u) << "watchdog never promoted";
  EXPECT_EQ(engine.ShardTerm(1), 2u);
  ExpectTreesByteIdentical(engine.ContentsTree(), ReplayPrefix(w, w.ops.size()),
                           "hard_cut");

  // Post-failover the cluster still serves the whole keyspace.
  const ExecutionResult after = engine.Run(w.ops, ChaosRun());
  EXPECT_TRUE(after.status.ok()) << after.status.message();
  ExpectTreesByteIdentical(engine.ContentsTree(), ReplayPrefix(w, w.ops.size()),
                           "hard_cut2");
}

TEST_P(ClusterChaosTest, CrashInSplitCopyPhaseAbortsWithDirectoryUntouched) {
  const Workload w = ChaosWorkload(512);
  ClusterOptions options = WithLink();
  options.shards = 2;
  ClusterEngine engine(options);
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, ChaosRun()).status.ok());
  const art::Tree before = engine.ContentsTree();
  const std::size_t shards_before = engine.shard_count();
  const auto range_before = engine.ShardRange(0);

  // The split's copy phase is the fresh pair's first (and only) batch: its
  // first crash check is the split's first check overall.
  FaultPlan plan;
  plan.seed = EnvSeed();
  plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = 1;
  FaultInjector::Global().Arm(plan);
  const Status aborted = engine.SplitShard(0);
  FaultInjector::Global().Disarm();

  EXPECT_FALSE(aborted.ok());
  EXPECT_NE(aborted.message().find("copy phase"), std::string::npos)
      << aborted.message();
  // Directory untouched: same shard count, same range, same contents.
  EXPECT_EQ(engine.shard_count(), shards_before);
  EXPECT_EQ(engine.ShardRange(0), range_before);
  ExpectTreesByteIdentical(engine.ContentsTree(), before, "copy_crash");

  // The split can simply be retried.
  const Status retried = engine.SplitShard(0);
  ASSERT_TRUE(retried.ok()) << retried.message();
  EXPECT_EQ(engine.shard_count(), shards_before + 1);
  ExpectTreesByteIdentical(engine.ContentsTree(), before, "copy_retry");
}

TEST_P(ClusterChaosTest, CrashInSplitRetirePhaseFailsOverAndKeepsAllKeys) {
  const Workload w = ChaosWorkload(512);
  ClusterOptions options = WithLink();
  options.shards = 2;
  ClusterEngine engine(options);
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, ChaosRun()).status.ok());
  const art::Tree before = engine.ContentsTree();
  const std::size_t shards_before = engine.shard_count();

  // Check 1 is the copy phase (the fresh pair's single batch); check 2 is
  // the donor's retire batch — the crash lands after the directory flip.
  FaultPlan plan;
  plan.seed = EnvSeed();
  plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = 2;
  FaultInjector::Global().Arm(plan);
  const Status split = engine.SplitShard(0);
  const bool fired =
      FaultInjector::Global().fires(FaultSite::kCrashAtBatchBoundary) > 0;
  FaultInjector::Global().Disarm();

  ASSERT_TRUE(fired) << "the retire-phase crash never fired";
  // The donor's primary died mid-retire; RunOnShard failed over and retried,
  // so the split still completes with the directory flipped.
  ASSERT_TRUE(split.ok()) << split.message();
  EXPECT_EQ(engine.shard_count(), shards_before + 1);
  EXPECT_EQ(engine.failovers(), 1u);
  ExpectTreesByteIdentical(engine.ContentsTree(), before, "retire_crash");

  // The post-split cluster serves the whole keyspace on the new topology.
  const ExecutionResult after = engine.Run(w.ops, ChaosRun());
  EXPECT_TRUE(after.status.ok()) << after.status.message();
  ExpectTreesByteIdentical(engine.ContentsTree(), ReplayPrefix(w, w.ops.size()),
                           "retire_after");
}

INSTANTIATE_TEST_SUITE_P(
    Links, ClusterChaosTest,
    ::testing::Values(LinkKind::kInProcess, LinkKind::kSocket),
    [](const ::testing::TestParamInfo<LinkKind>& info) {
      return info.param == LinkKind::kSocket ? "Socket" : "InProcess";
    });

}  // namespace
}  // namespace dcart
