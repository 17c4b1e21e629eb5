// Chaos and failover property tests for the replication layer, the
// replication extension of the crash-at-every-boundary recovery suite:
//
//   Convergence — under every injected link fault (drop, delay, reorder,
//     duplicate, truncate, disconnect — alone and combined), a run must end
//     with the replica byte-identical to the primary and every operation
//     HA-acknowledged.
//   Zero loss — killing the primary at every record boundary (and tearing
//     the shipped frame at the same point) and promoting the replica must
//     serve exactly the serial replay of the HA-acknowledged prefix: no
//     acknowledged operation lost, no unacknowledged operation invented.
//
// The whole suite is parameterized over the link's byte pipe: every
// property runs once over the in-memory pipe and once over localhost TCP
// (resilience/socket_link.h).  The net-* sites (partial read/write, connect
// timeout) get their own convergence sweep on both.
//
// Seeds come from DCART_FAULT_SEED (the CI chaos matrix sweeps several).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "oracle.h"
#include "resilience/fault_injector.h"
#include "resilience/replication.h"
#include "workload/generators.h"

namespace dcart {
namespace {

namespace fs = std::filesystem;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSite;
using resilience::LinkKind;
using resilience::ReplicatedEngine;
using resilience::ReplicationOptions;

std::uint64_t EnvSeed() {
  const char* env = std::getenv("DCART_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

constexpr std::size_t kBatch = 128;

class ReplicationPropertyTest : public ::testing::TestWithParam<LinkKind> {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }

  std::string FreshDir(const std::string& name) {
    // ctest runs each (test, link-kind) variant as its own parallel
    // process, so scratch paths must be per-process to avoid the two
    // transports clobbering each other's journals.
    const std::string dir = ::testing::TempDir() + "/replprop_" + name +
                            "_" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  /// Apply the transport under test to a base option set.
  ReplicationOptions WithLink(ReplicationOptions options = {}) const {
    options.link = GetParam();
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

RunConfig HaRun(const FaultPlan& plan = {}) {
  RunConfig run;
  run.batch_size = kBatch;
  run.cpu.wall_threads = 2;
  run.faults = plan;
  return run;
}

struct ChaosSite {
  FaultSite site;
  double probability;   // 0 = use trigger_at instead
  std::uint64_t trigger_at;
};

// Disconnect fires deterministically (trigger_at) rather than by
// probability: every firing costs a full backoff/reconnect cycle, so at
// frame-mangling rates the run spends all its time reconnecting, and at
// rarer rates short runs may never fire it at all.
const ChaosSite kChaosSites[] = {
    {FaultSite::kReplDrop, 0.25, 0},      {FaultSite::kReplDelay, 0.25, 0},
    {FaultSite::kReplReorder, 0.25, 0},   {FaultSite::kReplDuplicate, 0.25, 0},
    {FaultSite::kReplTruncate, 0.25, 0},  {FaultSite::kReplDisconnect, 0.0, 3},
};

TEST_P(ReplicationPropertyTest, EverySingleLinkFaultConverges) {
  const Workload w = ChaosWorkload(1024);
  for (const ChaosSite& chaos : kChaosSites) {
    SCOPED_TRACE(resilience::FaultSiteName(chaos.site));
    ReplicatedEngine engine(WithLink());
    engine.Load(w.load_items);
    FaultPlan plan;
    plan.seed = EnvSeed();
    if (chaos.probability > 0.0) {
      plan.Probability(chaos.site) = chaos.probability;
    } else {
      plan.TriggerAt(chaos.site) = chaos.trigger_at;
    }
    const ExecutionResult r = engine.Run(w.ops, HaRun(plan));
    FaultInjector::Global().Disarm();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    // Convergence: every op HA-acknowledged, replica byte-identical.
    EXPECT_EQ(r.ops_acknowledged, w.ops.size());
    EXPECT_GT(FaultInjector::Global().fires(chaos.site), 0u)
        << "fault site never fired; the test exercised nothing";
    ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                             resilience::FaultSiteName(chaos.site));
  }
}

TEST_P(ReplicationPropertyTest, AllLinkFaultsTogetherConverge) {
  const Workload w = ChaosWorkload(1024);
  ReplicatedEngine engine(WithLink());
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = EnvSeed();
  for (const ChaosSite& chaos : kChaosSites) {
    // Softer per-site rates: the faults compound on every send.
    plan.Probability(chaos.site) =
        chaos.probability > 0.0 ? chaos.probability / 2.0 : 0.03;
  }
  const ExecutionResult r = engine.Run(w.ops, HaRun(plan));
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "combined");
}

TEST_P(ReplicationPropertyTest, ChaosRunSurvivesFailover) {
  // A full lifecycle under combined chaos: converge, lose the primary,
  // promote, and verify the promoted tree equals the serial replay.
  const Workload w = ChaosWorkload(1024);
  const std::string dir = FreshDir("lifecycle");
  ReplicationOptions options = WithLink();
  options.dir = dir;
  ReplicatedEngine engine(options);
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = EnvSeed();
  for (const ChaosSite& chaos : kChaosSites) {
    plan.Probability(chaos.site) =
        chaos.probability > 0.0 ? chaos.probability / 2.0 : 0.03;
  }
  const ExecutionResult r = engine.Run(w.ops, HaRun(plan));
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  ASSERT_EQ(r.ops_acknowledged, w.ops.size());

  engine.KillPrimary();
  const Status promoted = engine.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.message();
  ExpectTreesByteIdentical(engine.tree(), ReplayPrefix(w, w.ops.size()),
                           "lifecycle");
  fs::remove_all(dir);
}

TEST_P(ReplicationPropertyTest,
       KillPrimaryAtEveryBoundaryPromotedReplicaHoldsAcknowledgedPrefix) {
  const Workload w = ChaosWorkload(1024);  // 8 batches of 128
  const std::size_t batches = (w.ops.size() + kBatch - 1) / kBatch;

  for (std::size_t crash_at = 1; crash_at <= batches; ++crash_at) {
    SCOPED_TRACE(crash_at);
    const std::string dir = FreshDir("boundary");

    ReplicationOptions options = WithLink();
    options.dir = dir;
    options.journal_to_snapshot_ratio = 0.25;  // rolls after batches 3, 6
    FaultPlan plan;
    plan.seed = EnvSeed();
    plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = crash_at;

    ReplicatedEngine engine(options);
    engine.Load(w.load_items);
    const ExecutionResult r = engine.Run(w.ops, HaRun(plan));
    FaultInjector::Global().Disarm();

    // The primary died at boundary `crash_at`: exactly the prior batches
    // were shipped and replica-acknowledged (synchronous mode).
    ASSERT_FALSE(r.status.ok());
    ASSERT_EQ(r.ops_acknowledged, (crash_at - 1) * kBatch);

    // Failover.  Zero loss: the promoted replica serves exactly the serial
    // replay of the HA-acknowledged prefix.
    engine.KillPrimary();
    const Status promoted = engine.Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.message();
    EXPECT_GE(engine.replica().applied_records() * kBatch,
              r.ops_acknowledged);
    ExpectTreesByteIdentical(engine.tree(),
                             ReplayPrefix(w, r.ops_acknowledged), "boundary");

    // The promoted engine resumes the unacknowledged tail and lands on the
    // full serial replay — the restarted-service path, now on the replica.
    const ExecutionResult resumed =
        engine.Run({w.ops.data() + r.ops_acknowledged,
                    w.ops.size() - r.ops_acknowledged},
                   HaRun());
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.message();
    ExpectTreesByteIdentical(engine.tree(), ReplayPrefix(w, w.ops.size()),
                             "boundary-resume");
    fs::remove_all(dir);
  }
}

TEST_P(ReplicationPropertyTest,
       TornFrameAtEveryRecordThenKillLosesNothingAcknowledged) {
  // Tear the shipped frame at every record position in turn (mid-record
  // truncation on the link) while also killing the primary one batch later:
  // the truncated frame is CRC-rejected and retransmitted before its batch
  // is HA-acknowledged, so the promoted replica still holds every
  // acknowledged op for every tear point.
  const Workload w = ChaosWorkload(1024);
  const std::size_t batches = (w.ops.size() + kBatch - 1) / kBatch;

  for (std::size_t tear_at = 1; tear_at <= batches; ++tear_at) {
    SCOPED_TRACE(tear_at);
    const std::string dir = FreshDir("torn");

    ReplicationOptions options = WithLink();
    options.dir = dir;
    FaultPlan plan;
    plan.seed = EnvSeed();
    plan.TriggerAt(FaultSite::kReplTruncate) = tear_at;
    if (tear_at + 1 <= batches) {
      plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = tear_at + 1;
    }

    ReplicatedEngine engine(options);
    engine.Load(w.load_items);
    const ExecutionResult r = engine.Run(w.ops, HaRun(plan));
    FaultInjector::Global().Disarm();

    engine.KillPrimary();
    const Status promoted = engine.Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.message();
    ExpectTreesByteIdentical(engine.tree(),
                             ReplayPrefix(w, r.ops_acknowledged), "torn");
    fs::remove_all(dir);
  }
}

TEST_P(ReplicationPropertyTest,
       DisconnectAtEveryRecordThenKillLosesNothingAcknowledged) {
  // Same sweep with the harsher fault: the link tears down completely at
  // every record position in turn, forcing a backoff/reconnect cycle right
  // before the primary dies.
  const Workload w = ChaosWorkload(1024);
  const std::size_t batches = (w.ops.size() + kBatch - 1) / kBatch;

  for (std::size_t drop_at = 1; drop_at <= batches; ++drop_at) {
    SCOPED_TRACE(drop_at);
    const std::string dir = FreshDir("disc");

    ReplicationOptions options = WithLink();
    options.dir = dir;
    FaultPlan plan;
    plan.seed = EnvSeed();
    plan.TriggerAt(FaultSite::kReplDisconnect) = drop_at;
    if (drop_at + 1 <= batches) {
      plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = drop_at + 1;
    }

    ReplicatedEngine engine(options);
    engine.Load(w.load_items);
    const ExecutionResult r = engine.Run(w.ops, HaRun(plan));
    FaultInjector::Global().Disarm();

    engine.KillPrimary();
    const Status promoted = engine.Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.message();
    ExpectTreesByteIdentical(engine.tree(),
                             ReplayPrefix(w, r.ops_acknowledged), "disc");
    fs::remove_all(dir);
  }
}

TEST_P(ReplicationPropertyTest,
       LateSnapshotCopiesNeverLoseAnAcknowledgedBatch) {
  // Delays and reorders armed from Load() on leave late copies of the
  // bootstrap image on the link, and one may arrive after the batch's
  // record.  Whatever Run() acknowledges must survive a failover.  The
  // seeds are fixed, so every run sweeps the same schedules.
  const Workload w = ChaosWorkload(kBatch);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    const std::string dir = FreshDir("late_snapshot");
    ReplicationOptions options = WithLink();
    options.dir = dir;
    ReplicatedEngine engine(options);
    FaultPlan plan;
    plan.seed = seed;
    plan.Probability(FaultSite::kReplDelay) = 0.5;
    plan.Probability(FaultSite::kReplReorder) = 0.5;
    FaultInjector::Global().Arm(plan);
    engine.Load(w.load_items);
    const ExecutionResult r = engine.Run(w.ops, HaRun());
    FaultInjector::Global().Disarm();
    EXPECT_TRUE(r.status.ok()) << r.status.message();

    engine.KillPrimary();
    const Status promoted = engine.Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.message();
    ExpectTreesByteIdentical(engine.tree(), ReplayPrefix(w, r.ops_acknowledged),
                             "late_snapshot");
    fs::remove_all(dir);
  }

  // Load;Load;Run: a late copy of the first load's image may land after
  // the second's.  The primary crashes before the second batch, so no
  // Drain() repairs the replica before the failover.
  const Workload two = ChaosWorkload(2 * kBatch);
  std::vector<std::pair<Key, art::Value>> first = two.load_items;
  for (auto& item : first) ++item.second;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("Load;Load;Run seed " + std::to_string(seed));
    const std::string dir = FreshDir("late_snapshot_reload");
    ReplicationOptions options = WithLink();
    options.dir = dir;
    ReplicatedEngine engine(options);
    FaultPlan plan;
    plan.seed = seed;
    plan.Probability(FaultSite::kReplDelay) = 0.5;
    plan.Probability(FaultSite::kReplReorder) = 0.5;
    plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = 2;
    FaultInjector::Global().Arm(plan);
    engine.Load(first);
    engine.Load(two.load_items);
    const ExecutionResult r = engine.Run(two.ops, HaRun());
    FaultInjector::Global().Disarm();
    ASSERT_FALSE(r.status.ok());  // the crash fired
    EXPECT_EQ(r.ops_acknowledged, kBatch) << r.status.message();

    engine.KillPrimary();
    const Status promoted = engine.Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.message();
    ExpectTreesByteIdentical(engine.tree(),
                             ReplayPrefix(two, r.ops_acknowledged),
                             "late_snapshot_reload");
    fs::remove_all(dir);
  }
}

TEST_P(ReplicationPropertyTest, EveryNetFaultConverges) {
  // The net-* sites model a byte stream: partial send, dribbling recv,
  // refused redial.  The link checks them over either pipe.  Alone and
  // combined (and stacked on the repl-* chaos matrix) the pair must still
  // converge with zero acknowledged-op loss.
  const ChaosSite kNetSites[] = {
      {FaultSite::kNetPartialWrite, 0.0, 2},
      {FaultSite::kNetPartialRead, 0.3, 0},
      {FaultSite::kNetConnectTimeout, 0.0, 0},  // armed with disconnect below
  };
  const Workload w = ChaosWorkload(1024);
  for (const ChaosSite& chaos : kNetSites) {
    SCOPED_TRACE(resilience::FaultSiteName(chaos.site));
    ReplicatedEngine engine(WithLink());
    engine.Load(w.load_items);
    FaultPlan plan;
    plan.seed = EnvSeed();
    if (chaos.site == FaultSite::kNetConnectTimeout) {
      // A redial only happens after a tear; pair the timeout with one.
      plan.TriggerAt(FaultSite::kReplDisconnect) = 2;
      plan.TriggerAt(chaos.site) = 1;
    } else if (chaos.probability > 0.0) {
      plan.Probability(chaos.site) = chaos.probability;
    } else {
      plan.TriggerAt(chaos.site) = chaos.trigger_at;
    }
    const ExecutionResult r = engine.Run(w.ops, HaRun(plan));
    FaultInjector::Global().Disarm();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.ops_acknowledged, w.ops.size());
    EXPECT_GT(FaultInjector::Global().fires(chaos.site), 0u)
        << "fault site never fired; the test exercised nothing";
    ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                             resilience::FaultSiteName(chaos.site));
  }

  // Everything at once: wire faults on top of the full repl-* chaos matrix.
  ReplicatedEngine engine(WithLink());
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = EnvSeed();
  for (const ChaosSite& chaos : kChaosSites) {
    plan.Probability(chaos.site) =
        chaos.probability > 0.0 ? chaos.probability / 2.0 : 0.03;
  }
  plan.Probability(FaultSite::kNetPartialRead) = 0.1;
  plan.Probability(FaultSite::kNetPartialWrite) = 0.05;
  plan.Probability(FaultSite::kNetConnectTimeout) = 0.1;
  const ExecutionResult r = engine.Run(w.ops, HaRun(plan));
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "net_combined");
}

INSTANTIATE_TEST_SUITE_P(
    Links, ReplicationPropertyTest,
    ::testing::Values(LinkKind::kInProcess, LinkKind::kSocket),
    [](const ::testing::TestParamInfo<LinkKind>& info) {
      return info.param == LinkKind::kSocket ? "Socket" : "InProcess";
    });

}  // namespace
}  // namespace dcart
