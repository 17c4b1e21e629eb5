// Functional tests for the sharded HA cluster (cluster/cluster.h) and its
// failure detector (cluster/watchdog.h): prefix routing, shard-boundary
// planning, scatter/gather scans, degraded ranges, watchdog state machine,
// term-fenced promotion/execution, rejoin, and the crash-safe shard split.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/watchdog.h"
#include "obs/trace.h"
#include "oracle.h"
#include "resilience/fault_injector.h"
#include "workload/generators.h"

namespace dcart {
namespace {

using cluster::ClusterEngine;
using cluster::ClusterOptions;
using cluster::Watchdog;
using cluster::WatchdogState;
using resilience::FaultInjector;

constexpr std::size_t kBatch = 128;

class ClusterTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

const RunConfig kRun = BatchRun(kBatch, 2);

/// One single-byte key per byte value: every shard owns ~256/N of them.
std::vector<std::pair<Key, art::Value>> OneKeyPerByte() {
  std::vector<std::pair<Key, art::Value>> items;
  for (unsigned b = 0; b <= 0xff; ++b) {
    items.emplace_back(Key{static_cast<std::uint8_t>(b)}, b);
  }
  return items;
}

// --- shard boundary planner ------------------------------------------------

TEST_F(ClusterTest, BalancedBoundariesSplitWeightEvenly) {
  // All the weight on two bytes: the planner must cut between them instead
  // of slicing the empty space.
  std::vector<std::uint64_t> histogram(256, 0);
  histogram[10] = 500;
  histogram[200] = 500;
  const auto bounds = BalancedPrefixBoundaries(histogram, 2);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_GT(bounds[1], 10u);
  EXPECT_LE(bounds[1], 200u);

  // Uniform fallback when there is no histogram to balance against.
  const auto uniform = BalancedPrefixBoundaries(
      std::vector<std::uint64_t>(256, 0), 4);
  ASSERT_EQ(uniform.size(), 4u);
  EXPECT_EQ(uniform[0], 0u);
  for (std::size_t i = 1; i < uniform.size(); ++i) {
    EXPECT_GT(uniform[i], uniform[i - 1]) << "boundaries must increase";
  }

  // Too few distinct bytes: fewer shards, never a duplicate boundary.
  std::vector<std::uint64_t> narrow(256, 0);
  narrow[7] = 100;
  const auto few = BalancedPrefixBoundaries(narrow, 8);
  for (std::size_t i = 1; i < few.size(); ++i) {
    EXPECT_GT(few[i], few[i - 1]);
  }
}

// --- watchdog state machine ------------------------------------------------

TEST_F(ClusterTest, WatchdogRidesOutTransientSilence) {
  Watchdog dog(0);  // 3 misses open probation; base window 8, cap 64
  std::uint64_t now = 0;

  // Two misses are forgiven instantly by one fresh heartbeat.
  EXPECT_EQ(dog.Observe(false, ++now), WatchdogState::kHealthy);
  EXPECT_EQ(dog.Observe(false, ++now), WatchdogState::kHealthy);
  EXPECT_EQ(dog.Observe(true, ++now), WatchdogState::kHealthy);
  EXPECT_EQ(dog.consecutive_misses(), 0u);
  EXPECT_EQ(dog.total_misses(), 2u);

  // The third consecutive miss opens probation with a jittered deadline in
  // (now, now + base].
  EXPECT_EQ(dog.Observe(false, ++now), WatchdogState::kHealthy);
  EXPECT_EQ(dog.Observe(false, ++now), WatchdogState::kHealthy);
  EXPECT_EQ(dog.Observe(false, ++now), WatchdogState::kProbation);
  EXPECT_EQ(dog.probation_round(), 1u);
  EXPECT_GT(dog.probation_deadline(), now);
  EXPECT_LE(dog.probation_deadline(), now + cluster::kProbationBaseTicks);

  // A fresh heartbeat before the deadline stands the watchdog down: the
  // partition healed, no failover.
  EXPECT_EQ(dog.Observe(true, ++now), WatchdogState::kHealthy);
}

TEST_F(ClusterTest, WatchdogFlapDampingEscalatesProbation) {
  Watchdog dog(0);
  std::uint64_t now = 0;

  auto open_probation = [&] {
    while (dog.state() != WatchdogState::kProbation) {
      dog.Observe(false, ++now);
    }
  };
  open_probation();
  const std::uint64_t first_window = dog.probation_deadline() - now;
  dog.Observe(true, ++now);  // flap: recover...
  open_probation();          // ...and lose it again
  EXPECT_EQ(dog.probation_round(), 2u) << "round must survive recovery";
  const std::uint64_t second_window = dog.probation_deadline() - now;
  // Round 2 doubles the base window; even jittered down it exceeds the
  // round-1 ceiling's half.
  EXPECT_GE(second_window, (2 * cluster::kProbationBaseTicks + 1) / 2);
  EXPECT_GT(second_window, first_window / 2);

  // Silence past the deadline: failover, and the verdict is sticky.
  while (dog.state() != WatchdogState::kFailover) {
    dog.Observe(false, ++now);
  }
  EXPECT_EQ(dog.Observe(true, ++now), WatchdogState::kFailover);

  dog.Reset();
  EXPECT_EQ(dog.state(), WatchdogState::kHealthy);
  EXPECT_EQ(dog.probation_round(), 0u);
}

// --- routing & serving -----------------------------------------------------

TEST_F(ClusterTest, DirectoryTilesByteSpaceAndRoutesConsistently) {
  ClusterOptions options;
  options.shards = 4;
  ClusterEngine engine(options);
  engine.Load(OneKeyPerByte());

  ASSERT_EQ(engine.shard_count(), 4u);
  unsigned expected_lo = 0;
  for (std::size_t i = 0; i < engine.shard_count(); ++i) {
    const auto [lo, hi] = engine.ShardRange(i);
    EXPECT_EQ(lo, expected_lo) << "ranges must tile with no gap";
    EXPECT_GE(hi, lo);
    expected_lo = hi + 1u;
  }
  EXPECT_EQ(expected_lo, 256u) << "ranges must cover the full byte space";

  for (unsigned b = 0; b <= 0xff; ++b) {
    const Key key{static_cast<std::uint8_t>(b)};
    const std::size_t shard = engine.RouteShard(key);
    const auto [lo, hi] = engine.ShardRange(shard);
    EXPECT_GE(b, lo);
    EXPECT_LE(b, hi);
    EXPECT_EQ(engine.Lookup(key), b) << "byte " << b;
  }
}

TEST_F(ClusterTest, ClusterRunMatchesSerialOracle) {
  const Workload w = ChurnWorkload(1000, 1024);
  ClusterOptions options;
  options.shards = 4;
  ClusterEngine engine(options);
  engine.Load(w.load_items);

  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  EXPECT_FALSE(r.partial);
  ExpectTreesByteIdentical(engine.ContentsTree(), ReplayPrefix(w, w.ops.size()),
                           "oracle");
}

TEST_F(ClusterTest, ScatterGatherScanCrossesShards) {
  ClusterOptions options;
  options.shards = 4;
  ClusterEngine engine(options);
  engine.Load(OneKeyPerByte());

  // A scan from 0x00 asking for more than one shard holds must gather from
  // every shard in range order.
  Operation scan;
  scan.type = OpType::kScan;
  scan.key = Key{0x00};
  scan.scan_count = 300;  // > 256: drains the whole keyspace
  const ExecutionResult r = engine.Run({&scan, 1}, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.stats.scan_entries, 256u);
  EXPECT_FALSE(r.partial);

  // Starting mid-keyspace skips the shards below the start key.
  Operation tail;
  tail.type = OpType::kScan;
  tail.key = Key{0xf0};
  tail.scan_count = 300;
  const ExecutionResult rt = engine.Run({&tail, 1}, kRun);
  ASSERT_TRUE(rt.status.ok()) << rt.status.message();
  EXPECT_EQ(rt.stats.scan_entries, 16u);
}

// --- degradation -----------------------------------------------------------

TEST_F(ClusterTest, DeadShardDegradesOnlyItsRange) {
  ClusterOptions options;
  options.shards = 4;
  ClusterEngine engine(options);
  engine.Load(OneKeyPerByte());
  const auto [dead_lo, dead_hi] = engine.ShardRange(1);
  engine.KillShard(1);

  // Point ops: the dead range refuses with a typed status naming it; every
  // other shard keeps serving.
  std::vector<Operation> ops;
  for (unsigned b = 0; b <= 0xff; ++b) {
    Operation op;
    op.type = OpType::kWrite;
    op.key = Key{static_cast<std::uint8_t>(b)};
    op.value = b + 1000;
    ops.push_back(std::move(op));
  }
  const ExecutionResult r = engine.Run(ops, kRun);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status.message().find("no serving member"), std::string::npos)
      << r.status.message();
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.unavailable_ops, std::size_t{dead_hi} - dead_lo + 1);
  EXPECT_EQ(r.ops_acknowledged, ops.size() - r.unavailable_ops);

  // Lookups in the dead range miss; outside it they serve the new values.
  EXPECT_EQ(engine.Lookup(Key{dead_lo}), std::nullopt);
  EXPECT_EQ(engine.Lookup(Key{0x00}), 1000u);
  EXPECT_EQ(engine.Lookup(Key{0xff}), 0xff + 1000u);

  // Scans that cross the dark range report partial and keep gathering.
  Operation scan;
  scan.type = OpType::kScan;
  scan.key = Key{0x00};
  scan.scan_count = 300;
  const ExecutionResult rs = engine.Run({&scan, 1}, kRun);
  EXPECT_TRUE(rs.partial);
  EXPECT_EQ(rs.stats.scan_entries,
            256u - (std::size_t{dead_hi} - dead_lo + 1));

  // Revival restores the range (with its pre-outage contents).
  engine.ReviveShard(1);
  EXPECT_EQ(engine.Lookup(Key{dead_lo}), dead_lo);
  const ExecutionResult rr = engine.Run(ops, kRun);
  EXPECT_TRUE(rr.status.ok()) << rr.status.message();
  EXPECT_FALSE(rr.partial);
}

// --- failover & fencing ----------------------------------------------------

TEST_F(ClusterTest, WatchdogPromotesDeadPrimaryAndTermFencesTheOldOne) {
  const Workload w = ChurnWorkload(1000, 512);
  ClusterOptions options;
  options.shards = 3;
  ClusterEngine engine(options);
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  ASSERT_EQ(engine.ShardTerm(0), 1u);

  engine.KillShardPrimary(0);
  std::size_t ticks = 0;
  while (engine.failovers() == 0 && ticks < 1000) {
    engine.Tick();
    ++ticks;
  }
  EXPECT_EQ(engine.failovers(), 1u) << "watchdog never promoted";
  EXPECT_GT(engine.heartbeat_misses(), 0u);
  EXPECT_EQ(engine.ShardTerm(0), 2u);
  EXPECT_TRUE(engine.ShardPair(0).promoted());
  // The watchdog was Reset() for the new epoch.
  EXPECT_EQ(engine.ShardWatchdog(0).state(), WatchdogState::kHealthy);

  // No dual primary: the revived old owner holds term 1 and every fenced
  // entry point refuses it.
  const Status stale_promote = engine.PromoteShard(0, 1);
  EXPECT_FALSE(stale_promote.ok());
  EXPECT_EQ(stale_promote.code(), StatusCode::kFenced);
  ExecutionResult out;
  const Status stale_exec =
      engine.ExecuteFenced(0, 1, w.ops, kRun, out);
  EXPECT_FALSE(stale_exec.ok());
  EXPECT_EQ(stale_exec.code(), StatusCode::kFenced);
  EXPECT_EQ(engine.fenced_promotes(), 2u);

  // The current term's holder executes normally.
  ExecutionResult ok_out;
  const Status current =
      engine.ExecuteFenced(0, 2, {w.ops.data(), 1}, kRun, ok_out);
  EXPECT_TRUE(current.ok()) << current.message();

  // The cluster still matches the serial oracle after the failover.
  const ExecutionResult after = engine.Run(w.ops, kRun);
  EXPECT_TRUE(after.status.ok()) << after.status.message();
  ExpectTreesByteIdentical(engine.ContentsTree(), ReplayPrefix(w, w.ops.size()),
                           "post_failover");
}

TEST_F(ClusterTest, DuplicateFailOverDoesNotBumpTheTerm) {
  ClusterOptions options;
  options.shards = 2;
  ClusterEngine engine(options);
  engine.Load(OneKeyPerByte());
  engine.KillShardPrimary(0);
  ASSERT_TRUE(engine.FailOverShard(0).ok());
  ASSERT_EQ(engine.ShardTerm(0), 2u);

  const Status again = engine.FailOverShard(0);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kAlreadyPromoted);
  EXPECT_EQ(engine.ShardTerm(0), 2u) << "duplicate failover bumped the term";
  EXPECT_EQ(engine.failovers(), 1u);
}

TEST_F(ClusterTest, RefusedWriteIsTypedAndFailsNothingOver) {
  // A shard's pair refuses an empty-key write with kInvalidArgument.  The
  // shard is healthy, so the cluster passes the status on and neither
  // fails over nor marks the range down.
  ClusterOptions options;
  options.shards = 2;
  ClusterEngine engine(options);
  engine.Load(OneKeyPerByte());
  const std::vector<Operation> ops = {{OpType::kWrite, Key{}, 1}};
  const ExecutionResult r = engine.Run(ops, kRun);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
      << r.status.message();
  EXPECT_EQ(engine.failovers(), 0u);
  EXPECT_FALSE(r.partial);
  const std::vector<Operation> write = {{OpType::kWrite, Key{0x10}, 7}};
  ASSERT_TRUE(engine.Run(write, kRun).status.ok());
  EXPECT_EQ(engine.Lookup(Key{0x10}), 7u);
}

TEST_F(ClusterTest, RejoinRebuildsShardInFreshEpoch) {
  const Workload w = ChurnWorkload(1000, 512);
  ClusterOptions options;
  options.shards = 3;
  ClusterEngine engine(options);
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());

  engine.KillShardPrimary(0);
  ASSERT_TRUE(engine.FailOverShard(0).ok());
  const art::Tree before = engine.ContentsTree();

  const Status rejoined = engine.RejoinShard(0);
  ASSERT_TRUE(rejoined.ok()) << rejoined.message();
  EXPECT_EQ(engine.ShardTerm(0), 3u);
  EXPECT_FALSE(engine.ShardPair(0).promoted())
      << "rejoin must yield a fresh primary/replica pair";
  ExpectTreesByteIdentical(engine.ContentsTree(), before, "rejoin");

  // The fresh pair serves and replicates new work.
  const ExecutionResult after = engine.Run(w.ops, kRun);
  EXPECT_TRUE(after.status.ok()) << after.status.message();
}

// --- rebalance -------------------------------------------------------------

TEST_F(ClusterTest, SplitShardPreservesContentsAndRetilesDirectory) {
  const Workload w = ChurnWorkload(1000, 512);
  ClusterOptions options;
  options.shards = 2;
  ClusterEngine engine(options);
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  const art::Tree before = engine.ContentsTree();
  const std::size_t shards_before = engine.shard_count();

  const Status split = engine.SplitShard(0);
  ASSERT_TRUE(split.ok()) << split.message();
  ASSERT_EQ(engine.shard_count(), shards_before + 1);

  // Directory still tiles; contents byte-identical; routing serves.
  unsigned expected_lo = 0;
  for (std::size_t i = 0; i < engine.shard_count(); ++i) {
    const auto [lo, hi] = engine.ShardRange(i);
    EXPECT_EQ(lo, expected_lo);
    expected_lo = hi + 1u;
  }
  EXPECT_EQ(expected_lo, 256u);
  ExpectTreesByteIdentical(engine.ContentsTree(), before, "split");

  const ExecutionResult after = engine.Run(w.ops, kRun);
  EXPECT_TRUE(after.status.ok()) << after.status.message();
  ExpectTreesByteIdentical(engine.ContentsTree(), ReplayPrefix(w, w.ops.size()),
                           "split_serving");
}

TEST_F(ClusterTest, SingleByteShardRefusesToSplit) {
  // 256 shards over an empty histogram: every shard owns exactly one byte,
  // so the split guard must refuse rather than manufacture an empty range.
  ClusterOptions options;
  options.shards = 256;
  ClusterEngine engine(options);
  ASSERT_EQ(engine.shard_count(), 256u);
  const Status refused = engine.SplitShard(0);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("single byte"), std::string::npos)
      << refused.message();
}

// --- registry --------------------------------------------------------------

// --- wrapper spans -------------------------------------------------------

/// How many spans of each name `run` records with the tracer on, and the
/// argument of the last one.
struct SpanCounts {
  std::map<std::string, std::size_t> count;
  std::map<std::string, std::uint64_t> last_arg;
};

SpanCounts TracedSpans(const std::function<void()>& run) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  run();
  tracer.Disable();
  SpanCounts spans;
  for (const obs::TraceEvent& event : tracer.Collect()) {
    ++spans.count[event.name];
    spans.last_arg[event.name] = event.arg_value;
  }
  tracer.Clear();
  return spans;
}

TEST_F(ClusterTest, TracedWrappersRecordTheirSpans) {
  Workload w = ChurnWorkload(1000, 8 * kBatch);
  for (std::size_t k = 0; k < w.ops.size(); k += kBatch / 2) {
    w.ops[k].type = OpType::kScan;  // two scans per batch to gather
    w.ops[k].scan_count = 10;
  }
  constexpr std::size_t kBatches = 8;

  // FT: one journal append per batch, and (ratio 0) a roll after each.
  const std::string dir = ::testing::TempDir() + "/cluster_spans";
  std::filesystem::remove_all(dir);
  resilience::ResilienceOptions ft_options;
  ft_options.dir = dir;
  ft_options.journal_to_snapshot_ratio = 0;
  resilience::ResilientEngine ft(ft_options);
  ft.Load(w.load_items);
  const SpanCounts ft_spans = TracedSpans(
      [&] { EXPECT_TRUE(ft.Run(w.ops, kRun).status.ok()); });
  EXPECT_EQ(ft_spans.count.at("ft.journal"), kBatches);
  EXPECT_EQ(ft_spans.count.at("ft.checkpoint"), kBatches);
  EXPECT_GT(ft_spans.last_arg.at("ft.checkpoint"), 0u);  // image_bytes
  std::filesystem::remove_all(dir);

  // HA: one shipped record per batch; the drain checksums both trees.
  resilience::ReplicatedEngine ha;
  ha.Load(w.load_items);
  const SpanCounts ha_spans = TracedSpans(
      [&] { EXPECT_TRUE(ha.Run(w.ops, kRun).status.ok()); });
  EXPECT_EQ(ha_spans.count.at("ha.ship"), kBatches);
  EXPECT_EQ(ha_spans.last_arg.at("ha.ship"), kBatch);
  EXPECT_GE(ha_spans.count.at("ha.checksum"), 2u);
  EXPECT_EQ(ha_spans.last_arg.at("ha.checksum"), ha.tree().size());

  // Cluster: one route and one gather per batch, around its shard pairs'.
  ClusterEngine cluster;
  cluster.Load(w.load_items);
  const SpanCounts cluster_spans = TracedSpans(
      [&] { EXPECT_TRUE(cluster.Run(w.ops, kRun).status.ok()); });
  EXPECT_EQ(cluster_spans.count.at("cluster.route"), kBatches);
  EXPECT_EQ(cluster_spans.last_arg.at("cluster.route"), kBatch);
  EXPECT_EQ(cluster_spans.count.at("cluster.gather"), kBatches);
  EXPECT_EQ(cluster_spans.last_arg.at("cluster.gather"), 2u);
  EXPECT_GE(cluster_spans.count.at("ha.ship"), kBatches);
  EXPECT_GE(cluster_spans.count.at("ha.checksum"), 2 * kBatches);
}

TEST_F(ClusterTest, ScansFollowTheRuntimeStackBatchContract) {
  // One batch [scan from a0 (up to 100), write X] pins the runtime stack's
  // batch contract (docs/ARCHITECTURE.md): every point op of a batch runs
  // before its scans.  So DCART-CP, -FT, -HA and -CLUSTER all scan the 4
  // loaded keys plus X, wherever X lands: in an existing bucket, under a
  // new root child (a deferred op), or in another bucket.  The contract
  // replay agrees; a replay in strict arrival order scans only the 4.
  struct Probe {
    const char* what;
    std::vector<std::string> loaded;
    std::string write;
  };
  const Probe probes[] = {
      {"another key in an existing bucket", {"a1", "a2", "b1", "b2"}, "b3"},
      {"a new root child", {"a1", "a2", "b1", "b2"}, "c1"},
      {"a key in another bucket", {"a1", "a2", "z1", "z2"}, "z3"},
  };
  const auto key = [](const std::string& text) {
    return Key(text.begin(), text.end());
  };
  for (const Probe& probe : probes) {
    SCOPED_TRACE(probe.what);
    std::vector<std::pair<Key, art::Value>> items;
    for (const std::string& loaded : probe.loaded) {
      items.emplace_back(key(loaded), 1);
    }
    const std::vector<Operation> batch = {
        {OpType::kScan, key("a0"), 0, 100},
        {OpType::kWrite, key(probe.write), 2}};
    SerialReplay contract;
    contract.Load(items);
    contract.Apply(batch, batch.size());
    EXPECT_EQ(contract.scan_entries, 5u);
    SerialReplay arrival;
    arrival.Load(items);
    arrival.Apply(batch);
    EXPECT_EQ(arrival.scan_entries, 4u);

    std::unique_ptr<IndexEngine> stack[] = {
        std::make_unique<dcartc::DcartCpEngine>(),
        std::make_unique<resilience::ResilientEngine>(),
        std::make_unique<resilience::ReplicatedEngine>(),
        std::make_unique<ClusterEngine>()};
    for (const auto& engine : stack) {
      SCOPED_TRACE(engine->name());
      engine->Load(items);
      const ExecutionResult r = engine->Run(batch, kRun);
      ASSERT_TRUE(r.status.ok()) << r.status.message();
      EXPECT_EQ(r.stats.scan_entries, 5u);
      EXPECT_EQ(engine->Lookup(key(probe.write)), 2u);
    }
  }
}

TEST_F(ClusterTest, RuntimeStackScansMatchTheContractReplay) {
  // Over whole workloads, at several batch sizes, every engine of the
  // runtime stack finds exactly what the contract replay finds: its reads
  // (per-key order) and its scans (after their batch's point ops).
  WorkloadConfig cfg;
  cfg.num_keys = 3000;
  cfg.num_ops = 20000;
  cfg.write_ratio = 0.3;
  cfg.remove_ratio = 0.1;
  cfg.scan_ratio = 0.05;
  cfg.zipf_theta = 0.99;
  for (const WorkloadKind kind :
       {WorkloadKind::kDICT, WorkloadKind::kDE, WorkloadKind::kIPGEO,
        WorkloadKind::kRS, WorkloadKind::kEA}) {
    const Workload w = MakeWorkload(kind, cfg);
    for (const std::size_t batch : {64, 256, 1024}) {
      SCOPED_TRACE(w.name + ", batch " + std::to_string(batch));
      SerialReplay contract;
      contract.Load(w.load_items);
      contract.Apply(w.ops, batch);
      ASSERT_GT(contract.scan_entries, 0u);

      std::unique_ptr<IndexEngine> stack[] = {
          std::make_unique<dcartc::DcartCpEngine>(),
          std::make_unique<resilience::ResilientEngine>(),
          std::make_unique<resilience::ReplicatedEngine>(),
          std::make_unique<ClusterEngine>()};
      for (const auto& engine : stack) {
        SCOPED_TRACE(engine->name());
        engine->Load(w.load_items);
        const ExecutionResult r = engine->Run(w.ops, BatchRun(batch, 2));
        ASSERT_TRUE(r.status.ok()) << r.status.message();
        EXPECT_EQ(r.stats.scan_entries, contract.scan_entries);
        EXPECT_EQ(r.reads_hit, contract.reads_hit);
      }
    }
  }
}

TEST_F(ClusterTest, EngineReportsClusterName) {
  ClusterEngine engine;
  EXPECT_EQ(engine.name(), "DCART-CLUSTER");
  EXPECT_GE(engine.shard_count(), 1u);
}

}  // namespace
}  // namespace dcart
