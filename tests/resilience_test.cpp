// Tests for the fault-injection half of the resilience layer: injector
// determinism, CRC32, the journal's framing, the DCART-CP runtime's
// recovery from a scan leaked into a bucket, and the DCART memory-fault
// sites (which may perturb modeled time/energy but never query results).
//
// Every fault test asserts the same load-bearing property as the fault-free
// suite: the post-run tree state and read-hit pattern equal a serial ART
// replay — faults may cost time, never correctness.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

#include "common/crc32.h"
#include "common/key_codec.h"
#include "common/rng.h"
#include "dcart/accelerator.h"
#include "dcartc/parallel_runtime.h"
#include "oracle.h"
#include "resilience/fault_injector.h"
#include "resilience/journal.h"
#include "workload/generators.h"

namespace dcart {
namespace {

using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSite;

/// CI runs this suite under a seed matrix; the properties below must hold
/// for every seed, only exact fire placements may move.
std::uint64_t EnvSeed() {
  const char* env = std::getenv("DCART_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// The injector is process-global: leave it disarmed between tests.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

RunConfig FaultRun(const FaultPlan& plan, std::size_t threads,
                   std::size_t batch) {
  RunConfig run;
  run.cpu.wall_threads = threads;
  run.batch_size = batch;
  run.faults = plan;
  return run;
}

// ------------------------------------------------------------------ CRC32

TEST_F(ResilienceTest, Crc32KnownAnswer) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // A single flipped bit changes the CRC.
  EXPECT_NE(Crc32("023456789", 9), Crc32("123456789", 9));
}

TEST_F(ResilienceTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndSplit) {
  // The sliced loop folds eight bytes per step; every length, alignment
  // and chaining split must agree with the plain bit-at-a-time definition.
  const auto reference = [](const std::uint8_t* data, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= data[i];
      for (int bit = 0; bit < 8; ++bit) {
        c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<std::uint8_t> bytes(80);
  SplitMix64 rng(EnvSeed());
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; offset + n <= bytes.size(); ++n) {
      const std::uint8_t* data = bytes.data() + offset;
      const std::uint32_t want = reference(data, n);
      ASSERT_EQ(Crc32(data, n), want) << offset << "+" << n;
      const std::size_t split = n / 3;
      ASSERT_EQ(Crc32(data + split, n - split, Crc32(data, split)), want);
    }
  }
}

// --------------------------------------------------------------- Injector

TEST_F(ResilienceTest, DisarmedInjectorNeverFires) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(resilience::FaultCheck(FaultSite::kScanDeferLeak));
  }
  EXPECT_EQ(injector.TotalFires(), 0u);
}

TEST_F(ResilienceTest, ProbabilityEndpointsAreExact) {
  FaultInjector& injector = FaultInjector::Global();
  FaultPlan plan;
  plan.seed = EnvSeed();
  plan.Probability(FaultSite::kHbmLatencySpike) = 1.0;
  plan.Probability(FaultSite::kScanDeferLeak) = 0.0;
  // Arming with any active site activates checking everywhere, but a
  // probability-0 site still never fires.
  plan.Probability(FaultSite::kNodeBufferEcc) = 0.5;
  injector.Arm(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(injector.ShouldFire(FaultSite::kHbmLatencySpike));
    EXPECT_FALSE(injector.ShouldFire(FaultSite::kScanDeferLeak));
  }
  EXPECT_EQ(injector.fires(FaultSite::kHbmLatencySpike), 200u);
  EXPECT_EQ(injector.fires(FaultSite::kScanDeferLeak), 0u);
}

TEST_F(ResilienceTest, SameSeedReplaysTheSameVerdictSequence) {
  FaultInjector& injector = FaultInjector::Global();
  FaultPlan plan;
  plan.seed = EnvSeed();
  plan.Probability(FaultSite::kHbmReadCorrupt) = 0.3;

  std::vector<bool> first;
  injector.Arm(plan);
  for (int i = 0; i < 500; ++i) {
    first.push_back(injector.ShouldFire(FaultSite::kHbmReadCorrupt));
  }
  injector.Arm(plan);  // re-arming resets the check counters
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(injector.ShouldFire(FaultSite::kHbmReadCorrupt), first[i]) << i;
  }

  // A different seed gives a different sequence (with p=0.3 over 500 draws,
  // 500 identical verdicts means the seed is being ignored).
  FaultPlan other = plan;
  other.seed = plan.seed + 1;
  injector.Arm(other);
  std::size_t diffs = 0;
  for (int i = 0; i < 500; ++i) {
    diffs += injector.ShouldFire(FaultSite::kHbmReadCorrupt) != first[i];
  }
  EXPECT_GT(diffs, 0u);

  // And the hit rate is in the right ballpark.
  const double rate =
      static_cast<double>(injector.fires(FaultSite::kHbmReadCorrupt)) / 500.0;
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.45);
}

TEST_F(ResilienceTest, TriggerAtFiresExactlyOnce) {
  FaultInjector& injector = FaultInjector::Global();
  FaultPlan plan;
  plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = 7;
  injector.Arm(plan);
  for (int check = 1; check <= 20; ++check) {
    EXPECT_EQ(injector.ShouldFire(FaultSite::kCrashAtBatchBoundary),
              check == 7)
        << check;
  }
  EXPECT_EQ(injector.fires(FaultSite::kCrashAtBatchBoundary), 1u);
  EXPECT_EQ(injector.checks(FaultSite::kCrashAtBatchBoundary), 20u);
}

// ---------------------------------------------------------------- Journal

std::vector<Operation> SomeOps(std::size_t n, std::uint64_t seed) {
  std::vector<Operation> ops;
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    Operation op;
    op.type = static_cast<OpType>(rng.NextBounded(4));
    op.key = EncodeU64(rng.NextBounded(1000));
    op.value = rng.Next();
    op.scan_count = op.type == OpType::kScan ? 10 : 0;
    ops.push_back(std::move(op));
  }
  return ops;
}

void ExpectSameOps(const std::vector<Operation>& a,
                   const std::vector<Operation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].key, b[i].key) << i;
    EXPECT_EQ(a[i].value, b[i].value) << i;
    EXPECT_EQ(a[i].scan_count, b[i].scan_count) << i;
  }
}

/// What a journal keeps of `ops`: its writes and removes, in order.
std::vector<Operation> StateChanges(std::span<const Operation> ops) {
  std::vector<Operation> changes;
  for (const Operation& op : ops) {
    if (op.type == OpType::kWrite || op.type == OpType::kRemove) {
      changes.push_back(op);
    }
  }
  return changes;
}

/// A batch of reads and scans only.
std::vector<Operation> ReadOnlyOps(std::size_t n) {
  std::vector<Operation> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const bool scan = i % 2 == 1;
    ops.push_back({scan ? OpType::kScan : OpType::kRead, EncodeU64(i), 0,
                   scan ? 10u : 0u});
  }
  return ops;
}

TEST_F(ResilienceTest, JournalRoundTripsRecords) {
  const std::string path = ::testing::TempDir() + "/journal_roundtrip.log";
  const std::vector<Operation> ops = SomeOps(300, EnvSeed());
  const std::vector<Operation> reads = ReadOnlyOps(50);

  resilience::OpJournal journal;
  ASSERT_TRUE(journal.Open(path));
  ASSERT_TRUE(journal.Append({ops.data(), 100}).ok());
  ASSERT_TRUE(journal.Append(reads).ok());  // an empty record, still one
  ASSERT_TRUE(journal.Append({ops.data() + 100, 200}).ok());
  journal.Close();

  std::vector<Operation> replayed;
  std::uint64_t records = 0;
  ASSERT_TRUE(resilience::ReplayJournal(path, replayed, &records).ok());
  EXPECT_EQ(records, 3u);
  ExpectSameOps(replayed, StateChanges(ops));
  std::remove(path.c_str());
}

TEST_F(ResilienceTest, JournalTornAppendIsTruncatedOnReplay) {
  const std::string path = ::testing::TempDir() + "/journal_torn.log";
  const std::vector<Operation> ops = SomeOps(300, EnvSeed() + 1);

  FaultPlan plan;
  plan.TriggerAt(FaultSite::kCrashMidBatch) = 4;  // fourth append tears
  FaultInjector::Global().Arm(plan);

  resilience::OpJournal journal;
  ASSERT_TRUE(journal.Open(path));
  ASSERT_TRUE(journal.Append({ops.data(), 100}).ok());
  ASSERT_TRUE(journal.Append(ReadOnlyOps(50)).ok());
  ASSERT_TRUE(journal.Append({ops.data() + 100, 100}).ok());
  EXPECT_FALSE(journal.Append({ops.data() + 200, 100}).ok());
  journal.Close();
  FaultInjector::Global().Disarm();

  // The torn fourth record is detected and dropped; the acknowledged three
  // records (the second one empty) replay intact.
  std::vector<Operation> replayed;
  std::uint64_t records = 0;
  ASSERT_TRUE(resilience::ReplayJournal(path, replayed, &records).ok());
  EXPECT_EQ(records, 3u);
  ExpectSameOps(replayed, StateChanges({ops.data(), 200}));
  std::remove(path.c_str());
}

// -------------------------------------------- DCART-CP under injection

// Regression for the old `assert(false && "scans are deferred at combine
// time")`: under NDEBUG that assert was a no-op and a leaked scan would run
// unsynchronized inside a worker.  Now the leak is recovered serially and
// surfaced as a Status error — in every build type.
TEST_F(ResilienceTest, LeakedScanIsRecoveredAndReported) {
  WorkloadConfig cfg;
  cfg.num_keys = 5000;
  cfg.num_ops = 20000;
  cfg.write_ratio = 0.2;
  cfg.scan_ratio = 0.05;
  const Workload w = MakeWorkload(WorkloadKind::kDE, cfg);

  FaultPlan plan;
  plan.seed = EnvSeed();
  plan.Probability(FaultSite::kScanDeferLeak) = 1.0;  // leak every scan

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  const ExecutionResult r = engine.Run(w.ops, FaultRun(plan, 8, 256));

  SerialReplay ref;
  ref.Load(w.load_items);
  ref.Apply(w.ops);

  EXPECT_GT(r.invariant_breaches, 0u);
  EXPECT_FALSE(r.status.ok());
  // The breach was contained: every op still executed, the tree and the
  // per-key read outcomes match the serial replay.  (Scan *entry counts*
  // are not compared exactly: a bounced scan runs in the serial catch-up
  // after its batch's parallel phase, the same already-documented timing
  // the regular deferral path gives scans.)
  EXPECT_EQ(r.stats.operations, w.ops.size());
  EXPECT_GT(r.stats.scan_entries, 0u);
  EXPECT_EQ(r.reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
}

// --------------------------------------------- DCART memory-fault sites

TEST_F(ResilienceTest, MemoryFaultsPerturbModelNeverResults) {
  WorkloadConfig cfg;
  cfg.num_keys = 4000;
  cfg.num_ops = 20000;
  cfg.write_ratio = 0.3;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);

  const auto run_once = [&w](const FaultPlan& plan) {
    accel::DcartEngine engine;
    engine.Load(w.load_items);
    RunConfig run;
    run.faults = plan;
    return std::make_pair(engine.Run(w.ops, run),
                          engine.Lookup(w.load_items.front().first));
  };

  const auto [clean, clean_lookup] = run_once(FaultPlan{});
  FaultInjector::Global().Disarm();

  FaultPlan plan;
  plan.seed = EnvSeed();
  plan.Probability(FaultSite::kHbmReadCorrupt) = 0.2;
  plan.Probability(FaultSite::kHbmLatencySpike) = 0.2;
  plan.Probability(FaultSite::kNodeBufferEcc) = 0.2;
  const auto [faulty, faulty_lookup] = run_once(plan);

  // ECC re-reads and latency spikes cost modeled time (and the extra HBM
  // traffic costs energy) but the executed results are bit-identical.
  EXPECT_GT(FaultInjector::Global().TotalFires(), 0u);
  EXPECT_GT(faulty.seconds, clean.seconds);
  EXPECT_GE(faulty.energy_joules, clean.energy_joules);
  EXPECT_EQ(faulty.reads_hit, clean.reads_hit);
  EXPECT_EQ(faulty.stats.operations, clean.stats.operations);
  EXPECT_EQ(faulty_lookup, clean_lookup);
}

}  // namespace
}  // namespace dcart
