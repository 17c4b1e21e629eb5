// Functional tests for the high-availability replication layer
// (resilience/replication.h): the link's injectable faults, alike over both
// byte pipes, the primary's retransmit/backoff/catch-up machinery,
// divergence detection and snapshot resync, failover promotion, and the
// Recover() failure diagnostics promotion reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "art/serialize.h"
#include "common/crc32.h"
#include "common/key_codec.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "resilience/fault_injector.h"
#include "resilience/replication.h"
#include "resilience/resilient_engine.h"
#include "workload/generators.h"

namespace dcart {
namespace {

namespace fs = std::filesystem;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSite;
using resilience::Frame;
using resilience::LinkKind;
using resilience::ReplicatedEngine;
using resilience::ReplicationLink;
using resilience::ReplicationOptions;
using resilience::ResilienceOptions;
using resilience::ResilientEngine;

constexpr std::size_t kBatch = 128;

class ReplicationTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

const RunConfig kRun = BatchRun(kBatch, 2);

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

TEST_F(ReplicationTest, CleanDurablePairConvergesByteIdentical) {
  const Workload w = ChurnWorkload(1000, 1024);
  const std::string dir = FreshDir("repl", "clean");

  ReplicationOptions options;
  options.dir = dir;
  options.journal_to_snapshot_ratio = 0.25;  // a roll every 2-3 batches
  ReplicatedEngine engine(options);
  engine.Load(w.load_items);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  // HA acknowledgement means replica-durable: all of it made it across.
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  EXPECT_EQ(engine.records_shipped(), engine.acked_records());
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "clean");
  fs::remove_all(dir);
}

TEST_F(ReplicationTest, InMemoryPairConverges) {
  const Workload w = ChurnWorkload(1000, 512);
  ReplicatedEngine engine;  // empty dir: link + replay without disks
  engine.Load(w.load_items);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "mem");
}

TEST_F(ReplicationTest, EmptyKeyRemoveDrainsToTheReplica) {
  // The primary acknowledges a remove of the empty key as a miss, so the
  // replica must apply its record, not ask for it until the drain gives up.
  const std::string dir = FreshDir("repl", "empty_key_remove");
  ReplicationOptions options;
  options.dir = dir;
  ReplicatedEngine engine(options);
  engine.Load({{EncodeU64(0), 5}});
  const std::vector<Operation> ops = {{OpType::kWrite, EncodeU64(1), 11},
                                      {OpType::kRemove, Key{}, 0},
                                      {OpType::kWrite, EncodeU64(2), 22}};
  RunConfig run = kRun;
  run.batch_size = 1;  // one record each
  const ExecutionResult r = engine.Run(ops, run);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, ops.size());
  EXPECT_EQ(engine.records_shipped(), engine.acked_records());
  EXPECT_EQ(engine.replica().Lookup(EncodeU64(2)), 22u);
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "empty_key");
  fs::remove_all(dir);
}

TEST_F(ReplicationTest, DroppedFrameIsRetransmitted) {
  const Workload w = ChurnWorkload(1000, 512);
  const std::uint64_t retries_before = CounterValue("replication.retries");

  ReplicatedEngine engine;
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kReplDrop) = 1;  // the very first record vanishes
  FaultInjector::Global().Arm(plan);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  EXPECT_GT(CounterValue("replication.retries"), retries_before);
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "drop");
}

TEST_F(ReplicationTest, DuplicateDeliveryIsAppliedExactlyOnce) {
  const Workload w = ChurnWorkload(1000, 512);
  ReplicatedEngine engine;
  engine.Load(w.load_items);
  const std::uint64_t dropped_before =
      CounterValue("replication.duplicates_dropped");
  FaultPlan plan;
  plan.seed = FaultSeed();
  // The link's second frame is the replica's ack of the first record, so
  // the primary resends a record the replica already applied.
  plan.TriggerAt(FaultSite::kReplDrop) = 2;
  FaultInjector::Global().Arm(plan);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  // Sequence-number dedupe: duplicates are re-acked, never re-applied.
  EXPECT_GT(CounterValue("replication.duplicates_dropped"), dropped_before);
  EXPECT_EQ(engine.replica().applied_records(), engine.records_shipped());
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "dup");
}

TEST_F(ReplicationTest, TruncatedFrameIsRejectedByCrcAndResent) {
  const Workload w = ChurnWorkload(1000, 512);
  const std::uint64_t rejects_before = CounterValue("replication.crc_rejects");

  ReplicatedEngine engine;
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kReplTruncate) = 1;
  FaultInjector::Global().Arm(plan);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  EXPECT_GT(CounterValue("replication.crc_rejects"), rejects_before);
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "trunc");
}

TEST_F(ReplicationTest, DisconnectBacksOffAndReconnects) {
  const Workload w = ChurnWorkload(1000, 512);
  const std::uint64_t reconnects_before =
      CounterValue("replication.reconnects");

  ReplicatedEngine engine;
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kReplDisconnect) = 2;
  FaultInjector::Global().Arm(plan);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  EXPECT_GT(CounterValue("replication.reconnects"), reconnects_before);
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "disc");
}

TEST_F(ReplicationTest, DivergenceIsDetectedAndResynced) {
  const Workload w = ChurnWorkload(1000, 512);
  const std::uint64_t diverged_before =
      CounterValue("replication.divergence_detected");

  ReplicatedEngine engine;
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());

  // A rogue out-of-band write on the replica (simulated bit rot / operator
  // mistake): the next checksum exchange must catch it and resync.
  engine.replica().CorruptForTest(Key{0xde, 0xad, 0xbe, 0xef}, 42);
  const Status drained = engine.Drain();
  ASSERT_TRUE(drained.ok()) << drained.message();
  EXPECT_GT(CounterValue("replication.divergence_detected"), diverged_before);
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "diverge");
}

/// A kSnapshot frame carrying `image` as the record floor `sequence`.
Frame SnapshotFrame(std::vector<std::uint8_t> image, std::uint64_t sequence) {
  Frame frame;
  frame.type = resilience::FrameType::kSnapshot;
  frame.sequence = sequence;
  frame.payload = std::move(image);
  frame.payload_crc = Crc32(frame.payload.data(), frame.payload.size());
  return frame;
}

/// A kRecord frame carrying `ops`.
Frame RecordFrame(std::uint64_t sequence, const std::vector<Operation>& ops) {
  Frame frame;
  frame.sequence = sequence;
  frame.payload_crc =
      resilience::EncodeRecordPayload(sequence, ops, frame.payload);
  return frame;
}

/// A kRecord frame whose one op writes EncodeU64(sequence) -> sequence.
Frame RecordFrame(std::uint64_t sequence) {
  return RecordFrame(sequence,
                     {{OpType::kWrite, EncodeU64(sequence), sequence}});
}

/// Every frame waiting at the primary's end of `link`.
std::vector<Frame> FramesAtPrimary(ReplicationLink& link) {
  std::vector<Frame> frames;
  Frame frame;
  while (link.ReceiveAtPrimary(frame)) frames.push_back(frame);
  return frames;
}

TEST_F(ReplicationTest, ReplicaAppliesTheSn3ImageOfASnapshotFrame) {
  art::Tree source;
  for (std::uint64_t i = 0; i < 300; ++i) source.Insert(EncodeU64(i * 13), i);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(art::EncodeTree(source, AppendTo(image)));

  ReplicationLink link(LinkKind::kInProcess);
  ASSERT_TRUE(link.Connect().ok());
  resilience::ReplicaEngine replica(ReplicationOptions{});
  ASSERT_TRUE(link.SendToReplica(SnapshotFrame(image, 5)).ok());
  replica.Pump(link);
  EXPECT_EQ(replica.applied_records(), 5u);
  EXPECT_EQ(replica.applied_ops(), source.size());
  ExpectTreesByteIdentical(replica.tree(), source, "sn3_frame");
  const std::vector<Frame> replies = FramesAtPrimary(link);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, resilience::FrameType::kAck);
  EXPECT_EQ(replies[0].sequence, 5u);
  EXPECT_TRUE(replies[0].has_checksum);
  EXPECT_EQ(replies[0].tree_checksum, resilience::TreeChecksum(source));
}

TEST_F(ReplicationTest, ReplicaRejectsAResealedImageWithABadKeyOrder) {
  // Keys {10 20} and {10 30}.  SN3 lays the second entry out at offset 28
  // (magic, count, then 00 02 10 20 and a u64 value) as 01 01 30 ...
  art::Tree source;
  source.Insert(Key{0x10, 0x20}, 1);
  source.Insert(Key{0x10, 0x30}, 2);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(art::EncodeTree(source, AppendTo(image)));
  ASSERT_EQ(image.size(), 16u + 12 + 11 + 4);
  constexpr std::size_t kSecond = 28;
  const auto resealed = [&image](std::size_t at, std::uint8_t byte) {
    std::vector<std::uint8_t> forged = image;
    forged[at] = byte;
    const std::uint32_t crc = Crc32(forged.data(), forged.size() - 4);
    std::memcpy(forged.data() + forged.size() - 4, &crc, sizeof crc);
    return forged;
  };
  const std::vector<std::pair<std::vector<std::uint8_t>, const char*>>
      forgeries = {{resealed(kSecond + 2, 0x05), "10 05 after 10 20"},
                   {resealed(kSecond, 0x02), "10 20 30 extends 10 20"}};
  for (const auto& [forged, what] : forgeries) {
    SCOPED_TRACE(what);
    ReplicationLink link(LinkKind::kInProcess);
    ASSERT_TRUE(link.Connect().ok());
    resilience::ReplicaEngine replica(ReplicationOptions{});
    ASSERT_TRUE(link.SendToReplica(SnapshotFrame(image, 3)).ok());
    replica.Pump(link);
    ASSERT_EQ(FramesAtPrimary(link).size(), 1u);  // the snapshot's ack

    const std::uint64_t rejects_before =
        CounterValue("replication.crc_rejects");
    ASSERT_TRUE(link.SendToReplica(SnapshotFrame(forged, 9)).ok());
    replica.Pump(link);
    EXPECT_EQ(CounterValue("replication.crc_rejects") - rejects_before, 1u);
    const std::vector<Frame> replies = FramesAtPrimary(link);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, resilience::FrameType::kCatchUpRequest);
    EXPECT_EQ(replies[0].sequence, 3u);  // the floor the good image set
    EXPECT_EQ(replica.applied_records(), 3u);
    ExpectTreesByteIdentical(replica.tree(), source, "resealed");
  }
}

TEST_F(ReplicationTest, ReplicaDropsALateSnapshotCopyBelowItsFloor) {
  // An image copy that arrives after the record above it: the wire is
  // input, and applying that late copy would roll the replica back past a
  // record the primary counts as acknowledged.
  const auto source = [] {
    art::Tree tree;
    for (std::uint64_t i = 1; i <= 100; ++i) tree.Insert(EncodeU64(i), i);
    return tree;
  };
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(art::EncodeTree(source(), AppendTo(image)));
  const Frame snapshot = SnapshotFrame(image, 0);

  ReplicationLink link(LinkKind::kInProcess);
  ASSERT_TRUE(link.Connect().ok());
  resilience::ReplicaEngine replica(ReplicationOptions{});
  for (const Frame& frame : {snapshot, RecordFrame(0)}) {
    ASSERT_TRUE(link.SendToReplica(frame).ok());
    replica.Pump(link);
  }
  ASSERT_EQ(replica.applied_records(), 1u);
  ASSERT_EQ(FramesAtPrimary(link).size(), 2u);  // one ack each

  const std::uint64_t dropped_before =
      CounterValue("replication.duplicates_dropped");
  ASSERT_TRUE(link.SendToReplica(snapshot).ok());  // the late copy
  replica.Pump(link);
  EXPECT_EQ(CounterValue("replication.duplicates_dropped") - dropped_before,
            1u);
  EXPECT_EQ(replica.applied_records(), 1u);
  art::Tree want = source();
  want.Insert(EncodeU64(0), 0);
  ExpectTreesByteIdentical(replica.tree(), want, "late_snapshot");
  const std::vector<Frame> replies = FramesAtPrimary(link);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, resilience::FrameType::kAck);
  EXPECT_EQ(replies[0].sequence, 1u);
  EXPECT_FALSE(replies[0].has_checksum);
}

/// An in-process link and a replica that applied RecordFrame(0) (floor 1),
/// its ack already taken off the link.
struct ReplicaAtFloorOne {
  ReplicationLink link{LinkKind::kInProcess};
  resilience::ReplicaEngine replica{ReplicationOptions{}};

  ReplicaAtFloorOne() {
    EXPECT_TRUE(link.Connect().ok());
    EXPECT_EQ(Feed(RecordFrame(0)).size(), 1u);
  }
  /// Send `frame` to the replica, pump it, and return its replies.
  std::vector<Frame> Feed(const Frame& frame) {
    EXPECT_TRUE(link.SendToReplica(frame).ok());
    replica.Pump(link);
    return FramesAtPrimary(link);
  }
};

TEST_F(ReplicationTest, ReplicaReAcksADuplicateRecordAtItsFloor) {
  ReplicaAtFloorOne pair;
  const std::uint64_t dropped_before =
      CounterValue("replication.duplicates_dropped");
  const std::vector<Frame> replies = pair.Feed(RecordFrame(0));
  EXPECT_EQ(CounterValue("replication.duplicates_dropped") - dropped_before,
            1u);
  EXPECT_EQ(pair.replica.applied_records(), 1u);
  EXPECT_EQ(pair.replica.applied_ops(), 1u);  // applied once
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, resilience::FrameType::kAck);
  EXPECT_EQ(replies[0].sequence, 1u);
  EXPECT_FALSE(replies[0].has_checksum);
}

TEST_F(ReplicationTest, ReplicaAsksForItsFloorOnAGapAndAppliesNothing) {
  ReplicaAtFloorOne pair;
  const std::uint64_t requests_before =
      CounterValue("replication.catchup_requests");
  const std::vector<Frame> replies = pair.Feed(RecordFrame(2));  // 1 missing
  EXPECT_EQ(CounterValue("replication.catchup_requests") - requests_before,
            1u);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, resilience::FrameType::kCatchUpRequest);
  EXPECT_EQ(replies[0].sequence, 1u);
  EXPECT_EQ(pair.replica.applied_records(), 1u);
  EXPECT_EQ(pair.replica.applied_ops(), 1u);
  EXPECT_EQ(pair.replica.Lookup(EncodeU64(2)), std::nullopt);
}

TEST_F(ReplicationTest, ReplicaAppliesTheMissingRecordThenTheHeldOneInOrder) {
  // Both records write `shared`, so the value left shows which applied
  // last; record 1 also writes a key of its own.
  const Key shared = EncodeU64(7);
  const std::vector<Operation> one = {{OpType::kWrite, shared, 1},
                                      {OpType::kWrite, EncodeU64(1), 1}};
  const std::vector<Operation> two = {{OpType::kWrite, shared, 2}};
  ReplicaAtFloorOne pair;
  const std::vector<Frame> request = pair.Feed(RecordFrame(2, two));
  ASSERT_EQ(request.size(), 1u);
  ASSERT_EQ(request[0].type, resilience::FrameType::kCatchUpRequest);
  for (const auto& [sequence, ops] : {std::pair{1u, one}, std::pair{2u, two}}) {
    const std::vector<Frame> replies = pair.Feed(RecordFrame(sequence, ops));
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, resilience::FrameType::kAck);
    EXPECT_EQ(replies[0].sequence, sequence + 1);
  }
  EXPECT_EQ(pair.replica.applied_records(), 3u);
  art::Tree want;
  want.Insert(EncodeU64(0), 0);
  want.Insert(EncodeU64(1), 1);
  want.Insert(shared, 2);
  ExpectTreesByteIdentical(pair.replica.tree(), want, "gap_filled");
}

TEST_F(ReplicationTest, ReloadedPairConvergesByteIdentical) {
  // Sequences count on across Load(): the second bootstrap image takes a
  // floor above the one the replica reached, so the replica takes it, and
  // the second run's records follow it.
  WorkloadConfig cfg;
  cfg.num_keys = 700;
  cfg.num_ops = 384;
  cfg.write_ratio = 0.4;
  cfg.remove_ratio = 0.15;
  cfg.seed = 7;
  const Workload workloads[] = {ChurnWorkload(1000, 512),
                                MakeWorkload(WorkloadKind::kRS, cfg)};
  const std::string dir = FreshDir("repl", "reload");
  ReplicationOptions options;
  options.dir = dir;
  options.journal_to_snapshot_ratio = 0.25;  // a roll every 2-3 batches
  ReplicatedEngine engine(options);
  for (const Workload& w : workloads) {
    engine.Load(w.load_items);
    const ExecutionResult r = engine.Run(w.ops, kRun);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.ops_acknowledged, w.ops.size());
    EXPECT_EQ(engine.records_shipped(), engine.acked_records());
    ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                             "reload");
  }
  fs::remove_all(dir);
}

TEST_F(ReplicationTest, FailedBootstrapIsRetriedBeforeTheNextRecord) {
  // A Load() whose image never arrives leaves the replica without the
  // loaded tree.  The sync stays owed, so the next batch resyncs the
  // replica before it is acknowledged, and a failover right after that
  // batch serves the loaded tree plus the batch.
  const Workload w = ChurnWorkload(1000, 256);  // exactly 2 batches of 128
  const std::string dir = FreshDir("repl", "failed_bootstrap");
  ReplicationOptions options;
  options.dir = dir;
  ReplicatedEngine engine(options);
  FaultPlan drop_all;
  drop_all.Probability(FaultSite::kReplDrop) = 1.0;
  FaultInjector::Global().Arm(drop_all);
  engine.Load(w.load_items);  // gives up after the drain tick budget
  FaultInjector::Global().Disarm();
  EXPECT_FALSE(engine.Run({}, kRun).status.ok());  // the parked failure

  FaultPlan crash;
  crash.seed = FaultSeed();
  crash.TriggerAt(FaultSite::kCrashAtBatchBoundary) = 2;
  FaultInjector::Global().Arm(crash);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  FaultInjector::Global().Disarm();
  ASSERT_FALSE(r.status.ok());
  ASSERT_EQ(r.ops_acknowledged, kBatch);
  engine.KillPrimary();
  const Status promoted = engine.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.message();
  art::Tree want;
  for (const auto& [key, value] : w.load_items) want.Insert(key, value);
  resilience::ApplyToTree(want, std::span(w.ops).first(kBatch));
  ExpectTreesByteIdentical(engine.tree(), want, "failed_bootstrap");
  fs::remove_all(dir);
}

TEST_F(ReplicationTest, RunAcknowledgesOnlyTheOpsItShipped) {
  // A Run() whose record and resync both give up acknowledges nothing, and
  // its clients retry those ops.  The next Run() resyncs the replica with
  // an image that carries them, yet must count only its own ops: a larger
  // count would tell clients to skip requests that were never delivered.
  const Workload w = ChurnWorkload(1000, 384);  // exactly 3 batches of 128
  const std::span<const Operation> ops(w.ops);
  ReplicatedEngine engine;
  engine.Load(w.load_items);
  FaultPlan drop_all;
  drop_all.Probability(FaultSite::kReplDrop) = 1.0;
  FaultInjector::Global().Arm(drop_all);
  const ExecutionResult gave_up = engine.Run(ops.first(kBatch), kRun);
  FaultInjector::Global().Disarm();
  ASSERT_FALSE(gave_up.status.ok());
  EXPECT_EQ(gave_up.ops_acknowledged, 0u);

  FaultPlan crash;
  crash.seed = FaultSeed();
  crash.TriggerAt(FaultSite::kCrashAtBatchBoundary) = 2;
  FaultInjector::Global().Arm(crash);
  const ExecutionResult partial = engine.Run(ops.subspan(kBatch), kRun);
  FaultInjector::Global().Disarm();
  ASSERT_FALSE(partial.status.ok());  // the crash fired before batch 2
  EXPECT_EQ(partial.ops_acknowledged, kBatch);
}

TEST_F(ReplicationTest, DroppedBootstrapSnapshotIsResent) {
  const Workload w = ChurnWorkload(1000, 256);
  const std::uint64_t retries_before = CounterValue("replication.retries");
  ReplicatedEngine engine;
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kReplDrop) = 1;  // the bootstrap image vanishes
  FaultInjector::Global().Arm(plan);
  engine.Load(w.load_items);
  EXPECT_EQ(FaultInjector::Global().fires(FaultSite::kReplDrop), 1u);
  FaultInjector::Global().Disarm();
  EXPECT_GT(CounterValue("replication.retries"), retries_before);
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "boot_drop");
  const ExecutionResult r = engine.Run(w.ops, kRun);  // nothing parked
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
}

TEST_F(ReplicationTest, DroppedChecksumProbeIsResent) {
  const Workload w = ChurnWorkload(1000, 256);
  ReplicatedEngine engine;
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  const std::uint64_t retries_before = CounterValue("replication.retries");
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kReplDrop) = 1;  // the probe is Drain()'s 1st frame
  FaultInjector::Global().Arm(plan);
  const Status drained = engine.Drain();
  EXPECT_EQ(FaultInjector::Global().fires(FaultSite::kReplDrop), 1u);
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(drained.ok()) << drained.message();
  EXPECT_GT(CounterValue("replication.retries"), retries_before);
}

TEST_F(ReplicationTest, KillPrimaryThenPromoteServesReplicaState) {
  const Workload w = ChurnWorkload(1000, 1024);
  const std::string dir = FreshDir("repl", "failover");

  ReplicationOptions options;
  options.dir = dir;
  ReplicatedEngine engine(options);
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());

  engine.KillPrimary();
  EXPECT_FALSE(engine.Run(w.ops, kRun).status.ok());  // fenced
  EXPECT_EQ(engine.Lookup(w.load_items.front().first), std::nullopt);

  const Status promoted = engine.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.message();
  ASSERT_TRUE(engine.promoted());

  // The promoted replica serves exactly the replicated state...
  art::Tree want;
  for (const auto& [key, value] : w.load_items) want.Insert(key, value);
  for (const Operation& op : w.ops) {
    if (op.type == OpType::kWrite) want.Insert(op.key, op.value);
    if (op.type == OpType::kRemove) want.Remove(op.key);
  }
  ExpectTreesByteIdentical(engine.tree(), want, "promoted");

  // ...and accepts new work through the same IndexEngine surface.
  const ExecutionResult after = engine.Run(w.ops, kRun);
  EXPECT_TRUE(after.status.ok()) << after.status.message();
  fs::remove_all(dir);
}

TEST_F(ReplicationTest, PromoteWithoutDurabilityServesLiveTree) {
  const Workload w = ChurnWorkload(1000, 256);
  ReplicatedEngine engine;  // in-memory pair
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  engine.KillPrimary();
  const Status promoted = engine.Promote();
  EXPECT_TRUE(promoted.ok()) << promoted.message();
  EXPECT_TRUE(engine.promoted());
  // Without disks the promoted engine serves the live replica tree, which
  // converged with the (fenced) primary before the kill.
  ExpectTreesByteIdentical(engine.tree(), engine.primary().tree(), "mempromo");
}

// --- Recover() failure diagnostics (surfaced by failover promotion) --------

TEST_F(ReplicationTest, RecoverWithoutDurabilityExplainsWhy) {
  const std::uint64_t failures_before =
      CounterValue("resilience.recover.failures");
  ResilientEngine ephemeral;
  EXPECT_FALSE(ephemeral.Recover());
  EXPECT_FALSE(ephemeral.last_recover_error().ok());
  EXPECT_NE(ephemeral.last_recover_error().message().find(
                "durability is disabled"),
            std::string::npos)
      << ephemeral.last_recover_error().message();
  EXPECT_GT(CounterValue("resilience.recover.failures"), failures_before);
}

TEST_F(ReplicationTest, RecoverFromEmptyDirNamesTheDirectory) {
  ResilienceOptions options;
  options.dir = FreshDir("repl", "empty");
  ResilientEngine engine(options);
  EXPECT_FALSE(engine.Recover());
  const std::string& message = engine.last_recover_error().message();
  EXPECT_NE(message.find("no snapshot generation"), std::string::npos)
      << message;
  EXPECT_NE(message.find(options.dir), std::string::npos) << message;
  fs::remove_all(options.dir);
}

TEST_F(ReplicationTest, RecoverNamesEveryRejectedGeneration) {
  const Workload w = ChurnWorkload(1000, 512);
  ResilienceOptions options;
  options.dir = FreshDir("repl", "rejected");
  options.journal_to_snapshot_ratio = 0.2;  // a roll every 2 batches
  {
    ResilientEngine engine(options);
    engine.Load(w.load_items);
    ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  }
  // Truncate every snapshot: recovery must try each generation, reject it
  // with a reason naming it, and report the full audit trail.
  for (const auto& entry : fs::directory_iterator(options.dir)) {
    if (entry.path().filename().string().starts_with("snapshot-")) {
      fs::resize_file(entry.path(), 4);
    }
  }
  ResilientEngine restarted(options);
  EXPECT_FALSE(restarted.Recover());
  const std::string& message = restarted.last_recover_error().message();
  EXPECT_NE(message.find("is unusable"), std::string::npos) << message;
  EXPECT_NE(message.find("rejected: snapshot unloadable"), std::string::npos)
      << message;
  // A successful recovery clears the diagnostic.
  fs::remove_all(options.dir);
}

TEST_F(ReplicationTest, SuccessfulRecoverClearsDiagnostic) {
  const Workload w = ChurnWorkload(1000, 256);
  ResilienceOptions options;
  options.dir = FreshDir("repl", "clears");
  {
    ResilientEngine engine(options);
    engine.Load(w.load_items);
    ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  }
  ResilientEngine restarted(options);
  EXPECT_FALSE(restarted.last_recover_error().ok() &&
               !restarted.last_recover_error().message().empty());
  ASSERT_TRUE(restarted.Recover());
  EXPECT_TRUE(restarted.last_recover_error().ok());
  fs::remove_all(options.dir);
}

TEST_F(ReplicationTest, RegistryBuildsHaEngine) {
  // Constructed through the registry like every other engine (the registry
  // test sweeps all names; this pins the HA-specific surface).
  ReplicatedEngine engine;
  EXPECT_EQ(engine.name(), "DCART-CP-HA");
}

// --- backoff jitter --------------------------------------------------------

TEST_F(ReplicationTest, JitteredBackoffBounds) {
  // Pins the contract documented in replication.h: the jittered wait stays
  // in [(base+1)/2, base], is deterministic in (base, salt), and actually
  // varies with the salt (the de-synchronization that motivates jitter).
  using resilience::JitteredBackoff;
  for (const std::uint64_t base : {2ull, 3ull, 7ull, 8ull, 64ull, 1024ull}) {
    for (std::uint64_t salt = 0; salt < 64; ++salt) {
      const std::uint64_t wait = JitteredBackoff(base, salt);
      EXPECT_GE(wait, (base + 1) / 2) << "base=" << base << " salt=" << salt;
      EXPECT_LE(wait, base) << "base=" << base << " salt=" << salt;
      EXPECT_EQ(wait, JitteredBackoff(base, salt)) << "not deterministic";
    }
  }
  // Degenerate bases pass through unchanged (no division tricks on 0/1).
  EXPECT_EQ(JitteredBackoff(0, 7), 0u);
  EXPECT_EQ(JitteredBackoff(1, 7), 1u);
  std::set<std::uint64_t> distinct;
  for (std::uint64_t salt = 0; salt < 32; ++salt) {
    distinct.insert(JitteredBackoff(1024, salt));
  }
  EXPECT_GT(distinct.size(), 8u) << "jitter is collapsing to few values";
}

// --- failover edge cases (ISSUE satellite) ---------------------------------

TEST_F(ReplicationTest, DoublePromoteReturnsTypedStatus) {
  const Workload w = ChurnWorkload(1000, 256);
  ReplicatedEngine engine;
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  engine.KillPrimary();
  ASSERT_TRUE(engine.Promote().ok());

  const Status again = engine.Promote();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kAlreadyPromoted);
  EXPECT_NE(again.message().find("already promoted"), std::string::npos)
      << again.message();
  // The duplicate attempt must not disturb the serving engine.
  EXPECT_TRUE(engine.promoted());
  EXPECT_TRUE(engine.Run(w.ops, kRun).status.ok());
}

TEST_F(ReplicationTest, PromoteDuringCatchUpReplaysRemainingWindow) {
  // A primary that sends a record and dies before the ack comes back
  // leaves that record on the link when Promote() is called.  Promotion
  // must drain the link before serving, or the promoted replica silently
  // forgets the shipped tail.
  const Workload w = ChurnWorkload(1000, 256);  // exactly 2 batches of 128
  const std::span<const Operation> ops(w.ops);
  ReplicatedEngine engine;
  engine.Load(w.load_items);
  ASSERT_TRUE(engine.Run(ops.first(kBatch), kRun).status.ok());

  // The second batch's record, sent the way the primary sends it; then the
  // primary dies before the replica reads it.
  Frame record;
  record.sequence = engine.records_shipped();
  record.payload_crc = resilience::EncodeRecordPayload(
      record.sequence, ops.subspan(kBatch), record.payload);
  ASSERT_TRUE(engine.link().SendToReplica(record).ok());
  engine.KillPrimary();
  ASSERT_EQ(engine.replica().applied_records(), record.sequence);

  const Status promoted = engine.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.message();
  EXPECT_EQ(engine.replica().applied_records(), record.sequence + 1);
  // The promoted tree carries both batches: the serial replay of the stream.
  art::Tree want;
  for (const auto& [key, value] : w.load_items) want.Insert(key, value);
  resilience::ApplyToTree(want, ops);
  ExpectTreesByteIdentical(engine.tree(), want, "catchup");
}

// --- socket link (resilience/socket_link.h) --------------------------------

ReplicationOptions SocketOptions() {
  ReplicationOptions options;
  options.link = resilience::LinkKind::kSocket;
  return options;
}

TEST_F(ReplicationTest, SocketPairConvergesByteIdentical) {
  const Workload w = ChurnWorkload(1000, 512);
  ReplicatedEngine engine(SocketOptions());
  engine.Load(w.load_items);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "sock_clean");
}

TEST_F(ReplicationTest, SocketPartialWriteTearsAndRecovers) {
  const Workload w = ChurnWorkload(1000, 512);
  const std::uint64_t reconnects_before =
      CounterValue("replication.reconnects");
  ReplicatedEngine engine(SocketOptions());
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kNetPartialWrite) = 2;  // torn mid-frame on wire
  FaultInjector::Global().Arm(plan);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  EXPECT_GT(CounterValue("replication.reconnects"), reconnects_before);
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "sock_partial_write");
}

TEST_F(ReplicationTest, SocketPartialReadsReassembleFrames) {
  const Workload w = ChurnWorkload(1000, 512);
  ReplicatedEngine engine(SocketOptions());
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.Probability(FaultSite::kNetPartialRead) = 0.3;  // dribbling recv()s
  FaultInjector::Global().Arm(plan);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "sock_partial_read");
}

TEST_F(ReplicationTest, SocketConnectTimeoutRetriesReconnect) {
  const Workload w = ChurnWorkload(1000, 512);
  const std::uint64_t reconnects_before =
      CounterValue("replication.reconnects");
  ReplicatedEngine engine(SocketOptions());
  engine.Load(w.load_items);
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kReplDisconnect) = 2;   // tear the link...
  plan.TriggerAt(FaultSite::kNetConnectTimeout) = 1;  // ...1st redial fails
  FaultInjector::Global().Arm(plan);
  const ExecutionResult r = engine.Run(w.ops, kRun);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  EXPECT_GT(CounterValue("replication.reconnects"), reconnects_before);
  ExpectTreesByteIdentical(engine.replica().tree(), engine.primary().tree(),
                           "sock_connect_timeout");
}

// --- one link contract over both pipes -------------------------------------
//
// ReplicationLink driven directly: three record frames sent per tick, every
// delivery at the replica logged as (tick, sequence, payload CRC ok).  Each
// fault site, fired on the 2nd frame, must have its documented effect, and
// the TCP pipe must log exactly what the in-memory pipe logs.

constexpr std::size_t kFramesPerTick = 3;
constexpr std::uint64_t kSendTicks = 6;
constexpr std::uint64_t kTicks = 10;
constexpr std::uint64_t kRedialTick = 3;  // a downed link redials from here

struct Delivery {
  std::uint64_t tick = 0;
  std::uint64_t sequence = 0;
  bool crc_ok = false;
  bool operator==(const Delivery&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Delivery& d) {
  return out << "{tick " << d.tick << ", seq " << d.sequence
             << (d.crc_ok ? "" : ", bad crc") << "}";
}

struct LinkLog {
  std::vector<Delivery> delivered;
  std::vector<std::uint64_t> refused;  // sequences whose send failed
  std::vector<bool> up;                // link state at the end of each tick
  bool operator==(const LinkLog&) const = default;
};

/// Run the script over a fresh link of `kind` with `plan` armed.
LinkLog DriveLink(LinkKind kind, const FaultPlan& plan) {
  ReplicationLink link(kind);
  EXPECT_TRUE(link.Connect().ok());
  FaultInjector::Global().Arm(plan);
  LinkLog log;
  std::uint64_t next = 0;
  for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
    EXPECT_EQ(link.now(), tick);
    if (!link.connected() && tick >= kRedialTick) link.Reconnect();
    for (std::size_t i = 0; tick < kSendTicks && i < kFramesPerTick; ++i) {
      const std::uint64_t sequence = next++;
      if (!link.SendToReplica(RecordFrame(sequence)).ok()) {
        log.refused.push_back(sequence);
      }
    }
    Frame frame;
    while (link.ReceiveAtReplica(frame)) {
      log.delivered.push_back(
          {tick, frame.sequence,
           Crc32(frame.payload.data(), frame.payload.size()) ==
               frame.payload_crc});
    }
    log.up.push_back(link.connected());
    link.Tick();
  }
  FaultInjector::Global().Disarm();
  return log;
}

std::vector<std::uint64_t> Sequences(const LinkLog& log) {
  std::vector<std::uint64_t> out;
  for (const Delivery& d : log.delivered) out.push_back(d.sequence);
  return out;
}

std::vector<std::uint64_t> Range(std::uint64_t from, std::uint64_t to) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = from; s < to; ++s) out.push_back(s);
  return out;
}

class ReplicationLinkTest : public ::testing::TestWithParam<LinkKind> {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }

  /// The log on the pipe under test, checked against the in-memory pipe's.
  LinkLog Drive(const FaultPlan& plan) {
    const LinkLog log = DriveLink(GetParam(), plan);
    EXPECT_EQ(log, DriveLink(LinkKind::kInProcess, plan))
        << "the pipes disagree";
    return log;
  }

  static FaultPlan SecondFrame(FaultSite site) {
    FaultPlan plan;
    plan.seed = FaultSeed();
    plan.TriggerAt(site) = 2;
    return plan;
  }
};

TEST_P(ReplicationLinkTest, CleanLinkDeliversEveryFrameOnItsTick) {
  const LinkLog log = Drive(FaultPlan{});
  EXPECT_EQ(Sequences(log), Range(0, kSendTicks * kFramesPerTick));
  for (const Delivery& d : log.delivered) {
    EXPECT_EQ(d.tick, d.sequence / kFramesPerTick);
    EXPECT_TRUE(d.crc_ok);
  }
  EXPECT_TRUE(log.refused.empty());
}

TEST_P(ReplicationLinkTest, DropLosesTheFrame) {
  const LinkLog log = Drive(SecondFrame(FaultSite::kReplDrop));
  std::vector<std::uint64_t> want = Range(0, kSendTicks * kFramesPerTick);
  want.erase(want.begin() + 1);
  EXPECT_EQ(Sequences(log), want);
  EXPECT_TRUE(log.refused.empty());
}

TEST_P(ReplicationLinkTest, TruncateFailsThePayloadCrc) {
  const LinkLog log = Drive(SecondFrame(FaultSite::kReplTruncate));
  ASSERT_EQ(Sequences(log), Range(0, kSendTicks * kFramesPerTick));
  for (const Delivery& d : log.delivered) {
    EXPECT_EQ(d.crc_ok, d.sequence != 1) << d;
  }
}

TEST_P(ReplicationLinkTest, DisconnectRefusesSendsUntilReconnect) {
  const LinkLog log = Drive(SecondFrame(FaultSite::kReplDisconnect));
  // Frame 1 tears the link; every send until the redial is refused.
  EXPECT_EQ(log.refused, Range(1, kRedialTick * kFramesPerTick));
  for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
    EXPECT_EQ(log.up[tick], tick >= kRedialTick) << "tick " << tick;
  }
  // Frame 0 was already on the pipe when the link tore: it dies with the
  // tear, as over TCP.  Delivery resumes with the frames sent after the
  // redial.
  ASSERT_FALSE(log.delivered.empty());
  EXPECT_EQ(log.delivered.front(),
            (Delivery{kRedialTick, kRedialTick * kFramesPerTick, true}));
  EXPECT_EQ(Sequences(log), Range(kRedialTick * kFramesPerTick,
                                  kSendTicks * kFramesPerTick));
}

TEST_P(ReplicationLinkTest, PartialWriteTearsTheStream) {
  const LinkLog log = Drive(SecondFrame(FaultSite::kNetPartialWrite));
  EXPECT_FALSE(log.up[0]);
  EXPECT_TRUE(log.up[kRedialTick]);
  // Frame 0 was on the pipe and frame 1 half on it when the stream tore:
  // both are gone, though frame 1's send reported success, as a short
  // write() does.  Every later send until the redial is refused.
  EXPECT_EQ(log.refused, Range(2, kRedialTick * kFramesPerTick));
  EXPECT_EQ(Sequences(log), Range(kRedialTick * kFramesPerTick,
                                  kSendTicks * kFramesPerTick));
  EXPECT_EQ(log.delivered.front().tick, kRedialTick);
}

TEST_P(ReplicationLinkTest, PartialReadDeliversTheFramesLater) {
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kNetPartialRead) = 1;
  const LinkLog log = Drive(plan);
  EXPECT_EQ(Sequences(log), Range(0, kSendTicks * kFramesPerTick));
  for (const Delivery& d : log.delivered) {
    // Tick 0's read returned a few bytes only; its frames arrive on tick 1.
    EXPECT_EQ(d.tick, std::max<std::uint64_t>(1, d.sequence / kFramesPerTick))
        << d;
    EXPECT_TRUE(d.crc_ok);
  }
  EXPECT_TRUE(log.refused.empty());
}

TEST_P(ReplicationLinkTest, ConnectTimeoutFailsTheFirstRedial) {
  FaultPlan plan = SecondFrame(FaultSite::kReplDisconnect);
  plan.TriggerAt(FaultSite::kNetConnectTimeout) = 1;
  const LinkLog log = Drive(plan);
  for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
    EXPECT_EQ(log.up[tick], tick > kRedialTick) << "tick " << tick;
  }
  // Frame 0 died with the tear; delivery resumes after the second redial.
  ASSERT_FALSE(log.delivered.empty());
  EXPECT_EQ(log.delivered.front(),
            (Delivery{kRedialTick + 1, (kRedialTick + 1) * kFramesPerTick,
                      true}));
  EXPECT_EQ(log.refused, Range(1, (kRedialTick + 1) * kFramesPerTick));
}

INSTANTIATE_TEST_SUITE_P(
    Pipes, ReplicationLinkTest,
    ::testing::Values(LinkKind::kInProcess, LinkKind::kSocket),
    [](const ::testing::TestParamInfo<LinkKind>& info) {
      return info.param == LinkKind::kSocket ? "Socket" : "InProcess";
    });

}  // namespace
}  // namespace dcart
