// Crash-recovery property tests for the resilient engine (satellite of the
// fault-tolerance layer): for a crash at EVERY batch boundary and at random
// mid-batch (torn journal record) points, Recover() must restore EXACTLY
// the serial replay of the acknowledged operation prefix — verified by
// byte-identical EncodeTree images (tests/oracle.h), which is a meaningful
// comparison because EncodeTree writes the tree's canonical sorted form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "art/serialize.h"
#include "common/crc32.h"
#include "common/key_codec.h"
#include "common/rng.h"
#include "legacy_snapshot.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "resilience/fault_injector.h"
#include "resilience/resilient_engine.h"
#include "workload/generators.h"

namespace dcart {
namespace {

namespace fs = std::filesystem;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSite;
using resilience::ResilienceOptions;
using resilience::ResilientEngine;

class RecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

std::vector<std::uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Writes and removes among ops [begin, end) — what the journal holds.
std::uint64_t StateChangesIn(const Workload& w, std::size_t begin,
                             std::size_t end) {
  std::uint64_t changes = 0;
  for (std::size_t i = begin; i < end; ++i) {
    changes += w.ops[i].type == OpType::kWrite ||
               w.ops[i].type == OpType::kRemove;
  }
  return changes;
}

constexpr std::size_t kBatch = 256;
const RunConfig kRun = BatchRun(kBatch, 4);

/// Size of the SN3 image EncodeTree writes for `tree`: the snapshot file's
/// size (Serialize.InMemoryImageIsTheFileSaveTreeWrites pins the two).
std::uint64_t ImageBytes(const art::Tree& tree) {
  std::uint64_t bytes = 0;
  EXPECT_TRUE(art::EncodeTree(
      tree, [&bytes](std::span<const std::uint8_t> piece) {
        bytes += piece.size();
        return true;
      }));
  return bytes;
}

/// Bytes one batch's record adds to a journal: u32 length and u32 CRC
/// framing, then the payload EncodeRecordPayload builds.
std::uint64_t RecordBytes(std::span<const Operation> batch) {
  std::vector<std::uint8_t> payload;
  resilience::EncodeRecordPayload(0, batch, payload);
  return 8 + payload.size();
}

/// The roll rule, modelled outside the engine: each generation's journal
/// starts with its 8-byte magic, and the batch whose record brings it to
/// `ratio` times the generation's snapshot rolls the next generation.
class RollModel {
 public:
  RollModel(double ratio, const art::Tree& loaded)
      : ratio_(ratio), snapshot_bytes_(ImageBytes(loaded)) {}

  /// Journal `batch`; `after` is the tree once it has run.  True when the
  /// batch rolls a generation.
  bool Batch(std::span<const Operation> batch, const art::Tree& after) {
    journal_bytes_ += RecordBytes(batch);
    if (static_cast<double>(journal_bytes_) <
        ratio_ * static_cast<double>(snapshot_bytes_)) {
      return false;
    }
    snapshot_bytes_ = ImageBytes(after);
    journal_bytes_ = kMagicBytes;
    return true;
  }

 private:
  static constexpr std::uint64_t kMagicBytes = 8;
  double ratio_;
  std::uint64_t snapshot_bytes_;
  std::uint64_t journal_bytes_ = kMagicBytes;
};

/// For each count of acknowledged batches of `w` (run kBatch ops at a time
/// after Load()), the batches the newest snapshot holds under `ratio`.
std::vector<std::size_t> SnapshottedBatches(const Workload& w, double ratio) {
  art::Tree tree;
  for (const auto& [key, value] : w.load_items) tree.Insert(key, value);
  RollModel model(ratio, tree);
  std::vector<std::size_t> snapshotted = {0};
  for (std::size_t begin = 0; begin < w.ops.size(); begin += kBatch) {
    const std::span<const Operation> batch(
        w.ops.data() + begin, std::min(kBatch, w.ops.size() - begin));
    resilience::ApplyToTree(tree, batch);
    snapshotted.push_back(model.Batch(batch, tree) ? snapshotted.size()
                                                   : snapshotted.back());
  }
  return snapshotted;
}

TEST_F(RecoveryTest, RecoverAfterCleanRunRestoresEverything) {
  const Workload w = ChurnWorkload(2000, 4096);
  const std::string dir = FreshDir("recovery", "clean");

  ResilienceOptions options;
  options.dir = dir;
  options.journal_to_snapshot_ratio = 0.3;  // a roll every few batches
  {
    ResilientEngine engine(options);
    engine.Load(w.load_items);
    const ExecutionResult r = engine.Run(w.ops, kRun);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.ops_acknowledged, w.ops.size());
  }
  // A new process: recover from disk alone.
  ResilientEngine restarted(options);
  ASSERT_TRUE(restarted.Recover());
  ExpectTreesByteIdentical(restarted.tree(), ReplayPrefix(w, w.ops.size()),
                           "clean");
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, CrashAtEveryBatchBoundaryRecoversAcknowledgedPrefix) {
  const Workload w = ChurnWorkload(2000, 2048);  // 8 batches of 256
  const std::size_t batches = (w.ops.size() + kBatch - 1) / kBatch;
  ResilienceOptions options;
  options.journal_to_snapshot_ratio = 0.25;
  const std::vector<std::size_t> snapshotted =
      SnapshottedBatches(w, options.journal_to_snapshot_ratio);
  // The ratio puts rolls between crash points: some crash points recover
  // from a snapshot rolled during the run, and some replay records past it.
  std::size_t rolled = 0;
  std::size_t replaying = 0;
  for (std::size_t acked = 1; acked < batches; ++acked) {
    rolled += snapshotted[acked] == acked;
    replaying += snapshotted[acked] > 0 && snapshotted[acked] < acked;
  }
  ASSERT_GE(rolled, 2u);
  ASSERT_GE(replaying, 2u);

  for (std::size_t crash_at = 1; crash_at <= batches; ++crash_at) {
    SCOPED_TRACE(crash_at);
    const std::string dir = FreshDir("recovery", "boundary");
    options.dir = dir;
    FaultPlan plan;
    plan.seed = FaultSeed();
    plan.TriggerAt(FaultSite::kCrashAtBatchBoundary) = crash_at;

    ResilientEngine engine(options);
    engine.Load(w.load_items);
    FaultInjector::Global().Arm(plan);
    const ExecutionResult r = engine.Run(w.ops, kRun);
    FaultInjector::Global().Disarm();

    // The crash fires before batch `crash_at` journals: exactly the prior
    // batches are acknowledged, and the engine refuses further work.
    ASSERT_TRUE(engine.crashed());
    ASSERT_FALSE(r.status.ok());
    ASSERT_EQ(r.ops_acknowledged, (crash_at - 1) * kBatch);
    EXPECT_FALSE(engine.Run(w.ops, kRun).status.ok());

    // A fresh engine over the same directory recovers the acknowledged
    // prefix bit-for-bit.
    ResilientEngine restarted(options);
    ASSERT_TRUE(restarted.Recover());
    // Recovery replays the whole records after the newest snapshot: the
    // writes and removes of the acknowledged batches since it.
    EXPECT_EQ(restarted.recovered_ops(),
              StateChangesIn(w, snapshotted[crash_at - 1] * kBatch,
                             r.ops_acknowledged));
    ExpectTreesByteIdentical(restarted.tree(),
                             ReplayPrefix(w, r.ops_acknowledged), "boundary");

    // ...and can resume: running the unacknowledged tail lands on the full
    // serial replay.
    const ExecutionResult resumed =
        restarted.Run({w.ops.data() + r.ops_acknowledged,
                       w.ops.size() - r.ops_acknowledged},
                      kRun);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.message();
    ExpectTreesByteIdentical(restarted.tree(), ReplayPrefix(w, w.ops.size()),
                             "boundary-resume");
    fs::remove_all(dir);
  }
}

TEST_F(RecoveryTest, TornJournalRecordRecoversAcknowledgedPrefix) {
  const Workload w = ChurnWorkload(2000, 2048);
  const std::size_t batches = (w.ops.size() + kBatch - 1) / kBatch;

  // K random mid-batch crash points (the Nth journal append tears halfway).
  SplitMix64 rng(FaultSeed() * 1000003);
  for (int k = 0; k < 4; ++k) {
    const std::size_t tear_at = 1 + rng.NextBounded(batches);
    SCOPED_TRACE(tear_at);
    const std::string dir = FreshDir("recovery", "torn");

    ResilienceOptions options;
    options.dir = dir;
    options.journal_to_snapshot_ratio = 0.25;
    FaultPlan plan;
    plan.seed = FaultSeed();
    plan.TriggerAt(FaultSite::kCrashMidBatch) = tear_at;

    ResilientEngine engine(options);
    engine.Load(w.load_items);
    FaultInjector::Global().Arm(plan);
    const ExecutionResult r = engine.Run(w.ops, kRun);
    FaultInjector::Global().Disarm();

    // The torn batch was never acknowledged and never executed.
    ASSERT_TRUE(engine.crashed());
    ASSERT_FALSE(r.status.ok());
    ASSERT_EQ(r.ops_acknowledged, (tear_at - 1) * kBatch);

    // The CRC framing truncates the tear; recovery restores the prefix.
    ResilientEngine restarted(options);
    ASSERT_TRUE(restarted.Recover());
    ExpectTreesByteIdentical(restarted.tree(),
                             ReplayPrefix(w, r.ops_acknowledged), "torn");
    fs::remove_all(dir);
  }
}

/// Path of the highest-numbered snapshot generation under `dir`.
std::string NewestSnapshot(const std::string& dir) {
  std::uint64_t newest = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("snapshot-")) {
      newest = std::max<std::uint64_t>(
          newest, std::strtoull(name.c_str() + 9, nullptr, 10));
    }
  }
  return newest > 1 ? dir + "/snapshot-" + std::to_string(newest) + ".tree"
                    : "";
}

TEST_F(RecoveryTest, CorruptNewestSnapshotFallsBackAGeneration) {
  const Workload w = ChurnWorkload(2000, 4096);
  const std::string dir = FreshDir("recovery", "fallback");

  ResilienceOptions options;
  options.dir = dir;
  options.journal_to_snapshot_ratio = 0.2;  // force several generations
  {
    ResilientEngine engine(options);
    engine.Load(w.load_items);
    ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  }

  // Corrupt the newest snapshot (truncate it mid-entry).  Recovery must
  // not trust it: it falls back to the previous generation and replays
  // that generation's journal over it — still landing on the exact final
  // state.
  const std::string victim = NewestSnapshot(dir);
  ASSERT_FALSE(victim.empty());
  fs::resize_file(victim, fs::file_size(victim) / 2);

  ResilientEngine restarted(options);
  ASSERT_TRUE(restarted.Recover());
  EXPECT_GT(restarted.recovered_ops(), 0u);  // replayed a journal tail
  ExpectTreesByteIdentical(restarted.tree(), ReplayPrefix(w, w.ops.size()),
                           "fallback");
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, FlippedValueByteInNewestSnapshotFallsBackAGeneration) {
  const Workload w = ChurnWorkload(2000, 4096);
  const std::string dir = FreshDir("recovery", "flipped");

  ResilienceOptions options;
  options.dir = dir;
  options.journal_to_snapshot_ratio = 0.2;
  {
    ResilientEngine engine(options);
    engine.Load(w.load_items);
    ASSERT_TRUE(engine.Run(w.ops, kRun).status.ok());
  }

  // Flip one bit of the first entry's value.  The file still parses — the
  // bit changes a value, not a length — so only the CRC trailer can tell.
  const std::string victim = NewestSnapshot(dir);
  ASSERT_FALSE(victim.empty());
  std::vector<std::uint8_t> bytes = FileBytes(victim);
  // Header (16 bytes), then the first entry: varint shared (0), varint
  // suffix_len (one byte for these 8-byte keys), the key, the u64 value.
  ASSERT_GT(bytes.size(), 18u);
  ASSERT_EQ(bytes[16], 0u);
  ASSERT_LT(bytes[17], 0x80u);
  const std::size_t value_at = 18 + bytes[17];
  ASSERT_LT(value_at + 8, bytes.size());
  bytes[value_at + 3] ^= 0x10;
  test_util::WriteBytesToFile(victim, bytes);

  ResilientEngine restarted(options);
  ASSERT_TRUE(restarted.Recover());
  EXPECT_GT(restarted.recovered_ops(), 0u);  // fell back: replayed a journal
  ExpectTreesByteIdentical(restarted.tree(), ReplayPrefix(w, w.ops.size()),
                           "flipped");
  fs::remove_all(dir);
}

/// A DCJRNL01 journal as it was written before records dropped reads: one
/// record per batch of `batch` ops, holding every op, reads and scans
/// included.
void WriteJournalWithEveryOp(const std::string& path,
                             const std::vector<Operation>& ops,
                             std::size_t batch) {
  std::vector<std::uint8_t> file = {'D', 'C', 'J', 'R', 'N', 'L', '0', '1'};
  const auto append = [](std::vector<std::uint8_t>& out, const void* data,
                         std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out.insert(out.end(), bytes, bytes + n);
  };
  for (std::uint64_t sequence = 0; sequence * batch < ops.size();
       ++sequence) {
    const std::size_t begin = sequence * batch;
    const std::size_t end = std::min(ops.size(), begin + batch);
    std::vector<std::uint8_t> payload;
    const auto op_count = static_cast<std::uint32_t>(end - begin);
    append(payload, &sequence, sizeof sequence);
    append(payload, &op_count, sizeof op_count);
    for (std::size_t i = begin; i < end; ++i) {
      const Operation& op = ops[i];
      const auto type = static_cast<std::uint8_t>(op.type);
      const auto key_len = static_cast<std::uint32_t>(op.key.size());
      append(payload, &type, sizeof type);
      append(payload, &key_len, sizeof key_len);
      append(payload, op.key.data(), op.key.size());
      append(payload, &op.value, sizeof op.value);
      append(payload, &op.scan_count, sizeof op.scan_count);
    }
    const auto len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = Crc32(payload.data(), payload.size());
    append(file, &len, sizeof len);
    append(file, &crc, sizeof crc);
    append(file, payload.data(), payload.size());
  }
  test_util::WriteBytesToFile(path, file);
}

TEST_F(RecoveryTest, UpgradesSn2SnapshotAndJournalWithReadsInPlace) {
  // A state directory left by a build that wrote SN2 snapshots and
  // journaled every op: Recover() must stand on it and reach the serial
  // replay, then keep serving in the current formats.
  WorkloadConfig cfg;
  cfg.num_keys = 2000;
  cfg.num_ops = 2048;
  cfg.write_ratio = 0.3;
  cfg.remove_ratio = 0.1;
  cfg.scan_ratio = 0.1;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);
  std::size_t reads = 0;
  std::size_t scans = 0;
  for (const Operation& op : w.ops) {
    reads += op.type == OpType::kRead;
    scans += op.type == OpType::kScan;
  }
  ASSERT_GT(reads, 0u);
  ASSERT_GT(scans, 0u);

  const std::string dir = FreshDir("recovery", "upgrade");
  art::Tree loaded;
  for (const auto& [key, value] : w.load_items) loaded.Insert(key, value);
  test_util::WriteBytesToFile(dir + "/snapshot-1.tree",
                              test_util::LegacySnapshotImage(loaded, '2'));
  WriteJournalWithEveryOp(dir + "/journal-1.log", w.ops, kBatch);

  ResilienceOptions options;
  options.dir = dir;
  ResilientEngine restarted(options);
  ASSERT_TRUE(restarted.Recover()) << restarted.last_recover_error().message();
  EXPECT_EQ(restarted.recovered_ops(), StateChangesIn(w, 0, w.ops.size()));
  ExpectTreesByteIdentical(restarted.tree(), ReplayPrefix(w, w.ops.size()),
                           "upgrade");

  // Recover() checkpointed the upgraded tree as SN3; the next restart
  // stands on that snapshot alone.
  ResilientEngine again(options);
  ASSERT_TRUE(again.Recover());
  EXPECT_EQ(again.recovered_ops(), 0u);
  ExpectTreesByteIdentical(again.tree(), ReplayPrefix(w, w.ops.size()),
                           "upgrade-again");
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, ReadOnlyBatchJournalsExactlyTwentyBytes) {
  const Workload w = ChurnWorkload(2000, 1024);
  const std::string dir = FreshDir("recovery", "read_only");
  ResilienceOptions options;
  options.dir = dir;
  ResilientEngine engine(options);
  engine.Load(w.load_items);  // opens generation 1

  std::vector<Operation> reads;
  for (const Operation& op : w.ops) {
    if (op.type == OpType::kRead) reads.push_back(op);
  }
  ASSERT_GT(reads.size(), 1u);
  RunConfig run = kRun;
  run.batch_size = reads.size();  // one batch, one record
  const std::string journal = dir + "/journal-1.log";
  const std::uintmax_t before = fs::file_size(journal);
  obs::Counter* const records =
      obs::MetricsRegistry::Global().GetCounter("resilience.journal.records");
  const std::uint64_t records_before = records->Value();
  const ExecutionResult r = engine.Run(reads, run);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.ops_acknowledged, reads.size());
  // u32 length + u32 CRC framing, then the payload header: u64 sequence
  // and u32 op_count (0).  No op is written.
  EXPECT_EQ(fs::file_size(journal) - before, 20u);
  EXPECT_EQ(records->Value() - records_before, 1u);  // records, not ops
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, Sn3SnapshotOfIpgeoTreeIsAtMostFourFifthsOfSn2) {
  WorkloadConfig cfg;
  cfg.num_keys = 20000;
  cfg.num_ops = 0;
  cfg.load_fraction = 1.0;
  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, cfg);
  art::Tree tree;
  for (const auto& [key, value] : w.load_items) tree.Insert(key, value);
  ASSERT_EQ(tree.size(), 20000u);

  const std::string path = ::testing::TempDir() + "/recovery_sn3_size.tree";
  ASSERT_TRUE(art::SaveTree(tree, path));
  const std::uintmax_t sn3 = fs::file_size(path);
  std::remove(path.c_str());
  const std::size_t sn2 = test_util::LegacySnapshotImage(tree, '2').size();
  // Front coding leaves about 11 of SN2's 16 bytes per 4-byte IPv4 entry.
  EXPECT_LE(sn3 * 5, sn2 * 4) << sn3 << " vs " << sn2 << " bytes";
}

/// What the roll rule keeps on disk under `dir` after a Run(): the newest
/// journal is under `ratio` times its snapshot until `last_record` crosses
/// that, and the directory's kKeepGenerations = 2 generations each hold at
/// most (1 + ratio) snapshots plus one record of the largest,
/// `largest_record`.
void ExpectRollBounds(const std::string& dir, double ratio,
                      std::uint64_t last_record,
                      std::uint64_t largest_record) {
  std::uint64_t newest = 0;
  std::uintmax_t larger_snapshot = 0;
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    total += entry.file_size();
    if (name.starts_with("snapshot-")) {
      newest = std::max<std::uint64_t>(
          newest, std::strtoull(name.c_str() + 9, nullptr, 10));
      larger_snapshot = std::max(larger_snapshot, entry.file_size());
    }
  }
  const std::string g = std::to_string(newest);
  const auto journal = static_cast<double>(
      fs::file_size(dir + "/journal-" + g + ".log"));
  const auto snapshot = static_cast<double>(
      fs::file_size(dir + "/snapshot-" + g + ".tree"));
  EXPECT_LE(journal, ratio * snapshot + static_cast<double>(last_record))
      << "generation " << g;
  EXPECT_LE(static_cast<double>(total),
            2 * ((1 + ratio) * static_cast<double>(larger_snapshot) +
                 static_cast<double>(largest_record)));
}

TEST_F(RecoveryTest, GenerationsRollOnJournalBytesNotBatchCount) {
  WorkloadConfig cfg;
  cfg.num_keys = 20000;
  cfg.num_ops = 0;
  cfg.load_fraction = 1.0;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);
  const std::string dir = FreshDir("recovery", "roll_ratio");
  ResilienceOptions options;  // the default ratio
  options.dir = dir;
  const double ratio = options.journal_to_snapshot_ratio;
  const resilience::GenerationDir layout(dir, ratio);
  const auto generations = [&layout] {
    std::error_code ec;
    return layout.Scan(ec);
  };
  obs::Counter* const checkpoints =
      obs::MetricsRegistry::Global().GetCounter("resilience.checkpoints");

  ResilientEngine engine(options);
  engine.Load(w.load_items);  // generation 1
  const std::uint64_t checkpoints_at_load = checkpoints->Value();
  art::Tree tree;
  for (const auto& [key, value] : w.load_items) tree.Insert(key, value);
  RollModel model(ratio, tree);

  SplitMix64 rng(FaultSeed());
  std::uint64_t rolls = 0;
  std::uint64_t largest_record = 0;
  // Runs one batch of `writes` new keys; true when the model rolled on it.
  const auto run_batch = [&](std::size_t writes) {
    std::vector<Operation> batch;
    for (std::size_t i = 0; i < writes; ++i) {
      batch.push_back({OpType::kWrite, EncodeU64(rng.Next()), i});
    }
    resilience::ApplyToTree(tree, batch);
    const bool due = model.Batch(batch, tree);
    rolls += due;
    const std::uint64_t record = RecordBytes(batch);
    largest_record = std::max(largest_record, record);
    RunConfig run = kRun;
    run.batch_size = writes;
    const ExecutionResult r = engine.Run(batch, run);
    EXPECT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(checkpoints->Value() - checkpoints_at_load, rolls);
    ExpectRollBounds(dir, ratio, record, largest_record);
    return due;
  };

  // 64 small batches journal far less than the 20k-key snapshot: they stay
  // in generation 1, where a batch count of 8 would have rolled 8 times.
  for (int b = 0; b < 64; ++b) EXPECT_FALSE(run_batch(4)) << "batch " << b;
  EXPECT_EQ(generations(), std::vector<std::uint64_t>{1});
  EXPECT_EQ(checkpoints->Value(), checkpoints_at_load);

  // Larger batches reach the ratio: each roll lands on exactly the batch
  // the model says crossed it.  Three rolls also prune generation 1.
  for (int b = 0; b < 200 && rolls < 3; ++b) {
    run_batch(1024);
    ASSERT_EQ(generations().front(), 1 + rolls) << "batch " << b;
  }
  EXPECT_EQ(rolls, 3u);
  EXPECT_EQ(generations(), (std::vector<std::uint64_t>{4, 3}));

  ResilientEngine restarted(options);
  ASSERT_TRUE(restarted.Recover());
  ExpectTreesByteIdentical(restarted.tree(), tree, "roll_ratio");
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, EmptyKeyRemoveReplaysAsNoOp) {
  // The engine acknowledges a remove of the empty key as a miss, so
  // recovery must replay its record and every record after it.
  const std::string dir = FreshDir("recovery", "empty_key_remove");
  ResilienceOptions options;
  options.dir = dir;
  // One generation: each record is larger than the one-key snapshot.
  options.journal_to_snapshot_ratio = 100;
  const std::vector<Operation> ops = {{OpType::kWrite, EncodeU64(1), 11},
                                      {OpType::kRemove, Key{}, 0},
                                      {OpType::kWrite, EncodeU64(2), 22}};
  RunConfig run = kRun;
  run.batch_size = 1;  // one record each
  {
    ResilientEngine engine(options);
    engine.Load({{EncodeU64(0), 5}});
    const ExecutionResult r = engine.Run(ops, run);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.ops_acknowledged, ops.size());
  }
  ResilientEngine restarted(options);
  ASSERT_TRUE(restarted.Recover());
  EXPECT_EQ(restarted.recovered_ops(), ops.size());
  EXPECT_EQ(restarted.Lookup(EncodeU64(1)), 11u);
  EXPECT_EQ(restarted.Lookup(EncodeU64(2)), 22u);
  EXPECT_EQ(restarted.tree().size(), 3u);
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, EmptyWriteKeyBatchIsRefusedAndLaterWritesRecover) {
  // An empty-key write on an empty tree would be acknowledged, then stop
  // replay at its record and lose every write after it.  The engine
  // refuses the batch instead, and stays up.
  const std::string dir = FreshDir("recovery", "empty_write_key");
  ResilienceOptions options;
  options.dir = dir;
  // One generation: each record is larger than the empty tree's snapshot.
  options.journal_to_snapshot_ratio = 100;
  RunConfig run = kRun;
  run.batch_size = 1;
  {
    ResilientEngine engine(options);
    engine.Load({});
    const std::vector<Operation> bad = {{OpType::kWrite, Key{}, 1}};
    const ExecutionResult refused = engine.Run(bad, run);
    EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument)
        << refused.status.message();
    EXPECT_EQ(refused.ops_acknowledged, 0u);
    EXPECT_FALSE(engine.crashed());
    EXPECT_TRUE(engine.tree().empty());
    for (std::uint64_t k : {7, 8}) {
      const std::vector<Operation> good = {{OpType::kWrite, EncodeU64(k), k}};
      const ExecutionResult r = engine.Run(good, run);
      ASSERT_TRUE(r.status.ok()) << r.status.message();
      EXPECT_EQ(r.ops_acknowledged, 1u);
    }
  }
  ResilientEngine restarted(options);
  ASSERT_TRUE(restarted.Recover()) << restarted.last_recover_error().message();
  EXPECT_EQ(restarted.recovered_ops(), 2u);
  EXPECT_EQ(restarted.Lookup(EncodeU64(7)), 7u);
  EXPECT_EQ(restarted.Lookup(EncodeU64(8)), 8u);
  EXPECT_EQ(restarted.tree().size(), 2u);
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, OversizedWriteKeyIsRefusedAndEverySnapshotStaysLoadable) {
  // A key over art::kMaxKeyBytes would reach a snapshot LoadTree rejects;
  // with a snapshot per batch, pruning would then remove every loadable
  // generation.  The engine refuses the batch, and the call stops there.
  const std::string dir = FreshDir("recovery", "oversized_key");
  ResilienceOptions options;
  options.dir = dir;
  options.journal_to_snapshot_ratio = 0;  // a roll after every batch
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t i = 0; i < 100; ++i) items.emplace_back(EncodeU64(i), i);
  std::vector<Operation> ops = {
      {OpType::kWrite, Key(art::kMaxKeyBytes + 1, 0xff), 1}};
  for (std::uint64_t i = 0; i < 4; ++i) {
    ops.push_back({OpType::kWrite, EncodeU64(1000 + i), i});
  }
  RunConfig run = kRun;
  run.batch_size = 1;
  {
    ResilientEngine engine(options);
    engine.Load(items);
    const ExecutionResult refused = engine.Run(ops, run);
    EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument)
        << refused.status.message();
    EXPECT_EQ(refused.ops_acknowledged, 0u);
    EXPECT_EQ(engine.tree().size(), items.size());
    const ExecutionResult r =
        engine.Run(std::span<const Operation>(ops).subspan(1), run);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.ops_acknowledged, 4u);
  }
  ResilientEngine restarted(options);
  ASSERT_TRUE(restarted.Recover()) << restarted.last_recover_error().message();
  EXPECT_EQ(restarted.tree().size(), items.size() + 4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(restarted.Lookup(EncodeU64(1000 + i)), i);
  }

  // Load() has no write to refuse: its checkpoint fails instead, and the
  // error is parked for the next Run() rather than an unloadable
  // generation written.
  const std::string load_dir = FreshDir("recovery", "oversized_load");
  options.dir = load_dir;
  items.emplace_back(ops[0].key, 1);
  ResilientEngine loaded(options);
  loaded.Load(items);
  EXPECT_FALSE(loaded.Run({}, run).status.ok());
  std::error_code ec;
  EXPECT_TRUE(fs::is_empty(load_dir, ec));
  fs::remove_all(dir);
  fs::remove_all(load_dir);
}

TEST_F(RecoveryTest, RecoverWithoutDurabilityDirReportsFailure) {
  ResilientEngine ephemeral;  // no dir: durability off
  EXPECT_FALSE(ephemeral.Recover());

  ResilienceOptions options;
  options.dir = FreshDir("recovery", "empty");
  ResilientEngine nothing_on_disk(options);
  EXPECT_FALSE(nothing_on_disk.Recover());  // no snapshot to stand on
  fs::remove_all(options.dir);
}

}  // namespace
}  // namespace dcart
