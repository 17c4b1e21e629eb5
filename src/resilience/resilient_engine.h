// DCART-CP-FT: the fault-tolerant execution layer around the real-threads
// CTT runtime.
//
// Wraps a DcartCpEngine with the three cooperating resilience layers:
//
//   Durability   — every batch's writes and removes are appended as one
//                  record to a CRC-framed write-ahead journal (flushed
//                  before execution = the batch is *acknowledged*; a
//                  read-only batch appends an empty record), and once the
//                  journal has grown to `journal_to_snapshot_ratio` times
//                  the last snapshot's size the tree is checkpointed with
//                  SaveTree into a new numbered generation (written to a
//                  temp name and renamed, so a torn snapshot never bears a
//                  real name).  Replay after a crash then stays under r
//                  snapshots' worth of records plus one, and the bytes
//                  written per journaled byte tend to 1 + 1/r.
//   Recovery     — Recover() loads the newest loadable snapshot generation
//                  and replays every journal from that generation forward;
//                  torn/corrupt journal tails are truncated by the CRC
//                  framing, so the restored tree is exactly the serial
//                  replay of the acknowledged operation prefix.
//   Degradation  — inherited from the inner engine (bucket re-dispatch with
//                  backoff, demote-to-serial) and surfaced unchanged.
//
// Crash injection (kCrashAtBatchBoundary / kCrashMidBatch) simulates
// process death inside Run(): the engine stops issuing writes, reports a
// not-ok Status, and refuses further work until Recover() — exactly the
// situation a restarted process finds itself in.
//
// On-disk layout under `options.dir` (GenerationDir, below):
//   snapshot-<G>.tree   SaveTree image taken at generation G's start
//   journal-<G>.log     writes and removes of batches acknowledged since G
// The last kKeepGenerations generations are retained; recovery from
// generation G replays journals G, G+1, ... in order.
#pragma once

#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "baselines/engine.h"
#include "dcartc/parallel_runtime.h"
#include "resilience/journal.h"

namespace dcart::resilience {

struct ResilienceOptions {
  /// Durability home.  Empty disables journaling/snapshots entirely — the
  /// engine is then just DCART-CP plus crash-site checks.
  std::string dir;
  /// Roll a generation once the journal's bytes reach this multiple of the
  /// last snapshot's; 0 rolls after every batch.
  double journal_to_snapshot_ratio = 1.0;
};

/// Apply the writes and removes of `ops` to `tree` in order, serially (the
/// replay every recovery, replica and promotion path shares).
void ApplyToTree(art::Tree& tree, std::span<const Operation> ops);

/// The tree's (key, value) pairs in key order, the shape Load() takes.
std::vector<std::pair<Key, art::Value>> TreeItems(const art::Tree& tree);

/// The snapshot-plus-journal generation layout under one directory.  The
/// FT engine and the HA replica both keep their state in one, and
/// Promote() recovers the replica's through ResilientEngine::Recover(), so
/// the layout is written in this one place.  Thread-compatible.
class GenerationDir {
 public:
  /// Snapshots kept on disk: the newest, and one older in case the newest
  /// is unloadable.
  static constexpr std::size_t kKeepGenerations = 2;

  GenerationDir(std::string path, double journal_to_snapshot_ratio);

  const std::string& path() const { return path_; }
  /// Newest generation rolled (or resumed); 0 = none yet.
  std::uint64_t generation() const { return generation_; }
  /// Size of the snapshot the last Roll() wrote.
  std::uintmax_t snapshot_bytes() const { return snapshot_bytes_; }
  std::string SnapshotPath(std::uint64_t generation) const;
  std::string JournalPath(std::uint64_t generation) const;
  /// Snapshot generations present on disk, newest first.
  std::vector<std::uint64_t> Scan(std::error_code& ec) const;

  /// Write `tree` as generation `generation() + 1` (to a temp name, then
  /// renamed, so a torn snapshot never bears a real name), keep its size,
  /// roll the journal over to it, and prune generations older than the
  /// last kKeepGenerations.
  Status Roll(const art::Tree& tree);
  /// Journal one batch into the current generation.
  Status Append(std::span<const Operation> ops) {
    return journal_.Append(ops);
  }
  /// True once the journal has grown to the ratio times the snapshot it
  /// follows: the next Roll() is due.
  bool BatchDone() const {
    return static_cast<double>(journal_.bytes()) >=
           ratio_ * static_cast<double>(snapshot_bytes_);
  }
  /// Close the journal; the next Roll() writes generation `generation` + 1.
  void Resume(std::uint64_t generation);
  /// Close the journal, delete the directory, and restart at generation 0.
  void Wipe();
  void Close() { journal_.Close(); }

 private:
  std::string path_;
  double ratio_;
  OpJournal journal_;
  std::uint64_t generation_ = 0;
  std::uintmax_t snapshot_bytes_ = 0;  // the last Roll()'s image
};

// Thread-safety contract: the engine is thread-compatible, not thread-safe —
// Load/Run/Recover mutate the journal, generation counter and inner engine
// without internal locking and must be called from one thread at a time
// (the service loop).  Lookup() is safe concurrently with other Lookups but
// not with Run().  All parallelism lives *inside* DcartCpEngine::Run (see
// parallel_runtime.h for its ownership-partitioning contract).
class ResilientEngine : public IndexEngine {
 public:
  explicit ResilientEngine(ResilienceOptions options = {});
  ~ResilientEngine() override;

  std::string name() const override { return "DCART-CP-FT"; }
  void Load(const std::vector<std::pair<Key, art::Value>>& items) override;
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig& config) override;
  std::optional<art::Value> Lookup(KeyView key) const override;

  /// Crash-consistent recovery: rebuild the engine from the newest loadable
  /// snapshot plus the journal tail, then open a fresh generation so new
  /// work journals cleanly.  Returns false when no generation is usable
  /// (no durability dir, or every snapshot corrupt).
  bool Recover();

  /// Writes and removes the last successful Recover() replayed from the
  /// journal tail (reads and scans are not journaled, so not counted).
  std::uint64_t recovered_ops() const { return recovered_ops_; }

  /// Why the last Recover() failed (or Ok after a successful one): which
  /// generations were tried and why each was rejected.  Failover promotion
  /// reports this instead of silently serving an empty tree; each failed
  /// Recover() also bumps the `resilience.recover.failures` counter.
  const Status& last_recover_error() const { return recover_error_; }

  /// True after a (simulated) crash; Run() refuses work until Recover().
  bool crashed() const { return crashed_; }

  const art::Tree& tree() const { return engine_->tree(); }

 private:
  bool durable() const { return !options_.dir.empty(); }
  /// Roll the generation directory and count the checkpoint.
  Status Checkpoint();

  ResilienceOptions options_;
  std::unique_ptr<dcartc::DcartCpEngine> engine_;
  GenerationDir dir_;
  // Checkpoint failure from Load() (whose interface signature is void),
  // surfaced by the next Run() instead of being silently dropped.
  Status load_status_;
  bool crashed_ = false;
  std::uint64_t recovered_ops_ = 0;
  Status recover_error_;  // diagnostics from the last Recover() attempt
};

}  // namespace dcart::resilience
