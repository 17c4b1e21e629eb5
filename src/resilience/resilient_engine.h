// DCART-CP-FT: the fault-tolerant execution layer around the real-threads
// CTT runtime.
//
// Wraps a DcartCpEngine with the three cooperating resilience layers:
//
//   Durability   — every batch's writes and removes are appended as one
//                  record to a CRC-framed write-ahead journal (flushed
//                  before execution = the batch is *acknowledged*; a
//                  read-only batch appends an empty record), and every
//                  `snapshot_every_batches` batches the tree is
//                  checkpointed with SaveTree into a new numbered
//                  generation (written to a temp name and renamed, so a
//                  torn snapshot never bears a real name).
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
// On-disk layout under `options.dir`:
//   snapshot-<G>.tree   SaveTree image taken at generation G's start
//   journal-<G>.log     writes and removes of batches acknowledged since G
// The last `keep_generations` generations are retained; recovery from
// generation G replays journals G, G+1, ... in order.
#pragma once

#include <memory>
#include <string>

#include "baselines/engine.h"
#include "dcartc/parallel_runtime.h"
#include "resilience/journal.h"

namespace dcart::resilience {

struct ResilienceOptions {
  /// Durability home.  Empty disables journaling/snapshots entirely — the
  /// engine is then just DCART-CP plus crash-site checks.
  std::string dir;
  std::size_t snapshot_every_batches = 8;
  std::size_t keep_generations = 2;
};

// Thread-safety contract: the engine is thread-compatible, not thread-safe —
// Load/Run/Recover mutate the journal, generation counter and inner engine
// without internal locking and must be called from one thread at a time
// (the service loop).  Lookup() is safe concurrently with other Lookups but
// not with Run().  All parallelism lives *inside* DcartCpEngine::Run (see
// parallel_runtime.h for its ownership-partitioning contract).
class ResilientEngine : public IndexEngine {
 public:
  explicit ResilientEngine(ResilienceOptions options = {},
                           dcartc::DcartCpConfig runtime = {});
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
  std::string SnapshotPath(std::uint64_t generation) const;
  std::string JournalPath(std::uint64_t generation) const;
  /// Write snapshot generation `generation_ + 1`, roll the journal over to
  /// it, and prune generations older than `keep_generations`.
  Status Checkpoint();

  ResilienceOptions options_;
  dcartc::DcartCpConfig runtime_config_;
  std::unique_ptr<dcartc::DcartCpEngine> engine_;
  OpJournal journal_;
  std::uint64_t generation_ = 0;  // 0 = no checkpoint taken yet
  // Checkpoint failure from Load() (whose interface signature is void),
  // surfaced by the next Run() instead of being silently dropped.
  Status load_status_;
  std::size_t batches_since_snapshot_ = 0;
  bool crashed_ = false;
  std::uint64_t recovered_ops_ = 0;
  Status recover_error_;  // diagnostics from the last Recover() attempt
};

}  // namespace dcart::resilience
