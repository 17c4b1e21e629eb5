// DCART-CP: a real-threads parallel CTT runtime on the CPU.
//
// Where DCART-C *models* the software CTT pipeline on the paper's Xeon,
// DCART-CP executes it for real and is measured by wall clock
// (ExecutionResult::wallclock == true).  Per batch:
//
//   Combine  — (serial) shard the batch by the root's discriminating key
//              byte: every operation lands in the bucket of the root child
//              its key descends into, so buckets map 1:1 to disjoint
//              subtrees.
//   Traverse — (parallel) worker threads claim buckets from a shared cursor
//              (largest first, so a skewed bucket starts earliest and idle
//              workers drain the tail — LPT self-scheduling) and resolve
//              each key through the bucket's persistent shortcut table,
//              falling back to a subtree descent on a miss.
//   Trigger  — (parallel) apply the operations in arrival order on the
//              resolved leaf via Tree::{Insert,Remove}InSubtree, which by
//              construction never touch memory outside the bucket's subtree.
//
// The single shared art::Tree needs no locks during the parallel phase:
// buckets own disjoint root-child slots, the root node itself is immutable
// while workers run, and Tree::size_ is reconciled after the join from
// per-worker deltas (AdjustSize).  Point operations that WOULD have to
// restructure the root — inserting a key with no root child or one that
// diverges inside the root's compressed path (every key, while the tree has
// no root node), deleting a bucket's last key — are deferred and replayed
// serially after the join.  Once a key defers, every later batch operation
// on it defers too, so per-key arrival order is preserved end to end.
// Range scans cross buckets: they run last, after every point operation of
// their batch, over a tree no operation of the batch still changes — the
// runtime stack's one batch contract (docs/ARCHITECTURE.md).
//
// Shortcut tables are per *bucket* (per root-child byte), not per worker:
// they travel with the bucket when a different worker claims it, and a
// worker never probes another bucket's table.  A probe answers only with a
// leaf whose key it compared equal.  Entries are erased before a leaf is
// reclaimed by a remove, and all tables are dropped whenever the partition
// changes (root replaced or its compressed path re-cut), so a stored Leaf*
// is always safe to dereference.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "art/tree.h"
#include "baselines/engine.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace dcart::dcartc {

/// Flat open-addressing map from key to resolved leaf — the software
/// analogue of the paper's SRAM Shortcut_Table.  Each slot is one word: the
/// leaf pointer in the low 48 bits and the top 16 bits of the key's HashKey
/// (its tag) above it; 0 is empty and 1 a tombstone.  The low hash bits
/// pick the home slot and linear probing walks on from there, so a probe
/// stays on one cache line (against the several node hops of a descent,
/// which is the entire point of the shortcut path).  A tag match is only a
/// candidate: Find compares the candidate leaf's key, so the table never
/// answers with another key's leaf.  Growth rehashes from the leaves' keys;
/// Reserve sizes a table once for a known entry count.  Not thread-safe:
/// each table belongs to one bucket, and one worker owns a bucket at a time.
class ShortcutTable {
 public:
  /// The leaf recorded for `key` (whose HashKey is `hash`), or nullptr.
  art::Leaf* Find(std::uint64_t hash, KeyView key) const;
  /// The first recorded leaf whose tag matches `hash`, or nullptr: a cache
  /// hint for the group warm pass, not an answer (the key is not compared).
  art::Leaf* Candidate(std::uint64_t hash) const;
  /// Record `leaf` under `hash`, its key's HashKey.  The key must have no
  /// entry yet (callers insert after a Find miss).  A leaf whose address
  /// needs more than 48 bits is not cached, and is never dereferenced.
  void Insert(std::uint64_t hash, art::Leaf* leaf);
  /// Drop `key`'s entry, if it has one.
  void Erase(std::uint64_t hash, KeyView key);
  /// Make room for `entries` entries, so that many inserts never grow it.
  void Reserve(std::size_t entries);
  /// Slots allocated: 0 until the first Insert or Reserve.
  std::size_t capacity() const { return slots_.size(); }

  /// Hint the cache about `hash`'s home slot (group-prefetch pipelining).
  void PrefetchSlot(std::uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash & mask_]);
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kTomb = 1;
  static constexpr std::uint64_t kLeafMask = (std::uint64_t{1} << 48) - 1;
  static std::uint64_t Tag(std::uint64_t hash) { return hash & ~kLeafMask; }
  static art::Leaf* LeafOf(std::uint64_t slot) {
    return reinterpret_cast<art::Leaf*>(slot & kLeafMask);
  }
  static constexpr std::size_t kNone = SIZE_MAX;
  /// Index of the first live slot at or after `i` on `hash`'s probe chain
  /// whose tag matches, or kNone once the chain ends.
  std::size_t NextCandidate(std::uint64_t hash, std::size_t i) const;
  /// Index of `key`'s slot, or kNone.
  std::size_t Locate(std::uint64_t hash, KeyView key) const;
  void Rehash(std::size_t capacity);

  std::vector<std::uint64_t> slots_;  // power-of-two size, allocated lazily
  std::size_t mask_ = 0;              // slots_.size() - 1 (0 while empty)
  std::size_t live_ = 0;
  std::size_t tombs_ = 0;
};

class DcartCpEngine : public IndexEngine {
 public:
  DcartCpEngine();
  ~DcartCpEngine() override;

  std::string name() const override { return "DCART-CP"; }
  void Load(const std::vector<std::pair<Key, art::Value>>& items) override;
  /// Serve `tree` as it stands (a recovered image needs no rebuild).
  void Load(art::Tree tree);
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig& config) override;
  std::optional<art::Value> Lookup(KeyView key) const override;

  /// Post-run state inspection (property tests replay serially and diff).
  const art::Tree& tree() const { return tree_; }

 private:
  // Thread-safety contract.  The engine itself is externally synchronized
  // (one Run() at a time); inside RunBatch the discipline is *ownership
  // partitioning*, which clang's lock-based analysis cannot express — the
  // guard is "which worker claimed the bucket", not a mutex:
  //   - Every engine-level member below is written only by the coordinating
  //     thread, outside the parallel region (RunBatch is called serially).
  //   - During the parallel region, a worker touches exactly the Bucket it
  //     claimed from the shared cursor (the only cross-thread write, an
  //     atomic fetch_add) plus that bucket's ShortcutTable and disjoint
  //     root-child subtree; WorkerResult is indexed by worker id.
  //   - The only mutex in the phase lives inside ThreadPool (fully
  //     annotated, see common/thread_pool.h).
  // The TSan CI job checks the partitioning dynamically on every push.
  struct Bucket;
  struct WorkerResult;

  void RunBatch(std::span<const Operation> ops, std::size_t begin,
                std::size_t end, std::size_t workers, ExecutionResult& result,
                PhaseBreakdown& phases);
  void ApplySerial(const Operation& op, ExecutionResult& result);
  void EraseShortcutEverywhere(KeyView key);
  /// Recompute the root partition (full compressed path + offset); clears
  /// all shortcut tables if the signature moved.  Returns the root node, or
  /// nullptr while the tree is empty / a single leaf.
  art::Node* RefreshPartition(Key& root_path);

  art::Tree tree_;
  std::unique_ptr<ThreadPool> pool_;  // lazily sized on first Run
  // One shortcut table per root-child byte; cleared when the partition
  // (root identity or compressed-path length) changes.
  std::unordered_map<unsigned, ShortcutTable> shortcut_tables_;
  std::uintptr_t partition_root_ = 0;
  std::size_t partition_offset_ = 0;

  // Combine-phase scratch, reused across batches so the hot path does no
  // per-batch allocation once warm (RunBatch is called serially).
  std::vector<Bucket> bucket_pool_;
  std::array<std::int32_t, 256> byte_to_bucket_{};
  std::vector<std::uint32_t> deferred_;
  std::vector<std::uint32_t> scans_;
  std::vector<std::size_t> order_;
};

}  // namespace dcart::dcartc
