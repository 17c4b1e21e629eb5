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
// per-worker deltas (AdjustSize).  Operations that WOULD have to
// restructure the root — inserting a key with no root child or one that
// diverges inside the root's compressed path, deleting a bucket's last key,
// and range scans (they cross buckets) — are deferred and replayed serially
// after the join.  Once a key defers, every later batch operation on it
// defers too, so per-key arrival order is preserved end to end.
//
// Shortcut tables are per *bucket* (per root-child byte), not per worker:
// they travel with the bucket when a different worker claims it, and a
// worker never probes another bucket's table.  Entries are erased before a
// leaf is reclaimed by a remove, and all tables are dropped whenever the
// partition changes (root replaced or its compressed path re-cut), so a
// stored Leaf* is always safe to dereference.
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

/// Flat open-addressing map from key hash to resolved leaf — the software
/// analogue of the paper's SRAM Shortcut_Table.  Linear probing over a
/// power-of-two array keeps a probe to one cache line (against the several
/// node hops of a descent, which is the entire point of the shortcut path);
/// deletions leave tombstones that growth purges.  Not thread-safe: each
/// table belongs to one bucket, and one worker owns a bucket at a time.
///
/// The layout is struct-of-arrays so the probe loop can compare four hash
/// slots per step with one AVX2 load (see Find); `hashes_` carries kPad
/// mirror entries past the end, kept equal to the first kPad slots, so a
/// 4-lane load at any home index never wraps mid-vector.
class ShortcutTable {
 public:
  /// The leaf recorded for `hash`, or nullptr.  The caller must verify the
  /// leaf's key (hash collisions evict via Erase + reinstall).
  art::Leaf* Find(std::uint64_t hash) const;
  void Insert(std::uint64_t hash, art::Leaf* leaf);
  void Erase(std::uint64_t hash);

  /// Hint the cache about `hash`'s home slot (group-prefetch pipelining).
  void PrefetchSlot(std::uint64_t hash) const {
    if (size_ != 0) {
      const std::size_t i = Normalize(hash) & mask_;
      __builtin_prefetch(&hashes_[i]);
      __builtin_prefetch(&leaves_[i]);
    }
  }

 private:
  /// Mirror slots appended to hashes_ (vector loads read lanes i..i+3).
  static constexpr std::size_t kPad = 3;
  // Reserve hash 0 as the empty marker; remapping 0 to 1 only merges the
  // two values' slots, which the caller's key check already disambiguates.
  static std::uint64_t Normalize(std::uint64_t hash) {
    return hash == 0 ? 1 : hash;
  }
  void SetHash(std::size_t i, std::uint64_t hash) {
    hashes_[i] = hash;
    if (i < kPad) hashes_[size_ + i] = hash;
  }
  void Grow();

  // hash 0 = never occupied; leaf nullptr with hash != 0 = tombstone.
  std::vector<std::uint64_t> hashes_;  // size_ + kPad, allocated on Insert
  std::vector<art::Leaf*> leaves_;     // size_
  std::size_t size_ = 0;               // logical capacity, power of two
  std::size_t mask_ = 0;               // size_ - 1 (0 while empty)
  std::size_t live_ = 0;
  std::size_t tombs_ = 0;
};

class DcartCpEngine : public IndexEngine {
 public:
  DcartCpEngine();
  ~DcartCpEngine() override;

  std::string name() const override { return "DCART-CP"; }
  void Load(const std::vector<std::pair<Key, art::Value>>& items) override;
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig& config) override;
  std::optional<art::Value> Lookup(KeyView key) const override;

  /// Post-run state inspection (property tests replay serially and diff).
  const art::Tree& tree() const { return tree_; }

  /// True once the engine has given up on the parallel phase (see the
  /// degradation policy in parallel_runtime.cpp).  Sticky until Load().
  bool demoted_to_serial() const { return demoted_; }

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
  void EraseShortcutEverywhere(std::uint64_t key_hash);
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
  std::vector<std::size_t> order_;

  // Degradation state (sticky across Run() calls; reset by Load()).
  std::size_t consecutive_parallel_failures_ = 0;
  bool demoted_ = false;
};

}  // namespace dcart::dcartc
