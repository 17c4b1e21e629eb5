// Sharded high-availability cluster: "DCART-CLUSTER" in the registry.
//
// The keyspace is partitioned by key-prefix range across N shards.  Each
// shard is a full DCART-CP-HA pair (resilience/replication.h: journaled
// primary + log-shipped replica over a chaos-hardened link), so the cluster
// composes the per-pair guarantees — an acknowledged op is durable on both
// members of its shard — with horizontal capacity and per-shard failover:
//
//   Prefix directory — shard i owns the contiguous first-byte range
//                      [lo_i, hi_i]; ranges tile [0x00, 0xFF].  Load()
//                      balances the boundaries against the bulk-load's
//                      first-byte histogram.  The directory is the single
//                      source of ownership truth: a key is served by
//                      exactly the shard the directory routes it to, which
//                      is what makes the rebalance protocol crash-safe.
//   Point ops        — routed to their shard and executed by the pair
//                      (batched; per-shard op order is preserved, and
//                      cross-shard reordering is invisible because the
//                      ranges are disjoint).
//   Scans            — scatter/gathered at the cluster layer after every
//                      point op of their batch: walk shards in range order
//                      from the start key's shard, reading each pair's
//                      serving tree, until the count is filled.
//   Watchdog failover— between batches every pair ships a heartbeat and a
//                      per-shard Watchdog judges the replica's heartbeat
//                      age against the fixed thresholds in watchdog.h.
//                      Silence past the miss threshold opens a jittered
//                      probation window; silence past the deadline
//                      promotes the replica.  Promotion bumps the
//                      shard's *term*: a revived old primary still holds
//                      the previous term and every fenced entry point
//                      (PromoteShard, ExecuteFenced) rejects it with
//                      StatusCode::kFenced — no split-brain (this closes
//                      the split-brain caveat in docs/RESILIENCE.md).
//   Degradation      — a shard with no serving member degrades only its
//                      own range: its ops are refused with a typed
//                      kUnavailable status naming the range, scans that
//                      cross it set ExecutionResult::partial, and every
//                      other shard keeps serving.
//   Rebalance        — SplitShard copies the moving range into a fresh
//                      pair (journaled writes), THEN flips the directory,
//                      THEN removes the range from the donor.  A crash in
//                      phase 1 discards the copy (directory untouched); a
//                      crash in phase 3 leaves unowned duplicates the
//                      directory never routes to.  Either way no owned key
//                      is lost and the split can simply be retried.
//
// Time is virtual and per-shard (each pair's link tick clock), so the whole
// cluster — watchdog deadlines included — replays deterministically under
// the seeded fault injector.  Thread-compatibility matches the layers
// below: one thread drives the cluster; parallelism lives inside each
// pair's DcartCpEngine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/engine.h"
#include "cluster/watchdog.h"
#include "resilience/replication.h"

namespace dcart::cluster {

struct ClusterOptions {
  /// Target shard count; Load() builds exactly this many (capped at the
  /// number of distinct first bytes available).  Must be >= 1.
  std::size_t shards = 4;
  /// Durability home.  Non-empty: shard i's pair lives under
  /// `<dir>/shard-<i>/epoch-<term>` — a fresh subdirectory per term, so a
  /// fenced old epoch's files can never shadow the new owner's.  Empty:
  /// every pair runs in memory.
  std::string dir;
  /// Per-pair replication options (link kind, journal-to-snapshot ratio).
  /// The `dir` field inside is ignored — the cluster assigns per-shard
  /// homes.
  resilience::ReplicationOptions replication;
};

class ClusterEngine : public IndexEngine {
 public:
  explicit ClusterEngine(ClusterOptions options = {});
  ~ClusterEngine() override;

  std::string name() const override { return "DCART-CLUSTER"; }
  void Load(const std::vector<std::pair<Key, art::Value>>& items) override;
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig& config) override;
  std::optional<art::Value> Lookup(KeyView key) const override;

  // ---- topology -----------------------------------------------------------
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t RouteShard(KeyView key) const;
  /// Inclusive first-byte range [lo, hi] owned by shard i.
  std::pair<std::uint8_t, std::uint8_t> ShardRange(std::size_t i) const;
  std::uint64_t ShardTerm(std::size_t i) const { return shards_[i].term; }
  bool ShardDown(std::size_t i) const { return shards_[i].down; }
  resilience::ReplicatedEngine& ShardPair(std::size_t i) {
    return *shards_[i].pair;
  }
  const Watchdog& ShardWatchdog(std::size_t i) const {
    return shards_[i].watchdog;
  }

  // ---- chaos controls -----------------------------------------------------
  /// Kill shard i's primary box: heartbeats stop, the watchdog notices.
  void KillShardPrimary(std::size_t i);
  /// Full shard outage (both members): the range degrades until Revive.
  void KillShard(std::size_t i);
  void ReviveShard(std::size_t i);

  // ---- failover -----------------------------------------------------------
  /// Promote shard i's replica (drains catch-up first — see
  /// ReplicatedEngine::Promote), bump the term, reset the watchdog.  The
  /// path the watchdog verdict drives; also callable by an operator.
  Status FailOverShard(std::size_t i);
  /// Term-fenced promotion: refused with kFenced unless `expected_term`
  /// matches the shard's current term — a revived old primary that missed
  /// a failover cannot promote itself back into service.
  Status PromoteShard(std::size_t i, std::uint64_t expected_term);
  /// Term-fenced execution: a caller holding a stale term (the revived old
  /// owner) is refused with kFenced before any op touches the shard.
  Status ExecuteFenced(std::size_t i, std::uint64_t term,
                       std::span<const Operation> ops, const RunConfig& config,
                       ExecutionResult& out);
  /// Rebuild shard i as a fresh pair in a new epoch, seeded from the
  /// current serving tree — the "old primary's box came back, give the
  /// shard a replica again" step after a failover.
  Status RejoinShard(std::size_t i);

  // ---- rebalance ----------------------------------------------------------
  /// Split shard i at the weighted median of its first-byte load.  See the
  /// file comment for the crash-safe phase ordering.
  Status SplitShard(std::size_t i);

  // ---- maintenance --------------------------------------------------------
  /// One cluster tick: every shard ships a heartbeat, pumps its pair, and
  /// has its watchdog judge the result.  Run() calls this between batches;
  /// tests call it to advance virtual time while the cluster is idle.
  void Tick();

  /// Union of every live shard's serving tree, filtered to the range the
  /// directory says the shard owns (rebalance leftovers are excluded, as
  /// they are from serving).  The chaos suite compares its SaveTree bytes
  /// against a serial oracle.
  art::Tree ContentsTree() const;

  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t fenced_promotes() const { return fenced_promotes_; }
  std::uint64_t heartbeat_misses() const { return heartbeat_misses_; }

 private:
  struct Shard {
    std::unique_ptr<resilience::ReplicatedEngine> pair;
    Watchdog watchdog;
    std::uint64_t term = 1;
    std::uint8_t lo = 0;
    std::uint8_t hi = 255;
    bool down = false;  // full outage: no serving member
  };

  std::unique_ptr<resilience::ReplicatedEngine> MakePair(
      std::size_t shard_index, std::uint64_t term) const;
  /// Replace every shard with a fresh pair, the ranges balanced against
  /// the first-byte `histogram` (see BalancedPrefixBoundaries).
  void BuildShards(const std::vector<std::uint64_t>& histogram);
  /// Route by first byte (empty key routes to the first shard).
  std::size_t RouteByte(std::uint8_t first) const;
  /// Execute `sub` on shard i; on a primary crash mid-run, fail over and
  /// retry the sub-batch once (safe: ops are idempotent upserts/removes,
  /// and the acked prefix is already replica-durable).
  ExecutionResult RunOnShard(std::size_t i, std::span<const Operation> sub,
                             const RunConfig& config);
  /// Record shard i's range as unavailable in `result` (typed status once
  /// per shard per Run; partial flag; metrics).
  void MarkDegraded(std::size_t i, std::size_t refused_ops,
                    ExecutionResult& result,
                    std::set<std::size_t>& reported) const;
  /// Cluster-level scatter/gather for one kScan op.
  void RunScan(const Operation& op, ExecutionResult& result,
               std::set<std::size_t>& reported);

  ClusterOptions options_;
  std::vector<Shard> shards_;
  std::uint64_t failovers_ = 0;
  std::uint64_t fenced_promotes_ = 0;
  std::uint64_t heartbeat_misses_ = 0;
};

}  // namespace dcart::cluster
