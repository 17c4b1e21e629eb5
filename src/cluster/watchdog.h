// Per-shard failure detector for the cluster engine.
//
// The watchdog judges a shard's primary from the replica's side of the
// link: the only evidence it trusts is the age of the last heartbeat the
// replica actually received (ReplicatedEngine::replica_heartbeat_age).  A
// primary that is alive but unreachable is indistinguishable from a dead
// one — which is exactly the ambiguity the probation state exists to ride
// out before the cluster commits to a failover:
//
//   healthy    — heartbeats are fresh.  Consecutive misses are counted;
//                below the miss threshold they are forgiven instantly.
//   probation  — the miss threshold was crossed.  A deadline is set
//                `JitteredBackoff(base << round, …)` ticks out; a single
//                fresh heartbeat before the deadline stands the watchdog
//                back down (a transient partition heals, no failover).
//                The round counter does NOT reset on recovery: a flapping
//                link earns exponentially longer probation windows (flap
//                damping), and the jitter keeps many shards that lost the
//                same switch from all promoting on the same tick.
//   failover   — the deadline expired with the silence unbroken.  The
//                state is sticky: the cluster promotes the replica, bumps
//                the shard's term, and Reset()s the watchdog for the new
//                epoch.  Nothing here touches the engines — the watchdog
//                only renders a verdict; ClusterEngine acts on it.
//
// Time is the link's virtual tick clock; everything is deterministic per
// (shard, round), so chaos runs replay bit-identically.
#pragma once

#include <cstdint>

#include "resilience/replication.h"

namespace dcart::cluster {

/// A heartbeat older than this many ticks counts as one miss.
inline constexpr std::uint64_t kStaleAfterTicks = 8;
/// Consecutive misses before probation begins.
inline constexpr std::uint32_t kMissThreshold = 3;
/// First probation window; doubles per probation round up to the cap, then
/// jittered into [(w+1)/2, w] (resilience::JitteredBackoff).
inline constexpr std::uint64_t kProbationBaseTicks = 8;
inline constexpr std::uint64_t kProbationCapTicks = 64;

enum class WatchdogState : std::uint8_t {
  kHealthy,
  kProbation,
  kFailover,
};

const char* WatchdogStateName(WatchdogState state);

class Watchdog {
 public:
  Watchdog() = default;
  explicit Watchdog(std::uint64_t shard_index) : shard_index_(shard_index) {}

  /// Feed one observation at virtual time `now`; returns the state after
  /// judging it.  `heartbeat_ok` is "the last heartbeat is fresh enough".
  WatchdogState Observe(bool heartbeat_ok, std::uint64_t now);

  /// New epoch (after a failover or a rejoin): back to healthy, all
  /// counters cleared — including the flap-damping round.
  void Reset();

  WatchdogState state() const { return state_; }
  std::uint32_t consecutive_misses() const { return consecutive_misses_; }
  std::uint64_t total_misses() const { return total_misses_; }
  std::uint64_t probation_round() const { return probation_round_; }
  /// Meaningful only in kProbation: the tick the verdict flips to failover.
  std::uint64_t probation_deadline() const { return probation_deadline_; }

 private:
  std::uint64_t shard_index_ = 0;
  WatchdogState state_ = WatchdogState::kHealthy;
  std::uint32_t consecutive_misses_ = 0;
  std::uint64_t total_misses_ = 0;
  std::uint64_t probation_round_ = 0;
  std::uint64_t probation_deadline_ = 0;
};

}  // namespace dcart::cluster
