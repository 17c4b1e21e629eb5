#include "cluster/watchdog.h"

#include <algorithm>

#include "resilience/replication.h"

namespace dcart::cluster {

const char* WatchdogStateName(WatchdogState state) {
  switch (state) {
    case WatchdogState::kHealthy: return "healthy";
    case WatchdogState::kProbation: return "probation";
    case WatchdogState::kFailover: return "failover";
  }
  return "unknown";
}

WatchdogState Watchdog::Observe(bool heartbeat_ok, std::uint64_t now) {
  if (state_ == WatchdogState::kFailover) {
    return state_;  // sticky: the verdict stands until the new epoch Resets
  }
  if (heartbeat_ok) {
    consecutive_misses_ = 0;
    // A fresh heartbeat during probation is the false alarm resolving:
    // stand down.  probation_round_ survives on purpose (flap damping).
    state_ = WatchdogState::kHealthy;
    return state_;
  }
  ++consecutive_misses_;
  ++total_misses_;
  if (state_ == WatchdogState::kHealthy) {
    if (consecutive_misses_ >= kMissThreshold) {
      ++probation_round_;
      const std::uint64_t base = std::min(
          kProbationBaseTicks << std::min<std::uint64_t>(probation_round_ - 1,
                                                         16),
          kProbationCapTicks);
      probation_deadline_ =
          now + resilience::JitteredBackoff(
                    base, 0x9e3779b97f4a7c15ull +
                              shard_index_ * 0x100000001b3ull +
                              probation_round_);
      state_ = WatchdogState::kProbation;
    }
  } else if (now >= probation_deadline_) {
    state_ = WatchdogState::kFailover;
  }
  return state_;
}

void Watchdog::Reset() {
  state_ = WatchdogState::kHealthy;
  consecutive_misses_ = 0;
  probation_round_ = 0;
  probation_deadline_ = 0;
}

}  // namespace dcart::cluster
