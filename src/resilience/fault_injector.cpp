#include "resilience/fault_injector.h"

namespace dcart::resilience {

namespace {

/// SplitMix64 finalizer over the (seed, site, check#) triple: stateless, so
/// concurrent checks need no shared RNG state beyond the check counter.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t site,
                  std::uint64_t check) {
  std::uint64_t z = seed + site * 0x9e3779b97f4a7c15ull +
                    check * 0xbf58476d1ce4e5b9ull + 0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kHbmReadCorrupt: return "hbm-read-corrupt";
    case FaultSite::kHbmLatencySpike: return "hbm-latency-spike";
    case FaultSite::kNodeBufferEcc: return "node-buffer-ecc";
    case FaultSite::kScanDeferLeak: return "scan-defer-leak";
    case FaultSite::kCrashAtBatchBoundary: return "crash-at-batch-boundary";
    case FaultSite::kCrashMidBatch: return "crash-mid-batch";
    case FaultSite::kFileShortWrite: return "file-short-write";
    case FaultSite::kFileShortRead: return "file-short-read";
    case FaultSite::kReplDrop: return "repl-drop";
    case FaultSite::kReplDelay: return "repl-delay";
    case FaultSite::kReplReorder: return "repl-reorder";
    case FaultSite::kReplDuplicate: return "repl-duplicate";
    case FaultSite::kReplTruncate: return "repl-truncate";
    case FaultSite::kReplDisconnect: return "repl-disconnect";
    case FaultSite::kNetPartialWrite: return "net-partial-write";
    case FaultSite::kNetPartialRead: return "net-partial-read";
    case FaultSite::kNetConnectTimeout: return "net-connect-timeout";
    case FaultSite::kNumSites: break;
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Arm(const FaultPlan& plan) {
  plan_ = plan;
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    checks_[i].store(0, std::memory_order_relaxed);
    fires_[i].store(0, std::memory_order_relaxed);
  }
  armed_.store(plan.Enabled(), std::memory_order_release);
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_release);
}

bool FaultInjector::ShouldFire(FaultSite site) {
  if (!armed()) return false;
  const auto index = static_cast<std::size_t>(site);
  const std::uint64_t check =
      checks_[index].fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  if (plan_.trigger_at[index] != 0) {
    fire = check == plan_.trigger_at[index];
  } else if (plan_.probability[index] > 0.0) {
    const double draw =
        static_cast<double>(Mix(plan_.seed, index, check) >> 11) * 0x1.0p-53;
    fire = draw < plan_.probability[index];
  }
  if (fire) fires_[index].fetch_add(1, std::memory_order_relaxed);
  return fire;
}

std::uint64_t FaultInjector::TotalFires() const {
  std::uint64_t total = 0;
  for (const auto& f : fires_) total += f.load(std::memory_order_relaxed);
  return total;
}

}  // namespace dcart::resilience
