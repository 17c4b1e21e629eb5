// Seeded, deterministic fault injection with named injection points.
//
// Layers that can fail in production register a *site* here and ask
// ShouldFire() at the moment the fault would strike; what firing means is
// defined by the call site (an HBM burst re-read, a leaked scan, a torn
// journal record, a simulated process crash).  Two trigger modes per site:
//
//   probability  — every check draws from a counter-indexed SplitMix64
//                  stream, so a fixed (seed, site, check#) triple always
//                  gives the same verdict: single-threaded sites replay
//                  bit-identically, multi-threaded sites are reproducible
//                  in distribution.
//   trigger_at   — fire exactly on the Nth check of the site (1-based),
//                  the mode the crash-recovery property tests use to place
//                  a crash at every batch boundary in turn.
//
// The injector is a process-global: the simulated memory hierarchy and the
// file I/O layer sit below the engine layer and cannot be handed a pointer
// without widening every constructor.  When disarmed (the default) a check
// is one relaxed atomic load and a predicted branch — cheap enough for the
// paths it guards (HBM accesses, file writes, link frames), and the
// parallel workers never check at all.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace dcart::resilience {

enum class FaultSite : unsigned {
  // simhw: the modeled memory hierarchy (perturbs cycles/energy, never data).
  kHbmReadCorrupt,   // ECC-corrected corrupt burst: the channel re-reads it
  kHbmLatencySpike,  // refresh/thermal stall on top of the access latency
  kNodeBufferEcc,    // on-chip buffer ECC event: the line must be refetched
  // dcartc: the parallel CTT runtime.
  kScanDeferLeak,    // combine mis-classifies a scan into a bucket
  // resilience: the durable execution loop.
  kCrashAtBatchBoundary,  // simulated process death between batches
  kCrashMidBatch,         // simulated death inside a journal append (torn record)
  // file I/O: SaveTree/LoadTree, SaveWorkload/LoadWorkload.
  kFileShortWrite,
  kFileShortRead,
  // replication: the primary->replica shipping link (resilience/replication.h).
  // Each site models one way a real network link mangles a frame in flight.
  kReplDrop,        // frame vanishes; sender retransmits after a timeout
  kReplDelay,       // frame held back several pumps before delivery
  kReplReorder,     // frame overtakes the frames queued before it
  kReplDuplicate,   // frame delivered twice; receiver must dedupe by sequence
  kReplTruncate,    // payload cut mid-record; receiver's CRC check rejects it
  kReplDisconnect,  // link drops; sends fail until the backoff reconnect
  // byte stream: ways a stream-carrying link fails, checked by the
  // replication link over either byte pipe (resilience/replication.h).
  kNetPartialWrite,  // write() lands only part of a frame; the stream is torn
  kNetPartialRead,   // read() returns only a few bytes this pump (benign)
  kNetConnectTimeout,  // a reconnect attempt times out; backoff continues
  kNumSites
};

inline constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::kNumSites);

const char* FaultSiteName(FaultSite site);

/// Per-site trigger configuration.  Default-constructed = everything off.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::array<double, kNumFaultSites> probability{};     // in [0, 1]
  std::array<std::uint64_t, kNumFaultSites> trigger_at{};  // 1-based; 0 = off

  double& Probability(FaultSite site) {
    return probability[static_cast<std::size_t>(site)];
  }
  std::uint64_t& TriggerAt(FaultSite site) {
    return trigger_at[static_cast<std::size_t>(site)];
  }

  bool Enabled() const {
    for (double p : probability) {
      if (p > 0.0) return true;
    }
    for (std::uint64_t t : trigger_at) {
      if (t != 0) return true;
    }
    return false;
  }
};

class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Install `plan` and reset all check/fire counters.  Arming with a plan
  /// that has no active site is equivalent to Disarm().
  void Arm(const FaultPlan& plan);
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// One fault opportunity at `site`.  Thread-safe; deterministic per
  /// (seed, site, check number).
  bool ShouldFire(FaultSite site);

  std::uint64_t checks(FaultSite site) const {
    return checks_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t fires(FaultSite site) const {
    return fires_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t TotalFires() const;

 private:
  std::atomic<bool> armed_{false};
  FaultPlan plan_;
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> checks_{};
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> fires_{};
};

/// Hot-path helper: false immediately when the global injector is disarmed.
inline bool FaultCheck(FaultSite site) {
  FaultInjector& injector = FaultInjector::Global();
  return injector.armed() && injector.ShouldFire(site);
}

}  // namespace dcart::resilience
