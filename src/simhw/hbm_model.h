// HBM channel model for the FPGA accelerator simulation.
//
// The U280 exposes 32 HBM pseudo-channels.  Each access pays a fixed random
// access latency plus per-burst channel occupancy; accesses to different
// channels proceed in parallel, accesses to a busy channel queue behind it.
// Addresses are interleaved across channels at 64-byte granularity.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace dcart::simhw {

class HbmModel {
 public:
  HbmModel(std::size_t channels, double latency_cycles,
           double cycles_per_burst, std::size_t burst_bytes);

  /// Issue an access of `bytes` at `addr` at time `now` (cycles).
  /// Returns the completion time in cycles.
  double Access(std::uintptr_t addr, std::size_t bytes, double now);

  std::uint64_t total_accesses() const { return accesses_; }
  std::uint64_t total_bytes() const { return bytes_; }

  /// Earliest time every channel is free (the drain point).
  double DrainTime() const;

  /// Restart the channel clocks (new batch / new local time base) while
  /// keeping the traffic counters.
  void ResetChannels();

  void Reset();

  /// Accumulate this model's traffic totals into the global metrics registry
  /// under `<prefix>.accesses` and `.bytes` (one per-run object, one
  /// end-of-run publish — see NodeBuffer::PublishMetrics).
  void PublishMetrics(std::string_view prefix) const;

 private:
  std::size_t channels_;
  double latency_cycles_;
  double cycles_per_burst_;
  std::size_t burst_bytes_;
  std::vector<double> channel_free_at_;
  std::uint64_t accesses_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace dcart::simhw
