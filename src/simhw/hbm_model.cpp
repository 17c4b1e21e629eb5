#include "simhw/hbm_model.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace dcart::simhw {

HbmModel::HbmModel(std::size_t channels, double latency_cycles,
                   double cycles_per_burst, std::size_t burst_bytes)
    : channels_(channels ? channels : 1),
      latency_cycles_(latency_cycles),
      cycles_per_burst_(cycles_per_burst),
      burst_bytes_(burst_bytes ? burst_bytes : 64),
      channel_free_at_(channels_, 0.0) {}

double HbmModel::Access(std::uintptr_t addr, std::size_t bytes, double now) {
  if (bytes == 0) bytes = 1;
  const std::size_t channel = (addr / burst_bytes_) % channels_;
  const auto bursts = (bytes + burst_bytes_ - 1) / burst_bytes_;
  const double occupancy = static_cast<double>(bursts) * cycles_per_burst_;
  const double start = std::max(now, channel_free_at_[channel]);
  channel_free_at_[channel] = start + occupancy;
  ++accesses_;
  bytes_ += bursts * burst_bytes_;
  return start + occupancy + latency_cycles_;
}

double HbmModel::DrainTime() const {
  return *std::max_element(channel_free_at_.begin(), channel_free_at_.end());
}

void HbmModel::ResetChannels() {
  std::fill(channel_free_at_.begin(), channel_free_at_.end(), 0.0);
}

void HbmModel::Reset() {
  ResetChannels();
  accesses_ = 0;
  bytes_ = 0;
}

void HbmModel::PublishMetrics(std::string_view prefix) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string base(prefix);
  registry.GetCounter(base + ".accesses")->Add(accesses_);
  registry.GetCounter(base + ".bytes")->Add(bytes_);
}

}  // namespace dcart::simhw
