#include "dcart/report.h"

#include <sstream>

namespace dcart::accel {

ResourceEstimate EstimateResources(const DcartConfig& config,
                                   const simhw::FpgaModel& model) {
  // Per-unit logic estimates, sized from comparable published HLS designs:
  // a pipelined hash/compare datapath is a few thousand LUTs; an SOU adds a
  // traversal FSM, comparators and an HBM read/write port.
  constexpr std::uint64_t kPcuLuts = 14'000;
  constexpr std::uint64_t kDispatcherLuts = 6'000;
  constexpr std::uint64_t kSouLuts = 22'000;
  constexpr std::uint64_t kHbmPortLuts = 9'000;  // AXI + reorder per port

  ResourceEstimate est;
  est.luts = kPcuLuts + kDispatcherLuts +
             config.num_sous * (kSouLuts + kHbmPortLuts);
  est.registers = est.luts * 2;  // typical FF:LUT ratio for pipelined logic
  est.bram_bytes = model.scan_buffer_bytes + model.bucket_buffer_bytes +
                   model.shortcut_buffer_bytes + model.tree_buffer_bytes;

  est.lut_utilization = static_cast<double>(est.luts) / 1'300'000.0;
  est.reg_utilization = static_cast<double>(est.registers) / 2'600'000.0;
  est.bram_utilization =
      static_cast<double>(est.bram_bytes) / (9.0 * 1024 * 1024);
  return est;
}

std::string RenderTableOne(const DcartConfig& config,
                           const simhw::FpgaModel& model) {
  const ResourceEstimate est = EstimateResources(config, model);
  std::ostringstream os;
  os << "TABLE I: PARAMETER DETAILS OF DCART\n";
  os << "  Units          : 1 x PCU, 1 x Dispatcher, " << config.num_sous
     << " x SOUs\n";
  os << "  On-chip memory : Scan_buffer (" << model.scan_buffer_bytes / 1024
     << " KB), Bucket_buffer (" << model.bucket_buffer_bytes / (1024 * 1024)
     << " MB),\n                   Shortcut_buffer ("
     << model.shortcut_buffer_bytes / 1024 << " KB), Tree_buffer ("
     << model.tree_buffer_bytes / (1024 * 1024) << " MB)\n";
  os << "  Clock          : " << model.frequency_hz / 1e6 << " MHz\n";
  os << "  Combining      : prefix = first " << config.prefix_bits
     << " bits, " << config.num_buckets() << " bucket tables\n";
  os << "  Tree_buffer    : "
     << (config.tree_buffer_policy == simhw::EvictionPolicy::kValueAware
             ? "value-aware"
             : "LRU")
     << " replacement\n";
  os << "  Resource estimate (XCU280):\n";
  os << "    LUTs      : " << est.luts << " (" << est.lut_utilization * 100
     << " %)\n";
  os << "    Registers : " << est.registers << " ("
     << est.reg_utilization * 100 << " %)\n";
  os << "    BRAM      : " << est.bram_bytes / 1024 << " KB ("
     << est.bram_utilization * 100 << " %)\n";
  return os.str();
}

}  // namespace dcart::accel
