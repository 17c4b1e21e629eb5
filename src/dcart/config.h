// DCART accelerator configuration (paper Table I) and ablation knobs.
#pragma once

#include <algorithm>
#include <cstddef>

#include "simhw/node_buffer.h"

namespace dcart::accel {

struct DcartConfig {
  // Table I: 1 x PCU, 1 x Dispatcher, 16 x SOUs.
  std::size_t num_sous = 16;
  // The paper's sixteen bucket tables, one per prefix-defined bucket label,
  // or one per SOU when there are more SOUs than that.
  std::size_t num_buckets() const {
    return std::max<std::size_t>(16, num_sous);
  }
  // "the first 8 bits of the key are used as the specified prefix by
  // default" — ablation sweeps 4/8/12 bits.
  unsigned prefix_bits = 8;

  // Ablation switches (all ON in the paper's configuration).
  bool use_shortcuts = true;
  bool overlap_pcu_sou = true;  // Fig. 6 batch pipelining
  simhw::EvictionPolicy tree_buffer_policy =
      simhw::EvictionPolicy::kValueAware;
};

}  // namespace dcart::accel
