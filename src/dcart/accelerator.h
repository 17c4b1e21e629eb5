// DCART accelerator top level (paper Fig. 4/5/6).
//
// Per batch: the PCU combines the arriving operations into prefix-defined
// buckets (one pipelined op per cycle, streaming through the Scan/Bucket
// buffers); the Dispatcher hands each bucket to one SOU (operations on the
// same node are therefore serialized onto a single unit — no locks); the 16
// SOUs drain their buckets in parallel against the shared value-aware
// Tree_buffer, Shortcut_buffer, and the 32-channel HBM model.  With
// `overlap_pcu_sou` the PCU of batch i+1 runs while the SOUs process batch i
// (Fig. 6), hiding the combining cost.
#pragma once

#include "art/tree.h"
#include "baselines/engine.h"
#include "dcart/config.h"
#include "dcart/ctt.h"
#include "simhw/timing_model.h"

namespace dcart::accel {

class DcartEngine : public IndexEngine {
 public:
  explicit DcartEngine(DcartConfig config = {}, simhw::FpgaModel model = {});

  std::string name() const override { return "DCART"; }
  void Load(const std::vector<std::pair<Key, art::Value>>& items) override;
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig& config) override;
  std::optional<art::Value> Lookup(KeyView key) const override;

  const art::Tree& tree() const { return tree_; }
  const DcartConfig& config() const { return config_; }
  const simhw::FpgaModel& model() const { return model_; }

  /// Tree_buffer statistics of the last Run (the buffer-policy ablation).
  /// Every buffer's full counters go to the metrics registry as well.
  struct BufferReport {
    double tree_buffer_hit_rate = 0.0;
    std::uint64_t tree_buffer_bypasses = 0;
  };
  const BufferReport& last_buffer_report() const { return buffer_report_; }

 private:
  DcartConfig config_;
  simhw::FpgaModel model_;
  art::Tree tree_;
  ctt::ShortcutTable shortcut_table_;
  BufferReport buffer_report_;
};

}  // namespace dcart::accel
