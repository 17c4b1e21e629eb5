// DCART-C: the software-only implementation of the paper's data-centric
// Combine-Traverse-Trigger (CTT) processing model, running on the CPU.
//
// Per batch of operations:
//   Combine  — scan the batch and append each operation to one of the
//              paper's sixteen bucket tables by its key's first byte past
//              the root's compressed path, so all operations that can share
//              tree nodes land in one bucket.
//   Traverse — per bucket (buckets are processed by disjoint workers),
//              group operations by key; each distinct key needs ONE
//              traversal, served from the persistent shortcut table when the
//              key was traversed before.
//   Trigger  — apply the group's operations together on the target leaf
//              under a single (conceptual) lock acquisition.
//
// The paper's own finding (Fig. 9) is that DCART-C only *slightly* beats the
// baselines: the combining pass, the shortcut hash maintenance, and the load
// imbalance across buckets eat most of the traversal savings on a CPU.  The
// cost model reproduces exactly those overheads: per-op combine cycles,
// per-group hash-probe memory traffic, and makespan = max(hottest bucket,
// even split) over the worker pool.
//
// The CTT itself is the shared executor in dcart/ctt.h; this engine adds
// the Xeon cost model and the batch timing.
#pragma once

#include "art/tree.h"
#include "baselines/engine.h"
#include "dcart/ctt.h"
#include "simhw/timing_model.h"

namespace dcart::dcartc {

class DcartCEngine : public IndexEngine {
 public:
  explicit DcartCEngine(simhw::CpuModel model = {});

  std::string name() const override { return "DCART-C"; }
  void Load(const std::vector<std::pair<Key, art::Value>>& items) override;
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig& config) override;
  std::optional<art::Value> Lookup(KeyView key) const override;

  const art::Tree& tree() const { return tree_; }

 private:
  simhw::CpuModel model_;
  art::Tree tree_;
  ctt::ShortcutTable shortcuts_;  // persists across batches of one Run
};

}  // namespace dcart::dcartc
