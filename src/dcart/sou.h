// Shortcut-based Operating Unit (SOU) — Section III-C of the paper.
//
// A SOU drains one bucket of combined operations.  Its four pipeline stages
// run per key-group in the CTT executor (dcart/ctt.h); this class is the
// executor's FPGA cost model, pricing each stage on the modeled hardware:
//   Index_Shortcut    — probe the Shortcut_Table (through the on-chip
//                       Shortcut_buffer; off-chip HBM on a buffer miss);
//   Traverse_Tree     — on a shortcut hit, fetch the target leaf directly;
//                       otherwise walk the ART top-down, each node served by
//                       the Tree_buffer (value-aware) or HBM;
//   Trigger_Operation — apply every coalesced operation of the group on the
//                       target together (single exclusive acquisition);
//   Generate_Shortcut — install/update the group's shortcut entry.
//
// The SOU keeps a local cycle clock; every HBM access is scheduled on the
// shared channel model, so SOUs contend for memory bandwidth exactly as the
// hardware units would.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "art/tree.h"
#include "common/stats.h"
#include "simhw/hbm_model.h"
#include "simhw/node_buffer.h"
#include "simhw/timing_model.h"

namespace dcart::accel {

/// Where the SOUs' cycles went (model diagnostics / ablation reporting).
struct SouCycleBreakdown {
  double shortcut_probe = 0;
  double buffer_hits = 0;
  double hbm_stalls = 0;   // dependent fetches that missed the Tree_buffer
  double trigger = 0;
  double matching = 0;     // partial-key comparisons
  double contention = 0;
};

/// The SOU draining the current bucket, over the buffers and HBM channels
/// all SOUs share (owned by the accelerator top).  One object serves a
/// whole run: each bucket restarts its clock.
class Sou {
 public:
  Sou(const simhw::FpgaModel& model, simhw::NodeBuffer& tree_buffer,
      simhw::NodeBuffer& shortcut_buffer, simhw::HbmModel& hbm,
      OpStats& stats)
      : model_(model),
        tree_buffer_(tree_buffer),
        shortcut_buffer_(shortcut_buffer),
        hbm_(hbm),
        stats_(stats) {}

  /// SOU-local busy cycles of the bucket drained last.
  double cycles() const { return local_cycles_; }
  const SouCycleBreakdown& breakdown() const { return breakdown_; }

  // The executor's cost-model hooks (dcart/ctt.h).
  void OnBucketStart(std::size_t ops);
  void OnGroupStart(std::size_t members) { group_value_ = members; }
  void OnShortcutProbe(std::uint64_t hash) {
    AccessShortcutSlot(hash, /*is_write=*/false);
  }
  void OnNodeVisit(art::NodeRef ref);
  void OnNodeReplaced(art::NodeRef old_ref, art::NodeRef new_ref);
  void OnTraverseEnd(std::uint64_t, bool, const art::Leaf*) {}
  void OnContendedSync();
  void OnScanEntries(std::size_t entries) {
    // Results return one per cycle.
    local_cycles_ += static_cast<double>(entries);
  }
  void OnTriggerEnd(std::size_t members, const art::Leaf* leaf, bool dirty);
  void OnShortcutWrite(std::uint64_t hash) {
    AccessShortcutSlot(hash, /*is_write=*/true);
  }

 private:
  /// Fetch a tree object (node or leaf) through Tree_buffer / HBM.
  void AccessTreeObject(std::uintptr_t addr, std::size_t bytes);
  /// Probe the shortcut structures for `key_hash`.
  void AccessShortcutSlot(std::uint64_t key_hash, bool is_write);

  const simhw::FpgaModel& model_;
  simhw::NodeBuffer& tree_buffer_;
  simhw::NodeBuffer& shortcut_buffer_;
  simhw::HbmModel& hbm_;
  OpStats& stats_;
  SouCycleBreakdown breakdown_;
  double local_cycles_ = 0.0;
  // Value-aware buffer priority of the nodes being touched.  The paper
  // approximates a node's value by the operation count of its bucket, known
  // a priori once the PCU finishes coalescing; accumulating the coalesced
  // group sizes a node actually serves is the same quantity resolved per
  // node, and refines ties inside one bucket.
  std::unordered_map<std::uintptr_t, std::uint64_t> node_values_;
  std::uint64_t group_value_ = 0;   // coalesced ops served by this fetch
  std::uint64_t bucket_value_ = 0;  // ops in the bucket being drained
};

}  // namespace dcart::accel
