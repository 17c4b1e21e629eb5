#include "dcart/sou.h"

namespace dcart::accel {

namespace {
// Off-chip Shortcut_Table region (synthetic HBM addresses).
constexpr std::uintptr_t kShortcutTableBase = 0x7200'0000'0000ull;
constexpr std::size_t kShortcutEntryBytes = 24;
constexpr std::size_t kShortcutSlots = 1 << 22;
}  // namespace

void Sou::OnBucketStart(std::size_t ops) {
  // Each SOU sees its own channel timeline; one pipeline fill per bucket.
  hbm_.ResetChannels();
  local_cycles_ = model_.sou_cycles_per_op_base;
  bucket_value_ = ops;
}

void Sou::OnNodeVisit(art::NodeRef ref) {
  if (ref.IsLeaf()) {
    AccessTreeObject(ref.raw(),
                     art::ModeledLeafBytes(ref.AsLeaf()->key().size()));
  } else {
    AccessTreeObject(ref.raw(), art::NodeSizeBytes(ref.AsNode()->type));
    local_cycles_ += model_.cycles_partial_key_match;
    breakdown_.matching += model_.cycles_partial_key_match;
  }
}

void Sou::OnNodeReplaced(art::NodeRef old_ref, art::NodeRef new_ref) {
  tree_buffer_.Invalidate(old_ref.raw());
  // The replacement inherits the accumulated value of the old node.
  const auto it = node_values_.find(old_ref.raw());
  if (it != node_values_.end()) {
    node_values_[new_ref.raw()] += it->second;
    node_values_.erase(it);
  }
  // Fire-and-forget writeback of the replacement node to HBM.
  if (new_ref.IsNode()) {
    hbm_.Access(new_ref.raw(), art::NodeSizeBytes(new_ref.AsNode()->type),
                local_cycles_);
    ++stats_.offchip_accesses;
  }
}

void Sou::OnContendedSync() {
  // The static bucket->SOU mapping serializes a node's groups onto one
  // unit, so the acquisition never stalls beyond one BRAM access.
  local_cycles_ += model_.cycles_bram_access;
  breakdown_.contention += model_.cycles_bram_access;
}

void Sou::OnTriggerEnd(std::size_t members, const art::Leaf* leaf,
                       bool dirty) {
  // Trigger throughput: one coalesced op per cycle.
  local_cycles_ += static_cast<double>(members);
  breakdown_.trigger += static_cast<double>(members);
  if (dirty && leaf != nullptr) {
    // Fire-and-forget writeback of the modified leaf.
    hbm_.Access(reinterpret_cast<std::uintptr_t>(leaf),
                art::ModeledLeafBytes(leaf->key().size()), local_cycles_);
    ++stats_.offchip_accesses;
    stats_.offchip_bytes += model_.hbm_burst_bytes;
  }
}

void Sou::AccessTreeObject(std::uintptr_t addr, std::size_t bytes) {
  std::uint64_t& accumulated = node_values_[addr];
  accumulated += group_value_;
  const std::uint64_t value = bucket_value_ + accumulated;
  if (tree_buffer_.Access(addr, bytes, value)) {
    local_cycles_ += model_.cycles_bram_access;
    breakdown_.buffer_hits += model_.cycles_bram_access;
    ++stats_.onchip_hits;
  } else {
    // A miss fetches from HBM.  Within one traversal the chase is
    // dependent, but the Traverse stage keeps several independent groups'
    // fetches outstanding, so the unit-level stall is the access time
    // divided by that overlap depth.
    const double before = local_cycles_;
    const double done = hbm_.Access(addr, bytes, local_cycles_);
    local_cycles_ = before + (done - before) / model_.sou_outstanding_fetches;
    breakdown_.hbm_stalls += local_cycles_ - before;
    ++stats_.offchip_accesses;
    // Node-granular bursts: everything fetched is the node itself.
    const std::size_t moved =
        (bytes + model_.hbm_burst_bytes - 1) / model_.hbm_burst_bytes *
        model_.hbm_burst_bytes;
    stats_.offchip_bytes += moved;
    stats_.useful_bytes += bytes;
  }
}

void Sou::AccessShortcutSlot(std::uint64_t key_hash, bool is_write) {
  const std::uint64_t slot = key_hash % kShortcutSlots;
  const std::uintptr_t addr = kShortcutTableBase + slot * kShortcutEntryBytes;
  breakdown_.shortcut_probe += model_.cycles_bram_access;
  if (shortcut_buffer_.Access(slot, kShortcutEntryBytes)) {
    local_cycles_ += model_.cycles_bram_access;
    ++stats_.onchip_hits;
  } else {
    // Independent access: the Index_Shortcut stage overlaps other groups in
    // the SOU pipeline, so only channel occupancy is charged (the request
    // does not stall the unit for the full HBM latency).
    hbm_.Access(addr, kShortcutEntryBytes, local_cycles_);
    local_cycles_ += model_.cycles_bram_access;
    ++stats_.offchip_accesses;
    stats_.offchip_bytes += model_.hbm_burst_bytes;
    stats_.useful_bytes += kShortcutEntryBytes;
  }
  if (is_write) {
    // Fire-and-forget write-through of the updated entry.
    hbm_.Access(addr, kShortcutEntryBytes, local_cycles_);
    ++stats_.offchip_accesses;
    stats_.offchip_bytes += model_.hbm_burst_bytes;
  }
}

}  // namespace dcart::accel
