#include "dcart/sou.h"

#include <algorithm>

#include "common/bytes.h"

namespace dcart::accel {

namespace {
// Off-chip Shortcut_Table region (synthetic HBM addresses).
constexpr std::uintptr_t kShortcutTableBase = 0x7200'0000'0000ull;
constexpr std::size_t kShortcutEntryBytes = 24;
constexpr std::size_t kShortcutSlots = 1 << 22;
}  // namespace

/// Feeds tree traversals (including the descent inside Tree::Insert) into
/// the SOU's memory model, and invalidates buffered nodes that structural
/// changes replace.
class SouTreeObserver : public art::TraversalObserver {
 public:
  explicit SouTreeObserver(Sou& sou) : sou_(sou) {}

  void OnNodeVisit(art::NodeRef ref) override {
    auto& stats = *sou_.s_.stats;
    ++stats.nodes_visited;
    if (ref.IsLeaf()) {
      ++stats.leaf_accesses;
      const art::Leaf* leaf = ref.AsLeaf();
      sou_.AccessTreeObject(ref.raw(),
                            art::ModeledLeafBytes(leaf->key().size()), true);
    } else {
      ++stats.partial_key_matches;
      const art::Node* node = ref.AsNode();
      sou_.AccessTreeObject(ref.raw(), art::NodeSizeBytes(node->type), false);
      sou_.local_cycles_ += sou_.s_.model->cycles_partial_key_match;
      sou_.s_.breakdown->matching += sou_.s_.model->cycles_partial_key_match;
    }
  }

  void OnNodeReplaced(art::NodeRef old_ref, art::NodeRef new_ref) override {
    sou_.s_.tree_buffer->Invalidate(old_ref.raw());
    // The replacement inherits the accumulated value of the old node.
    auto& values = *sou_.s_.node_values;
    const auto it = values.find(old_ref.raw());
    if (it != values.end()) {
      values[new_ref.raw()] += it->second;
      values.erase(it);
    }
    // Fire-and-forget writeback of the replacement node to HBM.
    if (new_ref.IsNode()) {
      sou_.s_.hbm->Access(new_ref.raw(),
                          art::NodeSizeBytes(new_ref.AsNode()->type),
                          sou_.local_cycles_);
      ++sou_.s_.stats->offchip_accesses;
    }
  }

 private:
  Sou& sou_;
};

void Sou::AccessTreeObject(std::uintptr_t addr, std::size_t bytes,
                           bool is_leaf) {
  auto& stats = *s_.stats;
  std::uint64_t& accumulated = (*s_.node_values)[addr];
  accumulated += group_value_;
  const std::uint64_t value = bucket_value_ + accumulated;
  if (s_.tree_buffer->Access(addr, bytes, value)) {
    local_cycles_ += s_.model->cycles_bram_access;
    s_.breakdown->buffer_hits += s_.model->cycles_bram_access;
    ++stats.onchip_hits;
  } else {
    // A miss fetches from HBM.  Within one traversal the chase is
    // dependent, but the Traverse stage keeps several independent groups'
    // fetches outstanding, so the unit-level stall is the access time
    // divided by that overlap depth.
    const double before = local_cycles_;
    const double done = s_.hbm->Access(addr, bytes, local_cycles_);
    local_cycles_ =
        before + (done - before) / s_.model->sou_outstanding_fetches;
    s_.breakdown->hbm_stalls += local_cycles_ - before;
    ++stats.offchip_accesses;
    // Node-granular bursts: everything fetched is the node itself.
    const std::size_t moved =
        (bytes + s_.model->hbm_burst_bytes - 1) / s_.model->hbm_burst_bytes *
        s_.model->hbm_burst_bytes;
    stats.offchip_bytes += moved;
    stats.useful_bytes += bytes;
  }
  (void)is_leaf;
}

void Sou::AccessShortcutSlot(std::uint64_t key_hash, bool is_write) {
  const std::uint64_t slot = key_hash % kShortcutSlots;
  const std::uintptr_t addr = kShortcutTableBase + slot * kShortcutEntryBytes;
  s_.breakdown->shortcut_probe += s_.model->cycles_bram_access;
  if (s_.shortcut_buffer->Access(slot, kShortcutEntryBytes)) {
    local_cycles_ += s_.model->cycles_bram_access;
    ++s_.stats->onchip_hits;
  } else {
    // Independent access: the Index_Shortcut stage overlaps other groups in
    // the SOU pipeline, so only channel occupancy is charged (the request
    // does not stall the unit for the full HBM latency).
    s_.hbm->Access(addr, kShortcutEntryBytes, local_cycles_);
    local_cycles_ += s_.model->cycles_bram_access;
    ++s_.stats->offchip_accesses;
    s_.stats->offchip_bytes += s_.model->hbm_burst_bytes;
    s_.stats->useful_bytes += kShortcutEntryBytes;
  }
  if (is_write) {
    // Fire-and-forget write-through of the updated entry.
    s_.hbm->Access(addr, kShortcutEntryBytes, local_cycles_);
    ++s_.stats->offchip_accesses;
    s_.stats->offchip_bytes += s_.model->hbm_burst_bytes;
  }
}

double Sou::ProcessBucket(std::span<const Operation> ops,
                          const std::vector<std::uint32_t>& bucket) {
  local_cycles_ = 0.0;
  if (bucket.empty()) return 0.0;
  bucket_value_ = bucket.size();
  // One pipeline fill per dispatched bucket.
  local_cycles_ += s_.model->sou_cycles_per_op_base;

  SouTreeObserver observer(*this);
  s_.tree->set_observer(&observer);

  auto& stats = *s_.stats;

  // Group the bucket's operations by key (arrival order preserved within
  // each group) — the Combine stage already guaranteed that operations on
  // the same node sit in this bucket only.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> groups;
  groups.reserve(bucket.size());
  for (std::uint32_t idx : bucket) {
    groups[HashKey(ops[idx].key)].push_back(idx);
  }

  for (auto& [key_hash, members] : groups) {
    const Operation& first = ops[members.front()];
    stats.operations += members.size();
    stats.combined_ops += members.size() - 1;
    group_value_ = members.size();

    // ---- Index_Shortcut ---------------------------------------------
    art::Leaf* leaf = nullptr;
    if (s_.config->use_shortcuts) {
      AccessShortcutSlot(key_hash, /*is_write=*/false);
      const auto it = s_.shortcut_table->find(key_hash);
      if (it != s_.shortcut_table->end() &&
          KeysEqual(it->second.leaf->key(), first.key)) {
        leaf = it->second.leaf;
        ++stats.shortcut_hits;
      } else {
        ++stats.shortcut_misses;
      }
    }

    // ---- Traverse_Tree ----------------------------------------------
    bool traversed = false;
    if (leaf != nullptr) {
      // Shortcut hit: fetch the target leaf directly.
      AccessTreeObject(reinterpret_cast<std::uintptr_t>(leaf),
                       art::ModeledLeafBytes(leaf->key().size()), true);
      ++stats.leaf_accesses;
      ++stats.nodes_visited;
    } else {
      leaf = s_.tree->FindLeaf(first.key);  // observer accounts the walk
      traversed = true;
    }

    // ---- Trigger_Operation ------------------------------------------
    // All coalesced operations execute together under one exclusive
    // acquisition of the target.
    ++stats.lock_acquisitions;
    bool group_writes = false;
    for (std::uint32_t idx : members) {
      group_writes |= ops[idx].type == OpType::kWrite ||
                      ops[idx].type == OpType::kRemove;
    }
    const std::uintptr_t sync_id =
        leaf != nullptr ? reinterpret_cast<std::uintptr_t>(leaf) : key_hash;
    // The static bucket->SOU mapping serializes a node's groups onto one
    // unit, so the acquisition never stalls; the event is still recorded as
    // residual synchronization (what Fig. 7 reports for DCART).
    const auto outcome = s_.conflicts->Record(sync_id, group_writes);
    if (outcome.contended) {
      ++stats.lock_contentions;
      local_cycles_ += s_.model->cycles_bram_access;
      s_.breakdown->contention += s_.model->cycles_bram_access;
    }

    bool dirty = false;
    for (std::uint32_t idx : members) {
      const Operation& op = ops[idx];
      if (op.type == OpType::kScan) {
        // Extension: the SOU streams the range sequentially; every touched
        // node goes through the Tree_buffer/HBM via the observer, results
        // return one per cycle.
        std::size_t entries = 0;
        s_.tree->ScanFrom(op.key, [&entries, &op](KeyView, art::Value) {
          return ++entries < op.scan_count;
        });
        stats.scan_entries += entries;
        local_cycles_ += static_cast<double>(entries);
      } else if (op.type == OpType::kRead) {
        if (leaf != nullptr) ++*s_.reads_hit;
      } else if (op.type == OpType::kRemove) {
        if (leaf != nullptr) {
          // Drop the shortcut entry *before* the leaf is reclaimed so the
          // table never holds a dangling pointer (the probe above
          // dereferences stored leaves unconditionally).
          if (s_.config->use_shortcuts &&
              s_.shortcut_table->erase(key_hash) > 0) {
            AccessShortcutSlot(key_hash, /*is_write=*/true);
            ++stats.shortcut_invalidations;
          }
          s_.tree->Remove(op.key);  // observer charges the walk
          leaf = nullptr;
        }
      } else if (leaf != nullptr) {
        leaf->value = op.value;
        dirty = true;
      } else {
        // Insert a new key: the write descends the tree and modifies a
        // node; the observer charges every touched node and any structural
        // replacement.  The SOU holds the new leaf's address afterwards, so
        // re-resolving it for the rest of the group is free.
        s_.tree->Insert(op.key, op.value);
        s_.tree->set_observer(nullptr);
        leaf = s_.tree->FindLeaf(op.key);
        s_.tree->set_observer(&observer);
        dirty = true;
        traversed = true;
      }
    }
    // Trigger throughput: one coalesced op per cycle.
    local_cycles_ += static_cast<double>(members.size());
    s_.breakdown->trigger += static_cast<double>(members.size());
    if (dirty && leaf != nullptr) {
      // Fire-and-forget writeback of the modified leaf.
      s_.hbm->Access(reinterpret_cast<std::uintptr_t>(leaf),
                     art::ModeledLeafBytes(leaf->key().size()),
                     local_cycles_);
      ++stats.offchip_accesses;
      stats.offchip_bytes += s_.model->hbm_burst_bytes;
    }

    // ---- Generate_Shortcut ------------------------------------------
    if (s_.config->use_shortcuts && traversed && leaf != nullptr) {
      (*s_.shortcut_table)[key_hash] = ShortcutEntry{leaf, 0};
      AccessShortcutSlot(key_hash, /*is_write=*/true);
      ++stats.shortcut_invalidations;  // entries rewritten
    }
  }

  s_.tree->set_observer(nullptr);
  return local_cycles_;
}

}  // namespace dcart::accel
