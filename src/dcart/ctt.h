// The Combine-Traverse-Trigger (CTT) model, written once for the two
// engines that model it: DCART-C (dcartc/dcartc.cpp) runs it on the Xeon
// cost model, the DCART accelerator's SOUs (dcart/sou.*) on the FPGA one.
// Each engine keeps only its batch timing.
//
//   BucketOf       the PCU's Combine: an op's bucket is its key's prefix,
//                  taken past the root's compressed path.
//   ExecuteBucket  drains one bucket: group its ops by key, resolve each
//                  group's leaf through the Shortcut_Table or a descent, make
//                  one conflict record per group, run the members in arrival
//                  order, then Generate_Shortcut.
//
// ExecuteBucket counts every logical event (operations, combining, shortcut
// hits/misses/rewrites, node visits, synchronization, scan entries, read
// hits) itself, so one stream gives both engines the same counts.  A cost
// model prices the events through these hooks, in this order per group:
//
//   OnBucketStart(ops)                 a bucket of `ops` ops starts
//   OnGroupStart(members)              a key group starts
//   OnShortcutProbe(hash)              its Shortcut_Table slot is read
//   OnNodeVisit(ref)                   a node or leaf is touched, by the
//                                      descent, a write, or a shortcut hit
//   OnNodeReplaced(old_ref, new_ref)   a write replaced a node
//   OnTraverseEnd(hash, hit, leaf)     the group's leaf is resolved
//   OnContendedSync()                  its conflict record was contended
//   OnScanEntries(entries)             a scan emitted `entries` entries
//   OnTriggerEnd(members, leaf, dirty) every member has run
//   OnShortcutWrite(hash)              the slot is erased or rewritten
//
// docs/ARCHITECTURE.md tabulates what each platform charges per hook.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "art/tree.h"
#include "common/bytes.h"
#include "common/stats.h"
#include "simhw/conflict_model.h"
#include "workload/ops.h"

namespace dcart::ctt {

/// Shortcut_Table: key hash -> the key's leaf.  A remove drops its key's
/// entry before the leaf is freed, so a probe may read the stored leaf; a
/// hash two keys share is settled by the key compare, and the later key's
/// Generate_Shortcut overwrites the entry.
using ShortcutTable = std::unordered_map<std::uint64_t, art::Leaf*>;

/// Where the bucket prefix starts: the first key byte past the root's
/// compressed path, so keys with a long common head still spread.  In
/// hardware, a register the host sets.
inline std::size_t PrefixOffset(const art::Tree& tree) {
  return tree.root().IsNode() ? tree.root().AsNode()->prefix_len : 0;
}

/// The bucket, of `buckets`, that `key` combines into: its first
/// `prefix_bits` bits from `offset` on (fewer bits combine more coarsely).
inline std::size_t BucketOf(KeyView key, std::size_t offset,
                            unsigned prefix_bits, std::size_t buckets) {
  unsigned prefix = offset < key.size() ? key[offset] : 0;
  if (prefix_bits < 8) {
    const unsigned shift = 8 - prefix_bits;
    prefix = prefix >> shift << shift;
  } else if (prefix_bits > 8 && offset + 1 < key.size()) {
    prefix = (prefix << (prefix_bits - 8)) |
             (key[offset + 1] >> (16 - prefix_bits));
  }
  const std::size_t b = (static_cast<std::size_t>(prefix) * buckets) >>
                        std::min(prefix_bits, 16u);
  return std::min(b, buckets - 1);
}

/// What ExecuteBucket works on and counts into, shared by a run's buckets.
struct Context {
  art::Tree& tree;
  ShortcutTable* shortcuts;  // nullptr: the shortcut-less ablation
  simhw::ConflictModel& conflicts;
  OpStats& stats;
  std::uint64_t& reads_hit;
};

namespace detail {

/// The tree observer ExecuteBucket installs: counts a touch's logical events,
/// then hands the touch to the cost model.
template <typename Cost>
class CountingObserver final : public art::TraversalObserver {
 public:
  CountingObserver(Cost& cost, OpStats& stats) : cost_(cost), stats_(stats) {}

  void OnNodeVisit(art::NodeRef ref) override {
    ++stats_.nodes_visited;
    ++(ref.IsLeaf() ? stats_.leaf_accesses : stats_.partial_key_matches);
    cost_.OnNodeVisit(ref);
  }
  void OnNodeReplaced(art::NodeRef old_ref, art::NodeRef new_ref) override {
    cost_.OnNodeReplaced(old_ref, new_ref);
  }

 private:
  Cost& cost_;
  OpStats& stats_;
};

}  // namespace detail

/// Drain one bucket: `bucket` holds indices into `ops`, in arrival order.
template <typename Cost>
void ExecuteBucket(const Context& ctx, std::span<const Operation> ops,
                   std::span<const std::uint32_t> bucket, Cost& cost) {
  OpStats& stats = ctx.stats;
  detail::CountingObserver<Cost> observer(cost, stats);
  ctx.tree.set_observer(&observer);
  cost.OnBucketStart(bucket.size());

  // Group by key, arrival order kept inside each group.  Combine already
  // put every op that can share a node into this bucket.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> groups;
  groups.reserve(bucket.size());
  for (std::uint32_t idx : bucket) {
    groups[HashKey(ops[idx].key)].push_back(idx);
  }

  for (const auto& [key_hash, members] : groups) {
    const KeyView key = ops[members.front()].key;
    stats.operations += members.size();
    stats.combined_ops += members.size() - 1;
    cost.OnGroupStart(members.size());

    // Index_Shortcut, then Traverse_Tree on a miss.  A hit fetches the
    // leaf directly, as the same leaf visit a descent ends in.
    art::Leaf* leaf = nullptr;
    if (ctx.shortcuts != nullptr) {
      cost.OnShortcutProbe(key_hash);
      const auto it = ctx.shortcuts->find(key_hash);
      if (it != ctx.shortcuts->end() && KeysEqual(it->second->key(), key)) {
        leaf = it->second;
      }
      ++(leaf != nullptr ? stats.shortcut_hits : stats.shortcut_misses);
    }
    const bool hit = leaf != nullptr;
    if (hit) {
      observer.OnNodeVisit(art::NodeRef::FromLeaf(leaf));
    } else {
      leaf = ctx.tree.FindLeaf(key);
    }
    cost.OnTraverseEnd(key_hash, hit, leaf);

    // Trigger_Operation: one synchronization record covers the group.  The
    // bucket's owner serializes a node's groups, so a contended record is
    // residual synchronization (what Fig. 7 reports), not a stall.
    ++stats.lock_acquisitions;
    const bool writes =
        std::any_of(members.begin(), members.end(), [&ops](std::uint32_t i) {
          return ops[i].type == OpType::kWrite ||
                 ops[i].type == OpType::kRemove;
        });
    const std::uintptr_t sync_id =
        leaf != nullptr ? reinterpret_cast<std::uintptr_t>(leaf) : key_hash;
    if (ctx.conflicts.Record(sync_id, writes).contended) {
      ++stats.lock_contentions;
      cost.OnContendedSync();
    }

    bool traversed = !hit;  // the group's leaf came from the tree
    bool dirty = false;
    for (std::uint32_t idx : members) {
      const Operation& op = ops[idx];
      switch (op.type) {
        case OpType::kScan: {
          // Extension: the scan runs on the bucket's unit and may cross
          // into other buckets' subtrees (reads only).
          std::size_t entries = 0;
          ctx.tree.ScanFrom(op.key, [&entries, &op](KeyView, art::Value) {
            return ++entries < op.scan_count;
          });
          stats.scan_entries += entries;
          cost.OnScanEntries(entries);
          break;
        }
        case OpType::kRead:
          if (leaf != nullptr) ++ctx.reads_hit;
          break;
        case OpType::kRemove:
          if (leaf == nullptr) break;
          if (ctx.shortcuts != nullptr && ctx.shortcuts->erase(key_hash) > 0) {
            ++stats.shortcut_invalidations;
            cost.OnShortcutWrite(key_hash);
          }
          ctx.tree.Remove(op.key);
          // Another key's leaf may take the freed address.
          ctx.conflicts.Forget(reinterpret_cast<std::uintptr_t>(leaf));
          leaf = nullptr;
          break;
        case OpType::kWrite:
          if (leaf != nullptr) {
            leaf->value = op.value;
          } else {
            ctx.tree.Insert(op.key, op.value, &leaf);
            traversed = true;
          }
          dirty = true;
          break;
      }
    }
    cost.OnTriggerEnd(members.size(), leaf, dirty);

    // Generate_Shortcut: a group whose leaf came from the tree records it.
    if (ctx.shortcuts != nullptr && traversed && leaf != nullptr) {
      (*ctx.shortcuts)[key_hash] = leaf;
      ++stats.shortcut_invalidations;  // entries rewritten
      cost.OnShortcutWrite(key_hash);
    }
  }
  ctx.tree.set_observer(nullptr);
}

}  // namespace dcart::ctt
