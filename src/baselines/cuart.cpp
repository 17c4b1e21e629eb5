#include "baselines/cuart.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "simhw/cache_model.h"
#include "simhw/conflict_model.h"

namespace dcart::baselines {

using sync::CLeaf;
using sync::CNode;
using sync::CRef;

CuartEngine::CuartEngine(simhw::GpuModel model) : model_(model) {}

void CuartEngine::Load(const std::vector<std::pair<Key, art::Value>>& items) {
  tree_.BulkLoad(items);
}

std::optional<art::Value> CuartEngine::Lookup(KeyView key) const {
  const CLeaf* leaf = tree_.FindLeafTraced(key, nullptr);
  if (leaf == nullptr) return std::nullopt;
  return leaf->value.load(std::memory_order_acquire);
}

namespace {

/// One coalesced traversal for a group of identical keys.  Returns the leaf
/// (nullptr if absent) and reports every node touch into the GPU L2 model.
/// `last_internal` receives the leaf's parent for lock accounting.
/// `l2_hits` counts transactions served by L2 (cheaper but not free).
CLeaf* GpuTraverse(const OlcTree& tree, KeyView key, simhw::CacheModel& l2,
                   OpStats& stats, std::uint64_t& mem_transactions,
                   std::uint64_t& l2_hits, const CNode** last_internal) {
  // SIMT traversal: every touch is fetched as 32-byte sectors from global
  // memory.
  const auto fetch = [&](std::uintptr_t addr, std::size_t bytes,
                         std::size_t useful) {
    ++stats.nodes_visited;
    const auto r = l2.Access(addr, bytes);
    mem_transactions += r.misses;
    l2_hits += r.lines - r.misses;
    stats.offchip_accesses += r.misses;
    stats.offchip_bytes += static_cast<std::uint64_t>(r.lines) * 32;
    stats.onchip_hits += r.lines - r.misses;
    stats.useful_bytes += useful;
  };
  return art::Descend(
      tree.root(), 0, key,
      art::Overload{
          [&](CRef ref) {
            const CLeaf* leaf = ref.AsLeaf();
            const std::size_t key_len = leaf->key().size();
            ++stats.leaf_accesses;
            fetch(reinterpret_cast<std::uintptr_t>(leaf),
                  art::ModeledLeafBytes(key_len),
                  key_len + sizeof(art::Value));
          },
          [&](CRef ref, const art::NodePath& path) {
            if (last_internal) *last_internal = ref.AsNode();
            ++stats.partial_key_matches;
            // The header plus the key/index structures.
            fetch(ref.raw(), 24 + path.stored + 16,
                  9 + path.stored + 1 + sizeof(void*));
          }});
}

}  // namespace

ExecutionResult CuartEngine::Run(std::span<const Operation> ops,
                                 const RunConfig& config) {
  ExecutionResult result;
  result.platform = "gpu";

  // A100 L2: 40 MB, 32-byte sectors.
  simhw::CacheModel l2(40 * 1024 * 1024, 32, 16);
  simhw::ConflictModel conflicts(config.inflight_ops,
                                 simhw::SyncProtocol::kCasBased);
  sync::SyncStats scratch;
  LatencyHistogram* latency =
      config.collect_latency ? &result.latency_ns : nullptr;

  double total_seconds = 0.0;

  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  for (std::size_t begin = 0; begin < ops.size(); begin += batch) {
    const std::size_t end = std::min(ops.size(), begin + batch);
    const std::size_t n = end - begin;

    // Device radix sort groups identical keys (and clusters subtrees).
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const int cmp =
                    CompareKeys(ops[begin + a].key, ops[begin + b].key);
                // Tie-break on arrival index so same-key operations keep
                // their order (last-writer-wins must be the true last).
                return cmp != 0 ? cmp < 0 : a < b;
              });

    std::uint64_t batch_mem_transactions = 0;
    std::uint64_t batch_l2_hits = 0;
    double batch_serial_cycles = 0.0;
    std::uint64_t batch_pkm_before = result.stats.partial_key_matches;

    std::size_t i = 0;
    while (i < n) {
      const Operation& head = ops[begin + order[i]];
      if (head.type == OpType::kScan) {
        // Range scans don't coalesce; one SIMT walk gathers the entries
        // (each leaf is an uncoalesced transaction).
        result.stats.operations += 1;
        const std::size_t entries =
            tree_.ScanTraced(head.key, head.scan_count, nullptr);
        result.stats.scan_entries += entries;
        result.stats.nodes_visited += entries;
        batch_mem_transactions += entries + 4;
        ++i;
        continue;
      }
      // Group of identical keys: one traversal serves them all (scans are
      // never grouped; they were handled above).
      std::size_t j = i + 1;
      const Operation& first = ops[begin + order[i]];
      while (j < n && KeysEqual(ops[begin + order[j]].key, first.key) &&
             ops[begin + order[j]].type != OpType::kScan) {
        ++j;
      }
      const std::size_t group = j - i;
      result.stats.operations += group;
      result.stats.combined_ops += group - 1;

      const CNode* last_internal = nullptr;
      CLeaf* leaf = GpuTraverse(tree_, first.key, l2, result.stats,
                                batch_mem_transactions, batch_l2_hits,
                                &last_internal);

      // Apply members in arrival order: reads broadcast the value, writes
      // coalesce into one device atomic per group (last writer wins); a
      // missing key is inserted once under a GPU spinlock.
      bool group_wrote = false;
      for (std::size_t g = i; g < j; ++g) {
        const Operation& op = ops[begin + order[g]];
        if (op.type == OpType::kRead) {
          if (leaf != nullptr) ++result.reads_hit;
          continue;
        }
        if (op.type == OpType::kRemove) {
          if (leaf != nullptr) {
            // Structural delete: same GPU spinlock path as an insert.
            const auto outcome = conflicts.Record(
                reinterpret_cast<std::uintptr_t>(last_internal), true);
            ++result.stats.lock_acquisitions;
            ++result.stats.atomic_ops;
            if (outcome.contended) {
              ++result.stats.lock_contentions;
              batch_serial_cycles += 2 * model_.cycles_mem_transaction;
            }
            tree_.Remove(op.key, 0, scratch);
            leaf = nullptr;
          }
          continue;
        }
        if (leaf != nullptr) {
          group_wrote = true;
          leaf->value.store(op.value, std::memory_order_release);
        } else {
          // Structure-modifying insert: GPU spinlock on the parent node;
          // retries on hot nodes serialize the warp.
          const auto outcome = conflicts.Record(
              reinterpret_cast<std::uintptr_t>(last_internal), true);
          ++result.stats.lock_acquisitions;
          ++result.stats.atomic_ops;
          if (outcome.contended) {
            ++result.stats.lock_contentions;
            batch_serial_cycles += 2 * model_.cycles_mem_transaction;
          }
          tree_.Insert(op.key, op.value, 0, scratch);
          // Subsequent group members now update the new leaf.
          leaf = tree_.FindLeafTraced(op.key, nullptr);
        }
      }
      if (group_wrote) {
        // One coalesced CAS per written group; a conflicting CAS from a
        // concurrent warp retries, hidden behind the other warps in flight
        // (charged to the overlapped memory pool, not serialized).
        const auto outcome =
            conflicts.Record(reinterpret_cast<std::uintptr_t>(leaf), true);
        ++result.stats.lock_acquisitions;
        ++result.stats.atomic_ops;
        if (outcome.contended) {
          ++result.stats.lock_contentions;
          batch_mem_transactions += 2;
        }
      }
      i = j;
    }

    // --- batch timing ----------------------------------------------------
    const std::uint64_t batch_pkm =
        result.stats.partial_key_matches - batch_pkm_before;
    const double lanes = static_cast<double>(model_.sm_count) *
                         model_.warps_in_flight_per_sm *
                         static_cast<double>(model_.warp_lanes);
    const double overlap = static_cast<double>(model_.sm_count) *
                           model_.warps_in_flight_per_sm;
    const double mem_cycles =
        (static_cast<double>(batch_mem_transactions) *
             model_.cycles_mem_transaction +
         static_cast<double>(batch_l2_hits) * model_.cycles_l2_hit) /
        overlap;
    const double compute_cycles = static_cast<double>(batch_pkm) *
                                  model_.cycles_partial_key_match / lanes;
    const double pcie_seconds =
        2.0 * static_cast<double>(n) *
        static_cast<double>(model_.op_record_bytes) /
        model_.pcie_bytes_per_second;
    const double sort_seconds =
        static_cast<double>(n) / model_.sort_keys_per_second;
    const double device_seconds =
        (mem_cycles + compute_cycles + batch_serial_cycles) /
        model_.frequency_hz;
    // Transfers are synchronous, as the paper's CuART numbers model them:
    // each batch's PCIe copy and kernel run back to back.
    const double transfer_and_exec = pcie_seconds + device_seconds;
    const double batch_seconds = model_.batch_launch_seconds +
                                 model_.batch_host_sync_seconds +
                                 sort_seconds + transfer_and_exec;
    total_seconds += batch_seconds;
    // Phases: the device radix sort is CuART's combine analogue; traversal
    // work is the overlapped memory/compute pool; serialization is trigger.
    result.phase_breakdown.combine_seconds += sort_seconds;
    result.phase_breakdown.traverse_seconds +=
        (mem_cycles + compute_cycles) / model_.frequency_hz;
    result.phase_breakdown.trigger_seconds +=
        batch_serial_cycles / model_.frequency_hz;
    result.phase_breakdown.other_seconds +=
        model_.batch_launch_seconds + model_.batch_host_sync_seconds +
        pcie_seconds;

    if (latency != nullptr) {
      // Every op in the batch completes when the batch does.
      latency->RecordMany(static_cast<std::uint64_t>(batch_seconds * 1e9), n);
    }
  }

  result.seconds = total_seconds;
  result.energy_joules = total_seconds * model_.power_watts;
  return result;
}

}  // namespace dcart::baselines
