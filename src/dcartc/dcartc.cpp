#include "dcartc/dcartc.h"

#include <algorithm>
#include <vector>

#include "simhw/cache_model.h"
#include "simhw/conflict_model.h"

namespace dcart::dcartc {

namespace {

// Software CTT runtime costs (cycles), the overheads Section II-C blames
// for DCART-C's limited speedup.  The combine pass is a sequential scan
// (the PCU analogue): per operation it extracts the prefix, branches on the
// bucket, and appends a 24-byte record — with the data-dependent branches
// and store-buffer pressure of a software loop.  Grouping uses a hash map
// (hashing, probing, occasional rehash); shortcut probes hash and compare.
constexpr double kCombineCyclesPerOp = 60;
constexpr double kGroupHashCyclesPerOp = 40;
constexpr double kShortcutProbeCycles = 30;
constexpr double kTriggerCyclesPerOp = 6;

// Synthetic memory regions for the tables DCART-C maintains in DRAM, so the
// cache model sees their traffic.  Chosen far from any heap address.
constexpr std::uintptr_t kBucketTableBase = 0x7000'0000'0000ull;
constexpr std::uintptr_t kShortcutTableBase = 0x7100'0000'0000ull;
constexpr std::size_t kShortcutEntryBytes = 24;  // <key_id, target, parent>
constexpr std::size_t kBucketEntryBytes = 24;    // op record
constexpr std::size_t kShortcutSlots = 1 << 22;
constexpr std::size_t kBuckets = 16;  // the paper's sixteen Bucket_Tables

/// Observer feeding tree traversals into the cache model and counters.
class CpuTraceObserver : public art::TraversalObserver {
 public:
  CpuTraceObserver(simhw::CacheModel& cache, OpStats& stats)
      : cache_(cache), stats_(stats) {}

  void OnNodeVisit(art::NodeRef ref) override {
    if (!enabled_) return;
    ++stats_.nodes_visited;
    if (ref.IsLeaf()) {
      const art::Leaf* leaf = ref.AsLeaf();
      ++stats_.leaf_accesses;
      const std::size_t key_len = leaf->key().size();
      Touch(ref.raw(), art::ModeledLeafBytes(key_len));
      stats_.useful_bytes += key_len + sizeof(art::Value);
    } else {
      const art::Node* node = ref.AsNode();
      ++stats_.partial_key_matches;
      Touch(ref.raw(), 24 + node->stored_prefix_len + 16);
      stats_.useful_bytes += 9 + node->stored_prefix_len + 1 + sizeof(void*);
    }
  }

  /// Model an access to one of the DRAM-resident CTT tables.
  void Touch(std::uintptr_t addr, std::size_t bytes) {
    const auto r = cache_.Access(addr, bytes);
    lines_ += r.lines;
    misses_ += r.misses;
    stats_.offchip_accesses += r.misses;
    stats_.offchip_bytes += static_cast<std::uint64_t>(r.lines) * 64;
    stats_.onchip_hits += r.lines - r.misses;
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Drain the line/miss counts accumulated since the last call.
  void Take(std::uint64_t& lines, std::uint64_t& misses) {
    lines = lines_;
    misses = misses_;
    lines_ = 0;
    misses_ = 0;
  }

 private:
  simhw::CacheModel& cache_;
  OpStats& stats_;
  std::uint64_t lines_ = 0;
  std::uint64_t misses_ = 0;
  bool enabled_ = true;
};

}  // namespace

DcartCEngine::DcartCEngine(simhw::CpuModel model) : model_(model) {}

void DcartCEngine::Load(const std::vector<std::pair<Key, art::Value>>& items) {
  for (const auto& [key, value] : items) {
    tree_.Insert(key, value);
  }
}

std::optional<art::Value> DcartCEngine::Lookup(KeyView key) const {
  return tree_.Get(key);
}

ExecutionResult DcartCEngine::Run(std::span<const Operation> ops,
                                  const RunConfig& config) {
  ExecutionResult result;
  result.platform = "cpu";

  simhw::CacheModel cache(model_.llc_bytes, model_.cacheline_bytes, 16);
  // Group-level window spanning roughly two batches of groups (see the
  // matching comment in dcart/accelerator.cpp).
  simhw::ConflictModel conflicts(config.inflight_ops,
                                 simhw::SyncProtocol::kCoalesced);
  CpuTraceObserver observer(cache, result.stats);
  tree_.set_observer(&observer);
  shortcuts_.clear();

  double total_seconds = 0.0;
  double combine_total = 0.0;
  double traverse_total = 0.0;
  double trigger_total = 0.0;
  LatencyHistogram* latency =
      config.collect_latency ? &result.latency_ns : nullptr;

  const std::size_t batch_size = std::max<std::size_t>(1, config.batch_size);
  std::vector<std::uintptr_t> bucket_fill(kBuckets, 0);

  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);
    const std::size_t n = end - begin;

    // ----------------------------------------------------------- Combine --
    // Scan the batch, compute each key's prefix, append to its bucket
    // table.  As in the accelerator, the prefix starts at the first
    // discriminating key byte (after the root's compressed path).
    std::size_t prefix_offset = 0;
    if (tree_.root().IsNode()) {
      prefix_offset = tree_.root().AsNode()->prefix_len;
    }
    std::vector<std::vector<std::uint32_t>> buckets(kBuckets);
    double combine_cycles = static_cast<double>(n) * kCombineCyclesPerOp;
    for (std::size_t i = begin; i < end; ++i) {
      const Key& key = ops[i].key;
      const unsigned prefix =
          prefix_offset < key.size() ? key[prefix_offset] : 0;
      const std::size_t b = prefix * kBuckets / 256;
      buckets[b].push_back(static_cast<std::uint32_t>(i));
      observer.Touch(kBucketTableBase + (b << 28) +
                         bucket_fill[b] * kBucketEntryBytes,
                     kBucketEntryBytes);
      ++bucket_fill[b];
    }
    {
      std::uint64_t lines = 0, misses = 0;
      observer.Take(lines, misses);
      combine_cycles +=
          static_cast<double>(lines - misses) * model_.cycles_llc_hit +
          static_cast<double>(misses) * model_.cycles_dram_miss;
    }

    // ------------------------------------------------ Traverse + Trigger --
    std::vector<double> bucket_cycles(kBuckets, 0.0);
    double serial_cycles = 0.0;

    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets[b].empty()) continue;
      // Group by key, preserving arrival order inside each group.
      std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> groups;
      groups.reserve(buckets[b].size());
      for (std::uint32_t idx : buckets[b]) {
        groups[HashKey(ops[idx].key)].push_back(idx);
      }
      const double group_hash_cycles =
          static_cast<double>(buckets[b].size()) * kGroupHashCyclesPerOp;
      bucket_cycles[b] += group_hash_cycles;
      combine_total += group_hash_cycles;

      for (auto& [key_hash, members] : groups) {
        const Operation& first = ops[members.front()];
        result.stats.operations += members.size();
        result.stats.combined_ops += members.size() - 1;

        // -- Traverse: shortcut table first, tree walk on miss.
        art::Leaf* leaf = nullptr;
        double traverse_cycles = kShortcutProbeCycles;
        observer.Touch(kShortcutTableBase +
                           (key_hash % kShortcutSlots) * kShortcutEntryBytes,
                       kShortcutEntryBytes);
        const auto it = shortcuts_.find(key_hash);
        if (it != shortcuts_.end()) {
          if (KeysEqual(it->second->key(), first.key)) {
            leaf = it->second;
            ++result.stats.shortcut_hits;
            observer.OnNodeVisit(art::NodeRef::FromLeaf(leaf));
          } else {
            // Stale entry (a colliding key hash): drop it so the table
            // never serves a mismatched leaf twice.  Entries for removed
            // keys are erased eagerly in the kRemove path below, so the
            // stored pointer is always safe to dereference here.
            shortcuts_.erase(it);
          }
        }
        if (leaf == nullptr) {
          ++result.stats.shortcut_misses;
          leaf = tree_.FindLeaf(first.key);
          if (leaf != nullptr) {
            shortcuts_[key_hash] = leaf;
            observer.Touch(kShortcutTableBase +
                               (key_hash % kShortcutSlots) *
                                   kShortcutEntryBytes,
                           kShortcutEntryBytes);
          }
        }
        {
          std::uint64_t lines = 0, misses = 0;
          observer.Take(lines, misses);
          traverse_cycles +=
              static_cast<double>(lines - misses) * model_.cycles_llc_hit +
              static_cast<double>(misses) * model_.cycles_dram_miss;
        }
        bucket_cycles[b] += traverse_cycles;
        traverse_total += traverse_cycles;

        // -- Trigger: one lock acquisition covers the whole group.
        ++result.stats.lock_acquisitions;
        ++result.stats.atomic_ops;
        const std::uintptr_t sync_id =
            leaf != nullptr ? reinterpret_cast<std::uintptr_t>(leaf)
                            : key_hash;
        bool group_writes = false;
        for (std::uint32_t idx : members) {
          group_writes |= ops[idx].type == OpType::kWrite ||
                          ops[idx].type == OpType::kRemove;
        }
        // Buckets are pinned to workers, so a node's groups never truly
        // race; the event is recorded as residual synchronization but the
        // acquisition is uncontended in practice.
        const auto outcome = conflicts.Record(sync_id, group_writes);
        if (outcome.contended) {
          ++result.stats.lock_contentions;
          serial_cycles += model_.cycles_lock_uncontended;
          trigger_total += model_.cycles_lock_uncontended;
        }

        double trigger_cycles = 0.0;
        for (std::uint32_t idx : members) {
          const Operation& op = ops[idx];
          if (op.type == OpType::kScan) {
            // Extension: range scans run on the bucket's worker; the walk
            // may cross bucket boundaries (reads only).  Costs flow through
            // the tree observer like any traversal.
            std::size_t entries = 0;
            tree_.ScanFrom(op.key, [&entries, &op](KeyView, art::Value) {
              return ++entries < op.scan_count;
            });
            result.stats.scan_entries += entries;
            trigger_cycles += static_cast<double>(entries) * kTriggerCyclesPerOp;
          } else if (op.type == OpType::kRead) {
            if (leaf != nullptr) ++result.reads_hit;
          } else if (op.type == OpType::kRemove) {
            if (leaf != nullptr) {
              // Erase the shortcut entry *before* the leaf is reclaimed so
              // the table never holds a dangling pointer (the probe above
              // dereferences stored leaves unconditionally).
              shortcuts_.erase(key_hash);
              tree_.Remove(op.key);
              leaf = nullptr;
            }
          } else if (leaf != nullptr) {
            leaf->value = op.value;
          } else {
            // First write to an absent key inserts it; the traversal cost is
            // observed through the tree observer.
            tree_.Insert(op.key, op.value);
            observer.set_enabled(false);
            leaf = tree_.FindLeaf(op.key);
            observer.set_enabled(true);
            if (leaf != nullptr) shortcuts_[key_hash] = leaf;
          }
        }
        trigger_cycles += static_cast<double>(members.size()) *
                              kTriggerCyclesPerOp +
                          model_.cycles_lock_uncontended;

        std::uint64_t lines = 0, misses = 0;
        observer.Take(lines, misses);
        trigger_cycles +=
            static_cast<double>(lines - misses) * model_.cycles_llc_hit +
            static_cast<double>(misses) * model_.cycles_dram_miss;
        bucket_cycles[b] += trigger_cycles;
        trigger_total += trigger_cycles;
      }
    }

    // ------------------------------------------------------------ Timing --
    // Combine is a sequential scan (the PCU analogue); bucket processing is
    // spread over min(threads, buckets) workers with the hottest bucket
    // bounding the makespan (CTT's load-imbalance cost on skewed data).
    combine_total += combine_cycles;
    const double workers = static_cast<double>(
        std::min({config.cpu.threads, model_.cores, kBuckets}));
    double sum_buckets = 0.0;
    double max_bucket = 0.0;
    for (double c : bucket_cycles) {
      sum_buckets += c;
      max_bucket = std::max(max_bucket, c);
    }
    const double batch_cycles =
        combine_cycles +
        std::max(max_bucket, sum_buckets / std::max(1.0, workers)) +
        serial_cycles;
    const double batch_seconds = batch_cycles / model_.frequency_hz;
    total_seconds += batch_seconds;
    if (latency != nullptr) {
      latency->RecordMany(static_cast<std::uint64_t>(batch_seconds * 1e9), n);
    }
  }

  tree_.set_observer(nullptr);
  result.seconds = total_seconds;
  result.energy_joules = total_seconds * model_.power_watts;
  result.phase_breakdown.combine_seconds = combine_total / model_.frequency_hz;
  result.phase_breakdown.traverse_seconds =
      traverse_total / model_.frequency_hz;
  result.phase_breakdown.trigger_seconds = trigger_total / model_.frequency_hz;
  return result;
}

}  // namespace dcart::dcartc
