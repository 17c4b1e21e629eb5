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

/// The Xeon cost model of the CTT executor (dcart/ctt.h): every table and
/// tree touch goes through the LLC model, and a group's traverse and
/// trigger cycles go to its bucket's worker.
class XeonCost {
 public:
  XeonCost(const simhw::CpuModel& model, simhw::CacheModel& cache,
           OpStats& stats)
      : model_(model), cache_(cache), stats_(stats) {}

  /// Model an access to a DRAM-resident CTT table or tree object.
  void Touch(std::uintptr_t addr, std::size_t bytes) {
    const auto r = cache_.Access(addr, bytes);
    lines_ += r.lines;
    misses_ += r.misses;
    stats_.offchip_accesses += r.misses;
    stats_.offchip_bytes += static_cast<std::uint64_t>(r.lines) * 64;
    stats_.onchip_hits += r.lines - r.misses;
  }

  /// Cycles of the lines touched since the last call.
  double TakeCycles() {
    const double cycles =
        static_cast<double>(lines_ - misses_) * model_.cycles_llc_hit +
        static_cast<double>(misses_) * model_.cycles_dram_miss;
    lines_ = 0;
    misses_ = 0;
    return cycles;
  }

  void OnBucketStart(std::size_t ops) {
    bucket = static_cast<double>(ops) * kGroupHashCyclesPerOp;
    combine += bucket;
  }
  void OnGroupStart(std::size_t) {}
  void OnShortcutProbe(std::uint64_t hash) {
    group_ = kShortcutProbeCycles;
    TouchSlot(hash);
  }
  void OnNodeVisit(art::NodeRef ref) {
    if (ref.IsLeaf()) {
      const std::size_t key_len = ref.AsLeaf()->key().size();
      Touch(ref.raw(), art::ModeledLeafBytes(key_len));
      stats_.useful_bytes += key_len + sizeof(art::Value);
    } else {
      const art::Node* node = ref.AsNode();
      Touch(ref.raw(), 24 + node->stored_prefix_len + 16);
      stats_.useful_bytes += 9 + node->stored_prefix_len + 1 + sizeof(void*);
    }
  }
  void OnNodeReplaced(art::NodeRef, art::NodeRef) {}
  void OnTraverseEnd(std::uint64_t hash, bool hit, const art::Leaf* leaf) {
    // The software table records a found leaf as soon as the miss resolves.
    if (!hit && leaf != nullptr) TouchSlot(hash);
    ++stats_.atomic_ops;  // the group lock is one atomic
    group_ += TakeCycles();
    bucket += group_;
    traverse += group_;
    group_ = 0.0;
  }
  void OnContendedSync() {
    serial += model_.cycles_lock_uncontended;
    trigger += model_.cycles_lock_uncontended;
  }
  void OnScanEntries(std::size_t entries) {
    group_ += static_cast<double>(entries) * kTriggerCyclesPerOp;
  }
  void OnTriggerEnd(std::size_t members, const art::Leaf*, bool) {
    group_ += static_cast<double>(members) * kTriggerCyclesPerOp +
              model_.cycles_lock_uncontended;
    group_ += TakeCycles();
    bucket += group_;
    trigger += group_;
  }
  void OnShortcutWrite(std::uint64_t) {}

  double bucket = 0.0;   // the bucket being drained
  double serial = 0.0;   // contended synchronization, paid in full
  double combine = 0.0;  // run totals per phase
  double traverse = 0.0;
  double trigger = 0.0;

 private:
  void TouchSlot(std::uint64_t hash) {
    Touch(kShortcutTableBase + (hash % kShortcutSlots) * kShortcutEntryBytes,
          kShortcutEntryBytes);
  }

  const simhw::CpuModel& model_;
  simhw::CacheModel& cache_;
  OpStats& stats_;
  std::uint64_t lines_ = 0;
  std::uint64_t misses_ = 0;
  double group_ = 0.0;  // the current group's traverse, then trigger cycles
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
  XeonCost cost(model_, cache, result.stats);
  shortcuts_.clear();
  const ctt::Context ctt{tree_, &shortcuts_, conflicts, result.stats,
                         result.reads_hit};

  double total_seconds = 0.0;
  LatencyHistogram* latency =
      config.collect_latency ? &result.latency_ns : nullptr;
  const std::size_t batch_size = std::max<std::size_t>(1, config.batch_size);
  const double workers = static_cast<double>(
      std::min({config.cpu.threads, model_.cores, kBuckets}));
  std::vector<std::uintptr_t> bucket_fill(kBuckets, 0);

  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);
    const std::size_t n = end - begin;

    // Combine: append each op to its bucket table, as the PCU does.
    const std::size_t offset = ctt::PrefixOffset(tree_);
    std::vector<std::vector<std::uint32_t>> buckets(kBuckets);
    double combine_cycles = static_cast<double>(n) * kCombineCyclesPerOp;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t b = ctt::BucketOf(ops[i].key, offset, 8, kBuckets);
      buckets[b].push_back(static_cast<std::uint32_t>(i));
      cost.Touch(kBucketTableBase + (b << 28) +
                     bucket_fill[b]++ * kBucketEntryBytes,
                 kBucketEntryBytes);
    }
    combine_cycles += cost.TakeCycles();

    // Traverse + Trigger: each bucket on one worker.
    std::vector<double> bucket_cycles(kBuckets, 0.0);
    cost.serial = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets[b].empty()) continue;
      ctt::ExecuteBucket(ctt, ops, buckets[b], cost);
      bucket_cycles[b] = cost.bucket;
    }

    // Timing: Combine is a sequential scan; buckets spread over
    // min(threads, buckets) workers with the hottest bucket bounding the
    // makespan (CTT's load-imbalance cost on skewed data).
    cost.combine += combine_cycles;
    double sum_buckets = 0.0;
    double max_bucket = 0.0;
    for (double c : bucket_cycles) {
      sum_buckets += c;
      max_bucket = std::max(max_bucket, c);
    }
    const double batch_cycles =
        combine_cycles +
        std::max(max_bucket, sum_buckets / std::max(1.0, workers)) +
        cost.serial;
    const double batch_seconds = batch_cycles / model_.frequency_hz;
    total_seconds += batch_seconds;
    if (latency != nullptr) {
      latency->RecordMany(static_cast<std::uint64_t>(batch_seconds * 1e9), n);
    }
  }

  result.seconds = total_seconds;
  result.energy_joules = total_seconds * model_.power_watts;
  result.phase_breakdown.combine_seconds = cost.combine / model_.frequency_hz;
  result.phase_breakdown.traverse_seconds =
      cost.traverse / model_.frequency_hz;
  result.phase_breakdown.trigger_seconds = cost.trigger / model_.frequency_hz;
  return result;
}

}  // namespace dcart::dcartc
