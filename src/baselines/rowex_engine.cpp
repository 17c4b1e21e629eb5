#include "baselines/rowex_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "simhw/cache_model.h"
#include "simhw/conflict_model.h"

namespace dcart::baselines {

ArtRowexEngine::ArtRowexEngine(simhw::CpuModel model) : model_(model) {}

void ArtRowexEngine::Load(
    const std::vector<std::pair<Key, art::Value>>& items) {
  tree_.BulkLoad(items);
}

std::optional<art::Value> ArtRowexEngine::Lookup(KeyView key) const {
  const sync::CLeaf* leaf = tree_.FindLeafTraced(key, nullptr);
  if (leaf == nullptr) return std::nullopt;
  return leaf->value.load(std::memory_order_acquire);
}

ExecutionResult ArtRowexEngine::Run(std::span<const Operation> ops,
                                    const RunConfig& config) {
  ExecutionResult result;
  result.platform = "cpu";

  simhw::CacheModel cache(model_.llc_bytes, model_.cacheline_bytes, 16);
  simhw::ConflictModel conflicts(config.inflight_ops,
                                 simhw::SyncProtocol::kLockBased);
  OpTracer tracer(model_, cache, conflicts, result.stats);
  sync::SyncStats scratch;
  LatencyHistogram* latency =
      config.collect_latency ? &result.latency_ns : nullptr;

  for (const Operation& op : ops) {
    tracer.BeginOp();
    if (op.type == OpType::kScan) {
      result.stats.scan_entries +=
          tree_.ScanTraced(op.key, op.scan_count, &tracer);
    } else if (op.type == OpType::kRead || op.type == OpType::kRemove) {
      // RowexTree implements no structural delete (the ROWEX paper's scope);
      // kRemove degrades to the probe it would start with.
      const rowex::RNode* last_internal = nullptr;
      const sync::CLeaf* leaf =
          tree_.FindLeafTraced(op.key, &tracer, &last_internal);
      // Readers are lock-free but blocked by the node's write exclusion.
      if (last_internal != nullptr) {
        tracer.SyncPoint(reinterpret_cast<std::uintptr_t>(last_internal),
                         false);
      }
      if (leaf != nullptr && op.type == OpType::kRead) ++result.reads_hit;
    } else {
      tree_.Insert(op.key, op.value, /*tid=*/0, scratch, &tracer);
    }
    tracer.EndOp(config.inflight_ops, config.cpu.threads, latency);
  }

  result.seconds = CpuSeconds(model_, tracer.parallel_cycles(),
                              tracer.serial_cycles(), config.cpu.threads);
  result.energy_joules = result.seconds * model_.power_watts;
  result.phase_breakdown.traverse_seconds =
      tracer.parallel_cycles() / model_.frequency_hz;
  result.phase_breakdown.trigger_seconds =
      tracer.serial_cycles() / model_.frequency_hz;
  return result;
}

double ArtRowexEngine::RunThreaded(std::span<const Operation> ops,
                                   std::size_t num_threads, OpStats& stats) {
  num_threads = std::clamp<std::size_t>(num_threads, 1, 64);
  std::vector<sync::SyncStats> per_thread(num_threads);
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      workers.emplace_back([this, ops, t, num_threads, &per_thread] {
        sync::SyncStats& local = per_thread[t];
        for (std::size_t i = t; i < ops.size(); i += num_threads) {
          const Operation& op = ops[i];
          if (op.type == OpType::kWrite) {
            tree_.Insert(op.key, op.value, t, local);
          } else {
            // Reads, scans, and removes all degrade to a start-key probe
            // (no structural delete in ROWEX; see Run()).
            (void)tree_.Lookup(op.key, t, local);
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stats.operations += ops.size();
  for (const sync::SyncStats& s : per_thread) s.MergeInto(stats);
  return std::chrono::duration<double>(elapsed).count();
}

}  // namespace dcart::baselines
