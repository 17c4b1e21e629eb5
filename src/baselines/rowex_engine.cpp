#include "baselines/rowex_engine.h"

#include "baselines/cpu_trace.h"
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

  tracer.FinishRun(config.cpu.threads, result);
  return result;
}

double ArtRowexEngine::RunThreaded(std::span<const Operation> ops,
                                   std::size_t num_threads, OpStats& stats) {
  return RunRoundRobin(
      ops, num_threads, stats,
      [this](const Operation& op, std::size_t tid, sync::SyncStats& local) {
        if (op.type == OpType::kWrite) {
          tree_.Insert(op.key, op.value, tid, local);
        } else {
          // Reads, scans, and removes all degrade to a start-key probe (no
          // structural delete in ROWEX; see Run()).
          (void)tree_.Lookup(op.key, tid, local);
        }
      });
}

}  // namespace dcart::baselines
