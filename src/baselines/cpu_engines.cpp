#include "baselines/cpu_engines.h"

#include "baselines/cpu_trace.h"
#include "simhw/cache_model.h"

namespace dcart::baselines {

using sync::CLeaf;
using sync::CNode;

CpuEngine::CpuEngine(Protocol protocol, simhw::CpuModel model)
    : protocol_(std::move(protocol)), model_(model) {}

void CpuEngine::Load(const std::vector<std::pair<Key, art::Value>>& items) {
  tree_.BulkLoad(items);
}

std::optional<art::Value> CpuEngine::Lookup(KeyView key) const {
  const CLeaf* leaf = tree_.FindLeafTraced(key, /*tracer=*/nullptr);
  if (leaf == nullptr) return std::nullopt;
  return leaf->value.load(std::memory_order_acquire);
}

sync::CLeaf* CpuEngine::TracedFind(KeyView key, OpTracer& tracer,
                                   const CNode** last_internal) {
  if (protocol_.use_path_cache && key.size() >= 2) {
    const std::uint32_t prefix2 =
        (static_cast<std::uint32_t>(key[0]) << 8) | key[1];
    const auto it = path_cache_.find(prefix2);
    if (it != path_cache_.end() && !it->second.node->lock.IsObsolete()) {
      CLeaf* leaf = tree_.FindLeafTracedFrom(it->second, key, &tracer,
                                             protocol_.compact_layout);
      if (leaf != nullptr) {
        if (last_internal) *last_internal = it->second.node;
        return leaf;
      }
      // Stale hint or genuinely absent key: fall through to a full walk.
    }
    OlcTree::PathHint hint;
    CLeaf* leaf = tree_.FindLeafTraced(key, &tracer, &hint, /*hint_depth=*/2,
                                       protocol_.compact_layout,
                                       last_internal);
    if (hint.node != nullptr) path_cache_[prefix2] = hint;
    return leaf;
  }
  return tree_.FindLeafTraced(key, &tracer, nullptr, 2,
                              protocol_.compact_layout, last_internal);
}

ExecutionResult CpuEngine::Run(std::span<const Operation> ops,
                               const RunConfig& config) {
  ExecutionResult result;
  result.platform = "cpu";

  simhw::CacheModel cache(model_.llc_bytes, model_.cacheline_bytes,
                          /*associativity=*/16);
  simhw::ConflictModel conflicts(config.inflight_ops, protocol_.sync);
  OpTracer tracer(model_, cache, conflicts, result.stats);
  sync::SyncStats scratch;  // real-lock stats; unused in single-thread mode
  LatencyHistogram* latency =
      config.collect_latency ? &result.latency_ns : nullptr;

  if (protocol_.use_path_cache) {
    // Cached node pointers outlive individual operations; defer reclamation
    // so they can never dangle, and drain at the end of the run.
    tree_.set_defer_reclamation(true);
    path_cache_.clear();
  }

  for (const Operation& op : ops) {
    tracer.BeginOp();
    const CNode* last_internal = nullptr;
    if (op.type == OpType::kScan) {
      result.stats.scan_entries +=
          tree_.ScanTraced(op.key, op.scan_count, &tracer);
    } else if (op.type == OpType::kRead) {
      CLeaf* leaf = TracedFind(op.key, tracer, &last_internal);
      if (protocol_.sync == simhw::SyncProtocol::kLockBased) {
        // Lock-based readers synchronize on the leaf's parent node.
        if (last_internal != nullptr) {
          tracer.SyncPoint(reinterpret_cast<std::uintptr_t>(last_internal),
                           false);
        }
      } else if (leaf != nullptr) {
        // Optimistic readers validate at the leaf they return.
        tracer.SyncPoint(reinterpret_cast<std::uintptr_t>(leaf), false);
      }
      if (leaf != nullptr) ++result.reads_hit;
    } else if (op.type == OpType::kRemove) {
      // Deletes pay the same traced descent as a read, then the structural
      // removal itself (untraced: the platform model prices the traversal
      // and the write synchronization, which dominate).
      CLeaf* leaf = TracedFind(op.key, tracer, &last_internal);
      if (leaf != nullptr) {
        tracer.SyncPoint(reinterpret_cast<std::uintptr_t>(leaf), true);
        tree_.Remove(op.key, /*tid=*/0, scratch);
      }
    } else if (protocol_.cas_leaf_updates) {
      CLeaf* leaf = TracedFind(op.key, tracer, &last_internal);
      if (leaf != nullptr) {
        tracer.SyncPoint(reinterpret_cast<std::uintptr_t>(leaf), true);
        leaf->value.store(op.value, std::memory_order_release);
      } else {
        tree_.Insert(op.key, op.value, /*tid=*/0, scratch, &tracer,
                     /*cas_leaf_updates=*/true);
      }
    } else {
      tree_.Insert(op.key, op.value, /*tid=*/0, scratch, &tracer,
                   /*cas_leaf_updates=*/false);
    }
    tracer.EndOp(config.inflight_ops, config.cpu.threads, latency);
  }

  if (protocol_.use_path_cache) {
    path_cache_.clear();
    tree_.DrainReclamation();
    tree_.set_defer_reclamation(false);
  }

  tracer.FinishRun(config.cpu.threads, result);
  return result;
}

double CpuEngine::RunThreaded(std::span<const Operation> ops,
                              std::size_t num_threads, OpStats& stats) {
  return RunRoundRobin(
      ops, num_threads, stats,
      [this](const Operation& op, std::size_t tid, sync::SyncStats& local) {
        if (op.type == OpType::kWrite) {
          tree_.Insert(op.key, op.value, tid, local, nullptr,
                       protocol_.cas_leaf_updates);
        } else if (op.type == OpType::kRemove) {
          tree_.Remove(op.key, tid, local);
        } else {
          // Reads; scans degrade to a start-key probe in the real-thread
          // mode (the traced single-thread mode measures full scans).
          (void)tree_.Lookup(op.key, tid, local);
        }
      });
}

std::unique_ptr<CpuEngine> MakeArtOlcEngine(simhw::CpuModel model) {
  return std::make_unique<CpuEngine>(
      CpuEngine::Protocol{.name = "ART-OLC",
                          .sync = simhw::SyncProtocol::kLockBased,
                          .cas_leaf_updates = false,
                          .compact_layout = false,
                          .use_path_cache = false},
      model);
}

std::unique_ptr<CpuEngine> MakeHeartEngine(simhw::CpuModel model) {
  return std::make_unique<CpuEngine>(
      CpuEngine::Protocol{.name = "Heart",
                          .sync = simhw::SyncProtocol::kCasBased,
                          .cas_leaf_updates = true,
                          .compact_layout = false,
                          .use_path_cache = false},
      model);
}

std::unique_ptr<CpuEngine> MakeSmartEngine(simhw::CpuModel model) {
  return std::make_unique<CpuEngine>(
      CpuEngine::Protocol{.name = "SMART",
                          .sync = simhw::SyncProtocol::kCasBased,
                          .cas_leaf_updates = true,
                          .compact_layout = true,
                          .use_path_cache = true},
      model);
}

}  // namespace dcart::baselines
