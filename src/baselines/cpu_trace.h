// Per-operation tracing and CPU cost assembly shared by the CPU baselines.
//
// An OpTracer rides along a (single-threaded) tree operation, observing
// every node touch and synchronization point.  Node touches are replayed
// through the LLC cache model (hit/miss split, fetched-vs-useful bytes);
// synchronization points run through the ConflictModel.  EndOp() converts
// the per-op event record into Xeon-model cycles, splitting serial
// (contended) cycles from parallelizable ones, and optionally records a
// modeled per-op latency.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"
#include "simhw/cache_model.h"
#include "simhw/conflict_model.h"
#include "simhw/timing_model.h"
#include "sync/cnode.h"
#include "workload/ops.h"

namespace dcart {
struct ExecutionResult;
}  // namespace dcart

namespace dcart::baselines {

class OpTracer {
 public:
  OpTracer(const simhw::CpuModel& model, simhw::CacheModel& cache,
           simhw::ConflictModel& conflicts, OpStats& stats);

  /// Reset the per-operation scratch counters.
  void BeginOp();

  /// One internal node visited: `addr` is the node's address,
  /// `stored_prefix` the inline prefix bytes its header carries, and
  /// `keys_scanned` how many key-array slots the child search examined
  /// (art::ScanCost for a descent, the whole node for a scan).
  /// `compact_layout` models SMART-style cacheline-aligned nodes whose
  /// header+keys+slot land in one line.
  void VisitInternal(std::uintptr_t addr, unsigned stored_prefix,
                     unsigned keys_scanned, bool compact_layout = false);

  /// The terminal leaf (or candidate leaf) was read; charged at its
  /// modeled size (art::ModeledLeafBytes), not the host block.
  void VisitLeaf(const sync::CLeaf* leaf);

  /// A synchronization point: node/leaf `id` locked or CAS-ed (write) or
  /// optimistically validated (read).
  void SyncPoint(std::uintptr_t id, bool is_write);

  /// Fold this op into the totals; returns the op's modeled cycles.
  /// Latency (if `latency` non-null) additionally models queueing delay for
  /// `inflight` outstanding ops over `threads` workers.
  double EndOp(std::size_t inflight, std::size_t threads,
               LatencyHistogram* latency);

  /// Cycles that cannot be parallelized across workers (critical sections
  /// serialized by contention).
  double serial_cycles() const { return serial_cycles_; }

  /// Fill a run's modeled seconds, energy and phase split over `threads`
  /// workers.  No combine stage: traverse is the parallelizable descent
  /// work, trigger the serialized synchronization tail.
  void FinishRun(std::size_t threads, ExecutionResult& result) const;

 private:
  const simhw::CpuModel& model_;
  simhw::CacheModel& cache_;
  simhw::ConflictModel& conflicts_;
  OpStats& stats_;

  // Per-op scratch.
  std::uint32_t op_pkm_ = 0;
  std::uint32_t op_lines_ = 0;
  std::uint32_t op_misses_ = 0;
  std::uint32_t op_acquisitions_ = 0;
  std::uint32_t op_contentions_ = 0;
  std::uint32_t op_restarts_ = 0;
  std::uint32_t op_waiters_ = 0;  // queue depth behind contended accesses

  // Run accumulators.
  double serial_cycles_ = 0.0;
  double parallel_cycles_ = 0.0;  // all other cycles
  double cycles_ema_ = 0.0;  // smoothed per-op service time for queue model
};

/// Assemble total modeled seconds for a CPU run: parallel cycles spread over
/// the worker pool, serial cycles paid in full.
double CpuSeconds(const simhw::CpuModel& model, double parallel_cycles,
                  double serial_cycles, std::size_t threads);

/// The real-thread client loop of the concurrent baselines: op i goes to
/// thread i mod n, with n clamped to the trees' 1-64 epoch slots, so
/// per-key order holds only within a thread (the usual concurrent-client
/// semantics).  `apply(op, tid, sync_stats)` runs one op; each thread keeps
/// its own SyncStats, merged into `stats` after the join.  Returns the
/// wall-clock seconds.
template <typename Apply>
double RunRoundRobin(std::span<const Operation> ops, std::size_t num_threads,
                     OpStats& stats, const Apply& apply) {
  num_threads = std::clamp<std::size_t>(num_threads, 1, 64);
  std::vector<sync::SyncStats> per_thread(num_threads);
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      workers.emplace_back([ops, t, num_threads, &per_thread, &apply] {
        sync::SyncStats& local = per_thread[t];
        for (std::size_t i = t; i < ops.size(); i += num_threads) {
          apply(ops[i], t, local);
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

/// The traced ordered scan of the concurrent trees (single-threaded model
/// runs): up to `limit` entries with key >= start from `root`, in key
/// order, reporting every touch to `tracer` (if any) and each entry to
/// `on_entry` (if any).  Returns the entry count.
template <typename P>
std::size_t TracedScan(
    art::BasicRef<P> root, KeyView start, std::size_t limit,
    OpTracer* tracer,
    const std::function<void(KeyView, art::Value)>& on_entry) {
  if (limit == 0) return 0;
  std::size_t emitted = 0;
  const auto hook = art::Overload{
      [tracer](art::BasicRef<P> leaf) {
        if (tracer) tracer->VisitLeaf(leaf.AsLeaf());
      },
      [tracer](art::BasicRef<P> node, const art::NodePath& path) {
        // A scan enumerates the whole node, not one slot.
        if (tracer) {
          tracer->VisitInternal(node.raw(), path.stored,
                                P::Access::Load(node.AsNode()->count));
        }
      }};
  art::WalkRange(root, 0, start, std::nullopt, hook,
                 [&](const typename P::Leaf* leaf) {
                   ++emitted;
                   if (on_entry) on_entry(leaf->key(), leaf->value.load());
                   return emitted < limit;
                 });
  return emitted;
}

}  // namespace dcart::baselines
