#include "baselines/cpu_trace.h"

#include <algorithm>

#include "baselines/engine.h"

namespace dcart::baselines {

using sync::CLeaf;

OpTracer::OpTracer(const simhw::CpuModel& model, simhw::CacheModel& cache,
                   simhw::ConflictModel& conflicts, OpStats& stats)
    : model_(model), cache_(cache), conflicts_(conflicts), stats_(stats) {}

void OpTracer::BeginOp() {
  op_pkm_ = 0;
  op_lines_ = 0;
  op_misses_ = 0;
  op_acquisitions_ = 0;
  op_contentions_ = 0;
  op_restarts_ = 0;
  op_waiters_ = 0;
  ++stats_.operations;
}

void OpTracer::VisitInternal(std::uintptr_t addr, unsigned stored_prefix,
                             unsigned keys_scanned, bool compact_layout) {
  ++op_pkm_;
  ++stats_.partial_key_matches;
  ++stats_.nodes_visited;

  // A traversal step reads the header (lock word, type, prefix) and then the
  // key/index structures plus exactly one child pointer.  SMART's compact
  // layout packs header+keys+slot into one cacheline; the baseline layout
  // touches the header region and the child slot region separately.
  std::size_t touched = 0;
  if (compact_layout) {
    touched = model_.cacheline_bytes;
    const auto r = cache_.Access(addr, touched);
    op_lines_ += r.lines;
    op_misses_ += r.misses;
  } else {
    const std::size_t header = 24 + stored_prefix;
    const auto r1 = cache_.Access(addr, header);
    // Key array / index scan + the matched child slot (approximate offsets
    // inside the node; what matters is line-granular behaviour).
    const std::size_t scan_bytes = keys_scanned + sizeof(void*);
    const auto r2 = cache_.Access(addr + header + 32, scan_bytes);
    op_lines_ += r1.lines + r2.lines;
    op_misses_ += r1.misses + r2.misses;
    touched = header + scan_bytes;
  }
  // Bytes the traversal actually consumed, vs. whole cachelines fetched
  // (fetched bytes are accounted line-granularly in EndOp).
  const std::size_t useful = 9 /*type+count+prefix_len meta*/ +
                             stored_prefix + keys_scanned + sizeof(void*);
  stats_.useful_bytes += std::min(useful, touched);
}

void OpTracer::VisitLeaf(const CLeaf* leaf) {
  ++stats_.nodes_visited;
  ++stats_.leaf_accesses;
  const std::size_t key_len = leaf->key().size();
  const auto r = cache_.Access(reinterpret_cast<std::uintptr_t>(leaf),
                               art::ModeledLeafBytes(key_len));
  op_lines_ += r.lines;
  op_misses_ += r.misses;
  stats_.useful_bytes += key_len + sizeof(art::Value);
}

void OpTracer::SyncPoint(std::uintptr_t id, bool is_write) {
  const auto outcome = conflicts_.Record(id, is_write);
  if (is_write) {
    ++op_acquisitions_;
    ++stats_.lock_acquisitions;
    ++stats_.atomic_ops;
  }
  if (outcome.contended) {
    ++op_contentions_;
    ++stats_.lock_contentions;
    op_waiters_ +=
        std::min(outcome.queue_depth, model_.max_modeled_waiters);
  }
  if (outcome.restart) {
    ++op_restarts_;
    ++stats_.lock_contentions;
  }
}

double OpTracer::EndOp(std::size_t inflight, std::size_t threads,
                       LatencyHistogram* latency) {
  stats_.offchip_accesses += op_misses_;
  stats_.offchip_bytes +=
      static_cast<std::uint64_t>(op_lines_) * model_.cacheline_bytes;
  stats_.onchip_hits += op_lines_ - op_misses_;

  const double mem_cycles =
      static_cast<double>(op_lines_ - op_misses_) * model_.cycles_llc_hit +
      static_cast<double>(op_misses_) * model_.cycles_dram_miss;
  const double compute_cycles =
      static_cast<double>(op_pkm_) * model_.cycles_partial_key_match;
  const double lock_cycles = static_cast<double>(op_acquisitions_) *
                             model_.cycles_lock_uncontended;
  const double contended_cycles =
      static_cast<double>(op_contentions_) * model_.cycles_lock_contended +
      static_cast<double>(op_waiters_) * model_.cycles_contention_per_waiter +
      static_cast<double>(op_restarts_) * model_.cycles_olc_restart;

  parallel_cycles_ += mem_cycles + compute_cycles + lock_cycles;
  serial_cycles_ += contended_cycles;

  const double op_cycles =
      mem_cycles + compute_cycles + lock_cycles + contended_cycles;
  cycles_ema_ = cycles_ema_ == 0.0 ? op_cycles
                                   : 0.999 * cycles_ema_ + 0.001 * op_cycles;
  if (latency != nullptr) {
    // Service time plus queueing: with `inflight` ops outstanding over
    // `threads` workers, an arriving op waits behind ~inflight/threads
    // average-sized ops.
    const double workers =
        static_cast<double>(std::min(threads, model_.cores));
    const double queue_cycles =
        cycles_ema_ * static_cast<double>(inflight) / std::max(1.0, workers);
    const double ns =
        (op_cycles + queue_cycles) / model_.frequency_hz * 1e9;
    latency->Record(static_cast<std::uint64_t>(ns));
  }
  return op_cycles;
}

void OpTracer::FinishRun(std::size_t threads, ExecutionResult& result) const {
  result.seconds =
      CpuSeconds(model_, parallel_cycles_, serial_cycles_, threads);
  result.energy_joules = result.seconds * model_.power_watts;
  result.phase_breakdown.traverse_seconds =
      parallel_cycles_ / model_.frequency_hz;
  result.phase_breakdown.trigger_seconds = serial_cycles_ / model_.frequency_hz;
}

double CpuSeconds(const simhw::CpuModel& model, double parallel_cycles,
                  double serial_cycles, std::size_t threads) {
  const double workers =
      static_cast<double>(std::min(threads == 0 ? 1 : threads, model.cores));
  return (parallel_cycles / workers + serial_cycles) / model.frequency_hz;
}

}  // namespace dcart::baselines
