// Common engine interface implemented by every evaluated system:
// ART-OLC, Heart-like, SMART-like (CPU), CuART-like (GPU model),
// DCART-C (software CTT), and DCART (FPGA accelerator simulator).
//
// Run() executes the operation stream *for real* against the engine's index
// (every read returns the true value; every write lands), while the engine's
// platform model converts the exactly-measured event stream into modeled
// seconds/joules (see DESIGN.md, "Measurement methodology").
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "art/node.h"
#include "common/bytes.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/status.h"
#include "workload/ops.h"

namespace dcart {

/// Platform-specific run knobs.  Common knobs (batching, concurrency window)
/// live directly in RunConfig; anything only one platform model interprets
/// lives in its sub-struct so adding a knob never widens every engine's
/// surface again.
struct CpuRunOptions {
  /// Logical worker threads for the CPU platform *model* (the paper's
  /// 2x48-core Xeon).  Modeled engines spread parallelizable cycles over
  /// this many workers; it is not a real thread count.
  std::size_t threads = 96;
  /// Real std::thread workers for wall-clock engines (DCART-CP).
  /// 0 means "use the host's hardware concurrency".
  std::size_t wall_threads = 0;
};

struct RunConfig {
  /// Operations concurrently in flight (the concurrency level the paper
  /// sweeps in Fig. 2(d) and Fig. 12(a)); also the conflict-window size.
  std::size_t inflight_ops = 1024;
  /// Batch size for batch-oriented engines (CuART sort batches, DCART's
  /// PCU/SOU batches, DCART-CP shard batches).
  std::size_t batch_size = 8192;
  /// Collect modeled per-operation latencies (Fig. 10).
  bool collect_latency = false;

  CpuRunOptions cpu;
};

/// Where an engine's time went, in CTT phase terms.  For the modeled CTT
/// engines the mapping is exact (Combine = PCU/bucketing, Traverse =
/// shortcut probe + index descent, Trigger = applying ops +
/// synchronization).  DCART-CP fuses probe, descent and apply in one
/// parallel phase: Traverse holds that whole phase, and Trigger the serial
/// catch-up (the deferred point ops, then the batch's scans).  The
/// baselines report their closest equivalent (no combine stage; traverse =
/// the parallelizable descent work, trigger = serialized synchronization).
/// Values are *aggregate attributed time* (summed over units/workers), not
/// pipelined makespan — they explain where cycles went, `seconds` says how
/// long the run took.
struct PhaseBreakdown {
  double combine_seconds = 0.0;
  double traverse_seconds = 0.0;
  double trigger_seconds = 0.0;
  double other_seconds = 0.0;  // launch/transfer overheads, host sync

  double Total() const {
    return combine_seconds + traverse_seconds + trigger_seconds +
           other_seconds;
  }
};

struct ExecutionResult {
  OpStats stats;
  double seconds = 0.0;        // platform execution time (see `wallclock`)
  double energy_joules = 0.0;  // modeled platform energy (0 if unmodeled)
  std::string platform;        // "cpu" | "gpu" | "fpga"
  /// False: `seconds` comes from the deterministic platform model.
  /// True: `seconds` is host wall-clock time (DCART-CP's real threads).
  bool wallclock = false;
  PhaseBreakdown phase_breakdown;
  LatencyHistogram latency_ns;
  std::uint64_t reads_hit = 0;  // reads that found their key (sanity check)

  // -- Fault tolerance (filled by the resilient runtimes) -------------------
  /// Not-ok when the run crashed (simulated or real) or hit an invariant
  /// breach.
  Status status;
  // Set by no engine; kept because bench/e2e/dcart_bench.cpp reads them.
  bool demoted_to_serial = false;
  std::uint32_t bucket_retries = 0;
  std::uint64_t invariant_breaches = 0; // mis-classified ops recovered serially
  /// Operations covered by a fully-written journal record (ResilientEngine
  /// only); after a crash, recovery restores exactly this prefix.
  std::uint64_t ops_acknowledged = 0;

  // -- Degraded service (filled by the cluster engine) ----------------------
  /// True when part of the keyspace was unavailable during the run: ops and
  /// scan ranges routed to a shard with no serving member were refused with
  /// a typed kUnavailable status while healthy shards kept serving.
  bool partial = false;
  /// Operations refused because their shard had no serving member.
  std::uint64_t unavailable_ops = 0;

  double ThroughputOpsPerSec() const {
    return seconds > 0.0 ? static_cast<double>(stats.operations) / seconds
                         : 0.0;
  }

  /// Fold in the result of one part of this run (a batch, or a shard's
  /// share): counts and times add, flags OR, and the first failed status
  /// stays first.  `platform` and `wallclock` describe the caller's run and
  /// stay as the caller set them.
  void Merge(const ExecutionResult& part) {
    stats.Merge(part.stats);
    seconds += part.seconds;
    energy_joules += part.energy_joules;
    phase_breakdown.combine_seconds += part.phase_breakdown.combine_seconds;
    phase_breakdown.traverse_seconds += part.phase_breakdown.traverse_seconds;
    phase_breakdown.trigger_seconds += part.phase_breakdown.trigger_seconds;
    phase_breakdown.other_seconds += part.phase_breakdown.other_seconds;
    latency_ns.Merge(part.latency_ns);
    reads_hit += part.reads_hit;
    status.Update(part.status);
    demoted_to_serial |= part.demoted_to_serial;
    bucket_retries += part.bucket_retries;
    invariant_breaches += part.invariant_breaches;
    ops_acknowledged += part.ops_acknowledged;
    partial |= part.partial;
    unavailable_ops += part.unavailable_ops;
  }
};

class IndexEngine {
 public:
  virtual ~IndexEngine() = default;

  virtual std::string name() const = 0;

  /// Bulk-load the initial key set (unmeasured, single-threaded).
  virtual void Load(const std::vector<std::pair<Key, art::Value>>& items) = 0;

  /// Execute the operation stream and model its cost.
  virtual ExecutionResult Run(std::span<const Operation> ops,
                              const RunConfig& config) = 0;

  /// Quiescent point lookup, used by tests to verify post-run state.
  virtual std::optional<art::Value> Lookup(KeyView key) const = 0;
};

}  // namespace dcart
