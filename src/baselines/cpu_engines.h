// The OLC-backed CPU baselines, as one engine parameterized by its
// concurrency protocol:
//
//   "ART-OLC" — lock-based node write exclusion over optimistic lock
//             coupling (Leis et al. 2016).  Writers lock the node they
//             modify (update included); readers validate against the node
//             and conflict with in-window writers.  (The registry's "ART"
//             is the ROWEX engine, rowex_engine.h.)
//   "Heart" — CAS-based (Nie et al., ICCD 2023 character): updates CAS the
//             leaf value, only inserts lock nodes; readers validate at the
//             leaf, so only same-leaf write overlap costs restarts.
//   "SMART" — CAS-based + cacheline-compact nodes + a path cache that
//             resumes traversals below the root for hot 2-byte prefixes
//             (shared-memory port of the disaggregated-memory design of Luo
//             et al., OSDI 2023, which the paper also re-implemented).
//
// Run() executes the stream for real (single-threaded) while the Xeon
// platform model converts exact event counts into modeled time/energy; the
// underlying OlcTree is fully thread-safe and is stress-tested with real
// threads separately.
#pragma once

#include <unordered_map>

#include "baselines/engine.h"
#include "baselines/olc_tree.h"
#include "simhw/conflict_model.h"
#include "simhw/timing_model.h"

namespace dcart::baselines {

class CpuEngine : public IndexEngine {
 public:
  struct Protocol {
    std::string name;
    simhw::SyncProtocol sync = simhw::SyncProtocol::kLockBased;
    bool cas_leaf_updates = false;
    bool compact_layout = false;
    bool use_path_cache = false;
  };

  explicit CpuEngine(Protocol protocol, simhw::CpuModel model = {});

  std::string name() const override { return protocol_.name; }
  void Load(const std::vector<std::pair<Key, art::Value>>& items) override;
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig& config) override;
  std::optional<art::Value> Lookup(KeyView key) const override;

  /// Execute the stream with real std::threads against the concurrent
  /// tree and return measured wall-clock seconds.  Operations are dealt
  /// round-robin across `num_threads` workers (so per-key order is only
  /// preserved within a worker — the usual concurrent-client semantics).
  /// This is the mode to use on a real multicore host; the modeled Run()
  /// remains the source of the paper-figure numbers (host-independent).
  double RunThreaded(std::span<const Operation> ops, std::size_t num_threads,
                     OpStats& stats);

  /// Direct access for the real-thread stress tests.
  OlcTree& tree() { return tree_; }
  const simhw::CpuModel& model() const { return model_; }

 private:
  sync::CLeaf* TracedFind(KeyView key, OpTracer& tracer,
                          const sync::CNode** last_internal);

  Protocol protocol_;
  simhw::CpuModel model_;
  OlcTree tree_;
  // SMART path cache: first-2-bytes prefix -> resumable traversal state.
  std::unordered_map<std::uint32_t, OlcTree::PathHint> path_cache_;
};

/// Factory helpers for the paper's named baselines.
std::unique_ptr<CpuEngine> MakeArtOlcEngine(simhw::CpuModel model = {});
std::unique_ptr<CpuEngine> MakeHeartEngine(simhw::CpuModel model = {});
std::unique_ptr<CpuEngine> MakeSmartEngine(simhw::CpuModel model = {});

}  // namespace dcart::baselines
