// Central engine registry: the one place that knows how to construct every
// evaluated system by name.
//
// Benchmarks, examples, and tests ask for engines through MakeEngine()
// instead of spelling out constructors, so adding an engine (or a
// construction knob) touches this file only.  Registered names:
//
//   "ART"      — ROWEX-backed CPU baseline (the paper's ART citation)
//   "ART-OLC"  — optimistic-lock-coupling CPU baseline
//   "Heart"    — CAS-based CPU baseline
//   "SMART"    — CAS + compact nodes + path cache CPU baseline
//   "CuART"    — GPU batch-sort model
//   "DCART-C"  — software CTT, modeled on the paper's Xeon
//   "DCART-CP" — software CTT on real threads, wall-clock measured
//   "DCART-CP-FT" — DCART-CP wrapped in the fault-tolerant execution layer
//                   (write-ahead journal + snapshots + Recover())
//   "DCART-CP-HA" — DCART-CP-FT primary plus a log-shipped replica with
//                   chaos-hardened catch-up and Promote() failover
//   "DCART-CLUSTER" — prefix-sharded cluster of DCART-CP-HA pairs with a
//                   routing directory, watchdog failover, and term fencing
//   "DCART"    — the FPGA accelerator simulator
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/engine.h"
#include "cluster/cluster.h"
#include "dcart/config.h"
#include "dcartc/dcartc.h"
#include "dcartc/parallel_runtime.h"
#include "resilience/replication.h"
#include "resilience/resilient_engine.h"
#include "simhw/timing_model.h"

namespace dcart {

/// Construction-time knobs.  Defaults reproduce the paper's configuration;
/// each engine reads only the fields that concern it.
struct EngineOptions {
  simhw::CpuModel cpu_model;    // CPU baselines, DCART-C
  simhw::GpuModel gpu_model;    // CuART
  simhw::FpgaModel fpga_model;  // DCART
  accel::DcartConfig dcart;     // DCART ablations
  /// Durability options for "DCART-CP-FT" (journal/snapshot dir, the
  /// journal-to-snapshot ratio that rolls a generation).  Default (empty
  /// dir) runs without durability.
  resilience::ResilienceOptions resilient;
  /// Replication options for "DCART-CP-HA" (durability home, link kind,
  /// journal-to-snapshot ratio).  Default (empty dir) runs the pair in
  /// memory.
  resilience::ReplicationOptions replication;
  /// Sharding options for "DCART-CLUSTER" (shard count, durability home,
  /// per-pair replication).  Default: 4 in-memory shards.
  cluster::ClusterOptions cluster;
};

/// Instantiate a fresh engine by registered name; nullptr if unknown.
std::unique_ptr<IndexEngine> MakeEngine(const std::string& name,
                                        const EngineOptions& options = {});

/// Every registered name, in the paper's presentation order.
std::vector<std::string> ListEngines();

}  // namespace dcart
