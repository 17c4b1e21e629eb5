// Platform timing & power constants for the deterministic performance models.
//
// All reported times in the benchmark harness are   events x cycles-per-event
// / frequency  computations over *exactly measured* event counts; these
// constants set the per-event costs.  They are order-of-magnitude values for
// the paper's three platforms, with sources noted inline.  Absolute numbers
// are not expected to match the paper's testbed; the relative shape is what
// the models preserve (see DESIGN.md).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dcart::simhw {

// ---------------------------------------------------------------- CPU ------
// 2 x Intel Xeon Platinum 8468 (48 cores each, 2.1 GHz base).
struct CpuModel {
  double frequency_hz = 2.1e9;
  std::size_t cores = 96;

  // Cycle costs.
  double cycles_partial_key_match = 6;  // branchy compare + child index
  double cycles_l1_hit = 4;
  double cycles_llc_hit = 42;
  double cycles_dram_miss = 210;        // ~100 ns
  double cycles_lock_uncontended = 24;  // CAS hitting L1/L2
  // Schweizer et al. (PACT'15), cited by the paper: a CAS on RAM-resident
  // data is >15x slower than on L1-resident data, and contended-atomic
  // latency grows with the number of waiting cores (cacheline ping-pong).
  double cycles_lock_contended = 380;
  double cycles_contention_per_waiter = 30;  // added per in-window waiter
  std::uint32_t max_modeled_waiters = 64;
  double cycles_olc_restart = 150;      // wasted validation + re-descent setup

  // LLC for the cache simulation feeding llc/dram splits.
  std::size_t llc_bytes = 105 * 1024 * 1024;  // 105 MB shared L3
  std::size_t cacheline_bytes = 64;

  // Package power while running the index workload.  Inferred from the
  // paper's own energy/speedup ratios (energy saving / speedup vs SMART is
  // 2.6-3.4x, i.e. active-package power ~3x the U280 board): ~135 W.
  double power_watts = 135.0;
};

// ---------------------------------------------------------------- GPU ------
// NVIDIA A100 running a CuART-style sort-batched engine.
struct GpuModel {
  double frequency_hz = 1.41e9;
  std::size_t sm_count = 108;
  std::size_t warp_lanes = 32;

  // Random (uncoalesced) global-memory transaction latency; traversals are
  // pointer chases so latency hiding across warps is the only parallelism.
  double cycles_mem_transaction = 480;
  double cycles_l2_hit = 200;
  double cycles_partial_key_match = 8;  // SIMT-divergent compare
  // Concurrent warps in flight that hide each other's latency.  Divergent
  // tree descents are register- and replay-heavy; 8 resident warps per SM
  // is a realistic effective occupancy for this kernel class.
  double warps_in_flight_per_sm = 8;
  // Kernel launch + driver/host synchronization per operation batch.  The
  // engine must sync before results are visible (CuART batches round-trip
  // to the host).
  double batch_launch_seconds = 18e-6;
  double batch_host_sync_seconds = 22e-6;
  // PCIe 4.0 x16 effective bandwidth for shipping operations in and
  // results back.
  double pcie_bytes_per_second = 16e9;
  std::size_t op_record_bytes = 40;  // key + value + result slot
  // Device radix-sort throughput for the batch-grouping stage (keys/s).
  double sort_keys_per_second = 2.0e9;

  // Average draw during the lookup/update kernels (nvidia-smi style),
  // inferred from the paper's energy/speedup ratio vs CuART (3.4-4.0x the
  // U280 board power): ~160 W.
  double power_watts = 160.0;
};

// --------------------------------------------------------------- FPGA ------
// Xilinx Alveo U280, DCART configuration of Table I.
struct FpgaModel {
  double frequency_hz = 230e6;  // the paper's conservative clock

  // On-chip BRAM access (pipelined): 1 cycle.
  double cycles_bram_access = 1;
  // HBM2 random access ~100 ns => ~23 cycles at 230 MHz; round up for
  // controller overhead.
  double cycles_hbm_access = 32;
  std::size_t hbm_channels = 32;
  std::size_t hbm_burst_bytes = 64;
  // Per-channel bandwidth limit: one burst per 2 cycles.
  double cycles_per_burst = 2;

  // Pipeline throughputs (fully pipelined stages).
  double pcu_cycles_per_op = 1;        // scan/prefix/combine pipeline
  double sou_cycles_per_op_base = 4;   // 4-stage SOU pipeline occupancy
  double cycles_partial_key_match = 1; // specialized comparator
  // Outstanding node fetches the SOU's Traverse stage keeps in flight
  // (HLS dataflow depth): fetches of *independent* groups overlap, so an
  // HBM miss stalls the unit for latency/depth on average.  Within one
  // traversal the chase is dependent and cannot overlap with itself.
  double sou_outstanding_fetches = 4;

  // Table I buffer sizes.
  std::size_t scan_buffer_bytes = 512 * 1024;
  std::size_t bucket_buffer_bytes = 2 * 1024 * 1024;
  std::size_t shortcut_buffer_bytes = 128 * 1024;
  std::size_t tree_buffer_bytes = 4 * 1024 * 1024;

  // Board power under load (xbutil style): ~42 W.
  double power_watts = 42.0;
};

inline double SecondsFromCycles(double cycles, double frequency_hz) {
  return cycles / frequency_hz;
}

inline double EnergyJoules(double seconds, double power_watts) {
  return seconds * power_watts;
}

}  // namespace dcart::simhw
