// Accelerator design-space explorer.
//
//   build/examples/accel_explorer [--workload=IPGEO] [--keys=N] [--ops=N]
//
// Uses the DCART simulator as a what-if tool: sweeps SOU count x Tree_buffer
// size for a workload and prints the throughput/resource frontier — the
// kind of pre-RTL exploration an accelerator architect does before
// committing to a configuration like the paper's Table I.
#include <cstdio>

#include "baselines/registry.h"
#include "bench/bench_common.h"
#include "common/cli.h"
#include "dcart/accelerator.h"
#include "dcart/report.h"
#include "workload/generators.h"

using namespace dcart;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (const int rc = bench::RequireValidFlags(flags)) return rc;
  const auto kind =
      ParseWorkloadName(flags.GetString("workload", "IPGEO"));
  if (!kind) {
    std::fprintf(stderr, "unknown workload (IPGEO|DICT|EA|DE|RS|RD)\n");
    return 1;
  }
  WorkloadConfig cfg;
  cfg.num_keys = static_cast<std::size_t>(flags.GetInt("keys", 40'000));
  cfg.num_ops = static_cast<std::size_t>(flags.GetInt("ops", 120'000));
  const Workload w = MakeWorkload(*kind, cfg);

  std::printf("design-space exploration on %s (%zu keys, %zu ops)\n\n",
              w.name.c_str(), cfg.num_keys, cfg.num_ops);
  std::printf("%5s %10s %10s %10s %9s %9s\n", "SOUs", "TreeBuf", "Mops/s",
              "J/Mop", "LUT util", "buf hit");

  for (std::size_t sous : {4u, 8u, 16u, 32u}) {
    for (std::size_t buf_kb : {512u, 4096u, 16384u}) {
      EngineOptions options;
      options.fpga_model.tree_buffer_bytes = buf_kb * 1024;
      options.dcart.num_sous = sous;
      auto engine = MakeEngine("DCART", options);
      engine->Load(w.load_items);
      const ExecutionResult r = engine->Run(w.ops, RunConfig{});
      const auto est =
          accel::EstimateResources(options.dcart, options.fpga_model);
      // The buffer report is DCART-specific, so reach through the facade.
      const auto& dcart =
          static_cast<const accel::DcartEngine&>(*engine);
      std::printf("%5zu %8zu K %10.1f %10.3f %8.1f%% %8.1f%%\n", sous,
                  buf_kb, r.ThroughputOpsPerSec() / 1e6,
                  r.energy_joules / static_cast<double>(cfg.num_ops) * 1e6,
                  est.lut_utilization * 100,
                  dcart.last_buffer_report().tree_buffer_hit_rate * 100);
    }
  }

  std::printf("\npaper configuration for reference:\n%s",
              accel::RenderTableOne(accel::DcartConfig{}, simhw::FpgaModel{})
                  .c_str());
  return 0;
}
