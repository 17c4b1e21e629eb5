// Wall-clock comparison of the real-threads CTT runtime (DCART-CP).
//
//   build/bench/wallclock_ctt [--keys=N --ops=N --threads=T --write-ratio=X
//                              --remove-ratio=X --theta=X --batch=N
//                              --workload=RS --seed=N --reps=N]
//
// Unlike the fig*_ benches (which report MODELED time on the paper's
// platforms), every row here is measured wall clock on this host:
//
//   ART serial    — one thread applying the stream to a plain art::Tree;
//                   the baseline DCART-CP has to beat.
//   ART (ROWEX)   — T real client threads on the ROWEX tree, round-robin.
//   ART-OLC       — T real client threads on the OLC tree, round-robin.
//   DCART-CP      — the parallel CTT engine: batches sharded by root-child
//                   byte, buckets claimed largest-first by pool workers,
//                   per-bucket shortcut tables (see dcartc/parallel_runtime.h).
//
// Absolute numbers depend on the host (core count, clocks); the interesting
// output is the shape — how batch-sharded CTT with shortcut reuse compares
// with classic per-operation synchronization on the same machine.  Each row
// is the BEST of --reps fresh runs (fresh engine + reload each time): on
// shared/virtualized hosts run-to-run noise dwarfs the engine deltas, and
// the minimum is the standard noise-robust estimator of the true cost.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "baselines/cpu_engines.h"
#include "baselines/registry.h"
#include "baselines/rowex_engine.h"
#include "bench/bench_common.h"

namespace dcart {
namespace {

double SerialArtSeconds(const Workload& w, std::uint64_t* reads_hit) {
  art::Tree tree;
  for (const auto& [key, value] : w.load_items) tree.Insert(key, value);
  const auto start = std::chrono::steady_clock::now();
  for (const Operation& op : w.ops) {
    switch (op.type) {
      case OpType::kRead:
        if (tree.Get(op.key).has_value()) ++*reads_hit;
        break;
      case OpType::kWrite:
        tree.Insert(op.key, op.value);
        break;
      case OpType::kRemove:
        tree.Remove(op.key);
        break;
      case OpType::kScan: {
        std::size_t entries = 0;
        tree.ScanFrom(op.key, [&entries, &op](KeyView, art::Value) {
          return ++entries < op.scan_count;
        });
        break;
      }
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string Mops(double seconds, double ops) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ops / seconds / 1e6);
  return buf;
}

std::string Speedup(double seconds, double baseline_seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", baseline_seconds / seconds);
  return buf;
}

}  // namespace
}  // namespace dcart

int main(int argc, char** argv) {
  using namespace dcart;
  CliFlags flags(argc, argv);
  if (const int rc = bench::RequireValidFlags(flags)) return rc;
  WorkloadConfig cfg;
  cfg.num_keys = static_cast<std::size_t>(flags.GetInt("keys", 200'000));
  cfg.num_ops = static_cast<std::size_t>(flags.GetInt("ops", 2'000'000));
  cfg.write_ratio = flags.GetDouble("write-ratio", 0.1);
  cfg.remove_ratio = flags.GetDouble("remove-ratio", 0.0);
  cfg.zipf_theta = flags.GetDouble("theta", 0.0);  // uniform by default
  cfg.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const auto kind = ParseWorkloadName(flags.GetString("workload", "RS"));
  if (!kind) {
    std::fprintf(stderr, "unknown workload (IPGEO|DICT|EA|DE|RS|RD)\n");
    return 1;
  }
  const std::size_t threads =
      static_cast<std::size_t>(flags.GetInt("threads", 8));
  const std::size_t batch =
      static_cast<std::size_t>(flags.GetInt("batch", 32'768));
  const int reps = std::max(1, static_cast<int>(flags.GetInt("reps", 5)));
  const double ops = static_cast<double>(cfg.num_ops);

  bench::BenchObservability observability("wallclock_ctt", flags);
  observability.SetConfig("keys", static_cast<std::int64_t>(cfg.num_keys));
  observability.SetConfig("ops", static_cast<std::int64_t>(cfg.num_ops));
  observability.SetConfig("threads", static_cast<std::int64_t>(threads));
  observability.SetConfig("batch", static_cast<std::int64_t>(batch));
  observability.SetConfig("write_ratio", cfg.write_ratio);
  observability.SetConfig("theta", cfg.zipf_theta);
  observability.SetConfig("reps", static_cast<std::int64_t>(reps));

  const Workload w = MakeWorkload(*kind, cfg);
  std::printf(
      "wall-clock CTT on %s: %zu keys, %zu ops (%.0f%% writes, %.0f%% "
      "removes, theta=%.2f), %zu threads, batch=%zu, best of %d\n\n",
      w.name.c_str(), cfg.num_keys, cfg.num_ops, cfg.write_ratio * 100,
      cfg.remove_ratio * 100, cfg.zipf_theta, threads, batch, reps);

  bench::Table table({"engine", "threads", "Mops/s", "vs ART serial"});

  double serial_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t hits = 0;
    serial_s = std::min(serial_s, SerialArtSeconds(w, &hits));
  }
  table.AddRow({"ART serial", "1", Mops(serial_s, ops), "1.00x"});

  {
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      baselines::ArtRowexEngine rowex;
      rowex.Load(w.load_items);
      OpStats stats;
      best = std::min(best, rowex.RunThreaded(w.ops, threads, stats));
    }
    table.AddRow({"ART (ROWEX)", std::to_string(threads), Mops(best, ops),
                  Speedup(best, serial_s)});
  }
  {
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      auto olc = baselines::MakeArtOlcEngine();
      olc->Load(w.load_items);
      OpStats stats;
      best = std::min(best, olc->RunThreaded(w.ops, threads, stats));
    }
    table.AddRow({"ART-OLC", std::to_string(threads), Mops(best, ops),
                  Speedup(best, serial_s)});
  }

  const auto run_cp = [&](std::size_t t) {
    ExecutionResult best;
    best.seconds = 1e30;
    for (int r = 0; r < reps; ++r) {
      auto engine = MakeEngine("DCART-CP");
      engine->Load(w.load_items);
      RunConfig run;
      run.batch_size = batch;
      run.cpu.wall_threads = t;
      ExecutionResult result = engine->Run(w.ops, run);
      if (result.seconds < best.seconds) best = std::move(result);
    }
    table.AddRow({"DCART-CP", std::to_string(t), Mops(best.seconds, ops),
                  Speedup(best.seconds, serial_s)});
    observability.Record(w.name, "DCART-CP@" + std::to_string(t), best);
    return best;
  };
  if (threads != 1) run_cp(1);
  const ExecutionResult cp_result = run_cp(threads);
  table.Print();

  const auto& ph = cp_result.phase_breakdown;
  const double probes = static_cast<double>(cp_result.stats.shortcut_hits +
                                            cp_result.stats.shortcut_misses);
  std::printf(
      "\nDCART-CP @%zu threads: combine %.1f ms, traverse+trigger %.1f ms, "
      "serial catch-up %.1f ms; shortcut hit rate %.1f%%\n",
      threads, ph.combine_seconds * 1e3, ph.traverse_seconds * 1e3,
      ph.trigger_seconds * 1e3,
      probes > 0 ? cp_result.stats.shortcut_hits / probes * 100 : 0.0);
  return observability.Finish();
}
