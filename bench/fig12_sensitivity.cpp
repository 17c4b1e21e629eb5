// Figure 12 — sensitivity studies, plus the DESIGN.md ablations.
//
//  (a) speedup vs number of concurrent operations (IPGEO): coalescing gets
//      stronger as more operations are in flight.
//  (b) speedup vs operation mix A (100 % read) .. E (100 % write): the win
//      grows with the write share (more lock contention avoided).
//  Ablations: shortcut table on/off, value-aware vs LRU Tree_buffer across
//  buffer sizes, SOU count, combining prefix width, PCU/SOU overlap.
#include <cstdio>

#include "bench/bench_common.h"
#include "dcart/accelerator.h"

namespace dcart::bench {
namespace {

double DcartSeconds(const Workload& w, const RunConfig& run,
                    accel::DcartConfig cfg = {},
                    simhw::FpgaModel model = {}) {
  accel::DcartEngine engine(cfg, model);
  engine.Load(w.load_items);
  return engine.Run(w.ops, run).seconds;
}

}  // namespace

int Main(const CliFlags& flags) {
  if (const int rc = RequireValidFlags(flags)) return rc;
  const WorkloadConfig base_cfg = ConfigFromFlags(flags);
  const RunConfig base_run = RunFromFlags(flags);
  BenchObservability observability("fig12_sensitivity", flags);

  PrintBanner("Figure 12(a): speedup vs concurrent operations (IPGEO)");
  {
    const Workload w = MakeWorkload(WorkloadKind::kIPGEO, base_cfg);
    Table table({"inflight", "DCART vs ART", "DCART vs SMART",
                 "DCART vs CuART"});
    for (std::size_t inflight : {256u, 1024u, 4096u, 16384u}) {
      RunConfig run = base_run;
      run.inflight_ops = inflight;
      run.batch_size = std::max<std::size_t>(1024, inflight);
      std::map<std::string, double> seconds;
      for (const std::string& name :
           {std::string("ART"), std::string("SMART"), std::string("CuART"),
            std::string("DCART")}) {
        auto engine = MakeEngine(name);
        const ExecutionResult r = LoadAndRun(*engine, w, run);
        observability.Record(
            w.name + "/inflight=" + std::to_string(inflight), name, r);
        seconds[name] = r.seconds;
      }
      table.AddRow({std::to_string(inflight),
                    FormatRatio(seconds["ART"] / seconds["DCART"]),
                    FormatRatio(seconds["SMART"] / seconds["DCART"]),
                    FormatRatio(seconds["CuART"] / seconds["DCART"])});
    }
    table.Print();
    std::puts("(paper: DCART's advantage grows with the number of "
              "concurrent operations)");
  }

  PrintBanner("Figure 12(b): speedup vs operation mix A-E (IPGEO)");
  {
    Table table({"mix", "write ratio", "DCART vs ART", "DCART vs SMART",
                 "DCART vs CuART"});
    for (const MixPoint& mix : PaperMixes()) {
      WorkloadConfig cfg = base_cfg;
      cfg.write_ratio = mix.write_ratio;
      const Workload w = MakeWorkload(WorkloadKind::kIPGEO, cfg);
      std::map<std::string, double> seconds;
      for (const std::string& name :
           {std::string("ART"), std::string("SMART"), std::string("CuART"),
            std::string("DCART")}) {
        auto engine = MakeEngine(name);
        seconds[name] = LoadAndRun(*engine, w, base_run).seconds;
      }
      table.AddRow({std::string(1, mix.label),
                    FormatPercent(mix.write_ratio, 0),
                    FormatRatio(seconds["ART"] / seconds["DCART"]),
                    FormatRatio(seconds["SMART"] / seconds["DCART"]),
                    FormatRatio(seconds["CuART"] / seconds["DCART"])});
    }
    table.Print();
    std::puts("(paper: larger improvements as the write ratio increases)");
  }

  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, base_cfg);

  PrintBanner("Ablation: shortcut table");
  {
    accel::DcartConfig off;
    off.use_shortcuts = false;
    Table table({"config", "seconds", "speedup from shortcuts"});
    const double with = DcartSeconds(w, base_run);
    const double without = DcartSeconds(w, base_run, off);
    table.AddRow({"shortcuts ON", FormatSci(with), "-"});
    table.AddRow({"shortcuts OFF", FormatSci(without),
                  FormatRatio(without / with)});
    table.Print();
  }

  PrintBanner("Ablation: Tree_buffer policy (value-aware vs LRU) by size");
  {
    Table table({"buffer", "policy", "hit rate", "seconds"});
    for (std::size_t kb : {4u, 16u, 64u, 512u, 4096u}) {
      for (auto policy : {simhw::EvictionPolicy::kValueAware,
                          simhw::EvictionPolicy::kLRU}) {
        simhw::FpgaModel model;
        model.tree_buffer_bytes = kb * 1024;
        accel::DcartConfig cfg;
        cfg.tree_buffer_policy = policy;
        accel::DcartEngine engine(cfg, model);
        engine.Load(w.load_items);
        const auto r = engine.Run(w.ops, base_run);
        table.AddRow(
            {std::to_string(kb) + " KB",
             policy == simhw::EvictionPolicy::kValueAware ? "value-aware"
                                                          : "LRU",
             FormatPercent(engine.last_buffer_report().tree_buffer_hit_rate),
             FormatSci(r.seconds)});
      }
    }
    table.Print();
    std::puts("(value-aware wins in the thrash regime — hot set >> buffer; "
              "see EXPERIMENTS.md)");
  }

  PrintBanner("Ablation: number of SOUs");
  {
    Table table({"SOUs", "seconds", "speedup vs 1 SOU"});
    double one = 0;
    for (std::size_t sous : {1u, 2u, 4u, 8u, 16u, 32u}) {
      accel::DcartConfig cfg;
      cfg.num_sous = sous;
      const double secs = DcartSeconds(w, base_run, cfg);
      if (sous == 1) one = secs;
      table.AddRow({std::to_string(sous), FormatSci(secs),
                    FormatRatio(one / secs)});
    }
    table.Print();
  }

  PrintBanner("Ablation: combining prefix width");
  {
    Table table({"prefix bits", "seconds", "combined op share"});
    for (unsigned bits : {4u, 8u, 12u}) {
      accel::DcartConfig cfg;
      cfg.prefix_bits = bits;
      accel::DcartEngine engine(cfg);
      engine.Load(w.load_items);
      const auto r = engine.Run(w.ops, base_run);
      table.AddRow({std::to_string(bits), FormatSci(r.seconds),
                    FormatPercent(static_cast<double>(r.stats.combined_ops) /
                                  static_cast<double>(r.stats.operations))});
    }
    table.Print();
  }

  PrintBanner("Ablation: PCU/SOU batch overlap (Fig. 6)");
  {
    accel::DcartConfig no_overlap;
    no_overlap.overlap_pcu_sou = false;
    const double with = DcartSeconds(w, base_run);
    const double without = DcartSeconds(w, base_run, no_overlap);
    Table table({"schedule", "seconds", "overlap gain"});
    table.AddRow({"overlapped", FormatSci(with), "-"});
    table.AddRow({"sequential", FormatSci(without),
                  FormatRatio(without / with)});
    table.Print();
  }

  PrintBanner("Ablation: accelerator clock (Table I uses 230 MHz)");
  {
    Table table({"clock", "seconds", "Mops/s"});
    for (double mhz : {150.0, 230.0, 300.0}) {
      simhw::FpgaModel model;
      model.frequency_hz = mhz * 1e6;
      // HBM latency is fixed in *time*; its cycle cost scales with the
      // fabric clock (the reason a faster clock pays off sub-linearly).
      model.cycles_hbm_access *= mhz / 230.0;
      model.cycles_per_burst *= mhz / 230.0;
      const double secs = DcartSeconds(w, base_run, {}, model);
      table.AddRow({FormatDouble(mhz, 0) + " MHz", FormatSci(secs),
                    FormatDouble(static_cast<double>(w.ops.size()) / secs /
                                     1e6,
                                 1)});
    }
    table.Print();
    std::puts("(sub-linear when HBM-bound: the memory clock does not scale "
              "with the fabric clock)");
  }

  PrintBanner("Ablation: batch size (coalescing window vs latency)");
  {
    Table table({"batch", "seconds", "combined op share", "p99 us"});
    for (std::size_t batch : {1024u, 4096u, 16384u}) {
      RunConfig run = base_run;
      run.batch_size = batch;
      run.collect_latency = true;
      accel::DcartEngine engine;
      engine.Load(w.load_items);
      const auto r = engine.Run(w.ops, run);
      table.AddRow(
          {std::to_string(batch), FormatSci(r.seconds),
           FormatPercent(static_cast<double>(r.stats.combined_ops) /
                         static_cast<double>(r.stats.operations)),
           FormatDouble(static_cast<double>(r.latency_ns.Quantile(0.99)) /
                            1e3,
                        1)});
    }
    table.Print();
  }
  return observability.Finish();
}

}  // namespace dcart::bench

int main(int argc, char** argv) {
  dcart::CliFlags flags(argc, argv);
  return dcart::bench::Main(flags);
}
