#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "baselines/registry.h"
#include "obs/trace.h"

namespace dcart::bench {

std::vector<std::string> EngineNames() {
  return {"ART", "SMART", "CuART", "DCART-C", "DCART"};
}

std::unique_ptr<IndexEngine> MakeEngine(const std::string& name) {
  auto engine = dcart::MakeEngine(name);
  if (engine == nullptr) {
    std::fprintf(stderr, "unknown engine '%s'\n", name.c_str());
    std::abort();
  }
  return engine;
}

WorkloadConfig ConfigFromFlags(const CliFlags& flags) {
  WorkloadConfig cfg;
  cfg.num_keys = static_cast<std::size_t>(flags.GetInt("keys", 40'000));
  cfg.num_ops = static_cast<std::size_t>(flags.GetInt("ops", 120'000));
  cfg.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  cfg.write_ratio = flags.GetDouble("write-ratio", cfg.write_ratio);
  cfg.zipf_theta = flags.GetDouble("theta", cfg.zipf_theta);
  return cfg;
}

RunConfig RunFromFlags(const CliFlags& flags) {
  RunConfig run;
  run.inflight_ops = static_cast<std::size_t>(flags.GetInt("inflight", 4096));
  run.cpu.threads = static_cast<std::size_t>(flags.GetInt("threads", 96));
  run.batch_size = static_cast<std::size_t>(flags.GetInt("batch", 8192));
  return run;
}

ExecutionResult LoadAndRun(IndexEngine& engine, const Workload& workload,
                           const RunConfig& run) {
  engine.Load(workload.load_items);
  return engine.Run(workload.ops, run);
}

int RequireValidFlags(const CliFlags& flags) {
  Status status = flags.status();
  for (const std::string& name : flags.FlagNames()) {
    if (name.starts_with("fault-")) {
      status.Update(Status::Error(
          "--" + name + " is not accepted: no binary arms fault sites from "
          "the command line (tests set RunConfig::faults)"));
    }
  }
  status.Update(obs::ValidateObsFlags(flags));
  if (status.ok()) return 0;
  std::fprintf(stderr, "invalid flags: %s\n", status.message().c_str());
  return 2;
}

obs::RunMetrics MetricsFromResult(const std::string& workload,
                                  const std::string& engine,
                                  const ExecutionResult& result) {
  obs::RunMetrics run;
  run.workload = workload;
  run.engine = engine;
  run.platform = result.platform;
  run.wallclock = result.wallclock;
  run.seconds = result.seconds;
  run.throughput_ops_per_sec = result.ThroughputOpsPerSec();
  run.energy_joules = result.energy_joules;
  run.events = result.stats;
  run.latency_ns = result.latency_ns;
  run.reads_hit = result.reads_hit;
  run.combine_seconds = result.phase_breakdown.combine_seconds;
  run.traverse_seconds = result.phase_breakdown.traverse_seconds;
  run.trigger_seconds = result.phase_breakdown.trigger_seconds;
  run.other_seconds = result.phase_breakdown.other_seconds;
  run.status_ok = result.status.ok();
  run.status_message = result.status.message();
  run.invariant_breaches = result.invariant_breaches;
  run.ops_acknowledged = result.ops_acknowledged;
  return run;
}

BenchObservability::BenchObservability(const std::string& bench_name,
                                       const CliFlags& flags)
    : exporter_(bench_name),
      metrics_path_(flags.GetString("metrics-json", "")),
      trace_path_(flags.GetString("trace-json", "")) {
  // Mirror the common workload/run flags into the snapshot so one JSON file
  // is a self-contained record of the experiment configuration.
  exporter_.SetConfig("keys", flags.GetInt("keys", 40'000));
  exporter_.SetConfig("ops", flags.GetInt("ops", 120'000));
  exporter_.SetConfig("seed", flags.GetInt("seed", 42));
  exporter_.SetConfig("inflight", flags.GetInt("inflight", 4096));
  exporter_.SetConfig("threads", flags.GetInt("threads", 96));
  exporter_.SetConfig("batch", flags.GetInt("batch", 8192));
  exporter_.SetConfig("write_ratio", flags.GetDouble("write-ratio", 0.5));
  exporter_.SetConfig("theta", flags.GetDouble("theta", 1.3));
  if (tracing()) obs::Tracer::Global().Enable();
}

void BenchObservability::Record(const std::string& workload,
                                const std::string& engine,
                                const ExecutionResult& result) {
  exporter_.AddRun(MetricsFromResult(workload, engine, result));
}

int BenchObservability::Finish() {
  Status status;
  if (!metrics_path_.empty()) {
    status.Update(exporter_.WriteJson(metrics_path_));
  }
  if (tracing()) {
    status.Update(obs::Tracer::Global().WriteJson(trace_path_));
    obs::Tracer::Global().Disable();
  }
  if (status.ok()) return 0;
  std::fprintf(stderr, "observability export failed: %s\n",
               status.message().c_str());
  return 3;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&widths](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += "| ";
      line += cells[c];
      line.append(widths[c] - cells[c].size() + 1, ' ');
    }
    line += "|";
    std::puts(line.c_str());
  };
  print_row(headers_);
  std::string sep;
  for (const std::size_t w : widths) sep += "|" + std::string(w + 2, '-');
  sep += "|";
  std::puts(sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

std::string FormatSci(double value) {
  std::ostringstream os;
  os.setf(std::ios::scientific);
  os.precision(2);
  os << value;
  return os.str();
}

std::string FormatPercent(double fraction, int precision) {
  return FormatDouble(fraction * 100.0, precision) + "%";
}

std::string FormatRatio(double ratio) {
  return FormatDouble(ratio, ratio >= 100 ? 0 : 1) + "x";
}

void PrintBanner(const std::string& title) {
  std::string line(title.size() + 10, '=');
  std::printf("\n%s\n==== %s ====\n%s\n", line.c_str(), title.c_str(),
              line.c_str());
}

}  // namespace dcart::bench
