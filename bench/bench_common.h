// Shared harness for the per-figure benchmark binaries.
//
// Every bench binary reproduces one table or figure of the DCART paper
// (see DESIGN.md's experiment index).  They share the engine registry,
// workload sizing flags, and plain-text table rendering here so each main()
// only contains its experiment's sweep logic.
//
// Common flags (all optional):
//   --keys=N     key-universe size        (default 40000; paper: 50 M)
//   --ops=N      operations per run       (default 120000)
//   --seed=N     generator seed           (default 42)
//   --inflight=N concurrent operations    (default 4096)
//   --threads=N  modeled CPU worker count (default 96)
//   --theta=X    operation Zipf skew      (default 1.3, Fig. 3-calibrated)
//   --write-ratio=X                       (default 0.5)
//
// Observability flags (see docs/OBSERVABILITY.md):
//   --metrics-json=PATH  write a versioned JSON metrics snapshot on exit
//   --trace-json=PATH    write a Chrome trace_event JSON (Perfetto-loadable)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/engine.h"
#include "common/cli.h"
#include "obs/export.h"
#include "workload/generators.h"

namespace dcart::bench {

/// The engines the paper-figure benches sweep, in presentation order (a
/// subset of dcart::ListEngines(): the wall-clock DCART-CP engine is
/// measured by bench/wallclock_ctt, not the modeled figures).
std::vector<std::string> EngineNames();

/// Instantiate a fresh engine with default (paper) options via the central
/// registry (see baselines/registry.h).  Terminates on unknown names.
std::unique_ptr<IndexEngine> MakeEngine(const std::string& name);

/// Workload configuration derived from the common flags.
WorkloadConfig ConfigFromFlags(const CliFlags& flags);

/// Run configuration derived from the common flags.
RunConfig RunFromFlags(const CliFlags& flags);

/// Load + run one engine on one workload; prints nothing.
ExecutionResult LoadAndRun(IndexEngine& engine, const Workload& workload,
                           const RunConfig& run);

// ---------------------------------------------------------- observability --

/// Validate the full flag surface (parse status, `--metrics-*`/`--trace-*`
/// names) and refuse every `--fault-*` flag: fault sites are armed through
/// RunConfig::faults, never from argv.  Returns 0 when valid, else prints
/// the error to stderr and returns 2 for main() to return.
int RequireValidFlags(const CliFlags& flags);

/// Flatten an ExecutionResult into the obs layer's plain-data run record.
obs::RunMetrics MetricsFromResult(const std::string& workload,
                                  const std::string& engine,
                                  const ExecutionResult& result);

/// Per-binary observability harness.  Construct after flag validation; call
/// Record() for each (workload, engine) run; Finish() writes the
/// `--metrics-json` / `--trace-json` outputs (if requested) and returns
/// main()'s exit code.  When neither flag is given, the whole object is
/// inert: tracing stays disabled and nothing is written.
class BenchObservability {
 public:
  BenchObservability(const std::string& bench_name, const CliFlags& flags);

  bool tracing() const { return !trace_path_.empty(); }

  /// Override/extend the mirrored config (binaries whose flag defaults
  /// differ from the common ones, e.g. wallclock_ctt's larger workload).
  void SetConfig(const std::string& key, std::int64_t value) {
    exporter_.SetConfig(key, value);
  }
  void SetConfig(const std::string& key, double value) {
    exporter_.SetConfig(key, value);
  }
  void SetConfig(const std::string& key, const std::string& value) {
    exporter_.SetConfig(key, value);
  }

  void Record(const std::string& workload, const std::string& engine,
              const ExecutionResult& result);

  int Finish();

 private:
  obs::MetricsExporter exporter_;
  std::string metrics_path_;
  std::string trace_path_;
};

// ----------------------------------------------------------------- output --

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FormatDouble(double value, int precision = 3);
std::string FormatSci(double value);
std::string FormatPercent(double fraction, int precision = 1);
std::string FormatRatio(double ratio);

/// Section banner: "==== Figure 9: ... ====".
void PrintBanner(const std::string& title);

}  // namespace dcart::bench
