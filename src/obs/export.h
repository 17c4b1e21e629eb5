// Versioned machine-readable metrics snapshots for the bench binaries.
//
// Every bench/* binary and examples/ipgeo_service accepts
// `--metrics-json=<path>` and emits one snapshot per process: the bench
// name, the workload/engine configuration, one record per (workload,
// engine) run — throughput, p50/p90/p99, the Combine/Traverse/Trigger phase
// breakdown, every OpStats event counter (Fig. 2/7/8), and the
// fault outcome — plus a dump of the global metrics registry.
// scripts/check_metrics_json.py validates the schema in CI; bump
// kMetricsSchemaVersion on any breaking field change.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/status.h"

namespace dcart::obs {

inline constexpr int kMetricsSchemaVersion = 2;

/// One engine run's exportable results.  A plain-data mirror of
/// ExecutionResult (which lives above this layer); bench_common converts.
struct RunMetrics {
  std::string workload;
  std::string engine;
  std::string platform;  // "cpu" | "gpu" | "fpga"
  bool wallclock = false;

  double seconds = 0.0;
  double throughput_ops_per_sec = 0.0;
  double energy_joules = 0.0;

  OpStats events;  // exported field-by-field via OpStats::ForEachField
  LatencyHistogram latency_ns;
  std::uint64_t reads_hit = 0;

  double combine_seconds = 0.0;
  double traverse_seconds = 0.0;
  double trigger_seconds = 0.0;
  double other_seconds = 0.0;

  bool status_ok = true;
  std::string status_message;
  std::uint64_t invariant_breaches = 0;
  std::uint64_t ops_acknowledged = 0;
};

class MetricsExporter {
 public:
  explicit MetricsExporter(std::string bench_name);

  void SetConfig(const std::string& key, std::int64_t value);
  void SetConfig(const std::string& key, double value);
  void SetConfig(const std::string& key, const std::string& value);

  void AddRun(RunMetrics run);

  std::size_t run_count() const { return runs_.size(); }

  /// Render the snapshot (include_registry dumps the global registry's
  /// counters and gauges under "registry").
  std::string ToJson(bool include_registry = true) const;

  Status WriteJson(const std::string& path, bool include_registry = true) const;

 private:
  struct ConfigValue {
    enum class Kind { kInt, kDouble, kString } kind = Kind::kString;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
  };

  std::string bench_name_;
  std::map<std::string, ConfigValue> config_;
  std::vector<RunMetrics> runs_;
};

/// Reject unknown `--metrics-*` / `--trace-*` flags: a typoed flag would
/// otherwise run un-instrumented and report as if instrumented.  The known
/// flags are `--metrics-json=<path>` and `--trace-json=<path>`.
Status ValidateObsFlags(const CliFlags& flags);

}  // namespace dcart::obs
