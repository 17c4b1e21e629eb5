#include "obs/export.h"

#include <cstdio>
#include <utility>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace dcart::obs {

namespace {

void WriteHistogramSummary(JsonWriter& json, const LatencyHistogram& h) {
  json.BeginObject()
      .KV("count", h.Count())
      .KV("mean", h.Mean())
      .KV("min", h.Min())
      .KV("p50", h.Quantile(0.50))
      .KV("p90", h.Quantile(0.90))
      .KV("p99", h.Quantile(0.99))
      .KV("max", h.Max())
      .EndObject();
}

}  // namespace

MetricsExporter::MetricsExporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void MetricsExporter::SetConfig(const std::string& key, std::int64_t value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kInt;
  v.int_value = value;
  config_[key] = std::move(v);
}

void MetricsExporter::SetConfig(const std::string& key, double value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kDouble;
  v.double_value = value;
  config_[key] = std::move(v);
}

void MetricsExporter::SetConfig(const std::string& key,
                                const std::string& value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kString;
  v.string_value = value;
  config_[key] = std::move(v);
}

void MetricsExporter::AddRun(RunMetrics run) {
  runs_.push_back(std::move(run));
}

std::string MetricsExporter::ToJson(bool include_registry) const {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema_version", static_cast<std::int64_t>(kMetricsSchemaVersion));
  json.KV("bench", bench_name_);

  json.Key("config").BeginObject();
  for (const auto& [key, value] : config_) {
    switch (value.kind) {
      case ConfigValue::Kind::kInt:
        json.KV(key, value.int_value);
        break;
      case ConfigValue::Kind::kDouble:
        json.KV(key, value.double_value);
        break;
      case ConfigValue::Kind::kString:
        json.KV(key, value.string_value);
        break;
    }
  }
  json.EndObject();

  json.Key("runs").BeginArray();
  for (const RunMetrics& run : runs_) {
    json.BeginObject()
        .KV("workload", run.workload)
        .KV("engine", run.engine)
        .KV("platform", run.platform)
        .KV("wallclock", run.wallclock)
        .KV("seconds", run.seconds)
        .KV("throughput_ops_per_sec", run.throughput_ops_per_sec)
        .KV("energy_joules", run.energy_joules)
        .KV("reads_hit", run.reads_hit);

    json.Key("events").BeginObject();
    run.events.ForEachField([&json](const char* name, std::uint64_t value) {
      json.KV(name, value);
    });
    json.EndObject();

    json.Key("phase_seconds")
        .BeginObject()
        .KV("combine", run.combine_seconds)
        .KV("traverse", run.traverse_seconds)
        .KV("trigger", run.trigger_seconds)
        .KV("other", run.other_seconds)
        .EndObject();

    json.Key("latency_ns");
    WriteHistogramSummary(json, run.latency_ns);

    json.Key("faults")
        .BeginObject()
        .KV("status_ok", run.status_ok)
        .KV("status_message", run.status_message)
        .KV("invariant_breaches", run.invariant_breaches)
        .KV("ops_acknowledged", run.ops_acknowledged)
        .EndObject();

    json.EndObject();
  }
  json.EndArray();

  if (include_registry) {
    const MetricsRegistry::Snapshot snapshot =
        MetricsRegistry::Global().Collect();
    json.Key("registry").BeginObject();
    json.Key("counters").BeginObject();
    for (const auto& [name, value] : snapshot.counters) {
      json.KV(name, value);
    }
    json.EndObject();
    json.Key("gauges").BeginObject();
    for (const auto& [name, value] : snapshot.gauges) {
      json.KV(name, value);
    }
    json.EndObject();
    json.Key("histograms").BeginObject();
    for (const auto& [name, histogram] : snapshot.histograms) {
      json.Key(name);
      WriteHistogramSummary(json, histogram);
    }
    json.EndObject();
    json.EndObject();
  }

  json.EndObject();
  return json.str();
}

Status MetricsExporter::WriteJson(const std::string& path,
                                  bool include_registry) const {
  const std::string body = ToJson(include_registry);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Error("metrics: cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != body.size() || !closed) {
    return Status::Error("metrics: short write to " + path);
  }
  return Status::Ok();
}

Status ValidateObsFlags(const CliFlags& flags) {
  Status status;
  for (const std::string& name : flags.FlagNames()) {
    const bool metrics = name.rfind("metrics-", 0) == 0;
    const bool trace = name.rfind("trace-", 0) == 0;
    if (!metrics && !trace) continue;
    if (name == "metrics-json" || name == "trace-json") continue;
    status.Update(Status::Error(
        "unknown flag --" + name +
        " (observability flags are --metrics-json=<path> and "
        "--trace-json=<path>)"));
  }
  return status;
}

}  // namespace dcart::obs
