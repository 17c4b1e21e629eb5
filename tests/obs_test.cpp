// Tests for the observability layer (src/obs): metrics registry semantics,
// tracer span capture + JSON shape, the bench metrics exporter, and the
// flag-family validators that guard --metrics-* / --trace-* and refuse
// every --fault-*.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/cli.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcart::obs {
namespace {

// argv helper: builds a CliFlags from string literals.  CliFlags copies
// everything during parse, so the local storage may die afterwards.
CliFlags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "test_binary");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& s : args) argv.push_back(s.data());
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter* counter = registry.GetCounter("test.threads.counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(Metrics, HandlesAreStableAcrossInsertions) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter* first = registry.GetCounter("test.stable.first");
  first->Add(7);
  // Insert many more names; the original handle must stay valid and keep
  // its value (std::map nodes do not move).
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("test.stable.filler" + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("test.stable.first"), first);
  EXPECT_EQ(first->Value(), 7u);
}

TEST(Metrics, GaugeSetAddAndCollect) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Gauge* gauge = registry.GetGauge("test.gauge");
  gauge->Set(0.25);
  gauge->Add(0.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.75);

  registry.GetCounter("test.gauge.sibling")->Add(3);
  const MetricsRegistry::Snapshot snap = registry.Collect();
  ASSERT_TRUE(snap.gauges.contains("test.gauge"));
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.gauge"), 0.75);
  ASSERT_TRUE(snap.counters.contains("test.gauge.sibling"));
  EXPECT_EQ(snap.counters.at("test.gauge.sibling"), 3u);
}

TEST(Metrics, HistogramHandleRecordsAndSnapshots) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  HistogramHandle* handle = registry.GetHistogram("test.latency");
  handle->Record(100);
  handle->RecordMany(200, 3);
  LatencyHistogram other;
  other.Record(400);
  handle->MergeFrom(other);
  const LatencyHistogram snap = handle->Snapshot();
  EXPECT_EQ(snap.Count(), 5u);
  EXPECT_GE(snap.Max(), 400u);
}

TEST(Metrics, ResetZeroesButKeepsHandles) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter* counter = registry.GetCounter("test.reset.counter");
  counter->Add(42);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);  // same handle, zeroed
  counter->Add(1);
  EXPECT_EQ(registry.Collect().counters.at("test.reset.counter"), 1u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  tracer.Clear();
  { ScopedSpan span("noop", "test"); }
  tracer.RecordSpan("manual", "test", 0.0, 1.0);
  EXPECT_TRUE(tracer.Collect().empty());
  EXPECT_EQ(tracer.NowUs(), 0.0);
}

TEST(Trace, SpansAreCapturedAndExported) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.RecordSpan("combine", "combine", 1.0, 2.0, "ops", 64);
  tracer.RecordSpanOnTrack(Tracer::kFirstVirtualTrack, "traverse", "traverse",
                           3.0, 4.0);
  tracer.SetTrackName(Tracer::kFirstVirtualTrack, "pcu");
  { ScopedSpan scoped("trigger", "trigger"); }
  const std::vector<TraceEvent> events = tracer.Collect();
  tracer.Disable();

  ASSERT_EQ(events.size(), 3u);
  std::set<std::string> names;
  for (const TraceEvent& e : events) names.insert(e.name);
  EXPECT_EQ(names, (std::set<std::string>{"combine", "traverse", "trigger"}));

  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"combine\""), std::string::npos);
  EXPECT_NE(json.find("\"pcu\""), std::string::npos);   // track metadata
  EXPECT_NE(json.find("\"ops\""), std::string::npos);   // span argument
  tracer.Clear();
}

TEST(Trace, EnableRebasesClockAndClearsOldSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.RecordSpan("stale", "test", 0.0, 1.0);
  tracer.Enable();  // new session
  EXPECT_TRUE(tracer.Collect().empty());
  EXPECT_GE(tracer.NowUs(), 0.0);
  tracer.Disable();
  tracer.Clear();
}

TEST(Exporter, JsonContainsEveryOpStatsFieldAndConfig) {
  MetricsExporter exporter("unit_test_bench");
  exporter.SetConfig("keys", static_cast<std::int64_t>(1000));
  exporter.SetConfig("theta", 0.99);
  exporter.SetConfig("mode", std::string("smoke"));

  RunMetrics run;
  run.workload = "ZIPF";
  run.engine = "DCART";
  run.platform = "fpga";
  run.seconds = 0.5;
  run.throughput_ops_per_sec = 2000.0;
  run.events.operations = 1000;
  run.events.partial_key_matches = 123;
  run.latency_ns.Record(500);
  exporter.AddRun(run);

  const std::string json = exporter.ToJson(/*include_registry=*/false);
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"unit_test_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"keys\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"theta\":"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"smoke\""), std::string::npos);
  // Every OpStats field name must appear in the events object — the
  // X-macro feeds the exporter, so a new field shows up automatically.
  OpStats probe;
  probe.ForEachField([&](const char* name, std::uint64_t) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << "missing OpStats field in JSON: " << name;
  });
  EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Exporter, ValidateObsFlagsAcceptsKnownRejectsUnknown) {
  EXPECT_TRUE(ValidateObsFlags(
                  MakeFlags({"--metrics-json=/tmp/m.json",
                             "--trace-json=/tmp/t.json", "--keys=10"}))
                  .ok());
  const Status bad =
      ValidateObsFlags(MakeFlags({"--metrics-jsn=/tmp/m.json"}));
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("metrics-jsn"), std::string::npos);
  EXPECT_FALSE(ValidateObsFlags(MakeFlags({"--trace-format=proto"})).ok());
}

TEST(FlagFamilies, RequireValidFlagsRefusesEveryFaultFlag) {
  // No binary arms fault sites from argv, so a registered site's flag is
  // refused as loudly as a misspelt one.
  EXPECT_EQ(bench::RequireValidFlags(MakeFlags({"--fault-seed=7"})), 2);
  EXPECT_EQ(
      bench::RequireValidFlags(MakeFlags({"--fault-repl-drop=0.5"})),
      2);
  EXPECT_EQ(bench::RequireValidFlags(MakeFlags({"--keys=10"})), 0);
}

TEST(FlagFamilies, DuplicateFlagDefinitionIsAParseError) {
  const CliFlags flags = MakeFlags({"--keys=1", "--keys=2"});
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("keys"), std::string::npos);
  EXPECT_TRUE(MakeFlags({"--keys=1", "--ops=2"}).ok());
}

}  // namespace
}  // namespace dcart::obs
