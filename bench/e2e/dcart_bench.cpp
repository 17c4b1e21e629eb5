// End-to-end wall-clock benchmark of DCART-CP and the stack built on it.
//
//   dcart_bench --workload=<name> --seed=<n> [--seconds=S] [--json=PATH]
//               [--trace=PATH]
//
// One operation stream per workload is generated from --seed and driven
// through seven engines:
//
//   cp       DCART-CP                      (registry "DCART-CP")
//   ft       DCART-CP-FT, durable          (registry "DCART-CP-FT")
//   ha       DCART-CP-HA, durable, in-process link, sync mode
//   cluster  DCART-CLUSTER, durable, the registry's default 4 shards
//   olc      ART-OLC, RunThreaded with `threads` round-robin client threads
//   rowex    ART (ROWEX), RunThreaded with `threads` client threads
//   art      serial art::Tree on the caller thread, the reference DCART-CP
//            must beat
//
// Every engine is loaded through its public API (kSetupReps times; the last
// instance is kept) and then driven in a closed loop by one caller thread:
// the next Run() is issued when the previous one returns, which is the
// engines' one-service-thread contract.  A call is `call_ops` operations
// (RunConfig::batch_size is the same number) and each engine cycles through
// the stream.  The workload sizes live in kWorkloads, not on the command
// line.
//
// Time is sliced: after one untimed warm-up round, kRounds timed rounds
// each give every engine its share of --seconds / kRounds.  On a shared
// host the machine's speed drifts over seconds; slicing spreads each
// engine's samples over the whole run, so the drift moves every engine
// alike instead of whichever one happened to be running.
//
// Correctness: a separate serial art::Tree oracle replays the stream after
// the timed rounds.  Per-call reads_hit of cp/ft/ha/cluster must match it,
// each of their results must show an ok status with no degradation, and
// Lookup() of every key in the universe after an engine's last call must
// equal the oracle's value after the same number of calls.  A mismatched or
// degraded call counts its ops as failed; a final-state mismatch (or a
// cluster failover in this fault-free run) makes the run exit 1.
//
// --json writes every metric with its unit, the provenance and a `layers`
// block (per engine: median call, inner and self time).  --trace splits
// every engine's slice of every round in two: an untraced half, then a half
// with obs::Tracer on, and writes a Chrome trace: one `<engine>.call` span
// per traced Run() with a child `<engine>.inner` span sized from the
// engine's own ExecutionResult::seconds, next to the runtime's
// combine/traverse/trigger spans.  The metrics still come from the untraced
// halves; each round's pair of cp halves gives one sample of
// trace.overhead_frac, so host drift between rounds does not enter it.
// Durable homes live in a fresh directory under the temp dir ($TMPDIR) that
// is removed on exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cpu_engines.h"
#include "baselines/registry.h"
#include "baselines/rowex_engine.h"
#include "common/cli.h"
#include "common/simd.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace dcart::e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Items = std::vector<std::pair<Key, art::Value>>;

constexpr std::size_t kRounds = 10;
constexpr std::size_t kWarmupCalls = 10;  // at least, per engine
// Load() repetitions per engine; setup_s sums the per-engine medians.
constexpr std::size_t kSetupReps = 3;
// An engine makes at most this many traced calls, which keeps a trace file
// in the tens of megabytes (DCART-CP records spans per bucket).
constexpr std::size_t kMaxTracedCalls = 200;
constexpr int kChecksumReps = 5;

struct WorkloadSpec {
  const char* name;
  WorkloadKind keys_from;
  std::size_t keys;  // key universe (90 % bulk-loaded)
  double write_ratio;
  double remove_ratio;
  double scan_ratio;  // scans read 1..100 entries
  double theta;       // Zipf skew of the op stream; 0 = uniform
  std::size_t call_ops;      // operations per Run() call
  std::size_t stream_calls;  // distinct calls generated; engines cycle them
};

// Why each workload exists is recorded in README.md.  `smoke` is the ctest
// workload and is not part of BENCHMARK.json.
constexpr WorkloadSpec kWorkloads[] = {
    {"ipgeo-hot", WorkloadKind::kIPGEO, 200'000, 0.05, 0.00, 0.00, 1.30, 8192,
     96},
    {"rs-churn", WorkloadKind::kRS, 400'000, 0.40, 0.10, 0.00, 0.00, 8192, 96},
    {"dict-scan", WorkloadKind::kDICT, 100'000, 0.30, 0.05, 0.05, 0.99, 8192,
     96},
    {"ea-trickle", WorkloadKind::kEA, 100'000, 0.50, 0.00, 0.00, 0.99, 256,
     3072},
    {"smoke", WorkloadKind::kDICT, 3'000, 0.30, 0.05, 0.05, 0.99, 256, 16},
};

struct EngineSpec {
  const char* prefix;    // metric prefix
  const char* registry;  // MakeEngine() name; nullptr for the bench's own
  const char* call_span;  // trace span names (the tracer keeps the pointers)
  const char* inner_span;
  double share;   // fraction of --seconds this engine's calls take
  bool verified;  // checked call by call against the oracle
  bool durable;   // writes a journal and snapshots; bytes counted per call
};

// The durable stack gets the largest shares: its calls are the slowest and
// its latency tails need samples.
constexpr EngineSpec kEngines[] = {
    {"cp", "DCART-CP", "cp.call", "cp.inner", 0.15, true, false},
    {"ft", "DCART-CP-FT", "ft.call", "ft.inner", 0.12, true, true},
    {"ha", "DCART-CP-HA", "ha.call", "ha.inner", 0.22, true, true},
    {"cluster", "DCART-CLUSTER", "cluster.call", "cluster.inner", 0.22, true,
     true},
    {"olc", nullptr, "olc.call", "olc.inner", 0.06, false, false},
    {"rowex", nullptr, "rowex.call", "rowex.inner", 0.06, false, false},
    {"art", nullptr, "art.call", "art.inner", 0.17, false, false},
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Bytes this process has passed to write(2) so far (/proc/self/io wchar).
std::uint64_t BytesWritten() {
  std::ifstream io("/proc/self/io");
  std::string field;
  std::uint64_t value = 0;
  while (io >> field >> value) {
    if (field == "wchar:") return value;
  }
  return 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string UtcTimestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

const char* SimdTier() {
#if DCART_SIMD_X86
  return simd::HasAvx2() ? "avx2" : "sse2";
#else
  return "scalar";
#endif
}

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// ------------------------------------------------------- bench-local engines

/// Serial art::Tree on the caller's thread.
class SerialArt final : public IndexEngine {
 public:
  std::string name() const override { return "ART-serial"; }
  void Load(const Items& items) override {
    for (const auto& [key, value] : items) tree_.Insert(key, value);
  }
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig&) override {
    ExecutionResult result;
    const auto start = Clock::now();
    for (const Operation& op : ops) {
      switch (op.type) {
        case OpType::kRead:
          if (tree_.Get(op.key).has_value()) ++result.reads_hit;
          break;
        case OpType::kWrite:
          tree_.Insert(op.key, op.value);
          break;
        case OpType::kRemove:
          tree_.Remove(op.key);
          break;
        case OpType::kScan: {
          std::size_t entries = 0;
          tree_.ScanFrom(op.key, [&entries, &op](KeyView, art::Value) {
            return ++entries < op.scan_count;
          });
          result.stats.scan_entries += entries;
          break;
        }
      }
    }
    result.seconds = Since(start);
    return result;
  }
  std::optional<art::Value> Lookup(KeyView key) const override {
    return tree_.Get(key);
  }

 private:
  art::Tree tree_;
};

/// OLC or ROWEX behind their real-threads entry point (RunThreaded deals the
/// call round-robin over `threads` client threads; scans become probes).
template <typename Engine>
class ThreadedClients final : public IndexEngine {
 public:
  ThreadedClients(std::unique_ptr<Engine> engine, std::size_t threads)
      : engine_(std::move(engine)), threads_(threads) {}
  std::string name() const override { return engine_->name(); }
  void Load(const Items& items) override { engine_->Load(items); }
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig&) override {
    ExecutionResult result;
    result.seconds = engine_->RunThreaded(ops, threads_, result.stats);
    return result;
  }
  std::optional<art::Value> Lookup(KeyView key) const override {
    return engine_->Lookup(key);
  }

 private:
  std::unique_ptr<Engine> engine_;
  std::size_t threads_;
};

std::unique_ptr<IndexEngine> MakeSubject(const EngineSpec& spec,
                                         const std::string& home,
                                         std::size_t threads) {
  if (spec.registry != nullptr) {
    EngineOptions options;  // each engine reads only its own durable home
    options.resilient.dir = home;
    options.replication.dir = home;
    options.cluster.dir = home;
    return MakeEngine(spec.registry, options);
  }
  const std::string prefix = spec.prefix;
  if (prefix == "olc") {
    return std::make_unique<ThreadedClients<baselines::CpuEngine>>(
        baselines::MakeArtOlcEngine(), threads);
  }
  if (prefix == "rowex") {
    return std::make_unique<ThreadedClients<baselines::ArtRowexEngine>>(
        std::make_unique<baselines::ArtRowexEngine>(), threads);
  }
  return std::make_unique<SerialArt>();
}

// ------------------------------------------------------------------ running

struct Bench {
  const WorkloadSpec* spec = nullptr;
  Workload workload;
  std::vector<Key> universe;  // every key the load or the stream names
  std::vector<std::uint64_t> user_bytes;  // per stream call
  std::size_t threads = 1;
  double seconds = 0.0;
  bool trace = false;
  fs::path homes;

  std::span<const Operation> Batch(std::size_t call) const {
    const std::size_t index = call % spec->stream_calls;
    return std::span<const Operation>(workload.ops)
        .subspan(index * spec->call_ops, spec->call_ops);
  }
};

struct Call {
  double wall_s = 0.0;   // caller-observed Run() time
  double inner_s = 0.0;  // the engine's own ExecutionResult::seconds
  std::uint64_t reads_hit = 0;
  bool healthy = true;   // ok status, nothing refused, retried or demoted
  bool checkpoint = false;
  bool measured = false;  // timed, with the tracer off
  std::uint64_t bytes_written = 0;  // wchar during the call (durable engines)
};

struct EngineRun {
  const EngineSpec* spec = nullptr;
  fs::path home;
  std::unique_ptr<IndexEngine> engine;  // live until Finish()
  std::vector<double> load_s;
  // The warm-up round's calls, then from timed_begin on the timed rounds'.
  // Every time metric comes from the measured calls: the timed calls made
  // while the tracer was off.
  std::vector<Call> calls;
  std::size_t timed_begin = 0;
  // Aggregates over the measured calls.
  OpStats stats;
  PhaseBreakdown phases;
  std::uint64_t deferred_ops = 0;  // dcartc.deferred_ops
  // Traced run: per round, 1 - untraced / traced mean call time.
  std::vector<double> trace_overhead;
  // End-of-run figures, and the final state of a verified engine.
  double index_bytes_per_key = 0.0;
  double checksum_ms = 0.0;
  double shard_imbalance = 0.0;
  std::uint64_t failovers = 0;
  std::uint64_t heartbeat_misses = 0;
  std::vector<std::optional<art::Value>> final_values;

  std::vector<Call> Measured() const {
    std::vector<Call> v;
    for (const Call& c : calls) {
      if (c.measured) v.push_back(c);
    }
    return v;
  }
  double Ops(std::size_t call_ops) const {
    return static_cast<double>(Measured().size() * call_ops);
  }
  std::vector<double> Walls() const {
    std::vector<double> v;
    for (const Call& c : Measured()) v.push_back(c.wall_s);
    return v;
  }
  std::vector<double> SelfTimes() const {
    std::vector<double> v;
    for (const Call& c : Measured()) v.push_back(c.wall_s - c.inner_s);
    return v;
  }
  double Seconds() const {
    double s = 0.0;
    for (const Call& c : Measured()) s += c.wall_s;
    return s;
  }
};

/// Build and Load() the engine kSetupReps times, keeping the last instance.
EngineRun Setup(const EngineSpec& spec, const Bench& bench) {
  EngineRun run;
  run.spec = &spec;
  run.home = bench.homes / spec.prefix;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    run.engine.reset();  // one instance, and one durable home, at a time
    std::error_code ignored;
    fs::remove_all(run.home, ignored);
    run.engine = MakeSubject(spec, run.home.string(), bench.threads);
    const auto start = Clock::now();
    run.engine->Load(bench.workload.load_items);
    run.load_s.push_back(Since(start));
  }
  return run;
}

/// Issue calls until `budget` seconds of call time have passed and at least
/// `min_calls` were made, or `max_calls` were made, and return their mean
/// call time.  A timed slice with the tracer off is measured.
double RunSlice(EngineRun& run, const Bench& bench, double budget,
                std::size_t min_calls, std::size_t max_calls, bool timed) {
  RunConfig config;
  config.batch_size = bench.spec->call_ops;
  config.cpu.wall_threads = bench.threads;
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool traced = tracer.enabled();
  const bool measured = timed && !traced;
  static obs::Counter* const checkpoints =
      obs::MetricsRegistry::Global().GetCounter("resilience.checkpoints");
  const std::uint64_t deferred_before = CounterValue("dcartc.deferred_ops");

  double elapsed = 0.0;
  std::size_t n = 0;
  for (; n < max_calls && (elapsed < budget || n < min_calls); ++n) {
    const std::size_t i = run.calls.size();
    Call c;
    c.measured = measured;
    const double ts_us = traced ? tracer.NowUs() : 0.0;
    const std::uint64_t checkpoints_before = checkpoints->Value();
    const std::uint64_t written_before =
        run.spec->durable ? BytesWritten() : 0;
    const auto start = Clock::now();
    const ExecutionResult result = run.engine->Run(bench.Batch(i), config);
    c.wall_s = Since(start);
    if (run.spec->durable) c.bytes_written = BytesWritten() - written_before;
    c.inner_s = result.seconds;
    c.reads_hit = result.reads_hit;
    c.healthy = result.status.ok() && result.unavailable_ops == 0 &&
                result.bucket_retries == 0 && result.invariant_breaches == 0 &&
                !result.partial && !result.demoted_to_serial;
    c.checkpoint = checkpoints->Value() != checkpoints_before;
    if (traced) {
      tracer.RecordSpan(run.spec->call_span, "bench", ts_us, c.wall_s * 1e6,
                        "call", i);
      tracer.RecordSpan(run.spec->inner_span, "bench", ts_us, c.inner_s * 1e6,
                        "call", i);
    }
    run.calls.push_back(c);
    elapsed += c.wall_s;
    if (measured) {
      run.stats.Merge(result.stats);
      run.phases.combine_seconds += result.phase_breakdown.combine_seconds;
      run.phases.traverse_seconds += result.phase_breakdown.traverse_seconds;
      run.phases.trigger_seconds += result.phase_breakdown.trigger_seconds;
    }
  }
  if (measured) {
    run.deferred_ops += CounterValue("dcartc.deferred_ops") - deferred_before;
  }
  return elapsed / static_cast<double>(n);
}

/// The spans of a run's traced slices.  Tracer::Enable() drops what was
/// recorded and restarts the tracer's clock, so each slice's spans are
/// collected when it ends, shifted onto the first slice's time base, and
/// recorded again (on their own tracks) before the trace is written.
class TraceLog {
 public:
  void BeginSlice() {
    const auto now = Clock::now();
    if (!started_) origin_ = now;
    started_ = true;
    offset_us_ =
        std::chrono::duration<double, std::micro>(now - origin_).count();
    obs::Tracer::Global().Enable();
  }
  void EndSlice() {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Disable();
    for (obs::TraceEvent event : tracer.Collect()) {
      event.ts_us += offset_us_;
      events_.push_back(event);
    }
  }
  Status Write(const std::string& path) const {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Enable();
    for (const obs::TraceEvent& e : events_) {
      tracer.RecordSpanOnTrack(e.track, e.name, e.category, e.ts_us, e.dur_us,
                               e.arg_name, e.arg_value);
    }
    tracer.Disable();
    return tracer.WriteJson(path);
  }

 private:
  bool started_ = false;
  Clock::time_point origin_;
  double offset_us_ = 0.0;
  std::vector<obs::TraceEvent> events_;
};

/// Record the engine's end-of-run figures and final state, then drop it.
void Finish(EngineRun& run, const Bench& bench) {
  const IndexEngine* engine = run.engine.get();
  if (const auto* cp = dynamic_cast<const dcartc::DcartCpEngine*>(engine)) {
    run.index_bytes_per_key =
        static_cast<double>(cp->tree().ComputeMemoryStats().TotalBytes()) /
        static_cast<double>(std::max<std::size_t>(1, cp->tree().size()));
  }
  if (const auto* ha =
          dynamic_cast<const resilience::ReplicatedEngine*>(engine)) {
    std::vector<double> times;
    for (int r = 0; r < kChecksumReps; ++r) {
      const auto start = Clock::now();
      const volatile std::uint64_t sum = resilience::TreeChecksum(ha->tree());
      (void)sum;
      times.push_back(Since(start) * 1e3);
    }
    run.checksum_ms = Median(times);
  }
  if (const auto* cluster =
          dynamic_cast<const cluster::ClusterEngine*>(engine)) {
    std::vector<double> per_shard(cluster->shard_count(), 0.0);
    for (std::size_t c = run.timed_begin; c < run.calls.size(); ++c) {
      for (const Operation& op : bench.Batch(c)) {
        if (op.type != OpType::kScan) per_shard[cluster->RouteShard(op.key)]++;
      }
    }
    double total = 0.0;
    for (double n : per_shard) total += n;
    run.shard_imbalance =
        *std::max_element(per_shard.begin(), per_shard.end()) /
        (total / static_cast<double>(per_shard.size()));
    run.failovers = cluster->failovers();
    run.heartbeat_misses = cluster->heartbeat_misses();
  }
  if (run.spec->verified) {
    run.final_values.reserve(bench.universe.size());
    for (const Key& key : bench.universe) {
      run.final_values.push_back(engine->Lookup(key));
    }
  }
  run.engine.reset();
  std::error_code ignored;
  fs::remove_all(run.home, ignored);
}

// ------------------------------------------------------------- verification

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t call_mismatches = 0;
  std::uint64_t unhealthy_calls = 0;
  std::uint64_t final_mismatches = 0;
  std::uint64_t failovers = 0;
  std::uint64_t heartbeat_misses = 0;

  bool correct() const {
    return failed == 0 && final_mismatches == 0 && failovers == 0 &&
           heartbeat_misses == 0;
  }
};

/// Replay the stream on a serial art::Tree and check every verified
/// engine's calls, and its final state at its own call count, against it.
///
/// One pass over the stream sets every key it writes or removes to the
/// outcome of its last such op, whatever the state before, so the state
/// after call j + S equals the state after call j for j >= S (S =
/// stream_calls).  The oracle therefore replays at most two passes and maps
/// every later call onto the second.
Verdict RunOracle(const Bench& bench, const std::vector<EngineRun>& runs) {
  const std::size_t period = bench.spec->stream_calls;
  const auto canonical = [period](std::size_t call) {
    return call < period ? call : period + (call - period) % period;
  };
  Verdict verdict;
  std::size_t calls = 0;
  for (const EngineRun& run : runs) {
    if (run.spec->verified) calls = std::max(calls, run.calls.size());
  }
  const std::size_t replay = std::min(calls, 2 * period);
  SerialArt oracle;
  oracle.Load(bench.workload.load_items);
  std::vector<std::uint64_t> reads_hit;
  for (std::size_t j = 0; j <= replay; ++j) {
    for (const EngineRun& run : runs) {
      if (!run.spec->verified || canonical(run.calls.size()) != j) continue;
      for (std::size_t u = 0; u < bench.universe.size(); ++u) {
        verdict.final_mismatches +=
            oracle.Lookup(bench.universe[u]) != run.final_values[u];
      }
    }
    if (j < replay) {
      reads_hit.push_back(oracle.Run(bench.Batch(j), {}).reads_hit);
    }
  }
  const std::uint64_t call_ops = bench.spec->call_ops;
  for (const EngineRun& run : runs) {
    if (!run.spec->verified) continue;
    verdict.failovers += run.failovers;
    verdict.heartbeat_misses += run.heartbeat_misses;
    for (std::size_t j = 0; j < run.calls.size(); ++j) {
      const bool matches = run.calls[j].reads_hit == reads_hit[canonical(j)];
      verdict.attempted += call_ops;
      verdict.call_mismatches += !matches;
      verdict.unhealthy_calls += !run.calls[j].healthy;
      if (!matches || !run.calls[j].healthy) verdict.failed += call_ops;
    }
  }
  return verdict;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class MetricList {
 public:
  /// Non-finite values are dropped: the harness then reports the metric as
  /// missing, where JSON (which has no NaN) would have carried a silent 0.
  void Add(std::string name, double value, const char* unit) {
    if (std::isfinite(value)) list_.push_back({std::move(name), value, unit});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

double Mops(const EngineRun& run, std::size_t call_ops) {
  return run.Ops(call_ops) / run.Seconds() / 1e6;
}

/// `<prefix>.mops`, plus the median and `tail` call latency when
/// `tail_name` is given.
void AddCallMetrics(MetricList& m, const EngineRun& run, std::size_t call_ops,
                    const char* tail_name = nullptr, double tail = 0.0) {
  const std::string p = run.spec->prefix;
  m.Add(p + ".mops", Mops(run, call_ops), "Mops/s");
  if (tail_name == nullptr) return;
  const std::vector<double> walls = run.Walls();
  m.Add(p + ".call_p50_ms", Quantile(walls, 0.5) * 1e3, "ms");
  m.Add(p + "." + tail_name, Quantile(walls, tail) * 1e3, "ms");
}

double Ratio(std::uint64_t num, double den) {
  return static_cast<double>(num) / den;
}

struct WriteCost {
  double per_user_byte = 0.0;  // user bytes: key + value of a write, key of
                               // a remove
  double per_op = 0.0;
};

/// Bytes a durable engine wrote over its timed calls (the tracer does not
/// write until the run ends), from the first call that took a checkpoint to
/// the last one: whole snapshot periods, so the share of snapshot bytes does
/// not depend on how many calls the time slices allowed.  With fewer than two
/// checkpoint calls, every timed call.
WriteCost MeasureWrites(const EngineRun& run, const Bench& bench) {
  std::size_t begin = run.timed_begin;
  std::size_t end = run.calls.size();
  std::size_t first = end;
  std::size_t last = end;
  for (std::size_t i = begin; i < end; ++i) {
    if (!run.calls[i].checkpoint) continue;
    if (first == end) first = i;
    last = i;
  }
  if (first < last) {
    begin = first;
    end = last;
  }
  std::uint64_t written = 0;
  std::uint64_t user = 0;
  for (std::size_t i = begin; i < end; ++i) {
    written += run.calls[i].bytes_written;
    user += bench.user_bytes[i % bench.spec->stream_calls];
  }
  return {Ratio(written, static_cast<double>(user)),
          Ratio(written, static_cast<double>((end - begin) *
                                             bench.spec->call_ops))};
}

MetricList ComputeMetrics(const std::vector<EngineRun>& runs,
                          const Bench& bench) {
  const std::size_t call_ops = bench.spec->call_ops;
  const auto find = [&runs](const char* prefix) -> const EngineRun& {
    for (const EngineRun& run : runs) {
      if (std::string(run.spec->prefix) == prefix) return run;
    }
    std::abort();  // every engine of kEngines runs on every workload
  };
  const EngineRun& cp = find("cp");
  const EngineRun& ft = find("ft");
  const EngineRun& ha = find("ha");
  const EngineRun& cluster = find("cluster");
  const EngineRun& olc = find("olc");
  MetricList m;

  // What a caller sees: throughput, call latency, set-up time, memory.
  AddCallMetrics(m, cp, call_ops, "call_p99_ms", 0.99);
  AddCallMetrics(m, ft, call_ops);
  AddCallMetrics(m, ha, call_ops, "call_p95_ms", 0.95);
  AddCallMetrics(m, cluster, call_ops, "call_p95_ms", 0.95);
  AddCallMetrics(m, find("art"), call_ops);
  AddCallMetrics(m, olc, call_ops);
  AddCallMetrics(m, find("rowex"), call_ops);
  double setup = 0.0;
  for (const EngineRun& run : runs) setup += Median(run.load_s);
  m.Add("setup_s", setup, "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");

  // DCART-CP phases.  The runtime's `traverse` timer covers the whole fused
  // parallel traverse+trigger phase and `trigger` the serial catch-up.
  const auto calls = static_cast<double>(cp.Measured().size());
  const double wall = cp.Seconds();
  const PhaseBreakdown& ph = cp.phases;
  m.Add("dcartc.combine_ms", ph.combine_seconds / calls * 1e3, "ms");
  m.Add("dcartc.combine_share", ph.combine_seconds / wall, "fraction");
  m.Add("dcartc.parallel_ms", ph.traverse_seconds / calls * 1e3, "ms");
  m.Add("dcartc.serial_ms", ph.trigger_seconds / calls * 1e3, "ms");
  m.Add("dcartc.dispatch_ms",
        (wall - ph.combine_seconds - ph.traverse_seconds - ph.trigger_seconds) /
            calls * 1e3,
        "ms");
  m.Add("dcartc.shortcut_hit_ratio",
        Ratio(cp.stats.shortcut_hits,
              static_cast<double>(cp.stats.shortcut_hits +
                                  cp.stats.shortcut_misses)),
        "ratio");
  m.Add("dcartc.deferred_frac", Ratio(cp.deferred_ops, cp.Ops(call_ops)),
        "fraction");
  m.Add("art.index_bytes_per_key", cp.index_bytes_per_key, "B/key");
  m.Add("olc.contentions_per_op",
        Ratio(olc.stats.lock_contentions, olc.Ops(call_ops)), "1/op");

  // Resilience.  A wrapper's self time is its call time minus the engine's
  // own seconds, which for ft, ha and cluster is the inner DCART-CP time.
  std::vector<double> journal, checkpoint;
  for (const Call& c : ft.Measured()) {
    (c.checkpoint ? checkpoint : journal).push_back(c.wall_s - c.inner_s);
  }
  m.Add("ft.journal_ms", Median(journal) * 1e3, "ms");
  if (!checkpoint.empty()) {
    m.Add("ft.checkpoint_ms", Median(checkpoint) * 1e3, "ms");
  }
  const WriteCost ft_writes = MeasureWrites(ft, bench);
  m.Add("ft.write_bytes_per_op", ft_writes.per_op, "B/op");
  m.Add("ft.write_amp", ft_writes.per_user_byte, "B/B");
  m.Add("ha.repl_ms", (Median(ha.SelfTimes()) - Median(ft.SelfTimes())) * 1e3,
        "ms");
  m.Add("ha.checksum_ms", ha.checksum_ms, "ms");
  m.Add("ha.write_amp", MeasureWrites(ha, bench).per_user_byte, "B/B");

  // Cluster.
  m.Add("cluster.route_ms",
        (Median(cluster.SelfTimes()) - Median(ha.SelfTimes())) * 1e3, "ms");
  m.Add("cluster.shard_imbalance", cluster.shard_imbalance, "ratio");

  if (bench.trace) {
    m.Add("trace.overhead_frac", Median(cp.trace_overhead), "fraction");
  }
  return m;
}

// ------------------------------------------------------------------- output

std::string ToJson(const Bench& bench, std::uint64_t seed,
                   const std::vector<EngineRun>& runs, const Verdict& verdict,
                   const MetricList& metrics) {
  const WorkloadSpec& w = *bench.spec;
  obs::JsonWriter j;
  j.BeginObject();
  j.Key("workload").BeginObject();
  j.KV("name", w.name).KV("keys", std::uint64_t{w.keys});
  j.KV("write_ratio", w.write_ratio).KV("remove_ratio", w.remove_ratio);
  j.KV("scan_ratio", w.scan_ratio).KV("theta", w.theta);
  j.KV("call_ops", std::uint64_t{w.call_ops});
  j.KV("stream_calls", std::uint64_t{w.stream_calls});
  j.EndObject();
  j.Key("provenance").BeginObject();
  j.KV("build_type", DCART_BENCH_BUILD_TYPE);
#ifdef DCART_SIMD_ENABLED
  j.KV("dcart_simd", true);
#else
  j.KV("dcart_simd", false);
#endif
  j.KV("simd_tier", SimdTier());
  j.KV("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  j.KV("threads", std::uint64_t{bench.threads});
  j.KV("seed", seed).KV("seconds", bench.seconds).KV("traced", bench.trace);
  j.KV("timestamp", UtcTimestamp());
  j.EndObject();
  j.KV("correct", verdict.correct());
  j.KV("attempted", verdict.attempted).KV("failed", verdict.failed);
  j.Key("verification").BeginObject();
  j.KV("call_mismatches", verdict.call_mismatches);
  j.KV("unhealthy_calls", verdict.unhealthy_calls);
  j.KV("final_mismatches", verdict.final_mismatches);
  j.KV("failovers", verdict.failovers);
  j.KV("heartbeat_misses", verdict.heartbeat_misses);
  j.EndObject();
  j.Key("metrics").BeginObject();
  for (const Metric& metric : metrics.list()) {
    j.Key(metric.name).BeginObject();
    j.KV("value", metric.value).KV("unit", metric.unit);
    j.EndObject();
  }
  j.EndObject();
  // Per layer: a call's self time is its call span minus its inner span.
  j.Key("layers").BeginObject();
  for (const EngineRun& run : runs) {
    std::vector<double> inner;
    for (const Call& c : run.Measured()) inner.push_back(c.inner_s * 1e3);
    j.Key(run.spec->prefix).BeginObject();
    j.KV("measured_calls", std::uint64_t{run.Measured().size()});
    j.KV("call_ms", Median(run.Walls()) * 1e3);
    j.KV("inner_ms", Median(inner));
    j.KV("self_ms", Median(run.SelfTimes()) * 1e3);
    j.KV("setup_s", Median(run.load_s));
    j.EndObject();
  }
  j.EndObject();
  j.EndObject();
  return j.str();
}

int Main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    return 2;
  }
  for (const std::string& name : flags.FlagNames()) {
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "json" && name != "trace") {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
  }
  const std::string workload_name = flags.GetString("workload", "");
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload_name == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "--workload must be one of:");
    for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path = flags.GetString("json", "");
  const std::string trace_path = flags.GetString("trace", "");

  Bench bench;
  bench.spec = spec;
  bench.seconds = flags.GetDouble("seconds", 10.0);
  bench.trace = !trace_path.empty();
  bench.threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency() - 1);
  if (!(bench.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  WorkloadConfig config;
  config.num_keys = spec->keys;
  config.num_ops = spec->call_ops * spec->stream_calls;
  config.write_ratio = spec->write_ratio;
  config.remove_ratio = spec->remove_ratio;
  config.scan_ratio = spec->scan_ratio;
  config.zipf_theta = spec->theta;
  config.seed = seed;
  bench.workload = MakeWorkload(spec->keys_from, config);
  for (const auto& item : bench.workload.load_items) {
    bench.universe.push_back(item.first);
  }
  for (std::size_t c = 0; c < spec->stream_calls; ++c) {
    std::uint64_t bytes = 0;
    for (const Operation& op : bench.Batch(c)) {
      bench.universe.push_back(op.key);
      if (op.type == OpType::kWrite) bytes += op.key.size() + sizeof op.value;
      if (op.type == OpType::kRemove) bytes += op.key.size();
    }
    bench.user_bytes.push_back(bytes);
  }
  std::sort(bench.universe.begin(), bench.universe.end(),
            [](const Key& a, const Key& b) { return CompareKeys(a, b) < 0; });
  bench.universe.erase(
      std::unique(bench.universe.begin(), bench.universe.end(), KeysEqual),
      bench.universe.end());

  // A fresh durable home under the temp dir, removed on every return path.
  std::string home = (fs::temp_directory_path() / "dcart-e2e-XXXXXX").string();
  if (mkdtemp(home.data()) == nullptr) {
    std::perror("mkdtemp");
    return 2;
  }
  struct RemoveOnExit {
    fs::path path;
    ~RemoveOnExit() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  } cleanup{home};
  bench.homes = home;

  std::printf("%s seed %llu: %zu keys, %zu ops/call, %zu threads, %g s\n",
              spec->name, static_cast<unsigned long long>(seed), spec->keys,
              spec->call_ops, bench.threads, bench.seconds);
  std::vector<EngineRun> runs;
  for (const EngineSpec& engine : kEngines) {
    runs.push_back(Setup(engine, bench));
  }
  const auto slice = [&bench](const EngineRun& run) {
    return bench.seconds * run.spec->share / kRounds;
  };
  constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
  for (EngineRun& run : runs) {
    RunSlice(run, bench, slice(run), kWarmupCalls, kUnlimited, false);
    run.timed_begin = run.calls.size();
  }
  // A traced run gives each half of a slice to one side of the pair.
  TraceLog trace_log;
  const double half = bench.trace ? 0.5 : 1.0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (EngineRun& run : runs) {
      const double untraced =
          RunSlice(run, bench, slice(run) * half, 1, kUnlimited, true);
      if (!bench.trace) continue;
      trace_log.BeginSlice();
      const double traced = RunSlice(run, bench, slice(run) * half, 1,
                                     kMaxTracedCalls / kRounds, true);
      trace_log.EndSlice();
      run.trace_overhead.push_back(1.0 - untraced / traced);
    }
  }
  for (EngineRun& run : runs) Finish(run, bench);

  const Verdict verdict = RunOracle(bench, runs);
  const MetricList metrics = ComputeMetrics(runs, bench);

  std::printf("%-8s %7s %9s %9s %8s\n", "engine", "calls", "Mops/s", "p50 ms",
              "setup s");
  for (const EngineRun& run : runs) {
    std::printf("%-8s %7zu %9.3f %9.3f %8.3f\n", run.spec->prefix,
                run.Measured().size(), Mops(run, spec->call_ops),
                Median(run.Walls()) * 1e3, Median(run.load_s));
  }
  std::printf("verification: %s (%llu of %llu ops failed, %llu final-state "
              "mismatches)\n",
              verdict.correct() ? "ok" : "FAILED",
              static_cast<unsigned long long>(verdict.failed),
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.final_mismatches));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << ToJson(bench, seed, runs, verdict, metrics) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  if (bench.trace) {
    const Status written = trace_log.Write(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.message().c_str());
      return 2;
    }
  }
  return verdict.correct() ? 0 : 1;
}

}  // namespace
}  // namespace dcart::e2e

int main(int argc, char** argv) { return dcart::e2e::Main(argc, argv); }
