// IP-geolocation lookup service — the paper's motivating IPGEO scenario.
//
//   build/examples/ipgeo_service [--keys=N] [--ops=N] [--state-dir=PATH]
//                                [--replica] [--cluster=N]
//
// Builds an IP -> country index, then serves a skewed lookup/update stream
// (hot /8 prefixes dominating, as in GeoLite2 traffic) twice: once on the
// SMART-like CPU baseline and once on the DCART accelerator model, printing
// the end-to-end comparison an operator would care about: throughput, P99,
// and energy per million requests.
//
// The second half is the fault-tolerance demo (see docs/RESILIENCE.md):
// the same stream served by DCART-CP-FT with a durable journal under
// --state-dir (a temp directory by default), killed mid-serve by an
// injected crash, recovered with Recover(), and resumed — the operator
// workflow after a real process death.
//
// `--replica` adds the high-availability demo: the stream served by
// DCART-CP-HA (primary + log-shipped replica over a faulty link), the
// primary box killed mid-serve, the replica promoted with Promote(), and
// the remaining requests served from the promoted box — the failover
// workflow after losing the primary entirely.
//
// `--cluster=N` adds the sharded-cluster demo: the stream served by
// DCART-CLUSTER (N prefix-range shards, each a primary/replica pair), shard
// 0's primary killed mid-serve, the watchdog promoting its replica
// automatically, a revived stale primary fenced by the term check, and the
// shard rejoined as a fresh pair — the full kill / promote / rejoin
// operator loop from docs/RESILIENCE.md.
// Observability: `--metrics-json=PATH` exports the serving results (and the
// process metrics registry) as a versioned JSON snapshot; `--trace-json=PATH`
// captures Combine/Traverse/Trigger phase spans loadable in Perfetto.  See
// docs/OBSERVABILITY.md.
#include <cstdio>
#include <filesystem>

#include "baselines/registry.h"
#include "bench/bench_common.h"
#include "cluster/cluster.h"
#include "common/cli.h"
#include "common/key_codec.h"
#include "resilience/fault_injector.h"
#include "resilience/replication.h"
#include "resilience/resilient_engine.h"
#include "workload/generators.h"

using namespace dcart;

namespace {

const char* kCountries[] = {"CN", "US", "DE", "BR", "IN", "JP", "FR", "NG"};

void Report(const char* name, const ExecutionResult& r, std::size_t ops) {
  std::printf(
      "  %-14s %8.2f Mreq/s   p99 %8.1f us   %7.2f J per M requests\n", name,
      r.ThroughputOpsPerSec() / 1e6,
      static_cast<double>(r.latency_ns.Quantile(0.99)) / 1e3,
      r.energy_joules / static_cast<double>(ops) * 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (const int rc = bench::RequireValidFlags(flags)) return rc;
  bench::BenchObservability observability("ipgeo_service", flags);
  WorkloadConfig cfg;
  cfg.num_keys = static_cast<std::size_t>(flags.GetInt("keys", 50'000));
  cfg.num_ops = static_cast<std::size_t>(flags.GetInt("ops", 200'000));
  cfg.write_ratio = 0.2;  // mostly lookups, some record updates

  std::printf("generating %zu IP->country records and %zu requests...\n",
              cfg.num_keys, cfg.num_ops);
  Workload workload = MakeWorkload(WorkloadKind::kIPGEO, cfg);
  // Give the records human-meaningful values (country ids).
  for (std::size_t i = 0; i < workload.load_items.size(); ++i) {
    workload.load_items[i].second = i % std::size(kCountries);
  }

  RunConfig run;
  run.collect_latency = true;

  std::printf("\nserving the request stream:\n");
  auto smart = MakeEngine("SMART");
  smart->Load(workload.load_items);
  const ExecutionResult smart_result = smart->Run(workload.ops, run);
  Report("SMART (CPU)", smart_result, cfg.num_ops);
  observability.Record("IPGEO", "SMART", smart_result);

  auto dcart = MakeEngine("DCART");
  dcart->Load(workload.load_items);
  const ExecutionResult accel_result = dcart->Run(workload.ops, run);
  Report("DCART (FPGA)", accel_result, cfg.num_ops);
  observability.Record("IPGEO", "DCART", accel_result);

  // Show a few concrete lookups through the public API.
  std::printf("\nsample lookups:\n");
  std::size_t shown = 0;
  for (const auto& [key, value] : workload.load_items) {
    if (shown >= 5) break;
    if (const auto country = dcart->Lookup(key)) {
      std::printf("  %-15s -> %s\n", FormatIPv4(key).c_str(),
                  kCountries[*country % std::size(kCountries)]);
      ++shown;
    }
  }
  std::printf("\ncoalescing: %llu of %llu requests shared a traversal; "
              "%llu shortcut hits\n",
              static_cast<unsigned long long>(
                  accel_result.stats.combined_ops),
              static_cast<unsigned long long>(
                  accel_result.stats.operations),
              static_cast<unsigned long long>(
                  accel_result.stats.shortcut_hits));

  // ----------------------------------------------------------------------
  // Fault-tolerant serving: journal every batch, crash halfway, recover.
  const std::string state_dir = flags.GetString(
      "state-dir", (std::filesystem::temp_directory_path() /
                    "ipgeo_service_state").string());
  std::filesystem::remove_all(state_dir);

  resilience::ResilienceOptions durability;
  durability.dir = state_dir;

  RunConfig ft_run;
  ft_run.batch_size = 4096;
  const std::size_t batches =
      (workload.ops.size() + ft_run.batch_size - 1) / ft_run.batch_size;
  // Simulated operator incident: the process dies at the halfway batch.
  resilience::FaultPlan crash;
  crash.TriggerAt(resilience::FaultSite::kCrashAtBatchBoundary) =
      batches / 2 + 1;

  std::printf("\nfault-tolerant serving (journal+snapshots in %s):\n",
              state_dir.c_str());
  resilience::ResilientEngine service(durability);
  service.Load(workload.load_items);
  resilience::FaultInjector::Global().Arm(crash);
  const ExecutionResult before = service.Run(workload.ops, ft_run);
  observability.Record("IPGEO/ft-before-crash", "DCART-CP-FT", before);
  std::printf("  crash injected: %s\n", before.status.message().c_str());
  std::printf("  %llu of %zu requests acknowledged before the crash\n",
              static_cast<unsigned long long>(before.ops_acknowledged),
              workload.ops.size());
  resilience::FaultInjector::Global().Disarm();

  // A "restarted process": a fresh engine over the same state directory.
  resilience::ResilientEngine restarted(durability);
  if (!restarted.Recover()) {
    std::printf("  RECOVERY FAILED\n");
    return 1;
  }
  std::printf(
      "  recovered: snapshot + %llu journaled writes/removes replayed\n",
      static_cast<unsigned long long>(restarted.recovered_ops()));

  // Re-serve the unacknowledged tail, then prove the index answers again.
  const std::size_t done = before.ops_acknowledged;
  const ExecutionResult resumed = restarted.Run(
      {workload.ops.data() + done, workload.ops.size() - done}, RunConfig{});
  observability.Record("IPGEO/ft-resumed", "DCART-CP-FT", resumed);
  const auto check = restarted.Lookup(workload.load_items.front().first);
  std::printf("  resumed the remaining %zu requests (%s); %s -> %s\n",
              workload.ops.size() - done,
              resumed.status.ok() ? "ok" : resumed.status.message().c_str(),
              FormatIPv4(workload.load_items.front().first).c_str(),
              check ? kCountries[*check % std::size(kCountries)] : "MISSING");
  std::filesystem::remove_all(state_dir);
  bool all_ok = check.has_value() && resumed.status.ok();

  // ----------------------------------------------------------------------
  // High-availability serving (--replica): a log-shipped replica keeps a
  // byte-identical copy; when the primary box dies, promote and keep going.
  if (flags.GetBool("replica", false)) {
    const std::string ha_dir = state_dir + "_ha";
    std::filesystem::remove_all(ha_dir);
    resilience::ReplicationOptions repl;
    repl.dir = ha_dir;

    std::printf("\nhigh-availability serving (primary + replica in %s):\n",
                ha_dir.c_str());
    resilience::ReplicatedEngine pair(repl);
    pair.Load(workload.load_items);

    // Serve the first half with a lossy link: the second shipped frame is
    // dropped, so the retransmit path runs in plain sight.
    RunConfig ha_run;
    ha_run.batch_size = 4096;
    resilience::FaultPlan lossy;
    lossy.TriggerAt(resilience::FaultSite::kReplDrop) = 2;
    const std::size_t half = workload.ops.size() / 2;
    resilience::FaultInjector::Global().Arm(lossy);
    const ExecutionResult served =
        pair.Run({workload.ops.data(), half}, ha_run);
    observability.Record("IPGEO/ha-primary", "DCART-CP-HA", served);
    resilience::FaultInjector::Global().Disarm();
    std::printf("  %llu requests acknowledged replica-durable "
                "(%llu records shipped, %llu acked, 1 frame dropped)\n",
                static_cast<unsigned long long>(served.ops_acknowledged),
                static_cast<unsigned long long>(pair.records_shipped()),
                static_cast<unsigned long long>(pair.acked_records()));

    // The primary box dies; requests fail until the replica is promoted.
    pair.KillPrimary();
    std::printf("  primary killed: lookups now %s\n",
                pair.Lookup(workload.load_items.front().first)
                    ? "answered (BUG)" : "fenced");
    const Status promoted = pair.Promote();
    std::printf("  promoted replica (%s)\n",
                promoted.ok() ? "recovered from replica-local journal"
                              : promoted.message().c_str());

    // The promoted box serves the remaining requests.
    const ExecutionResult ha_resumed = pair.Run(
        {workload.ops.data() + half, workload.ops.size() - half}, RunConfig{});
    observability.Record("IPGEO/ha-promoted", "DCART-CP-HA", ha_resumed);
    const auto ha_check = pair.Lookup(workload.load_items.front().first);
    std::printf("  served the remaining %zu requests from the promoted "
                "replica (%s); %s -> %s\n",
                workload.ops.size() - half,
                ha_resumed.status.ok() ? "ok"
                                       : ha_resumed.status.message().c_str(),
                FormatIPv4(workload.load_items.front().first).c_str(),
                ha_check ? kCountries[*ha_check % std::size(kCountries)]
                         : "MISSING");
    std::filesystem::remove_all(ha_dir);
    all_ok = all_ok && promoted.ok() && ha_resumed.status.ok() &&
             ha_check.has_value();
  }

  // ----------------------------------------------------------------------
  // Sharded cluster serving (--cluster=N): prefix-range shards, per-shard
  // replica pairs, watchdog failover, term fencing, rejoin.
  const auto shard_count =
      static_cast<std::size_t>(flags.GetInt("cluster", 0));
  if (shard_count > 0) {
    cluster::ClusterOptions copt;
    copt.shards = shard_count;

    std::printf("\nsharded cluster serving (%zu shards, one HA pair each):\n",
                shard_count);
    cluster::ClusterEngine cl(copt);
    cl.Load(workload.load_items);
    for (std::size_t s = 0; s < cl.shard_count(); ++s) {
      const auto [lo, hi] = cl.ShardRange(s);
      std::printf("  shard %zu owns first-byte range [0x%02x, 0x%02x]\n", s,
                  lo, hi);
    }

    const std::size_t half = workload.ops.size() / 2;
    RunConfig cl_run;
    cl_run.batch_size = 4096;
    const ExecutionResult cl_served =
        cl.Run({workload.ops.data(), half}, cl_run);
    observability.Record("IPGEO/cluster", "DCART-CLUSTER", cl_served);
    std::printf("  %llu requests acknowledged replica-durable across the "
                "cluster\n",
                static_cast<unsigned long long>(cl_served.ops_acknowledged));

    // Shard 0's primary box dies; the watchdog notices the heartbeat
    // silence, rides out probation, and promotes the replica on its own.
    cl.KillShardPrimary(0);
    std::size_t ticks = 0;
    while (cl.failovers() == 0 && ticks < 1000) {
      cl.Tick();
      ++ticks;
    }
    std::printf("  shard 0 primary killed: watchdog promoted the replica "
                "after %zu ticks (term %llu -> %llu)\n",
                ticks, static_cast<unsigned long long>(cl.ShardTerm(0) - 1),
                static_cast<unsigned long long>(cl.ShardTerm(0)));

    // The old primary's box comes back believing it still owns term 1 —
    // the fence refuses it, so there is never a second writer.
    const Status stale = cl.PromoteShard(0, 1);
    std::printf("  revived old primary (stale term 1) fenced: %s\n",
                stale.message().c_str());

    // The promoted shard serves its range; the rest never noticed.
    const ExecutionResult cl_resumed = cl.Run(
        {workload.ops.data() + half, workload.ops.size() - half}, cl_run);
    observability.Record("IPGEO/cluster-after-failover", "DCART-CLUSTER",
                         cl_resumed);

    // Give shard 0 a replica again: rebuild it as a fresh pair in a new
    // epoch, seeded from the promoted tree.
    const Status rejoined = cl.RejoinShard(0);
    const auto cl_check = cl.Lookup(workload.load_items.front().first);
    std::printf("  served the remaining %zu requests (%s); shard 0 rejoined "
                "as a fresh pair in term %llu (%s); %s -> %s\n",
                workload.ops.size() - half,
                cl_resumed.status.ok() ? "ok"
                                       : cl_resumed.status.message().c_str(),
                static_cast<unsigned long long>(cl.ShardTerm(0)),
                rejoined.ok() ? "ok" : rejoined.message().c_str(),
                FormatIPv4(workload.load_items.front().first).c_str(),
                cl_check ? kCountries[*cl_check % std::size(kCountries)]
                         : "MISSING");
    all_ok = all_ok && cl.failovers() == 1 && !stale.ok() &&
             cl_resumed.status.ok() && rejoined.ok() && cl_check.has_value();
  }

  if (const int rc = observability.Finish()) return rc;
  return all_ok ? 0 : 1;
}
