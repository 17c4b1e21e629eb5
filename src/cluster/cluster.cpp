#include "cluster/cluster.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace dcart::cluster {

namespace {

/// Process-wide cluster counters (docs/OBSERVABILITY.md).
struct ClusterMetrics {
  obs::Counter* failovers = DCART_METRIC_COUNTER("cluster.failovers");
  obs::Counter* fenced_promotes =
      DCART_METRIC_COUNTER("cluster.fenced_promotes");
  obs::Counter* degraded_ranges =
      DCART_METRIC_COUNTER("cluster.degraded_ranges");
  obs::Counter* heartbeat_misses =
      DCART_METRIC_COUNTER("cluster.heartbeat_misses");
};

ClusterMetrics& Metrics() {
  static ClusterMetrics metrics;
  return metrics;
}

std::string ByteRangeLabel(std::uint8_t lo, std::uint8_t hi) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "[0x%02x, 0x%02x]", lo, hi);
  return buffer;
}

}  // namespace

// ------------------------------------------------------------ construction --

ClusterEngine::ClusterEngine(ClusterOptions options)
    : options_(std::move(options)) {
  options_.shards = std::max<std::size_t>(1, options_.shards);
  // A usable (uniform) topology before Load(): boundaries rebalance when the
  // bulk load arrives, but Run/Lookup on a fresh engine must already route.
  BuildShards(std::vector<std::uint64_t>(256, 0));
}

ClusterEngine::~ClusterEngine() = default;

std::unique_ptr<resilience::ReplicatedEngine> ClusterEngine::MakePair(
    std::size_t shard_index, std::uint64_t term) const {
  resilience::ReplicationOptions pair_options = options_.replication;
  // A fresh subdirectory per (shard, term): the fenced old epoch's files can
  // never shadow — or be clobbered by — the new owner's.
  pair_options.dir =
      options_.dir.empty()
          ? std::string{}
          : options_.dir + "/shard-" + std::to_string(shard_index) +
                "/epoch-" + std::to_string(term);
  return std::make_unique<resilience::ReplicatedEngine>(pair_options);
}

void ClusterEngine::BuildShards(const std::vector<std::uint64_t>& histogram) {
  const std::vector<std::uint8_t> bounds =
      BalancedPrefixBoundaries(histogram, options_.shards);
  shards_.clear();
  shards_.reserve(bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    Shard shard;
    shard.lo = bounds[i];
    shard.hi = i + 1 < bounds.size()
                   ? static_cast<std::uint8_t>(bounds[i + 1] - 1)
                   : std::uint8_t{0xff};
    shard.watchdog = Watchdog(i);
    shard.pair = MakePair(i, shard.term);
    shards_.push_back(std::move(shard));
  }
}

void ClusterEngine::Load(
    const std::vector<std::pair<Key, art::Value>>& items) {
  std::vector<std::uint64_t> histogram(256, 0);
  for (const auto& [key, value] : items) {
    ++histogram[key.empty() ? 0 : key[0]];
  }
  BuildShards(histogram);
  std::vector<std::vector<std::pair<Key, art::Value>>> slices(shards_.size());
  for (const auto& item : items) {
    slices[RouteShard(item.first)].push_back(item);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].pair->Load(slices[i]);
  }
}

// ----------------------------------------------------------------- routing --

std::size_t ClusterEngine::RouteByte(std::uint8_t first) const {
  // Ranges tile the byte space in order; binary-search the owning shard.
  std::size_t lo = 0;
  std::size_t hi = shards_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (shards_[mid].lo <= first) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::size_t ClusterEngine::RouteShard(KeyView key) const {
  return RouteByte(key.empty() ? 0 : key[0]);
}

std::pair<std::uint8_t, std::uint8_t> ClusterEngine::ShardRange(
    std::size_t i) const {
  return {shards_[i].lo, shards_[i].hi};
}

// --------------------------------------------------------------- execution --

void ClusterEngine::MarkDegraded(std::size_t i, std::size_t refused_ops,
                                 ExecutionResult& result,
                                 std::set<std::size_t>& reported) const {
  result.partial = true;
  result.unavailable_ops += refused_ops;
  if (reported.insert(i).second) {
    Metrics().degraded_ranges->Increment();
    result.status.Update(Status::TypedError(
        StatusCode::kUnavailable,
        "key range " + ByteRangeLabel(shards_[i].lo, shards_[i].hi) +
            " unavailable: shard " + std::to_string(i) +
            " has no serving member"));
  }
}

ExecutionResult ClusterEngine::RunOnShard(std::size_t i,
                                          std::span<const Operation> sub,
                                          const RunConfig& config) {
  ExecutionResult result = shards_[i].pair->Run(sub, config);
  // A refused request is the caller's to fix; the shard is healthy.
  if (result.status.ok() ||
      result.status.code() == StatusCode::kInvalidArgument) {
    return result;
  }
  if (!shards_[i].pair->promoted()) {
    // The primary crashed (or its link wedged) mid-sub-batch.  Fail over and
    // retry the whole sub-batch once: the acked prefix is replica-durable
    // and every op is an idempotent upsert/remove/read, so the re-execution
    // converges to exactly the state a crash-free run would have produced.
    const Status failed_over = FailOverShard(i);
    if (shards_[i].pair->promoted()) {
      ExecutionResult retry = shards_[i].pair->Run(sub, config);
      retry.status.Update(failed_over.ok() ? Status::Ok() : failed_over);
      return retry;
    }
  }
  // No replica to promote: the range degrades.
  shards_[i].down = true;
  return result;
}

void ClusterEngine::RunScan(const Operation& op, ExecutionResult& result,
                            std::set<std::size_t>& reported) {
  std::uint64_t remaining = std::max<std::uint32_t>(1, op.scan_count);
  bool first = true;
  for (std::size_t i = RouteShard(op.key); i < shards_.size() && remaining > 0;
       ++i) {
    if (shards_[i].down) {
      // This slice of the range is dark.  Skip it, keep gathering from the
      // shards above — the caller sees partial=true and the typed status.
      MarkDegraded(i, 0, result, reported);
      first = false;
      continue;
    }
    const KeyView from = first ? KeyView(op.key) : KeyView{};
    shards_[i].pair->tree().ScanFrom(
        from, [&result, &remaining](KeyView, art::Value) {
          ++result.stats.scan_entries;
          return --remaining > 0;
        });
    first = false;
  }
  ++result.stats.operations;
}

ExecutionResult ClusterEngine::Run(std::span<const Operation> ops,
                                   const RunConfig& config) {
  ExecutionResult result;
  result.platform = "cpu";
  result.wallclock = true;

  std::set<std::size_t> reported;  // shards already reported degraded
  const std::size_t batch_size = std::max<std::size_t>(1, config.batch_size);
  std::vector<std::vector<Operation>> sub(shards_.size());
  std::vector<std::size_t> scans;
  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);

    // Partition the batch.  Per-shard order is preserved; reordering across
    // shards is invisible because the directory makes their ranges disjoint.
    {
      obs::ScopedSpan span("cluster.route", "cluster", "ops", end - begin);
      for (auto& bucket : sub) bucket.clear();
      scans.clear();
      for (std::size_t k = begin; k < end; ++k) {
        if (ops[k].type == OpType::kScan) {
          scans.push_back(k);  // gathered below
          continue;
        }
        sub[RouteShard(ops[k].key)].push_back(ops[k]);
      }
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (sub[i].empty()) continue;
      if (shards_[i].down) {
        MarkDegraded(i, sub[i].size(), result, reported);
        continue;
      }
      result.Merge(RunOnShard(i, sub[i], config));
    }
    // Scans after every point op of the batch, so a scan observes all of
    // its batch's writes: the batch contract DCART-CP keeps inside each
    // pair too (docs/ARCHITECTURE.md, "The batch contract").
    if (!scans.empty()) {
      obs::ScopedSpan span("cluster.gather", "cluster", "scans", scans.size());
      for (const std::size_t k : scans) {
        RunScan(ops[k], result, reported);
        ++result.ops_acknowledged;  // pure read; nothing to make durable
      }
    }
    Tick();
  }
  return result;
}

std::optional<art::Value> ClusterEngine::Lookup(KeyView key) const {
  const Shard& shard = shards_[RouteShard(key)];
  if (shard.down) return std::nullopt;
  return shard.pair->Lookup(key);
}

// ------------------------------------------------------ liveness & failover --

void ClusterEngine::Tick() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    if (shard.down) continue;
    shard.pair->SendHeartbeat();
    shard.pair->PumpIdle();
    const bool fresh = shard.pair->replica_heartbeat_age() <= kStaleAfterTicks;
    if (!fresh) {
      ++heartbeat_misses_;
      Metrics().heartbeat_misses->Increment();
    }
    const WatchdogState verdict =
        shard.watchdog.Observe(fresh, shard.pair->link().now());
    if (verdict == WatchdogState::kFailover && !shard.pair->promoted()) {
      // The failover Status is advisory here (a degraded promotion still
      // serves); Run()'s per-op statuses carry anything that matters.
      (void)FailOverShard(i);
    }
  }
}

Status ClusterEngine::FailOverShard(std::size_t i) {
  if (i >= shards_.size()) {
    return Status::Error("no such shard: " + std::to_string(i));
  }
  Shard& shard = shards_[i];
  if (shard.pair->promoted()) {
    // A duplicate failover must not bump the term again: the term names the
    // epoch, and this replica already owns the current one.
    return Status::TypedError(
        StatusCode::kAlreadyPromoted,
        "shard " + std::to_string(i) + " already failed over in term " +
            std::to_string(shard.term));
  }
  const Status promoted = shard.pair->Promote();
  if (!shard.pair->promoted()) {
    return promoted;  // genuinely failed promotion; the epoch is unchanged
  }
  ++shard.term;  // the new epoch: every stale-term caller is now fenced
  ++failovers_;
  Metrics().failovers->Increment();
  shard.watchdog.Reset();
  return promoted;
}

Status ClusterEngine::PromoteShard(std::size_t i, std::uint64_t expected_term) {
  if (i >= shards_.size()) {
    return Status::Error("no such shard: " + std::to_string(i));
  }
  if (expected_term != shards_[i].term) {
    ++fenced_promotes_;
    Metrics().fenced_promotes->Increment();
    return Status::TypedError(
        StatusCode::kFenced,
        "promotion fenced: caller holds term " +
            std::to_string(expected_term) + " but shard " + std::to_string(i) +
            " is at term " + std::to_string(shards_[i].term));
  }
  return FailOverShard(i);
}

Status ClusterEngine::ExecuteFenced(std::size_t i, std::uint64_t term,
                                    std::span<const Operation> ops,
                                    const RunConfig& config,
                                    ExecutionResult& out) {
  if (i >= shards_.size()) {
    return Status::Error("no such shard: " + std::to_string(i));
  }
  if (term != shards_[i].term) {
    ++fenced_promotes_;
    Metrics().fenced_promotes->Increment();
    return Status::TypedError(
        StatusCode::kFenced,
        "execution fenced: caller holds term " + std::to_string(term) +
            " but shard " + std::to_string(i) + " is at term " +
            std::to_string(shards_[i].term));
  }
  if (shards_[i].down) {
    return Status::TypedError(
        StatusCode::kUnavailable,
        "shard " + std::to_string(i) + " has no serving member");
  }
  out = RunOnShard(i, ops, config);
  return Status::Ok();
}

Status ClusterEngine::RejoinShard(std::size_t i) {
  if (i >= shards_.size()) {
    return Status::Error("no such shard: " + std::to_string(i));
  }
  Shard& shard = shards_[i];
  if (shard.down) {
    return Status::TypedError(
        StatusCode::kUnavailable,
        "shard " + std::to_string(i) + " has no serving member to seed from");
  }
  // Harvest the serving tree, then rebuild the pair in a fresh epoch: the
  // revived box becomes the new replica, bootstrapped by the snapshot sync.
  const auto items = resilience::TreeItems(shard.pair->tree());
  ++shard.term;
  shard.pair = MakePair(i, shard.term);
  shard.pair->Load(items);
  shard.watchdog.Reset();
  return Status::Ok();
}

void ClusterEngine::KillShardPrimary(std::size_t i) {
  shards_[i].pair->KillPrimary();
}

void ClusterEngine::KillShard(std::size_t i) { shards_[i].down = true; }

void ClusterEngine::ReviveShard(std::size_t i) { shards_[i].down = false; }

// --------------------------------------------------------------- rebalance --

Status ClusterEngine::SplitShard(std::size_t i) {
  if (i >= shards_.size()) {
    return Status::Error("no such shard: " + std::to_string(i));
  }
  if (shards_[i].down) {
    return Status::TypedError(
        StatusCode::kUnavailable,
        "cannot split shard " + std::to_string(i) + ": no serving member");
  }
  if (shards_[i].lo >= shards_[i].hi) {
    return Status::Error("shard " + std::to_string(i) +
                         " owns a single byte; nothing to split");
  }
  // Cut at the weighted median of the serving tree's first-byte load, so the
  // split actually halves the shard's weight, not just its byte span.
  std::array<std::uint64_t, 256> histogram{};
  std::uint64_t weight = 0;
  shards_[i].pair->tree().ScanFrom(
      {}, [&histogram, &weight](KeyView key, art::Value) {
        ++histogram[key.empty() ? 0 : key[0]];
        ++weight;
        return true;
      });
  std::uint8_t mid = static_cast<std::uint8_t>(
      (static_cast<unsigned>(shards_[i].lo) + shards_[i].hi) / 2 + 1);
  if (weight > 0) {
    std::uint64_t cum = 0;
    for (unsigned b = shards_[i].lo; b <= shards_[i].hi; ++b) {
      cum += histogram[b];
      if (cum * 2 >= weight) {
        mid = static_cast<std::uint8_t>(
            std::clamp<unsigned>(b + 1, shards_[i].lo + 1u, shards_[i].hi));
        break;
      }
    }
  }

  // Phase 1 — copy: journaled writes of the moving range into a fresh pair.
  // A crash here aborts the split with the directory untouched; the copy is
  // discarded and the donor still owns (and serves) the whole range.
  std::vector<Operation> moved;
  shards_[i].pair->tree().ScanFrom(
      {}, [&moved, mid](KeyView key, art::Value value) {
        if (!key.empty() && key[0] >= mid) {
          Operation op;
          op.type = OpType::kWrite;
          op.key.assign(key.begin(), key.end());
          op.value = value;
          moved.push_back(std::move(op));
        }
        return true;
      });
  Shard fresh;
  fresh.lo = mid;
  fresh.hi = shards_[i].hi;
  fresh.watchdog = Watchdog(shards_.size());
  fresh.pair = MakePair(shards_.size(), fresh.term);
  fresh.pair->Load({});
  const RunConfig split_config;
  ExecutionResult copy = fresh.pair->Run(moved, split_config);
  if (!copy.status.ok()) {
    Status aborted = Status::Error(
        "shard split aborted in the copy phase; the donor still owns " +
        ByteRangeLabel(shards_[i].lo, shards_[i].hi) + " and the split can "
        "be retried");
    aborted.Update(copy.status);
    return aborted;
  }

  // Phase 2 — flip the directory: ownership moves atomically (one vector
  // insert in this single-threaded control plane).  From here on, reads and
  // writes for [mid, hi] route to the new shard.
  shards_[i].hi = static_cast<std::uint8_t>(mid - 1);
  shards_.insert(shards_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                 std::move(fresh));

  // Phase 3 — retire the moved range from the donor.  A crash here leaves
  // unowned duplicates behind the directory (never routed to, excluded from
  // ContentsTree); RunOnShard's failover/retry makes even that window small.
  std::vector<Operation> removes;
  removes.reserve(moved.size());
  for (const Operation& op : moved) {
    Operation rm;
    rm.type = OpType::kRemove;
    rm.key = op.key;
    removes.push_back(std::move(rm));
  }
  ExecutionResult retire = RunOnShard(i, removes, split_config);
  if (!retire.status.ok()) {
    Status leftover = Status::Error(
        "shard split completed but the donor kept unowned duplicates of " +
        ByteRangeLabel(mid, shards_[i + 1].hi) +
        " (harmless: the directory never routes to them)");
    leftover.Update(retire.status);
    return leftover;
  }
  return Status::Ok();
}

// ------------------------------------------------------------- observation --

art::Tree ClusterEngine::ContentsTree() const {
  art::Tree out;
  for (const Shard& shard : shards_) {
    if (shard.down) continue;
    shard.pair->tree().ScanFrom(
        {}, [&out, &shard](KeyView key, art::Value value) {
          const std::uint8_t first = key.empty() ? 0 : key[0];
          // Filter to the owned range: rebalance leftovers are not contents.
          if (first >= shard.lo && first <= shard.hi) {
            out.Insert(Key(key.begin(), key.end()), value);
          }
          return true;
        });
  }
  return out;
}

}  // namespace dcart::cluster
