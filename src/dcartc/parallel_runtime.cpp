#include "dcartc/parallel_runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault_injector.h"

namespace dcart::dcartc {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Pre-resolved registry handles.  Resolution (which takes the registry
// mutex) happens exactly once, on the coordinator thread; workers never see
// anything but their private WorkerResult — the coordinator publishes the
// merged totals after the join (DL006 keeps registry lookups out of this
// file's hot paths).
struct RuntimeMetrics {
  obs::Counter* shortcut_hits = DCART_METRIC_COUNTER("dcartc.shortcut_hits");
  obs::Counter* shortcut_misses =
      DCART_METRIC_COUNTER("dcartc.shortcut_misses");
  obs::Counter* deferred_ops = DCART_METRIC_COUNTER("dcartc.deferred_ops");
  obs::Counter* invariant_breaches =
      DCART_METRIC_COUNTER("dcartc.invariant_breaches");
  obs::Counter* batches = DCART_METRIC_COUNTER("dcartc.batches");
};

RuntimeMetrics& Metrics() {
  static RuntimeMetrics metrics;
  return metrics;
}

/// Append every leaf under `ref` to `out`.
void CollectLeaves(art::NodeRef ref, std::vector<art::Leaf*>& out) {
  if (ref.IsLeaf()) {
    out.push_back(ref.AsLeaf());
    return;
  }
  art::EnumerateChildren(ref.AsNode(), [&out](std::uint8_t,
                                              art::NodeRef child) {
    CollectLeaves(child, out);
    return true;
  });
}

}  // namespace

// --------------------------------------------------------- ShortcutTable --

std::size_t ShortcutTable::NextCandidate(std::uint64_t hash,
                                         std::size_t i) const {
  // The load cap in Insert keeps empty slots, so every chain ends.
  const std::uint64_t tag = Tag(hash);
  for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
    if (Tag(slots_[i]) == tag && slots_[i] != kTomb) return i;
  }
  return kNone;
}

std::size_t ShortcutTable::Locate(std::uint64_t hash, KeyView key) const {
  if (slots_.empty()) return kNone;
  for (std::size_t i = NextCandidate(hash, hash & mask_); i != kNone;
       i = NextCandidate(hash, (i + 1) & mask_)) {
    if (KeysEqual(LeafOf(slots_[i])->key(), key)) return i;
  }
  return kNone;
}

art::Leaf* ShortcutTable::Find(std::uint64_t hash, KeyView key) const {
  const std::size_t i = Locate(hash, key);
  return i == kNone ? nullptr : LeafOf(slots_[i]);
}

art::Leaf* ShortcutTable::Candidate(std::uint64_t hash) const {
  if (slots_.empty()) return nullptr;
  const std::size_t i = NextCandidate(hash, hash & mask_);
  return i == kNone ? nullptr : LeafOf(slots_[i]);
}

void ShortcutTable::Insert(std::uint64_t hash, art::Leaf* leaf) {
  const auto address = reinterpret_cast<std::uintptr_t>(leaf);
  if (address > kLeafMask) return;  // no room for the tag: stay uncached
  if ((live_ + tombs_ + 1) * 4 > slots_.size() * 3) {
    std::size_t capacity = std::max<std::size_t>(64, slots_.size());
    while ((live_ + 1) * 2 >= capacity) capacity *= 2;
    Rehash(capacity);
  }
  // The first free slot on the chain: a tombstone or the chain's end.
  std::size_t i = hash & mask_;
  while (slots_[i] > kTomb) i = (i + 1) & mask_;
  if (slots_[i] == kTomb) --tombs_;
  slots_[i] = Tag(hash) | address;
  ++live_;
}

void ShortcutTable::Erase(std::uint64_t hash, KeyView key) {
  const std::size_t i = Locate(hash, key);
  if (i == kNone) return;
  slots_[i] = kTomb;  // probes continue past it
  --live_;
  ++tombs_;
}

void ShortcutTable::Reserve(std::size_t entries) {
  std::size_t capacity = 64;
  while (entries * 4 > capacity * 3) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

void ShortcutTable::Rehash(std::size_t capacity) {
  // Slots keep only the tag, so each entry's home comes from its leaf's key.
  std::vector<std::uint64_t> old(capacity, kEmpty);
  old.swap(slots_);
  mask_ = capacity - 1;
  tombs_ = 0;
  for (const std::uint64_t slot : old) {
    if (slot == kEmpty || slot == kTomb) continue;
    std::size_t i = HashKey(LeafOf(slot)->key()) & mask_;
    while (slots_[i] != kEmpty) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

// --------------------------------------------------------- DcartCpEngine --

/// One root-child subtree's share of the batch.
struct DcartCpEngine::Bucket {
  unsigned byte = 0;             // the root branch byte this bucket owns
  art::NodeRef* slot = nullptr;  // the root's child entry for `byte`
  // The byte's persistent shortcut table.  Resolved serially in the
  // combine phase so workers never touch the engine's outer table map
  // (whose rehashing would race).
  ShortcutTable* table = nullptr;
  std::vector<std::uint32_t> op_indices;  // batch-relative, arrival order
};

/// Everything a worker accumulates privately and the coordinator merges
/// after the join (the tree itself carries no counters during the phase).
struct DcartCpEngine::WorkerResult {
  std::ptrdiff_t net_size = 0;
  std::uint64_t operations = 0;
  std::uint64_t reads_hit = 0;
  std::uint64_t shortcut_hits = 0;
  std::uint64_t shortcut_misses = 0;
  std::uint64_t invariant_breaches = 0;  // mis-classified ops bounced serial
  std::vector<std::uint32_t> deferred;  // ops bounced to the serial phase
  std::vector<std::uint64_t> hashes;    // per-bucket scratch (reused)
};

DcartCpEngine::DcartCpEngine() = default;

DcartCpEngine::~DcartCpEngine() = default;

void DcartCpEngine::Load(const std::vector<std::pair<Key, art::Value>>& items) {
  art::Tree tree;
  for (const auto& [key, value] : items) tree.Insert(key, value);
  Load(std::move(tree));
}

void DcartCpEngine::Load(art::Tree tree) {
  tree_ = std::move(tree);
  // The new root can reuse the address of an old root freed since the last
  // batch, which RefreshPartition would take for an unchanged partition:
  // drop every table and the signature so no entry outlives its leaf.
  shortcut_tables_.clear();
  partition_root_ = 0;
  partition_offset_ = 0;
  // Pre-warm the shortcut tables with every loaded key (the paper loads the
  // Shortcut_Table alongside the tree image).  This is off the measured
  // clock: without it the first touch of each key during Run() pays a full
  // descent just to install the entry.  Each table is sized once for its
  // subtree, because growing rehashes by reading every entry's leaf.
  Key root_path;
  art::Node* root = RefreshPartition(root_path);
  if (root == nullptr) return;
  std::vector<art::Leaf*> leaves;
  art::EnumerateChildren(root, [this, &leaves](std::uint8_t byte,
                                               art::NodeRef child) {
    leaves.clear();
    CollectLeaves(child, leaves);
    ShortcutTable& table = shortcut_tables_[byte];
    table.Reserve(leaves.size());
    for (art::Leaf* leaf : leaves) table.Insert(HashKey(leaf->key()), leaf);
    return true;
  });
}

art::Node* DcartCpEngine::RefreshPartition(Key& root_path) {
  const art::NodeRef root = tree_.root();
  if (!root.IsNode()) return nullptr;
  art::Node* root_node = root.AsNode();
  const std::size_t prefix_offset = root_node->prefix_len;

  // Recover the root's full compressed path (the paper's PCU reads this
  // from a host-set register): stored bytes first, the tail from the
  // subtree minimum.
  root_path.assign(prefix_offset, 0);
  for (std::size_t i = 0;
       i < std::min<std::size_t>(prefix_offset, root_node->stored_prefix_len);
       ++i) {
    root_path[i] = root_node->prefix[i];
  }
  if (prefix_offset > root_node->stored_prefix_len) {
    const art::Leaf* min_leaf = art::Minimum(root);
    for (std::size_t i = root_node->stored_prefix_len; i < prefix_offset;
         ++i) {
      root_path[i] = min_leaf->key()[i];
    }
  }

  // A changed partition (root replaced by growth/splitting/merging, or its
  // path re-cut) re-keys every byte->subtree mapping: drop all shortcut
  // tables rather than risk serving a leaf across bucket boundaries.
  if (partition_root_ != root.raw() || partition_offset_ != prefix_offset) {
    shortcut_tables_.clear();
    partition_root_ = root.raw();
    partition_offset_ = prefix_offset;
  }
  return root_node;
}

std::optional<art::Value> DcartCpEngine::Lookup(KeyView key) const {
  return tree_.Get(key);
}

void DcartCpEngine::EraseShortcutEverywhere(KeyView key) {
  const std::uint64_t key_hash = HashKey(key);
  for (auto& [byte, table] : shortcut_tables_) table.Erase(key_hash, key);
}

void DcartCpEngine::ApplySerial(const Operation& op, ExecutionResult& result) {
  ++result.stats.operations;
  switch (op.type) {
    case OpType::kRead:
      if (tree_.Get(op.key).has_value()) ++result.reads_hit;
      break;
    case OpType::kWrite:
      tree_.Insert(op.key, op.value);
      break;
    case OpType::kRemove:
      // The key may have a shortcut entry from an earlier batch under any
      // byte table; drop it everywhere before the leaf is reclaimed.
      EraseShortcutEverywhere(op.key);
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

void DcartCpEngine::RunBatch(std::span<const Operation> ops, std::size_t begin,
                             std::size_t end, std::size_t workers,
                             ExecutionResult& result,
                             PhaseBreakdown& phases) {
  // One relaxed load per batch decides every tracing branch below; with
  // tracing off the added cost in the per-bucket loops is a dead branch.
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool tracing = tracer.enabled();

  const auto combine_start = std::chrono::steady_clock::now();
  const double combine_ts = tracing ? tracer.NowUs() : 0.0;

  // ----------------------------------------------------------- Combine ---
  // The serial phase's lists: point ops no worker can take, and the batch's
  // scans, which run after every point op.
  std::vector<std::uint32_t>& deferred = deferred_;
  std::vector<std::uint32_t>& scans = scans_;
  deferred.clear();
  scans.clear();
  // Serial, once per batch — workers never reach across buckets for the
  // root path.
  Key root_path;
  art::Node* root_node = RefreshPartition(root_path);
  const std::size_t prefix_offset = partition_offset_;

  // Byte -> pooled bucket index.  A flat array (not a map): the byte space
  // is 256 wide and this lookup runs once per operation.
  constexpr std::int32_t kUnseen = -1;
  constexpr std::int32_t kDeferredBucket = -2;
  byte_to_bucket_.fill(kUnseen);
  std::size_t active = 0;  // buckets in use this batch (pool prefix)

  for (std::size_t i = begin; i < end; ++i) {
    const Operation& op = ops[i];
    const KeyView key{op.key};
    // Scans cross bucket boundaries.  Keys that exhaust or diverge inside
    // the root's compressed path need a root restructure to insert, and
    // with no root node (an empty or one-key tree) nothing is shardable.
    // Both go to the serial phase — and keep per-key order, because every
    // other operation on such a key classifies identically.
    const bool shardable =
        root_node != nullptr && key.size() > prefix_offset &&
        std::equal(root_path.begin(), root_path.end(), key.begin());
    if (op.type == OpType::kScan) {
      // Injected mis-classification: let a scan leak into a bucket so the
      // parallel Trigger's invariant-breach recovery can be exercised.
      if (!shardable ||
          !resilience::FaultCheck(resilience::FaultSite::kScanDeferLeak)) {
        scans.push_back(static_cast<std::uint32_t>(i));
        continue;
      }
    } else if (!shardable) {
      deferred.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    const unsigned byte = key[prefix_offset];
    std::int32_t& entry = byte_to_bucket_[byte];
    if (entry == kUnseen) {
      art::NodeRef* slot = art::FindChildSlot(root_node, byte);
      if (slot == nullptr || slot->IsLeaf()) {
        // No subtree yet (inserting would AddChild on the root), or a
        // single-key subtree (a remove could empty it, which must
        // RemoveChild on the root).  Not worth a thread either way: the
        // whole byte goes serial this batch.
        entry = kDeferredBucket;
      } else {
        entry = static_cast<std::int32_t>(active);
        if (bucket_pool_.size() <= active) bucket_pool_.emplace_back();
        Bucket& bucket = bucket_pool_[active];
        bucket.byte = byte;
        bucket.slot = slot;
        bucket.table = &shortcut_tables_[byte];
        bucket.op_indices.clear();
        ++active;
      }
    }
    if (entry == kDeferredBucket) {
      (op.type == OpType::kScan ? scans : deferred)
          .push_back(static_cast<std::uint32_t>(i));
    } else {
      bucket_pool_[static_cast<std::size_t>(entry)].op_indices.push_back(
          static_cast<std::uint32_t>(i));
    }
  }
  std::vector<Bucket>& buckets = bucket_pool_;

  // Largest buckets first: the skew-dominant bucket starts immediately and
  // idle workers self-schedule the rest from the shared cursor.
  std::vector<std::size_t>& order = order_;
  order.resize(active);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&buckets](std::size_t a,
                                                   std::size_t b) {
    return buckets[a].op_indices.size() > buckets[b].op_indices.size();
  });
  phases.combine_seconds += SecondsSince(combine_start);
  if (tracing) {
    tracer.RecordSpan("combine", "combine", combine_ts,
                      tracer.NowUs() - combine_ts, "buckets",
                      static_cast<std::uint64_t>(active));
  }

  // ------------------------------------------------ Traverse + Trigger ---
  const auto parallel_start = std::chrono::steady_clock::now();
  const std::size_t depth = prefix_offset + 1;
  std::atomic<std::size_t> cursor{0};
  // No point waking more workers than there are buckets to claim.
  workers = std::max<std::size_t>(1, std::min(workers, active));
  std::vector<WorkerResult> worker_results(workers);

  const auto worker_body = [&](std::size_t w) {
    WorkerResult& wr = worker_results[w];
    for (;;) {
      const std::size_t claim =
          cursor.fetch_add(1, std::memory_order_relaxed);
      if (claim >= order.size()) break;
      Bucket& bucket = buckets[order[claim]];
      ShortcutTable& table = *bucket.table;
      const std::vector<std::uint32_t>& idxs = bucket.op_indices;
      const std::size_t n = idxs.size();
      // Per-bucket phase spans.  The group loop interleaves traversal work
      // (hashing + warm passes) with trigger work (execute passes); the two
      // spans rebuild contiguous per-phase intervals from accumulated
      // segment times, so their boundary is an attribution, not a literal
      // switch point (docs/OBSERVABILITY.md).
      double bucket_ts = 0.0, mark_us = 0.0;
      double traverse_us = 0.0, trigger_us = 0.0;
      if (tracing) bucket_ts = mark_us = tracer.NowUs();
      // Keys this bucket has bounced to the serial phase; every later
      // operation on them must follow (arrival order survives the bounce).
      std::unordered_set<std::uint64_t> deferred_keys;

      // Group-scheduled execution (AMAC-style): hash every key up front
      // (prefetching the ops ahead), then process the bucket in
      // groups of kGroup, warming each group's table slots and then its
      // candidate leaves in staged passes before executing.  One at a
      // time, probe -> leaf (one block: the key follows the value) is a
      // serial dependent chain of cache misses; staged over a group the
      // misses overlap.
      // The warming passes are pure cache hints: the execute pass confirms
      // a warm candidate by its key, or re-probes the (now cached) table
      // once the group has mutated it, so in-group mutations — installs,
      // erases, removes — are observed exactly as in a naive in-order walk.
      std::vector<std::uint64_t>& hashes = wr.hashes;
      hashes.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        // Bucketing strides through the batch, so the Operation structs
        // are cold; a short key's bytes are inside its struct.
        if (j + 16 < n) __builtin_prefetch(&ops[idxs[j + 16]]);
        hashes[j] = HashKey(ops[idxs[j]].key);
      }
      if (tracing) {
        const double now_us = tracer.NowUs();
        traverse_us += now_us - mark_us;
        mark_us = now_us;
      }

      constexpr std::size_t kGroup = 32;
      std::array<art::Leaf*, kGroup> warm;
      for (std::size_t g = 0; g < n; g += kGroup) {
      const std::size_t group_n = std::min(kGroup, n - g);
      for (std::size_t k = 0; k < group_n; ++k) {
        table.PrefetchSlot(hashes[g + k]);
      }
      for (std::size_t k = 0; k < group_n; ++k) {
        warm[k] = table.Candidate(hashes[g + k]);
        if (warm[k] != nullptr) __builtin_prefetch(warm[k]);
      }
      if (tracing) {
        const double now_us = tracer.NowUs();
        traverse_us += now_us - mark_us;
        mark_us = now_us;
      }
      // Until something in this group mutates the table (a miss install or
      // a remove), each warm candidate is still the first tag match on its
      // chain, so the common all-hits group confirms it with one key
      // compare and never probes twice; only a tag shared with another key
      // re-probes.  Any mutation flips `dirty` and the rest of the group
      // drops back to re-probing.  A reclaim erases its leaf's entry first,
      // which mutates, so a trusted warm pointer is never stale.
      bool dirty = false;
      for (std::size_t j = g; j < g + group_n; ++j) {
        const std::uint32_t idx = idxs[j];
        const Operation& op = ops[idx];
        const std::uint64_t key_hash = hashes[j];
        if (!deferred_keys.empty() && deferred_keys.count(key_hash) > 0) {
          wr.deferred.push_back(idx);
          continue;
        }

        // Probe the bucket's shortcut table.  Entries are erased before
        // any leaf reclamation, so stored pointers never dangle.
        art::Leaf* leaf = warm[j - g];
        if (dirty || (leaf != nullptr && !KeysEqual(leaf->key(), op.key))) {
          leaf = table.Find(key_hash, op.key);
        }
        if (leaf != nullptr) ++wr.shortcut_hits;

        switch (op.type) {
          case OpType::kRead:
            if (leaf == nullptr) {
              ++wr.shortcut_misses;
              leaf = tree_.FindLeafInSubtree(*bucket.slot, depth, op.key);
              if (leaf != nullptr) {
                table.Insert(key_hash, leaf);
                dirty = true;
              }
            }
            if (leaf != nullptr) ++wr.reads_hit;
            break;
          case OpType::kWrite:
            if (leaf != nullptr) {
              leaf->value = op.value;
            } else {
              ++wr.shortcut_misses;
              if (tree_.InsertInSubtree(bucket.slot, depth, op.key, op.value,
                                        &leaf)) {
                ++wr.net_size;
              }
              table.Insert(key_hash, leaf);
              dirty = true;
            }
            break;
          case OpType::kRemove: {
            if (leaf == nullptr) ++wr.shortcut_misses;
            if (bucket.slot->IsLeaf()) {
              // The subtree collapsed to its last key during this batch.
              // Deleting it would RemoveChild on the root: bounce to the
              // serial phase and pin the key there for the batch's rest.
              art::Leaf* only = bucket.slot->AsLeaf();
              if (KeysEqual(only->key(), op.key)) {
                wr.deferred.push_back(idx);
                deferred_keys.insert(key_hash);
                continue;
              }
              break;  // absent key: no-op
            }
            if (leaf != nullptr) {
              table.Erase(key_hash, op.key);
              dirty = true;
            }
            if (tree_.RemoveInSubtree(bucket.slot, depth, op.key)) {
              --wr.net_size;
            }
            break;
          }
          case OpType::kScan:
            // A scan leaked past combine classification (only possible
            // under injected mis-classification).  An assert here would
            // vanish from release builds and run the scan across bucket
            // boundaries unsynchronized, so bounce it instead: it rejoins
            // the batch's scans after the join, and pins no key because
            // no op has to follow a scan.  Run() surfaces the breach as a
            // Status error.
            wr.deferred.push_back(idx);
            ++wr.invariant_breaches;
            continue;
        }
        ++wr.operations;
      }
      if (tracing) {
        const double now_us = tracer.NowUs();
        trigger_us += now_us - mark_us;
        mark_us = now_us;
      }
      }  // group loop
      if (tracing) {
        tracer.RecordSpan("traverse", "traverse", bucket_ts, traverse_us,
                          "ops", static_cast<std::uint64_t>(n));
        tracer.RecordSpan("trigger", "trigger", bucket_ts + traverse_us,
                          trigger_us, "byte", bucket.byte);
      }
    }
  };
  if (active > 0) pool_->RunParallel(workers, worker_body);

  RuntimeMetrics& metrics = Metrics();
  std::ptrdiff_t net_size = 0;
  for (const WorkerResult& wr : worker_results) {
    net_size += wr.net_size;
    result.stats.operations += wr.operations;
    result.stats.shortcut_hits += wr.shortcut_hits;
    result.stats.shortcut_misses += wr.shortcut_misses;
    result.reads_hit += wr.reads_hit;
    result.invariant_breaches += wr.invariant_breaches;
    metrics.shortcut_hits->Add(wr.shortcut_hits);
    metrics.shortcut_misses->Add(wr.shortcut_misses);
    metrics.invariant_breaches->Add(wr.invariant_breaches);
    // A worker's bounces follow the Combine-deferred ops (the two classes
    // never share a key, and each list is in arrival order, so per-key
    // order holds globally); a leaked scan rejoins the batch's scans.
    for (std::uint32_t idx : wr.deferred) {
      (ops[idx].type == OpType::kScan ? scans : deferred).push_back(idx);
    }
  }
  metrics.deferred_ops->Add(deferred.size() + scans.size());
  metrics.batches->Increment();
  tree_.AdjustSize(net_size);
  phases.traverse_seconds += SecondsSince(parallel_start);

  // ------------------------------------------------- Serial catch-up -----
  // The deferred point ops, then the batch's scans over a tree that no op
  // of the batch still changes.
  const auto trigger_start = std::chrono::steady_clock::now();
  const double serial_ts = tracing ? tracer.NowUs() : 0.0;
  for (std::uint32_t idx : deferred) ApplySerial(ops[idx], result);
  for (std::uint32_t idx : scans) ApplySerial(ops[idx], result);
  if (tracing) {
    tracer.RecordSpan("trigger-serial", "trigger", serial_ts,
                      tracer.NowUs() - serial_ts);
  }
  phases.trigger_seconds += SecondsSince(trigger_start);
}

ExecutionResult DcartCpEngine::Run(std::span<const Operation> ops,
                                   const RunConfig& config) {
  ExecutionResult result;
  result.platform = "cpu";
  result.wallclock = true;

  std::size_t workers = config.cpu.wall_threads;
  if (workers == 0) {
    workers = std::max<unsigned>(1, std::thread::hardware_concurrency());
  }
  if (!pool_ || pool_->size() != workers) {
    pool_ = std::make_unique<ThreadPool>(workers);
  }

  LatencyHistogram* latency =
      config.collect_latency ? &result.latency_ns : nullptr;
  const std::size_t batch_size = std::max<std::size_t>(1, config.batch_size);

  double total_seconds = 0.0;
  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);
    const auto batch_start = std::chrono::steady_clock::now();
    RunBatch(ops, begin, end, workers, result, result.phase_breakdown);
    const double batch_seconds = SecondsSince(batch_start);
    total_seconds += batch_seconds;
    if (latency != nullptr) {
      latency->RecordMany(static_cast<std::uint64_t>(batch_seconds * 1e9),
                          end - begin);
    }
  }

  result.seconds = total_seconds;
  if (result.invariant_breaches > 0) {
    result.status.Update(Status::Error(
        "scan reached the parallel trigger phase (mis-classified at "
        "combine); recovered serially"));
  }
  return result;
}

}  // namespace dcart::dcartc
