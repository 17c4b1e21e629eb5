#include "dcartc/parallel_runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "common/simd.h"
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

/// Record every leaf under `ref` in `table`.
void InstallLeaves(art::NodeRef ref, ShortcutTable& table) {
  if (ref.IsLeaf()) {
    art::Leaf* leaf = ref.AsLeaf();
    table.Insert(HashKey(leaf->key()), leaf);
    return;
  }
  art::EnumerateChildren(ref.AsNode(), [&table](std::uint8_t,
                                                art::NodeRef child) {
    InstallLeaves(child, table);
    return true;
  });
}

}  // namespace

// --------------------------------------------------------- ShortcutTable --

art::Leaf* ShortcutTable::Find(std::uint64_t hash) const {
  if (size_ == 0) return nullptr;
  hash = Normalize(hash);
#if DCART_SIMD_X86
  if (simd::HasAvx2()) {
    // Four-lane probe.  Correctness leans on two linear-probing facts:
    //   1. A live entry never sits past a truly-empty slot on its home
    //      chain (inserts fill a tombstone or the chain's first empty
    //      slot, and Erase never re-empties — it only tombstones), so the
    //      first zero lane terminates the probe.
    //   2. The live entry for `hash` precedes any same-hash tombstone that
    //      a probe could otherwise mistake for a miss, because Insert
    //      reuses the FIRST tombstone on the chain.  Equal lanes are
    //      therefore examined in ascending order, skipping tombstones.
    // The load factor cap in Insert guarantees empty slots exist, so the
    // stride-4 walk over consecutive lane groups always terminates.
    std::size_t i = hash & mask_;
    for (;;) {
      const simd::HashLanes4 lanes = simd::MatchHash4(&hashes_[i], hash);
      for (unsigned m = lanes.eq | lanes.zero; m != 0; m &= m - 1) {
        const auto j = static_cast<unsigned>(__builtin_ctz(m));
        if ((lanes.zero >> j) & 1u) return nullptr;
        const std::size_t idx = (i + j) & mask_;  // mirror lane -> real slot
        if (leaves_[idx] != nullptr) return leaves_[idx];
      }
      i = (i + 4) & mask_;
    }
  }
#endif
  for (std::size_t i = hash & mask_; hashes_[i] != 0; i = (i + 1) & mask_) {
    if (hashes_[i] == hash && leaves_[i] != nullptr) return leaves_[i];
  }
  return nullptr;
}

void ShortcutTable::Insert(std::uint64_t hash, art::Leaf* leaf) {
  if ((live_ + tombs_ + 1) * 4 > size_ * 3) Grow();
  hash = Normalize(hash);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t tomb = kNone;
  std::size_t i = hash & mask_;
  for (; hashes_[i] != 0; i = (i + 1) & mask_) {
    if (hashes_[i] == hash && leaves_[i] != nullptr) {
      leaves_[i] = leaf;  // refresh in place
      return;
    }
    if (leaves_[i] == nullptr && tomb == kNone) tomb = i;
  }
  if (tomb != kNone) {
    SetHash(tomb, hash);
    leaves_[tomb] = leaf;
    --tombs_;
  } else {
    SetHash(i, hash);
    leaves_[i] = leaf;
  }
  ++live_;
}

void ShortcutTable::Erase(std::uint64_t hash) {
  if (size_ == 0) return;
  hash = Normalize(hash);
  for (std::size_t i = hash & mask_; hashes_[i] != 0; i = (i + 1) & mask_) {
    if (hashes_[i] == hash && leaves_[i] != nullptr) {
      leaves_[i] = nullptr;  // tombstone: probes continue past it
      --live_;
      ++tombs_;
      return;
    }
  }
}

void ShortcutTable::Grow() {
  std::size_t capacity = size_ == 0 ? 64 : size_;
  while ((live_ + 1) * 2 >= capacity) capacity *= 2;
  std::vector<std::uint64_t> old_hashes;
  std::vector<art::Leaf*> old_leaves;
  old_hashes.swap(hashes_);
  old_leaves.swap(leaves_);
  const std::size_t old_size = size_;
  size_ = capacity;
  mask_ = capacity - 1;
  hashes_.assign(capacity + kPad, 0);
  leaves_.assign(capacity, nullptr);
  tombs_ = 0;
  for (std::size_t k = 0; k < old_size; ++k) {
    if (old_hashes[k] == 0 || old_leaves[k] == nullptr) continue;
    std::size_t i = old_hashes[k] & mask_;
    while (hashes_[i] != 0) i = (i + 1) & mask_;
    SetHash(i, old_hashes[k]);
    leaves_[i] = old_leaves[k];
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
  // descent just to install the entry.
  Key root_path;
  art::Node* root = RefreshPartition(root_path);
  if (root == nullptr) return;
  art::EnumerateChildren(root, [this](std::uint8_t byte, art::NodeRef child) {
    InstallLeaves(child, shortcut_tables_[byte]);
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

void DcartCpEngine::EraseShortcutEverywhere(std::uint64_t key_hash) {
  for (auto& [byte, table] : shortcut_tables_) table.Erase(key_hash);
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
      EraseShortcutEverywhere(HashKey(op.key));
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
  std::vector<std::uint32_t>& deferred = deferred_;  // no parallel-safe home
  deferred.clear();
  // Serial, once per batch — workers never reach across buckets for the
  // root path.
  Key root_path;
  art::Node* root_node = RefreshPartition(root_path);
  if (root_node == nullptr) {
    // Empty or single-key tree: nothing to shard over.  Everything runs in
    // the serial phase below; the first inserts grow a root to shard on.
    deferred.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      deferred.push_back(static_cast<std::uint32_t>(i));
    }
    phases.combine_seconds += SecondsSince(combine_start);
    if (tracing) {
      tracer.RecordSpan("combine", "combine", combine_ts,
                        tracer.NowUs() - combine_ts, "ops",
                        static_cast<std::uint64_t>(end - begin));
    }
    const auto trigger_start = std::chrono::steady_clock::now();
    const double serial_ts = tracing ? tracer.NowUs() : 0.0;
    for (std::uint32_t idx : deferred) ApplySerial(ops[idx], result);
    if (tracing) {
      tracer.RecordSpan("trigger-serial", "trigger", serial_ts,
                        tracer.NowUs() - serial_ts, "ops",
                        static_cast<std::uint64_t>(deferred.size()));
    }
    phases.trigger_seconds += SecondsSince(trigger_start);
    return;
  }
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
    // Scans cross bucket boundaries; keys that exhaust or diverge inside
    // the root's compressed path need a root restructure to insert.  Both
    // go to the serial phase — and keep per-key order, because every other
    // operation on such a key classifies identically.
    const bool shardable =
        key.size() > prefix_offset &&
        std::equal(root_path.begin(), root_path.end(), key.begin());
    bool defer = op.type == OpType::kScan || !shardable;
    // Injected mis-classification: let a scan leak into a bucket so the
    // parallel Trigger's invariant-breach recovery can be exercised.
    if (defer && op.type == OpType::kScan && shardable &&
        resilience::FaultCheck(resilience::FaultSite::kScanDeferLeak)) {
      defer = false;
    }
    if (defer) {
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
      deferred.push_back(static_cast<std::uint32_t>(i));
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
      // (prefetching the key buffers ahead), then process the bucket in
      // groups of kGroup, warming each group's table slots and then its
      // candidate leaves in staged passes before executing.  One at a
      // time, probe -> leaf (one block: the key follows the value) is a
      // serial dependent chain of cache misses; staged over a group the
      // misses overlap.
      // The warming passes are pure cache hints: the execute pass re-probes
      // the (now cached) table per operation, so in-group mutations —
      // installs, erases, removes — are observed exactly as in a naive
      // in-order walk.  Leaf dereferences during warming are safe because
      // reclaims happen only in execute passes, which erase the table
      // entry first; every pointer a warm pass reads is live at that point.
      std::vector<std::uint64_t>& hashes = wr.hashes;
      hashes.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        // Bucketing strides through the batch, so the Operation structs
        // are as cold as the key buffers they point at: warm the struct
        // first, its key bytes once the struct line has arrived.
        if (j + 16 < n) __builtin_prefetch(&ops[idxs[j + 16]]);
        if (j + 8 < n) __builtin_prefetch(ops[idxs[j + 8]].key.data());
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
        warm[k] = table.Find(hashes[g + k]);
        if (warm[k] != nullptr) __builtin_prefetch(warm[k]);
      }
      if (tracing) {
        const double now_us = tracer.NowUs();
        traverse_us += now_us - mark_us;
        mark_us = now_us;
      }
      // Until something in this group mutates the table (a miss install, a
      // collision evict, a remove), the warm pass's answers are still the
      // authoritative ones, so the common all-hits group never probes
      // twice.  Any mutation flips `dirty` and the rest of the group drops
      // back to re-probing.  Leaf reclaims also always mutate (they erase
      // the table entry first), so a trusted warm pointer is never stale.
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
        // any leaf reclamation, so stored pointers never dangle; a
        // mismatch is a hash collision and evicts the squatter.
        art::Leaf* leaf = nullptr;
        art::Leaf* candidate = dirty ? table.Find(key_hash) : warm[j - g];
        if (candidate != nullptr) {
          if (KeysEqual(candidate->key(), op.key)) {
            leaf = candidate;
            ++wr.shortcut_hits;
          } else {
            table.Erase(key_hash);
            dirty = true;
          }
        }

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
            table.Erase(key_hash);
            dirty = true;
            if (tree_.RemoveInSubtree(bucket.slot, depth, op.key)) {
              --wr.net_size;
            }
            break;
          }
          case OpType::kScan:
            // A scan leaked past combine classification (only possible
            // under injected mis-classification).  This used to be
            // assert(false) — a no-op in NDEBUG builds that then ran the
            // scan unsynchronized across bucket boundaries.  Recover
            // instead: bounce the op (pinning its key, so later batch ops
            // on it follow) to the serial phase and record the breach,
            // which Run() surfaces as a Status error.
            wr.deferred.push_back(idx);
            deferred_keys.insert(key_hash);
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
  pool_->RunParallel(workers, worker_body);

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
    metrics.deferred_ops->Add(wr.deferred.size());
  }
  metrics.deferred_ops->Add(deferred.size());
  metrics.batches->Increment();
  tree_.AdjustSize(net_size);
  phases.traverse_seconds += SecondsSince(parallel_start);

  // ------------------------------------------------- Serial catch-up -----
  // Combine-deferred operations, then each worker's bounces.  The two
  // classes never share a key, and each list is in arrival order, so
  // per-key order holds globally.
  const auto trigger_start = std::chrono::steady_clock::now();
  const double serial_ts = tracing ? tracer.NowUs() : 0.0;
  for (std::uint32_t idx : deferred) ApplySerial(ops[idx], result);
  for (const WorkerResult& wr : worker_results) {
    for (std::uint32_t idx : wr.deferred) ApplySerial(ops[idx], result);
  }
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

  if (config.faults.Enabled()) {
    resilience::FaultInjector::Global().Arm(config.faults);
  }

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
