// Tests for DCART-CP, the real-threads parallel CTT runtime
// (dcartc/parallel_runtime.h).  The load-bearing property: running any
// operation stream through the batched/sharded/parallel engine must leave
// the tree in EXACTLY the state a serial op-for-op ART replay produces —
// including the per-key read-hit pattern, which is sensitive to per-key
// operation order surviving the deferral protocol.  The stress test is the
// designated ThreadSanitizer target (see DCART_TSAN in CMakeLists.txt).
// The ShortcutTable suite checks the per-bucket table against a std::map
// model; keys whose hashes share a slot tag are found by brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/key_codec.h"
#include "common/rng.h"
#include "dcartc/parallel_runtime.h"
#include "oracle.h"
#include "workload/generators.h"

namespace dcart {
namespace {

/// Groups of at least `min_size` of the keys EncodeU64(top << 56 | x_i),
/// x_i = i * stride mod 2^56 for i < count, whose HashKeys agree in the top
/// 16 bits (the tag a ShortcutTable slot keeps) and in the low `home_bits`
/// bits (so they share a home slot in every table of up to 2^home_bits
/// slots).  Nearby integers hash with structure, so a test that needs many
/// groups per leading byte spreads its keys with a large odd stride.
std::vector<std::vector<Key>> TagSharingGroups(std::uint64_t top,
                                               std::uint64_t stride,
                                               std::uint64_t count,
                                               unsigned home_bits,
                                               std::size_t min_size) {
  constexpr std::uint64_t kLow56 = (std::uint64_t{1} << 56) - 1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> signatures;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t value = top << 56 | (i * stride & kLow56);
    const std::uint64_t hash = HashKey(EncodeU64(value));
    const std::uint64_t home = hash & ((std::uint64_t{1} << home_bits) - 1);
    signatures.emplace_back((hash >> 48) << home_bits | home, value);
  }
  std::sort(signatures.begin(), signatures.end());
  std::vector<std::vector<Key>> groups;
  for (std::size_t a = 0, b = 0; a < signatures.size(); a = b) {
    while (b < signatures.size() &&
           signatures[b].first == signatures[a].first) {
      ++b;
    }
    if (b - a < min_size) continue;
    groups.emplace_back();
    for (std::size_t k = a; k < b; ++k) {
      groups.back().push_back(EncodeU64(signatures[k].second));
    }
  }
  return groups;
}

/// Groups of three or more 8-byte keys per shared tag and 64-slot home.
const std::vector<std::vector<Key>>& SharedTagGroups() {
  static const auto groups = TagSharingGroups(0, 1, 1 << 20, 6, 3);
  return groups;
}

/// A ShortcutTable beside the std::map it must agree with.  Owns the
/// leaves, and frees each one as soon as its entry is erased, so a table
/// that reads an erased entry's leaf is a use-after-free under ASan.
class ModelTable {
 public:
  ModelTable() = default;
  ModelTable(const ModelTable&) = delete;
  ModelTable& operator=(const ModelTable&) = delete;
  ~ModelTable() {
    for (auto& [key, leaf] : model_) leaf->Delete();
  }

  /// Record a fresh leaf for `key`, replacing any entry it has.
  void Insert(const Key& key, art::Value value) {
    Erase(key);
    art::Leaf* leaf = art::Leaf::New(key, value);
    table_.Insert(HashKey(key), leaf);
    model_[key] = leaf;
  }
  void Erase(const Key& key) {
    table_.Erase(HashKey(key), key);
    const auto it = model_.find(key);
    if (it == model_.end()) return;
    it->second->Delete();
    model_.erase(it);
  }
  void ExpectFinds(const Key& key) const {
    const auto it = model_.find(key);
    EXPECT_EQ(table_.Find(HashKey(key), key),
              it == model_.end() ? nullptr : it->second)
        << ToHex(key);
  }
  void ExpectFindsAll() const {
    for (const auto& [key, leaf] : model_) {
      ASSERT_EQ(table_.Find(HashKey(key), key), leaf) << ToHex(key);
    }
  }

  dcartc::ShortcutTable& table() { return table_; }
  const std::map<Key, art::Leaf*>& model() const { return model_; }

 private:
  dcartc::ShortcutTable table_;
  std::map<Key, art::Leaf*> model_;
};

TEST(ShortcutTable, MatchesMapModelThroughGrowth) {
  // Half the draws come from keys that share a tag and a home slot, so
  // probes walk past other keys' tag matches and tombstones.
  std::vector<Key> shared;
  for (const auto& group : SharedTagGroups()) {
    shared.insert(shared.end(), group.begin(), group.end());
  }
  ASSERT_GE(shared.size(), 300u);
  ModelTable t;
  SplitMix64 rng(2024);
  std::size_t growths = 0;
  for (int step = 0; step < 40000; ++step) {
    const Key key = rng.NextBounded(2) == 0
                        ? shared[rng.NextBounded(shared.size())]
                        : EncodeU64(rng.NextBounded(4000));
    const std::size_t capacity = t.table().capacity();
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        t.Insert(key, static_cast<art::Value>(step));
        break;
      case 2:
        t.Erase(key);
        break;
      default:
        t.ExpectFinds(key);
        break;
    }
    if (t.table().capacity() != capacity) {
      ++growths;
      t.ExpectFindsAll();
    }
  }
  t.ExpectFindsAll();
  EXPECT_GE(t.table().capacity(), std::size_t{64} << 4);
  EXPECT_GE(growths, 5u);  // the first allocation, then four doublings
}

TEST(ShortcutTable, TagSharingKeysResolveExactly) {
  const auto& groups = SharedTagGroups();
  const auto four = std::find_if(groups.begin(), groups.end(),
                                 [](const auto& g) { return g.size() >= 4; });
  ASSERT_NE(four, groups.end());
  const std::vector<Key>& g = *four;
  ModelTable t;
  for (std::size_t i = 0; i < 3; ++i) t.Insert(g[i], i);
  for (const Key& key : g) t.ExpectFinds(key);
  // One home slot, one tag: the candidate is the first entry on the chain,
  // whichever key asks.
  const art::Leaf* first = t.model().at(g[0]);
  EXPECT_EQ(t.table().Candidate(HashKey(g[2])), first);
  EXPECT_EQ(t.table().Candidate(HashKey(g[3])), first);

  // Erasing an absent key that shares the tag touches nothing.
  t.Erase(g[3]);
  for (const Key& key : g) t.ExpectFinds(key);
  // A tombstone mid-chain: the keys behind it stay reachable.
  t.Erase(g[1]);
  for (const Key& key : g) t.ExpectFinds(key);
  t.Erase(g[1]);
  for (const Key& key : g) t.ExpectFinds(key);
  // The next insert reuses the tombstone, ahead of g[2] on the chain.
  t.Insert(g[3], 3);
  for (const Key& key : g) t.ExpectFinds(key);
  t.Erase(g[0]);
  EXPECT_EQ(t.table().Candidate(HashKey(g[0])), t.model().at(g[3]));
  t.Erase(g[2]);
  for (const Key& key : g) t.ExpectFinds(key);

  // Churning one key through its own tombstone never grows the table.
  for (int round = 0; round < 1000; ++round) {
    t.Insert(g[1], static_cast<art::Value>(round));
    t.Erase(g[1]);
  }
  EXPECT_EQ(t.table().capacity(), 64u);
  t.ExpectFindsAll();
}

TEST(ShortcutTable, ReservedTableHoldsItsEntriesWithoutGrowing) {
  constexpr std::size_t kEntries = 1000;
  ModelTable reserved;
  reserved.table().Reserve(kEntries);
  const std::size_t capacity = reserved.table().capacity();
  EXPECT_EQ(capacity, 2048u);  // the first power of two at <= 3/4 load
  ModelTable grown;
  for (std::size_t i = 0; i < kEntries; ++i) {
    reserved.Insert(EncodeU64(i), i);
    grown.Insert(EncodeU64(i), i);
  }
  EXPECT_EQ(reserved.table().capacity(), capacity);
  // Sizing up front costs no more slots than growing one insert at a time.
  EXPECT_EQ(grown.table().capacity(), capacity);
  reserved.ExpectFindsAll();
  reserved.ExpectFinds(EncodeU64(kEntries));
}

TEST(ShortcutTable, LeafAddressWiderThan48BitsIsNotCached) {
  // Not a canonical x86-64 address: reading through it would crash.
  auto* wide = reinterpret_cast<art::Leaf*>(std::uintptr_t{1} << 48 | 0x40);
  const Key key = EncodeU64(7);
  dcartc::ShortcutTable empty;
  empty.Insert(HashKey(key), wide);
  EXPECT_EQ(empty.capacity(), 0u);
  EXPECT_EQ(empty.Candidate(HashKey(key)), nullptr);
  EXPECT_EQ(empty.Find(HashKey(key), key), nullptr);

  ModelTable t;
  for (std::uint64_t i = 100; i < 200; ++i) t.Insert(EncodeU64(i), i);
  t.table().Insert(HashKey(key), wide);
  EXPECT_EQ(t.table().Candidate(HashKey(key)), nullptr);
  t.ExpectFinds(key);
  t.ExpectFindsAll();
}

TEST(DcartCp, MatchesSerialReplayOnMixedStream) {
  // Skewed mixed insert/read/remove stream, many batches, 8 real threads.
  WorkloadConfig cfg;
  cfg.num_keys = 8000;
  cfg.num_ops = 60000;
  cfg.write_ratio = 0.3;
  cfg.remove_ratio = 0.15;
  cfg.zipf_theta = 1.1;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  const ExecutionResult r = engine.Run(w.ops, BatchRun(512, 8));

  SerialReplay ref;
  ref.Load(w.load_items);
  ref.Apply(w.ops);

  EXPECT_TRUE(r.wallclock);
  EXPECT_EQ(r.stats.operations, w.ops.size());
  // Per-key order surviving bucketing + deferral makes hit/miss outcomes
  // deterministic and equal to the serial replay's.
  EXPECT_EQ(r.reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, MatchesSerialReplayOnDenseKeysWithScans) {
  // Dense keys share a long root prefix (exercises the prefix-offset
  // bucketing); scans run after their batch's point ops and must find
  // exactly what the contract replay finds.
  WorkloadConfig cfg;
  cfg.num_keys = 5000;
  cfg.num_ops = 30000;
  cfg.write_ratio = 0.25;
  cfg.remove_ratio = 0.1;
  cfg.scan_ratio = 0.05;
  const Workload w = MakeWorkload(WorkloadKind::kDE, cfg);

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  const ExecutionResult r = engine.Run(w.ops, BatchRun(256, 4));

  SerialReplay ref;
  ref.Load(w.load_items);
  ref.Apply(w.ops, 256);
  EXPECT_GT(ref.scan_entries, 0u);
  EXPECT_EQ(r.stats.scan_entries, ref.scan_entries);
  EXPECT_EQ(r.reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, MatchesSerialReplayOnVariableLengthKeys) {
  // Dictionary words: variable lengths, some keys exhaust the root's
  // compressed path (forced deferral class).
  WorkloadConfig cfg;
  cfg.num_keys = 4000;
  cfg.num_ops = 20000;
  cfg.write_ratio = 0.3;
  cfg.remove_ratio = 0.2;
  const Workload w = MakeWorkload(WorkloadKind::kDICT, cfg);

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  engine.Run(w.ops, BatchRun(128, 8));

  SerialReplay ref;
  ref.Load(w.load_items);
  ref.Apply(w.ops);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, GrowsFromEmptyTree) {
  // Nothing loaded: the first batch has no root to shard on, so its point
  // ops all defer, then the engine transitions to parallel batches.  Every
  // batch, the first one too, runs its scans after its point ops.
  std::vector<Operation> ops;
  SplitMix64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const Key key = EncodeU64(rng.NextBounded(3000));
    const OpType type = i % 20 == 1  ? OpType::kScan
                        : i % 3 == 0 ? OpType::kWrite
                                     : OpType::kRead;
    ops.push_back({type, key, static_cast<art::Value>(i), 50});
  }
  dcartc::DcartCpEngine engine;
  const ExecutionResult r = engine.Run(ops, BatchRun(512, 4));

  SerialReplay ref;
  ref.Apply(ops, 512);
  EXPECT_GT(ref.scan_entries, 0u);
  EXPECT_EQ(r.stats.scan_entries, ref.scan_entries);
  EXPECT_EQ(r.reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, RemoveReinsertSameKeyWithinBatch) {
  // remove -> reinsert -> read of one key inside a single batch.  The
  // remove may empty its bucket (deferral + key pinning) and the shortcut
  // entry must never point at the reclaimed leaf.
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t i = 0; i < 512; ++i) items.emplace_back(EncodeU64(i), i);

  std::vector<Operation> ops;
  for (std::uint64_t i = 0; i < 512; ++i) {
    const Key key = EncodeU64(i);
    ops.push_back({OpType::kRead, key, 0});             // warm the shortcut
    ops.push_back({OpType::kRemove, key, 0});
    ops.push_back({OpType::kWrite, key, i + 1000});     // reinsert
    ops.push_back({OpType::kRead, key, 0});
  }
  dcartc::DcartCpEngine engine;
  engine.Load(items);
  const ExecutionResult r = engine.Run(ops, BatchRun(ops.size(), 8));

  SerialReplay ref;
  ref.Load(items);
  ref.Apply(ops);
  EXPECT_EQ(r.reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
  EXPECT_EQ(engine.Lookup(EncodeU64(3)), art::Value{1003});
}

TEST(DcartCp, TagSharingRemovesNeverLeaveAStaleShortcut) {
  // Keys whose hashes share a slot tag and a home slot sit on one probe
  // chain, so an erase that dropped the first tag match instead of the
  // removed key's own entry would keep a pointer to a freed leaf: a
  // use-after-free under ASan, a wrong read or state otherwise.  Root
  // children by first key byte: 30 filler bytes keep the root one N48
  // throughout, so the tables persist across batches.
  constexpr std::uint64_t kSpread = 0x9e3779b97f4a7c15;  // odd: a bijection
  const auto key_at = [](std::uint64_t byte, std::uint64_t x) {
    return EncodeU64(byte << 56 | x);
  };
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t byte = 0x40; byte < 0x40 + 30; ++byte) {
    for (std::uint64_t x = 0; x < 32; ++x) items.emplace_back(key_at(byte, x), x);
  }
  // Churn buckets: 200 fillers, so removes run on the workers, plus 40
  // pairs that share a home in any table of up to 1024 slots.
  std::vector<std::vector<Key>> churn;
  for (std::uint64_t byte : {0x10, 0x11}) {
    for (std::uint64_t x = 0; x < 200; ++x) {
      items.emplace_back(key_at(byte, (1 << 20) + x), x);
    }
    auto groups = TagSharingGroups(byte, kSpread, 1 << 17, 10, 2);
    ASSERT_GE(groups.size(), 40u);
    groups.resize(40);
    for (const auto& group : groups) {
      for (const Key& key : group) items.emplace_back(key, 1);
    }
    churn.insert(churn.end(), groups.begin(), groups.end());
  }
  // Pair buckets: exactly two keys sharing a tag and a home, so removing
  // both empties the bucket and the second remove runs in the serial
  // catch-up (EraseShortcutEverywhere).  `spare` refills the bucket later.
  struct Pair {
    Key a, b, spare;
  };
  std::vector<Pair> pairs;
  for (std::uint64_t byte = 0x20; byte < 0x24; ++byte) {
    const auto groups = TagSharingGroups(byte, kSpread, 1 << 15, 6, 2);
    ASSERT_FALSE(groups.empty());
    pairs.push_back({groups[0][0], groups[0][1], key_at(byte, 1 << 20)});
    items.emplace_back(pairs.back().a, 3);
    items.emplace_back(pairs.back().b, 4);
  }

  dcartc::DcartCpEngine engine;
  engine.Load(items);
  SerialReplay ref;
  ref.Load(items);
  std::uint64_t reads_hit = 0;
  const auto run = [&](const std::vector<Operation>& batch) {
    reads_hit += engine.Run(batch, BatchRun(batch.size(), 4)).reads_hit;
    ref.Apply(batch);
  };

  // Batch 1.  In a pair bucket the worker removes a, bounces b (its
  // subtree is down to that one leaf) and re-inserts a into a's tombstone,
  // ahead of b's entry; the catch-up then removes b.  In a churn bucket b
  // goes and comes back behind a live a, then a does the same.
  std::vector<Operation> batch;
  for (const Pair& p : pairs) {
    batch.push_back({OpType::kRead, p.a, 0});
    batch.push_back({OpType::kRead, p.b, 0});
    batch.push_back({OpType::kRemove, p.a, 0});
    batch.push_back({OpType::kRemove, p.b, 0});
    batch.push_back({OpType::kWrite, p.a, 10});
  }
  for (const auto& g : churn) {
    for (const auto& [gone, kept] : {std::pair{g[1], g[0]}, {g[0], g[1]}}) {
      batch.push_back({OpType::kRead, kept, 0});
      batch.push_back({OpType::kRemove, gone, 0});
      batch.push_back({OpType::kRead, gone, 0});
      batch.push_back({OpType::kRead, kept, 0});
      batch.push_back({OpType::kWrite, gone, 20});
      batch.push_back({OpType::kRead, gone, 0});
    }
  }
  run(batch);
  // Batch 2: the pair buckets hold one leaf, so they run serially; b and
  // the spare come back.  Batch 3 reads them through the workers again.
  batch.clear();
  for (const Pair& p : pairs) {
    batch.push_back({OpType::kWrite, p.b, 30});
    batch.push_back({OpType::kWrite, p.spare, 31});
  }
  run(batch);
  batch.clear();
  for (const Pair& p : pairs) {
    for (const Key& key : {p.b, p.a, p.spare}) {
      batch.push_back({OpType::kRead, key, 0});
    }
    batch.push_back({OpType::kRemove, p.b, 0});
    batch.push_back({OpType::kRead, p.b, 0});
    batch.push_back({OpType::kWrite, p.b, 40});
    batch.push_back({OpType::kRead, p.b, 0});
  }
  run(batch);

  // Then random batches over the same keys: removes and re-inserts empty
  // and refill the pair buckets in both paths.
  std::vector<Key> hot;
  for (const auto& g : churn) hot.insert(hot.end(), g.begin(), g.end());
  for (const Pair& p : pairs) hot.insert(hot.end(), {p.a, p.b, p.spare});
  SplitMix64 rng(99);
  for (int round = 0; round < 6; ++round) {
    batch.clear();
    for (int i = 0; i < 1500; ++i) {
      const std::uint64_t roll = rng.NextBounded(10);
      const OpType type = roll < 4   ? OpType::kRead
                          : roll < 7 ? OpType::kWrite
                                     : OpType::kRemove;
      batch.push_back({type, hot[rng.NextBounded(hot.size())],
                       static_cast<art::Value>(i)});
    }
    run(batch);
  }
  EXPECT_EQ(reads_hit, ref.reads_hit);
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, StressManyThreadsSkewedMixedBatches) {
  // The ThreadSanitizer target: 8+ workers, hot skewed keys (bucket
  // imbalance -> work stealing), inserts/reads/removes interleaved across
  // many small batches, twice through the same engine so shortcut tables
  // persist across Run() calls.
  WorkloadConfig cfg;
  cfg.num_keys = 6000;
  cfg.num_ops = 40000;
  cfg.write_ratio = 0.35;
  cfg.remove_ratio = 0.15;
  cfg.zipf_theta = 1.3;  // paper-calibrated skew
  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, cfg);

  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  SerialReplay ref;
  ref.Load(w.load_items);

  for (int round = 0; round < 2; ++round) {
    engine.Run(w.ops, BatchRun(64, 12));
    ref.Apply(w.ops);
  }
  ExpectSameState(engine, ref.tree);
}

TEST(DcartCp, LatencyHistogramCoversEveryOp) {
  WorkloadConfig cfg;
  cfg.num_keys = 2000;
  cfg.num_ops = 8000;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);
  dcartc::DcartCpEngine engine;
  engine.Load(w.load_items);
  RunConfig run = BatchRun(512, 4);
  run.collect_latency = true;
  const ExecutionResult r = engine.Run(w.ops, run);
  EXPECT_EQ(r.latency_ns.Count(), w.ops.size());
  EXPECT_GT(r.phase_breakdown.Total(), 0.0);
}

}  // namespace
}  // namespace dcart
