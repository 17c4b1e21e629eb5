// Focused tests for the CTT engines (DCART-C and the DCART accelerator):
// prefix-offset bucketing on keys with long common heads, shortcut reuse
// across batches, combining determinism, configuration knobs, and the
// CuART engine's batch semantics.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baselines/cuart.h"
#include "common/key_codec.h"
#include "common/rng.h"
#include "dcart/accelerator.h"
#include "dcartc/dcartc.h"
#include "workload/generators.h"

namespace dcart {
namespace {

std::vector<std::pair<Key, art::Value>> DenseItems(std::size_t n) {
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t i = 0; i < n; ++i) items.emplace_back(EncodeU64(i), i);
  return items;
}

TEST(PrefixOffset, DenseIntegerKeysSpreadAcrossSous) {
  // Dense u64 keys share their first ~5 bytes; bucketing on byte 0 would
  // put everything on one SOU.  With the root-path offset, the buckets
  // spread and adding SOUs must help.
  std::vector<Operation> ops;
  SplitMix64 rng(3);
  for (int i = 0; i < 40000; ++i) {
    ops.push_back({OpType::kRead, EncodeU64(rng.NextBounded(20000)), 0});
  }
  accel::DcartConfig one_sou, many_sous;
  one_sou.num_sous = 1;
  many_sous.num_sous = 16;
  accel::DcartEngine a(one_sou), b(many_sous);
  a.Load(DenseItems(20000));
  b.Load(DenseItems(20000));
  const double t1 = a.Run(ops, RunConfig{}).seconds;
  const double t16 = b.Run(ops, RunConfig{}).seconds;
  EXPECT_LT(t16 * 2, t1) << "16 SOUs should be well over 2x faster than 1 "
                            "on spread-out dense keys";
}

/// Every logical counter of one CTT run.  `atomic_ops` stays out: a
/// software group lock is one atomic, and an SOU's is none.
std::vector<std::pair<const char*, std::uint64_t>> LogicalCounters(
    const ExecutionResult& r) {
  const OpStats& s = r.stats;
  return {{"operations", s.operations},
          {"partial_key_matches", s.partial_key_matches},
          {"nodes_visited", s.nodes_visited},
          {"leaf_accesses", s.leaf_accesses},
          {"lock_acquisitions", s.lock_acquisitions},
          {"lock_contentions", s.lock_contentions},
          {"combined_ops", s.combined_ops},
          {"shortcut_hits", s.shortcut_hits},
          {"shortcut_misses", s.shortcut_misses},
          {"shortcut_invalidations", s.shortcut_invalidations},
          {"scan_entries", s.scan_entries},
          {"reads_hit", r.reads_hit}};
}

TEST(PrefixOffset, DcartCMatchesDcartEventCounts) {
  // DCART-C and DCART run the one CTT executor on the same stream, so every
  // logical counter must agree: on each paper workload, and on a stream
  // with removes and scans.
  std::vector<std::pair<std::string, Workload>> streams;
  WorkloadConfig cfg;
  cfg.num_keys = 5000;
  cfg.num_ops = 20000;
  for (WorkloadKind kind : AllWorkloads()) {
    streams.emplace_back(WorkloadName(kind), MakeWorkload(kind, cfg));
  }
  cfg.remove_ratio = 0.10;
  cfg.scan_ratio = 0.05;
  streams.emplace_back("DE+removes+scans", MakeWorkload(WorkloadKind::kDE, cfg));
  for (const auto& [name, w] : streams) {
    dcartc::DcartCEngine soft;
    accel::DcartEngine hard;
    soft.Load(w.load_items);
    hard.Load(w.load_items);
    const auto rs = LogicalCounters(soft.Run(w.ops, RunConfig{}));
    const auto rh = LogicalCounters(hard.Run(w.ops, RunConfig{}));
    for (std::size_t i = 0; i < rs.size(); ++i) {
      EXPECT_EQ(rs[i].second, rh[i].second) << name << " " << rs[i].first;
    }
  }
}

TEST(Shortcuts, ReusedAcrossBatches) {
  // The same key in two different batches: the second batch must be a
  // shortcut hit (the Shortcut_Table persists across batches).
  accel::DcartEngine engine;
  engine.Load({{EncodeU64(7), 70}});
  std::vector<Operation> ops;
  for (int i = 0; i < 3; ++i) ops.push_back({OpType::kRead, EncodeU64(7), 0});
  RunConfig cfg;
  cfg.batch_size = 1;  // every op in its own batch
  const auto r = engine.Run(ops, cfg);
  EXPECT_EQ(r.stats.shortcut_misses, 1u);  // first batch traverses
  EXPECT_EQ(r.stats.shortcut_hits, 2u);    // later batches reuse
}

TEST(Shortcuts, HitReusesTheDescentsTreeBufferEntry) {
  // A shortcut hit fetches its leaf through the same visit a descent ends
  // in, so it hits the Tree_buffer entry the first read's descent loaded.
  // Eight groups of eight keys: the descent reads the root, one inner node
  // and the leaf, then the hit reads the leaf again (1 hit in 4 accesses).
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t i = 0; i < 64; ++i) {
    items.emplace_back(EncodeU64((i / 8) << 8 | (i % 8)), i);
  }
  accel::DcartEngine engine;
  engine.Load(items);
  const std::vector<Operation> ops = {{OpType::kRead, EncodeU64(0x203), 0},
                                      {OpType::kRead, EncodeU64(0x203), 0}};
  RunConfig per_op;
  per_op.batch_size = 1;
  const auto r = engine.Run(ops, per_op);
  EXPECT_EQ(r.stats.shortcut_hits, 1u);
  EXPECT_EQ(r.stats.nodes_visited, 4u);
  EXPECT_DOUBLE_EQ(engine.last_buffer_report().tree_buffer_hit_rate, 0.25);
}

TEST(Shortcuts, StaleEntryForDifferentKeyIsAMiss) {
  // Two keys with colliding shortcut slots must not serve each other.
  dcartc::DcartCEngine engine;
  engine.Load({{EncodeU64(1), 10}, {EncodeU64(2), 20}});
  std::vector<Operation> ops = {{OpType::kRead, EncodeU64(1), 0},
                                {OpType::kRead, EncodeU64(2), 0}};
  const auto r = engine.Run(ops, RunConfig{});
  EXPECT_EQ(r.reads_hit, 2u);
  EXPECT_EQ(engine.Lookup(EncodeU64(1)).value(), 10u);
  EXPECT_EQ(engine.Lookup(EncodeU64(2)).value(), 20u);
}

TEST(Shortcuts, RemovedKeyEntryIsErasedNotStale) {
  // Regression: Remove used to leave the key's Shortcut_Table entry
  // pointing at the reclaimed leaf, so a later read of the same hash
  // bucket dereferenced freed memory (or served the pre-delete leaf after
  // a reinsert).  Both CTT engines must erase the entry with the key.
  const std::vector<Operation> ops = {
      {OpType::kRead, EncodeU64(5), 0},     // installs the shortcut
      {OpType::kRemove, EncodeU64(5), 0},   // must erase it
      {OpType::kRead, EncodeU64(5), 0},     // miss, not a stale hit
      {OpType::kWrite, EncodeU64(5), 555},  // reinsert: same hash bucket
      {OpType::kRead, EncodeU64(5), 0}};
  RunConfig per_op;
  per_op.batch_size = 1;  // one op per batch so entries persist in between

  dcartc::DcartCEngine soft;
  soft.Load({{EncodeU64(5), 50}});
  const auto rs = soft.Run(ops, per_op);
  EXPECT_EQ(rs.reads_hit, 2u);  // the middle read sees the deletion
  EXPECT_EQ(soft.Lookup(EncodeU64(5)).value(), 555u);

  accel::DcartEngine hard;
  hard.Load({{EncodeU64(5), 50}});
  const auto rh = hard.Run(ops, per_op);
  EXPECT_EQ(rh.reads_hit, 2u);
  EXPECT_EQ(hard.Lookup(EncodeU64(5)).value(), 555u);
  EXPECT_EQ(rs.stats.shortcut_hits, rh.stats.shortcut_hits);
}

TEST(Combining, DeterministicAcrossRuns) {
  WorkloadConfig cfg;
  cfg.num_keys = 3000;
  cfg.num_ops = 15000;
  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, cfg);
  accel::DcartEngine a, b;
  a.Load(w.load_items);
  b.Load(w.load_items);
  const auto ra = a.Run(w.ops, RunConfig{});
  const auto rb = b.Run(w.ops, RunConfig{});
  // Algorithmic event counts are bit-deterministic.
  EXPECT_EQ(ra.stats.partial_key_matches, rb.stats.partial_key_matches);
  EXPECT_EQ(ra.stats.combined_ops, rb.stats.combined_ops);
  EXPECT_EQ(ra.stats.shortcut_hits, rb.stats.shortcut_hits);
  // Address-dependent model details (cache sets, HBM channel interleave)
  // vary with heap layout between instances; times agree to ~0.1 %.
  EXPECT_NEAR(ra.seconds / rb.seconds, 1.0, 1e-3);
  EXPECT_NEAR(static_cast<double>(ra.stats.offchip_accesses) /
                  static_cast<double>(rb.stats.offchip_accesses),
              1.0, 0.01);
}

TEST(Combining, WiderPrefixMakesSmallerGroups) {
  WorkloadConfig cfg;
  cfg.num_keys = 4000;
  cfg.num_ops = 20000;
  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, cfg);
  accel::DcartConfig narrow, wide;
  narrow.prefix_bits = 4;
  wide.prefix_bits = 12;
  accel::DcartEngine a(narrow), b(wide);
  a.Load(w.load_items);
  b.Load(w.load_items);
  const auto ra = a.Run(w.ops, RunConfig{});
  const auto rb = b.Run(w.ops, RunConfig{});
  // Groups are per-key in both cases, so combined ops are equal; what
  // changes is bucket spread.  Both must preserve correctness.
  EXPECT_EQ(ra.stats.combined_ops, rb.stats.combined_ops);
  EXPECT_EQ(ra.reads_hit, rb.reads_hit);
}

// ------------------------------------------------------------------ CuART --

TEST(Cuart, LastWriterWinsWithinBatch) {
  baselines::CuartEngine engine;
  engine.Load({});
  std::vector<Operation> ops;
  for (art::Value v = 1; v <= 100; ++v) {
    ops.push_back({OpType::kWrite, EncodeU64(9), v});
  }
  RunConfig cfg;
  cfg.batch_size = 1000;  // all in one batch, one coalesced group
  engine.Run(ops, cfg);
  EXPECT_EQ(engine.Lookup(EncodeU64(9)).value(), 100u);
}

TEST(Cuart, ReadAfterWriteInSameBatchHits) {
  baselines::CuartEngine engine;
  engine.Load({});
  std::vector<Operation> ops = {{OpType::kRead, EncodeU64(5), 0},
                                {OpType::kWrite, EncodeU64(5), 55},
                                {OpType::kRead, EncodeU64(5), 0}};
  const auto r = engine.Run(ops, RunConfig{});
  // First read misses (key absent at its turn), second read hits.
  EXPECT_EQ(r.reads_hit, 1u);
}

TEST(Cuart, BatchDedupReducesPkm) {
  baselines::CuartEngine engine;
  engine.Load(DenseItems(1000));
  std::vector<Operation> hot, spread;
  for (int i = 0; i < 1000; ++i) {
    hot.push_back({OpType::kRead, EncodeU64(7), 0});
    spread.push_back(
        {OpType::kRead, EncodeU64(static_cast<std::uint64_t>(i)), 0});
  }
  baselines::CuartEngine engine2;
  engine2.Load(DenseItems(1000));
  const auto r_hot = engine.Run(hot, RunConfig{});
  const auto r_spread = engine2.Run(spread, RunConfig{});
  EXPECT_LT(r_hot.stats.partial_key_matches,
            r_spread.stats.partial_key_matches / 10);
  EXPECT_EQ(r_hot.stats.combined_ops, 999u);
}

}  // namespace
}  // namespace dcart
