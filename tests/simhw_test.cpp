// Tests for the hardware-model substrate: LLC cache simulation, the
// conflict model's protocol semantics, the node buffers (LRU vs the paper's
// value-aware policy), and the HBM channel model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simhw/cache_model.h"
#include "simhw/conflict_model.h"
#include "simhw/hbm_model.h"
#include "simhw/node_buffer.h"
#include "simhw/timing_model.h"

namespace dcart::simhw {
namespace {

// ------------------------------------------------------------ CacheModel ---

TEST(Cache, ColdMissThenHit) {
  CacheModel cache(1024 * 1024, 64, 8);
  const auto r1 = cache.Access(0x1000, 8);
  EXPECT_EQ(r1.lines, 1u);
  EXPECT_EQ(r1.misses, 1u);
  const auto r2 = cache.Access(0x1000, 8);
  EXPECT_EQ(r2.misses, 0u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(Cache, AccessSpanningLines) {
  CacheModel cache(1024 * 1024, 64, 8);
  const auto r = cache.Access(0x1030, 64);  // straddles two lines
  EXPECT_EQ(r.lines, 2u);
  EXPECT_EQ(r.misses, 2u);
}

TEST(Cache, LruEvictionWithinSet) {
  // Direct-mapped-ish: 2-way, 2 sets of 64B lines = 256 B capacity.
  CacheModel cache(256, 64, 2);
  // Three lines mapping to the same set (stride = 2 sets * 64).
  cache.Access(0 * 128, 1);
  cache.Access(1 * 128, 1);
  cache.Access(2 * 128, 1);  // evicts line 0
  const auto r = cache.Access(0, 1);
  EXPECT_EQ(r.misses, 1u);
}

TEST(Cache, HitRateReflectsLocality) {
  CacheModel cache(1024 * 1024, 64, 8);
  for (int round = 0; round < 10; ++round) {
    for (std::uintptr_t a = 0; a < 64 * 100; a += 64) cache.Access(a, 8);
  }
  EXPECT_GT(cache.HitRate(), 0.85);
  cache.Reset();
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes) {
  CacheModel cache(64 * 1024, 64, 8);  // 1024 lines
  std::uint64_t misses = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::uintptr_t a = 0; a < 64 * 4096; a += 64) {
      misses += cache.Access(a, 1).misses;
    }
  }
  EXPECT_GT(static_cast<double>(misses) / (3 * 4096.0), 0.9);
}

// --------------------------------------------------------- ConflictModel ---

TEST(Conflict, LockBasedWriteWriteConflicts) {
  ConflictModel cm(16, SyncProtocol::kLockBased);
  EXPECT_FALSE(cm.Record(1, true).contended);
  EXPECT_TRUE(cm.Record(1, true).contended);
  EXPECT_EQ(cm.contentions(), 1u);
}

TEST(Conflict, LockBasedReadBlockedByWrite) {
  ConflictModel cm(16, SyncProtocol::kLockBased);
  cm.Record(1, true);
  EXPECT_TRUE(cm.Record(1, false).contended);
  // Reads do not block other reads.
  EXPECT_FALSE(cm.Record(2, false).contended);
  EXPECT_FALSE(cm.Record(2, false).contended);
  // But a write after reads on the same node is blocked (node write lock).
  EXPECT_TRUE(cm.Record(2, true).contended);
}

TEST(Conflict, CasBasedReadsNeverBlock) {
  ConflictModel cm(16, SyncProtocol::kCasBased);
  cm.Record(1, true);
  const auto read = cm.Record(1, false);
  EXPECT_FALSE(read.contended);
  EXPECT_TRUE(read.restart);  // optimistic validation fails instead
  // Write-write still conflicts (failed CAS).
  EXPECT_TRUE(cm.Record(1, true).contended);
}

TEST(Conflict, WindowEvictsOldEntries) {
  ConflictModel cm(2, SyncProtocol::kLockBased);
  cm.Record(1, true);
  cm.Record(2, true);
  cm.Record(3, true);  // node 1 now out of the window
  EXPECT_FALSE(cm.Record(1, true).contended);
}

TEST(Conflict, LargerWindowMoreConflicts) {
  // Nodes recur with period 100: windows shorter than the period see no
  // conflict, longer windows see one per access.
  const auto count = [](std::size_t window) {
    ConflictModel cm(window, SyncProtocol::kLockBased);
    for (int i = 0; i < 10000; ++i) {
      cm.Record(static_cast<std::uintptr_t>(i % 100), true);
    }
    return cm.contentions();
  };
  EXPECT_EQ(count(32), 0u);
  EXPECT_GT(count(128), 0u);
  EXPECT_GE(count(1024), count(128));
}

TEST(Conflict, ResetClears) {
  ConflictModel cm(8, SyncProtocol::kLockBased);
  cm.Record(1, true);
  cm.Record(1, true);
  cm.Reset();
  EXPECT_EQ(cm.contentions(), 0u);
  EXPECT_FALSE(cm.Record(1, true).contended);
}

// ------------------------------------------------------------ NodeBuffer ---

TEST(Buffer, LruHitsAndEvictions) {
  NodeBuffer buf(256, EvictionPolicy::kLRU);
  EXPECT_FALSE(buf.Access(1, 100));
  EXPECT_FALSE(buf.Access(2, 100));
  EXPECT_TRUE(buf.Access(1, 100));      // hit refreshes LRU position
  EXPECT_FALSE(buf.Access(3, 100));     // evicts 2 (LRU), not 1
  EXPECT_TRUE(buf.Access(1, 100));
  EXPECT_FALSE(buf.Access(2, 100));     // 2 was evicted
  EXPECT_GT(buf.evictions(), 0u);
}

TEST(Buffer, ValueAwareProtectsHighValueResidents) {
  NodeBuffer buf(200, EvictionPolicy::kValueAware);
  EXPECT_FALSE(buf.Access(1, 100, /*value=*/1000));  // hot node
  EXPECT_FALSE(buf.Access(2, 100, /*value=*/900));   // warm node, buffer full
  // A low-value node must NOT displace the residents (bypass).
  EXPECT_FALSE(buf.Access(3, 100, /*value=*/5));
  EXPECT_TRUE(buf.Access(1, 100, 1000));
  EXPECT_TRUE(buf.Access(2, 100, 900));
  EXPECT_GT(buf.bypasses(), 0u);
  // A higher-value node evicts the lowest-value resident (2).
  EXPECT_FALSE(buf.Access(4, 100, /*value=*/5000));
  EXPECT_TRUE(buf.Access(1, 100, 1000));
  EXPECT_FALSE(buf.Access(2, 100, 900));
}

TEST(Buffer, ValueAwareBeatsLruOnSkewedStream) {
  // Hot nodes re-accessed often, interleaved with a long scan of cold
  // nodes: LRU thrashes, value-aware keeps the hot set (paper Sec. III-E).
  const auto run = [](EvictionPolicy policy) {
    NodeBuffer buf(100 * 64, policy);
    std::uint64_t hot_hits = 0;
    for (int round = 0; round < 50; ++round) {
      for (std::uintptr_t h = 0; h < 50; ++h) {
        hot_hits += buf.Access(h, 64, /*value=*/10000) ? 1 : 0;
      }
      for (std::uintptr_t c = 0; c < 500; ++c) {
        buf.Access(100000 + round * 1000 + c, 64, /*value=*/1);
      }
    }
    return hot_hits;
  };
  EXPECT_GT(run(EvictionPolicy::kValueAware), 2 * run(EvictionPolicy::kLRU));
}

TEST(Buffer, InvalidateRemovesEntry) {
  NodeBuffer buf(1024, EvictionPolicy::kLRU);
  buf.Access(1, 100);
  EXPECT_TRUE(buf.Contains(1));
  buf.Invalidate(1);
  EXPECT_FALSE(buf.Contains(1));
  EXPECT_FALSE(buf.Access(1, 100));
}

TEST(Buffer, ObjectLargerThanCapacityNeverCached) {
  NodeBuffer buf(100, EvictionPolicy::kLRU);
  EXPECT_FALSE(buf.Access(1, 1000));
  EXPECT_FALSE(buf.Access(1, 1000));
  EXPECT_EQ(buf.bytes_resident(), 0u);
}

TEST(Buffer, SetValueRerankExistingEntry) {
  NodeBuffer buf(200, EvictionPolicy::kValueAware);
  buf.Access(1, 100, 10);
  buf.Access(2, 100, 20);
  buf.SetValue(1, 10000);  // protect node 1
  buf.Access(3, 100, 50);  // must evict 2, not 1
  EXPECT_TRUE(buf.Contains(1));
  EXPECT_FALSE(buf.Contains(2));
}

TEST(Buffer, LruMatchesReferenceModelUnderRandomOps) {
  // Property: with uniform object sizes, the LRU buffer's hit/miss decisions
  // must match a straightforward reference implementation.
  constexpr std::size_t kCapacity = 32;
  constexpr std::size_t kObjBytes = 64;
  NodeBuffer buf(kCapacity * kObjBytes, EvictionPolicy::kLRU);
  std::vector<std::uintptr_t> reference;  // front = MRU
  std::uint64_t seed = 12345;
  for (int i = 0; i < 20000; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const std::uintptr_t id = 1 + (seed >> 33) % 100;
    const bool hit = buf.Access(id, kObjBytes);
    const auto it = std::find(reference.begin(), reference.end(), id);
    const bool ref_hit = it != reference.end();
    ASSERT_EQ(hit, ref_hit) << "op " << i << " id " << id;
    if (ref_hit) reference.erase(it);
    reference.insert(reference.begin(), id);
    if (reference.size() > kCapacity) reference.pop_back();
  }
}

// -------------------------------------------------------------- HbmModel ---

TEST(Hbm, LatencyAndOccupancy) {
  HbmModel hbm(2, 32.0, 2.0, 64);
  const double t1 = hbm.Access(0, 64, 0.0);
  EXPECT_DOUBLE_EQ(t1, 34.0);  // 1 burst * 2 + latency 32
  // Same channel back-to-back queues behind the first burst.
  const double t2 = hbm.Access(128, 64, 0.0);  // channel (128/64)%2 = 0
  EXPECT_DOUBLE_EQ(t2, 36.0);
  // Different channel proceeds in parallel.
  const double t3 = hbm.Access(64, 64, 0.0);  // channel 1
  EXPECT_DOUBLE_EQ(t3, 34.0);
}

TEST(Hbm, LargeAccessOccupiesLonger) {
  HbmModel hbm(1, 32.0, 2.0, 64);
  const double t = hbm.Access(0, 256, 0.0);  // 4 bursts
  EXPECT_DOUBLE_EQ(t, 4 * 2.0 + 32.0);
  EXPECT_EQ(hbm.total_bytes(), 256u);
}

TEST(Hbm, DrainTimeTracksBusiestChannel) {
  HbmModel hbm(4, 32.0, 2.0, 64);
  for (int i = 0; i < 10; ++i) hbm.Access(0, 64, 0.0);  // hammer channel 0
  hbm.Access(64, 64, 0.0);
  EXPECT_DOUBLE_EQ(hbm.DrainTime(), 20.0);
  hbm.Reset();
  EXPECT_DOUBLE_EQ(hbm.DrainTime(), 0.0);
}

TEST(Hbm, ResetChannelsKeepsTrafficCounters) {
  HbmModel hbm(2, 32.0, 2.0, 64);
  hbm.Access(0, 128, 0.0);
  hbm.Access(64, 64, 0.0);
  const auto accesses = hbm.total_accesses();
  const auto bytes = hbm.total_bytes();
  hbm.ResetChannels();
  EXPECT_DOUBLE_EQ(hbm.DrainTime(), 0.0);
  EXPECT_EQ(hbm.total_accesses(), accesses);
  EXPECT_EQ(hbm.total_bytes(), bytes);
  // Full Reset clears everything.
  hbm.Reset();
  EXPECT_EQ(hbm.total_accesses(), 0u);
}

TEST(Conflict, QueueDepthCountsInWindowConflicters) {
  ConflictModel cm(64, SyncProtocol::kLockBased);
  for (int i = 0; i < 10; ++i) cm.Record(5, true);
  const auto outcome = cm.Record(5, true);
  EXPECT_TRUE(outcome.contended);
  EXPECT_EQ(outcome.queue_depth, 10u);
  // A fresh node has no queue.
  EXPECT_EQ(cm.Record(6, true).queue_depth, 0u);
}

TEST(Conflict, ForgottenNodeStartsFresh) {
  // A freed node's address can hold a new node: after Forget, the old
  // node's in-window accesses no longer count against it, and evicting
  // them leaves the new node's counts alone.
  ConflictModel cm(4, SyncProtocol::kCoalesced);
  cm.Record(5, true);
  cm.Forget(5);
  EXPECT_FALSE(cm.Record(5, true).contended);
  EXPECT_TRUE(cm.Record(5, true).contended);
  cm.Record(100, false);
  cm.Record(101, false);  // evicts the forgotten entry
  // This record evicts one of the new node's writes; the other remains.
  EXPECT_TRUE(cm.Record(5, true).contended);
}

TEST(TimingModel, HelpersAreDimensionallySane) {
  EXPECT_DOUBLE_EQ(SecondsFromCycles(230e6, 230e6), 1.0);
  EXPECT_DOUBLE_EQ(EnergyJoules(2.0, 42.0), 84.0);
  const FpgaModel fpga;
  EXPECT_EQ(fpga.tree_buffer_bytes, 4u * 1024 * 1024);
  const CpuModel cpu;
  EXPECT_GT(cpu.cycles_lock_contended, 10 * cpu.cycles_lock_uncontended);
}

}  // namespace
}  // namespace dcart::simhw
