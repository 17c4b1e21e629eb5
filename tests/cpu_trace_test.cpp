// Unit tests for the CPU tracing/cost layer: OpTracer event accounting,
// queue-depth-scaled contention, latency recording, CpuSeconds assembly,
// and the TryWriteLock primitive the concurrent remove relies on.
#include <gtest/gtest.h>

#include "baselines/cpu_trace.h"
#include "leaf_owner.h"
#include "simhw/cache_model.h"
#include "simhw/conflict_model.h"
#include "sync/cnode.h"
#include "sync/version_lock.h"

namespace dcart::baselines {
namespace {

/// A node's address, as a traced walk reports it.
std::uintptr_t Addr(const sync::CNode& node) {
  return reinterpret_cast<std::uintptr_t>(&node);
}

struct TracerFixture {
  simhw::CpuModel model;
  simhw::CacheModel cache{1024 * 1024, 64, 8};
  simhw::ConflictModel conflicts{64, simhw::SyncProtocol::kLockBased};
  OpStats stats;
  OpTracer tracer{model, cache, conflicts, stats};
};

TEST(OpTracer, CountsVisitsAndPkm) {
  TracerFixture f;
  sync::CNode4 node;
  const auto leaf = test_util::MakeLeaf<sync::CLeaf>(Key{1, 2, 3}, 42);
  f.tracer.BeginOp();
  f.tracer.VisitInternal(Addr(node), 0, 2);
  f.tracer.VisitInternal(Addr(node), 0, 2);
  f.tracer.VisitLeaf(leaf.get());
  f.tracer.EndOp(64, 96, nullptr);
  EXPECT_EQ(f.stats.operations, 1u);
  EXPECT_EQ(f.stats.partial_key_matches, 2u);
  EXPECT_EQ(f.stats.nodes_visited, 3u);
  EXPECT_EQ(f.stats.leaf_accesses, 1u);
  EXPECT_GT(f.stats.offchip_bytes, 0u);
  EXPECT_GT(f.stats.useful_bytes, 0u);
  EXPECT_LT(f.stats.useful_bytes, f.stats.offchip_bytes);
}

TEST(OpTracer, ColdOpCostsMoreThanWarmOp) {
  TracerFixture f;
  sync::CNode48 node;
  f.tracer.BeginOp();
  f.tracer.VisitInternal(Addr(node), 0, 1);
  const double cold = f.tracer.EndOp(64, 96, nullptr);
  f.tracer.BeginOp();
  f.tracer.VisitInternal(Addr(node), 0, 1);
  const double warm = f.tracer.EndOp(64, 96, nullptr);
  EXPECT_GT(cold, warm);  // first touch misses the modeled LLC
}

TEST(OpTracer, ContendedSyncSerializesCycles) {
  TracerFixture f;
  f.tracer.BeginOp();
  f.tracer.SyncPoint(0x1000, true);
  f.tracer.EndOp(64, 96, nullptr);
  const double serial_before = f.tracer.serial_cycles();
  EXPECT_EQ(serial_before, 0.0);  // uncontended

  f.tracer.BeginOp();
  f.tracer.SyncPoint(0x1000, true);  // conflicts with the previous write
  f.tracer.EndOp(64, 96, nullptr);
  EXPECT_GT(f.tracer.serial_cycles(), 0.0);
  EXPECT_EQ(f.stats.lock_contentions, 1u);
}

TEST(OpTracer, DeeperQueuesCostMore) {
  // Two ops contending behind 1 vs. 30 in-window writers.
  const auto serial_with_queue = [](int queue) {
    TracerFixture f;
    for (int i = 0; i < queue; ++i) {
      f.tracer.BeginOp();
      f.tracer.SyncPoint(0x2000, true);
      f.tracer.EndOp(64, 96, nullptr);
    }
    const double before = f.tracer.serial_cycles();
    f.tracer.BeginOp();
    f.tracer.SyncPoint(0x2000, true);
    f.tracer.EndOp(64, 96, nullptr);
    return f.tracer.serial_cycles() - before;
  };
  EXPECT_GT(serial_with_queue(30), serial_with_queue(1));
}

TEST(OpTracer, LatencyHistogramRecordsPerOp) {
  TracerFixture f;
  LatencyHistogram latency;
  sync::CNode256 node;
  for (int i = 0; i < 100; ++i) {
    f.tracer.BeginOp();
    f.tracer.VisitInternal(Addr(node), 0, 1);
    f.tracer.EndOp(1024, 96, &latency);
  }
  EXPECT_EQ(latency.Count(), 100u);
  EXPECT_GT(latency.Quantile(0.5), 0u);
}

TEST(OpTracer, LatencyGrowsWithInflight) {
  sync::CNode256 node;
  const auto p50 = [&node](std::size_t inflight) {
    TracerFixture f;
    LatencyHistogram latency;
    for (int i = 0; i < 200; ++i) {
      f.tracer.BeginOp();
      f.tracer.VisitInternal(Addr(node), 0, 1);
      f.tracer.EndOp(inflight, 96, &latency);
    }
    return latency.Quantile(0.5);
  };
  EXPECT_GT(p50(16384), p50(256));
}

TEST(CpuSecondsModel, ParallelScalesSerialDoesNot) {
  const simhw::CpuModel model;
  const double t1 = CpuSeconds(model, 1e9, 0, 1);
  const double t96 = CpuSeconds(model, 1e9, 0, 96);
  EXPECT_NEAR(t1 / t96, 96.0, 1e-6);
  // Serial cycles are paid in full regardless of workers.
  const double s1 = CpuSeconds(model, 0, 1e9, 1);
  const double s96 = CpuSeconds(model, 0, 1e9, 96);
  EXPECT_DOUBLE_EQ(s1, s96);
  // Thread count clamps to the core count.
  EXPECT_DOUBLE_EQ(CpuSeconds(model, 1e9, 0, 960),
                   CpuSeconds(model, 1e9, 0, model.cores));
}

TEST(VersionLock, TryWriteLockFailsWithoutSpinning) {
  sync::VersionLock lock;
  sync::SyncStats stats;
  bool rs = false;
  lock.WriteLockOrRestart(rs, stats);
  ASSERT_FALSE(rs);
  // A second locker must fail immediately (restart), not spin.
  bool failed = false;
  lock.TryWriteLockOrRestart(failed, stats);
  EXPECT_TRUE(failed);
  lock.WriteUnlock(stats);
  bool ok = false;
  lock.TryWriteLockOrRestart(ok, stats);
  EXPECT_FALSE(ok);  // now succeeds
  lock.WriteUnlock(stats);
}

}  // namespace
}  // namespace dcart::baselines
