// Tests for the central engine registry (baselines/registry.h): every
// listed engine is constructible and runnable, names round-trip, unknown
// names fail cleanly, and EngineOptions actually reach the engines.
#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "dcart/accelerator.h"
#include "workload/generators.h"

namespace dcart {
namespace {

TEST(Registry, EveryListedEngineConstructsAndRuns) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.num_ops = 4000;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);

  const auto names = ListEngines();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), name);
    engine->Load(w.load_items);
    const ExecutionResult r = engine->Run(w.ops, RunConfig{});
    EXPECT_EQ(r.stats.operations, w.ops.size());
    EXPECT_GT(r.seconds, 0.0);
  }
}

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeEngine("no-such-engine"), nullptr);
  EXPECT_EQ(MakeEngine(""), nullptr);
}

TEST(Registry, OnlyWallclockEnginesReportWallclock) {
  WorkloadConfig cfg;
  cfg.num_keys = 500;
  cfg.num_ops = 2000;
  const Workload w = MakeWorkload(WorkloadKind::kDE, cfg);
  for (const std::string& name : ListEngines()) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name);
    engine->Load(w.load_items);
    const ExecutionResult r = engine->Run(w.ops, RunConfig{});
    EXPECT_EQ(r.wallclock, name == "DCART-CP" || name == "DCART-CP-FT" ||
                               name == "DCART-CP-HA" ||
                               name == "DCART-CLUSTER");
  }
}

TEST(Registry, EngineOptionsReachTheEngine) {
  // A DCART with one SOU must model slower than one with sixteen on a
  // bucket-spread workload — proof the options are not dropped.
  WorkloadConfig cfg;
  cfg.num_keys = 4000;
  cfg.num_ops = 20000;
  const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);

  EngineOptions narrow;
  narrow.dcart.num_sous = 1;
  EngineOptions wide;
  wide.dcart.num_sous = 16;
  auto a = MakeEngine("DCART", narrow);
  auto b = MakeEngine("DCART", wide);
  a->Load(w.load_items);
  b->Load(w.load_items);
  const double t1 = a->Run(w.ops, RunConfig{}).seconds;
  const double t16 = b->Run(w.ops, RunConfig{}).seconds;
  EXPECT_LT(t16, t1);
}

}  // namespace
}  // namespace dcart
