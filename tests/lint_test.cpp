// Tests for the dcart_lint rule engine (tools/dcart_lint).
//
// Two fixture corpora under tests/lint_fixtures/ act as miniature repos,
// each with its own tools/dcart_lint/{layers.conf,atomics_manifest.txt}:
//   bad/   — one known violation per rule at a known line
//   clean/ — compliant counterparts (manifested atomics, helper-wrapped
//            I/O, reasoned suppressions, a legal layering DAG) that must
//            produce zero findings
// plus the real source tree, which the CI static-analysis job requires to
// be clean and which this test pins so a violation fails locally too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "lint.h"
#include "sarif.h"

namespace dcart::lint {
namespace {

using Triple = std::tuple<std::string, std::string, std::size_t>;

std::vector<Triple> Triples(const std::vector<Finding>& findings) {
  std::vector<Triple> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.file, f.line);
  return out;
}

const char* kManifestRel = "tools/dcart_lint/atomics_manifest.txt";

TEST(DcartLint, BadCorpusEveryRuleFiresAtTheExpectedLine) {
  const auto findings =
      RunLint(std::string(DCART_LINT_FIXTURE_ROOT) + "/bad");
  const std::vector<Triple> expected = {
      {kLayering, "src/art/layer_breaker.cpp", 2},
      {kBareAssert, "src/art/serialize.cpp", 5},
      {kRawIoOutsideHelper, "src/art/serialize.cpp", 6},
      {kEpochDiscipline, "src/art/unsafe_delete.cpp", 6},
      {kEpochDiscipline, "src/art/unsafe_delete.cpp", 12},
      {kTriggerPhaseBlockingLock, "src/dcart/sou.cpp", 1},
      {kTriggerPhaseBlockingLock, "src/dcart/sou.cpp", 4},
      {kTriggerPhaseBlockingLock, "src/dcart/sou.cpp", 8},
      {kTriggerPhaseRegistryMetrics, "src/dcartc/parallel_runtime.cpp", 4},
      {kTriggerPhaseRegistryMetrics, "src/dcartc/parallel_runtime.cpp", 5},
      {kAtomicsManifest, "src/dcartc/relaxed_misuse.cpp", 4},
      {kFaultSiteRegistry, "src/resilience/fault_injector.cpp", 0},
      {kFaultSiteRegistry, "src/resilience/fault_injector.h", 4},
      {kFaultSiteRegistry, "src/resilience/fault_injector.h", 5},
      {kFaultSiteRegistry, "src/resilience/fault_injector.h", 6},
      {kReplicationFaultRegistry, "src/resilience/replication.cpp", 4},
      {kReplicationFaultRegistry, "src/resilience/replication.cpp", 7},
      {kBareAssert, "src/simhw/model.cpp", 4},
      {kLockContract, "src/sync/locked.cpp", 5},
      {kLockContract, "src/sync/locked.h", 8},
      {kLockContract, "src/sync/locked.h", 13},
      {kSuppressionHygiene, "src/workload/suppressions.cpp", 4},
      {kSuppressionHygiene, "src/workload/suppressions.cpp", 5},
      {kSuppressionHygiene, "src/workload/suppressions.cpp", 6},
      {kAtomicsManifest, kManifestRel, 3},
      {kAtomicsManifest, kManifestRel, 4},
  };
  EXPECT_EQ(Triples(findings), expected) << FormatFindings(findings);
}

TEST(DcartLint, BadCorpusMessagesNameTheDefect) {
  const auto findings =
      RunLint(std::string(DCART_LINT_FIXTURE_ROOT) + "/bad");
  auto message_for = [&](const std::string& file, std::size_t line) {
    for (const Finding& f : findings) {
      if (f.file == file && f.line == line) return f.message;
    }
    return std::string();
  };
  // Registered twice, never registered, never referenced: three distinct
  // registry defects with three distinct explanations.
  EXPECT_NE(message_for("src/resilience/fault_injector.h", 4)
                .find("registered 2 times"),
            std::string::npos);
  EXPECT_NE(message_for("src/resilience/fault_injector.h", 5)
                .find("registered 0 times"),
            std::string::npos);
  EXPECT_NE(message_for("src/resilience/fault_injector.h", 6)
                .find("no injection point"),
            std::string::npos);
  EXPECT_NE(message_for("src/resilience/fault_injector.cpp", 0)
                .find("claimed by 2 enumerators"),
            std::string::npos);
  // DL007: a private fault enum and an unregistered site are different
  // defects with different remedies.
  EXPECT_NE(message_for("src/resilience/replication.cpp", 4)
                .find("private fault enum"),
            std::string::npos);
  EXPECT_NE(message_for("src/resilience/replication.cpp", 7)
                .find("kReplGhost is not declared"),
            std::string::npos);
  // DL008 names the offending layer edge.
  EXPECT_NE(message_for("src/art/layer_breaker.cpp", 2)
                .find("pulls layer 'dcart'"),
            std::string::npos);
  // DL009: an unmanifested site tells the reviewer the exact line to add;
  // the manifest-side findings distinguish placeholder from stale.
  EXPECT_NE(message_for("src/dcartc/relaxed_misuse.cpp", 4)
                .find("not in the atomics manifest"),
            std::string::npos);
  EXPECT_NE(message_for(kManifestRel, 3).find("placeholder rationale"),
            std::string::npos);
  EXPECT_NE(message_for(kManifestRel, 4).find("stale manifest entry"),
            std::string::npos);
  // DL010: a def-only annotation points back at the declaration clang reads.
  EXPECT_NE(message_for("src/sync/locked.cpp", 5)
                .find("src/sync/locked.h"),
            std::string::npos);
  EXPECT_NE(message_for("src/sync/locked.h", 8)
                .find("does not name a mutex member"),
            std::string::npos);
  // DL011 names the sanctioned alternative, for a delete expression and
  // for a leaf's Delete() call alike.
  EXPECT_NE(message_for("src/art/unsafe_delete.cpp", 6)
                .find("EpochManager::Retire"),
            std::string::npos);
  EXPECT_NE(message_for("src/art/unsafe_delete.cpp", 12)
                .find("EpochManager::Retire"),
            std::string::npos);
  // DL000: legacy verb, missing reason, unknown rule id.
  EXPECT_NE(message_for("src/workload/suppressions.cpp", 4)
                .find("legacy suppression"),
            std::string::npos);
  EXPECT_NE(message_for("src/workload/suppressions.cpp", 5)
                .find("without a reason"),
            std::string::npos);
  EXPECT_NE(message_for("src/workload/suppressions.cpp", 6)
                .find("unknown rule id 'BOGUS'"),
            std::string::npos);
}

TEST(DcartLint, AtomicSitesCarryTheEnclosingSymbol) {
  const RepoModel model =
      LoadRepo(std::string(DCART_LINT_FIXTURE_ROOT) + "/bad");
  const auto sites = CollectAtomicSites(model);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].file, "src/dcartc/relaxed_misuse.cpp");
  EXPECT_EQ(sites[0].symbol, "Peek");
  EXPECT_EQ(sites[0].ordering, "relaxed");
  EXPECT_EQ(sites[1].file, "src/obs/counter.h");
  EXPECT_EQ(sites[1].symbol, "Bump");
  EXPECT_EQ(sites[1].ordering, "relaxed");
}

TEST(DcartLint, CleanCorpusHasZeroFalsePositives) {
  const auto findings =
      RunLint(std::string(DCART_LINT_FIXTURE_ROOT) + "/clean");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

// The clean corpus exercises every would-be false positive on purpose:
// manifested RelaxedLoad/RelaxedStore, fread/fwrite inside the
// ReadBytes/WriteBytes helpers, a static_assert, a registry-derived CLI,
// reasoned `disable(...)` suppressions, a legal layering DAG, annotations
// that name a real mutex member, and sanctioned frees (a *Delete* /
// *Destroy* teardown helper and a Retire(...) lambda, each for a delete
// expression and a leaf's Delete() call).  This test documents that
// inventory so a rule change that breaks one of them fails loudly.
TEST(DcartLint, SuppressionCommentIsHonored) {
  const auto findings =
      RunLint(std::string(DCART_LINT_FIXTURE_ROOT) + "/clean");
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, kBareAssert)
        << "suppressed assert still reported: " << FormatFindings({f});
  }
}

TEST(DcartLint, SarifOutputCarriesRulesAndLocations) {
  const auto findings =
      RunLint(std::string(DCART_LINT_FIXTURE_ROOT) + "/bad");
  const std::string sarif = ToSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"dcart_lint\""), std::string::npos);
  // Every fired rule is declared in tool.driver.rules.
  for (const char* rule : {"DL000", "DL008", "DL009", "DL010", "DL011"}) {
    EXPECT_NE(sarif.find(std::string("{\"id\": \"") + rule + "\""),
              std::string::npos)
        << rule;
    EXPECT_NE(sarif.find(std::string("\"ruleId\": \"") + rule + "\""),
              std::string::npos)
        << rule;
  }
  // The layering finding is anchored to its include line...
  EXPECT_NE(sarif.find("\"uri\": \"src/art/layer_breaker.cpp\""),
            std::string::npos);
  // ...and whole-file findings (line 0) are pinned to line 1 for SARIF.
  const std::string registry_result =
      "\"uri\": \"src/resilience/fault_injector.cpp\"";
  const std::size_t at = sarif.find(registry_result);
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1", at), std::string::npos);
}

TEST(DcartLint, RealSourceTreeIsClean) {
  const auto findings = RunLint(DCART_LINT_SOURCE_ROOT);
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(DcartLint, MissingRootYieldsNoFindings) {
  const auto findings = RunLint("/nonexistent/path/for/dcart/lint");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

}  // namespace
}  // namespace dcart::lint
