// Tests for the workload generators: key validity, uniqueness, skew
// properties (the paper's Fig. 3 statistics), and operation-mix ratios.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "art/serialize.h"
#include "common/key_codec.h"
#include "workload/generators.h"
#include "workload/trace_io.h"

namespace dcart {
namespace {

WorkloadConfig SmallConfig() {
  WorkloadConfig cfg;
  cfg.num_keys = 20'000;
  cfg.num_ops = 60'000;
  cfg.seed = 7;
  return cfg;
}

class AllWorkloadsTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(AllWorkloadsTest, KeysAreUniqueNonEmptyAndPrefixFree) {
  const Workload w = MakeWorkload(GetParam(), SmallConfig());
  std::set<Key> keys;
  for (const auto& [key, value] : w.load_items) {
    EXPECT_FALSE(key.empty());
    EXPECT_TRUE(keys.insert(key).second) << "duplicate load key";
  }
  // Prefix-freedom: no key is a strict prefix of its sorted successor
  // (sufficient by transitivity over the sorted order).
  for (auto it = keys.begin(); it != keys.end();) {
    const Key& a = *it;
    if (++it == keys.end()) break;
    const Key& b = *it;
    EXPECT_FALSE(a.size() < b.size() &&
                 CommonPrefixLength(a, b) == a.size())
        << ToHex(a) << " is a prefix of " << ToHex(b);
  }
}

TEST_P(AllWorkloadsTest, OpsRespectConfiguredCounts) {
  const WorkloadConfig cfg = SmallConfig();
  const Workload w = MakeWorkload(GetParam(), cfg);
  EXPECT_EQ(w.ops.size(), cfg.num_ops);
  EXPECT_EQ(w.load_items.size(),
            static_cast<std::size_t>(cfg.num_keys * cfg.load_fraction));
  // 50/50 default mix within 2 %.
  const double write_ratio =
      static_cast<double>(w.NumWrites()) / static_cast<double>(w.ops.size());
  EXPECT_NEAR(write_ratio, 0.5, 0.02);
}

TEST_P(AllWorkloadsTest, GenerationIsDeterministic) {
  const Workload a = MakeWorkload(GetParam(), SmallConfig());
  const Workload b = MakeWorkload(GetParam(), SmallConfig());
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); i += 997) {
    EXPECT_EQ(a.ops[i].key, b.ops[i].key);
    EXPECT_EQ(a.ops[i].type, b.ops[i].type);
  }
}

TEST_P(AllWorkloadsTest, OperationsAreZipfSkewed) {
  const Workload w = MakeWorkload(GetParam(), SmallConfig());
  // Zipf theta=0.99 concentrates half of all operations on well under 5 %
  // of the keys (the paper's Fig. 3 "96.65 % of traversals on 5 % of nodes"
  // is a *node*-level statistic, amplified by shared upper-level nodes; the
  // fig3 bench measures that directly).  A uniform stream would need ~50 %.
  EXPECT_LT(HotKeyFraction(w, 0.50), 0.05);
  EXPECT_LT(HotKeyFraction(w, 0.90), 0.55);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllWorkloadsTest,
    ::testing::Values(WorkloadKind::kIPGEO, WorkloadKind::kDICT,
                      WorkloadKind::kEA, WorkloadKind::kDE, WorkloadKind::kRS,
                      WorkloadKind::kRD),
    [](const ::testing::TestParamInfo<WorkloadKind>& info) {
      return WorkloadName(info.param);
    });

TEST(Workload, Names) {
  EXPECT_STREQ(WorkloadName(WorkloadKind::kIPGEO), "IPGEO");
  EXPECT_EQ(AllWorkloads().size(), 6u);
  EXPECT_EQ(ParseWorkloadName("DICT"), WorkloadKind::kDICT);
  EXPECT_FALSE(ParseWorkloadName("nope").has_value());
}

TEST(Workload, WriteRatioKnob) {
  for (double ratio : {0.0, 0.25, 0.75, 1.0}) {
    WorkloadConfig cfg = SmallConfig();
    cfg.write_ratio = ratio;
    const Workload w = MakeWorkload(WorkloadKind::kRS, cfg);
    const double measured =
        static_cast<double>(w.NumWrites()) / static_cast<double>(w.ops.size());
    EXPECT_NEAR(measured, ratio, 0.02) << "ratio=" << ratio;
  }
}

TEST(Workload, PaperMixesSpanReadOnlyToWriteOnly) {
  const auto mixes = PaperMixes();
  ASSERT_EQ(mixes.size(), 5u);
  EXPECT_EQ(mixes.front().label, 'A');
  EXPECT_EQ(mixes.front().write_ratio, 0.0);
  EXPECT_EQ(mixes.back().label, 'E');
  EXPECT_EQ(mixes.back().write_ratio, 1.0);
}

TEST(Workload, IpgeoKeysAreIPv4) {
  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, SmallConfig());
  for (std::size_t i = 0; i < w.load_items.size(); i += 503) {
    EXPECT_EQ(w.load_items[i].first.size(), 4u);
  }
}

TEST(Workload, IpgeoPrefixHistogramIsSkewed) {
  const Workload w = MakeWorkload(WorkloadKind::kIPGEO, SmallConfig());
  const auto hist = PrefixHistogram(w);
  ASSERT_EQ(hist.size(), 256u);
  std::uint64_t total = 0, max_bin = 0;
  for (std::uint64_t c : hist) {
    total += c;
    max_bin = std::max(max_bin, c);
  }
  EXPECT_EQ(total, w.ops.size());
  // The hottest /8 prefix must dominate, as in the paper's Fig. 3.
  EXPECT_GT(static_cast<double>(max_bin) / static_cast<double>(total), 0.10);
}

TEST(Workload, DictKeysLookLikeWords) {
  const Workload w = MakeWorkload(WorkloadKind::kDICT, SmallConfig());
  for (std::size_t i = 0; i < w.load_items.size(); i += 701) {
    const std::string s = DecodeString(w.load_items[i].first);
    EXPECT_FALSE(s.empty());
    for (char c : s) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << s;
    }
  }
}

TEST(Workload, EmailKeysContainAtAndDot) {
  const Workload w = MakeWorkload(WorkloadKind::kEA, SmallConfig());
  for (std::size_t i = 0; i < w.load_items.size(); i += 701) {
    const std::string s = DecodeString(w.load_items[i].first);
    EXPECT_NE(s.find('@'), std::string::npos) << s;
    EXPECT_NE(s.find('.'), std::string::npos) << s;
  }
}

TEST(Workload, DenseKeysAreSortedRandomDenseArePermuted) {
  const Workload de = MakeWorkload(WorkloadKind::kDE, SmallConfig());
  for (std::size_t i = 0; i + 1 < de.load_items.size(); i += 997) {
    EXPECT_LT(CompareKeys(de.load_items[i].first, de.load_items[i + 1].first),
              0);
  }
  const Workload rd = MakeWorkload(WorkloadKind::kRD, SmallConfig());
  bool any_inversion = false;
  for (std::size_t i = 0; i + 1 < rd.load_items.size(); ++i) {
    if (CompareKeys(rd.load_items[i].first, rd.load_items[i + 1].first) > 0) {
      any_inversion = true;
      break;
    }
  }
  EXPECT_TRUE(any_inversion);
  // RD keys decode into the dense range [0, num_keys).
  for (std::size_t i = 0; i < rd.load_items.size(); i += 701) {
    EXPECT_LT(DecodeU64(rd.load_items[i].first), SmallConfig().num_keys);
  }
}

// ---------------------------------------------------------------- trace_io --

TEST(TraceIo, RoundTripPreservesEverything) {
  WorkloadConfig cfg = SmallConfig();
  cfg.num_keys = 2000;
  cfg.num_ops = 5000;
  const Workload original = MakeWorkload(WorkloadKind::kEA, cfg);
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.bin";
  ASSERT_TRUE(SaveWorkload(original, path));

  Workload loaded;
  ASSERT_TRUE(LoadWorkload(path, loaded));
  EXPECT_EQ(loaded.name, original.name);
  ASSERT_EQ(loaded.load_items.size(), original.load_items.size());
  ASSERT_EQ(loaded.ops.size(), original.ops.size());
  for (std::size_t i = 0; i < original.load_items.size(); i += 97) {
    EXPECT_EQ(loaded.load_items[i], original.load_items[i]);
  }
  for (std::size_t i = 0; i < original.ops.size(); i += 97) {
    EXPECT_EQ(loaded.ops[i].type, original.ops[i].type);
    EXPECT_EQ(loaded.ops[i].key, original.ops[i].key);
    EXPECT_EQ(loaded.ops[i].value, original.ops[i].value);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, TraceBytesArePinned) {
  // magic, u32 name_len + name, u64 load_count + (u32 key_len, key, u64
  // value) per item, u64 op_count + (u8 type, u32 key_len, key, u64 value,
  // u32 scan_count) per op; little-endian.
  Workload w;
  w.name = "pin";
  w.load_items.emplace_back(Key{0x01}, 0x11);
  w.load_items.emplace_back(Key{0x02, 0xaa}, 0x2222);
  w.ops.push_back({OpType::kRead, Key{0x01}, 0});
  w.ops.push_back({OpType::kWrite, Key{0x03, 0x04}, 0x33});
  w.ops.push_back({OpType::kScan, Key{0x02}, 0, 7});
  w.ops.push_back({OpType::kRemove, Key{0x01}, 0});
  const std::string hex =
      "4443575452433032"  // "DCWTRC02"
      "03000000" "70696e"
      "0200000000000000"
      "01000000" "01" "1100000000000000"
      "02000000" "02aa" "2222000000000000"
      "0400000000000000"
      "00" "01000000" "01" "0000000000000000" "00000000"
      "01" "02000000" "0304" "3300000000000000" "00000000"
      "02" "01000000" "02" "0000000000000000" "07000000"
      "03" "01000000" "01" "0000000000000000" "00000000";
  const std::string path = ::testing::TempDir() + "/trace_pinned.bin";
  ASSERT_TRUE(SaveWorkload(w, path));
  std::vector<std::uint8_t> file;
  ASSERT_TRUE(art::ReadFile(path, file));
  std::remove(path.c_str());
  EXPECT_EQ(ToHex(file, file.size()), "0x" + hex);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(EncodeWorkload(w, AppendTo(image)));
  EXPECT_TRUE(image == file);
}

TEST(TraceIo, EmptyWorkloadRoundTrips) {
  Workload empty;
  empty.name = "empty";
  const std::string path = ::testing::TempDir() + "/trace_empty.bin";
  ASSERT_TRUE(SaveWorkload(empty, path));
  Workload loaded;
  ASSERT_TRUE(LoadWorkload(path, loaded));
  EXPECT_EQ(loaded.name, "empty");
  EXPECT_TRUE(loaded.load_items.empty());
  EXPECT_TRUE(loaded.ops.empty());
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingAndCorruptFiles) {
  Workload out;
  EXPECT_FALSE(LoadWorkload("/nonexistent/path/trace.bin", out));
  const std::string path = ::testing::TempDir() + "/trace_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace file at all", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadWorkload(path, out));
  EXPECT_TRUE(out.ops.empty());
  // Truncated file: valid magic, then EOF mid-record.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("DCWTRC01", 1, 8, f);
    const std::uint32_t name_len = 100;  // promises more bytes than exist
    std::fwrite(&name_len, sizeof name_len, 1, f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadWorkload(path, out));
  std::remove(path.c_str());
}

TEST(Workload, HotKeyFractionEdgeCases) {
  Workload w;
  w.ops.push_back({OpType::kRead, EncodeU64(1), 0});
  EXPECT_DOUBLE_EQ(HotKeyFraction(w, 1.0), 1.0);
  // Uniform distribution: covering 50 % of ops needs ~50 % of keys.
  Workload uniform;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    uniform.ops.push_back({OpType::kRead, EncodeU64(i), 0});
  }
  EXPECT_NEAR(HotKeyFraction(uniform, 0.5), 0.5, 0.01);
}

}  // namespace
}  // namespace dcart
