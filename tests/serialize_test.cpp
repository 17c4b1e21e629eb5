// Tests for ART snapshot serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "art/serialize.h"
#include "common/key_codec.h"
#include "common/rng.h"
#include "legacy_snapshot.h"

namespace dcart::art {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Serialize, RoundTripRandomTree) {
  Tree original;
  SplitMix64 rng(9);
  std::map<std::uint64_t, Value> model;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.Next();
    model[k] = k ^ 0xabcd;
    original.Insert(EncodeU64(k), k ^ 0xabcd);
  }
  const std::string path = TempPath("art_snapshot.bin");
  ASSERT_TRUE(SaveTree(original, path));

  Tree loaded;
  ASSERT_TRUE(LoadTree(path, loaded));
  EXPECT_EQ(loaded.size(), original.size());
  for (const auto& [k, v] : model) {
    ASSERT_EQ(loaded.Get(EncodeU64(k)).value(), v) << k;
  }
  // The reloaded tree is mutable as usual.
  EXPECT_TRUE(loaded.Insert(EncodeString("fresh"), 1));
  EXPECT_TRUE(loaded.Remove(EncodeU64(model.begin()->first)));
  std::remove(path.c_str());
}

TEST(Serialize, RoundTripStringKeysAndEmptyTree) {
  Tree original;
  original.Insert(EncodeString("alpha"), 1);
  original.Insert(EncodeString("alphabet"), 2);
  original.Insert(EncodeString(std::string(40, 'z') + "deep"), 3);
  const std::string path = TempPath("art_snapshot_str.bin");
  ASSERT_TRUE(SaveTree(original, path));
  Tree loaded;
  ASSERT_TRUE(LoadTree(path, loaded));
  EXPECT_EQ(loaded.Get(EncodeString("alphabet")).value(), 2u);
  EXPECT_EQ(loaded.Get(EncodeString(std::string(40, 'z') + "deep")).value(),
            3u);
  std::remove(path.c_str());

  Tree empty, loaded_empty;
  const std::string empty_path = TempPath("art_snapshot_empty.bin");
  ASSERT_TRUE(SaveTree(empty, empty_path));
  ASSERT_TRUE(LoadTree(empty_path, loaded_empty));
  EXPECT_TRUE(loaded_empty.empty());
  std::remove(empty_path.c_str());
}

TEST(Serialize, RoundTripTreeWithNode32Fanout) {
  // 17..32-way fanouts land in the N32 tier added by the SN2 format bump;
  // a canonical rebuild must reproduce them exactly.
  Tree original;
  for (std::uint64_t j = 0; j < 24; ++j) {
    original.Insert(EncodeU64(j << 40), j);
  }
  ASSERT_GT(original.ComputeMemoryStats().n32, 0u);
  const std::string path = TempPath("art_snapshot_n32.bin");
  ASSERT_TRUE(SaveTree(original, path));
  Tree loaded;
  ASSERT_TRUE(LoadTree(path, loaded));
  EXPECT_EQ(loaded.size(), 24u);
  EXPECT_GT(loaded.ComputeMemoryStats().n32, 0u);
  for (std::uint64_t j = 0; j < 24; ++j) {
    ASSERT_EQ(loaded.Get(EncodeU64(j << 40)).value(), j);
  }
  std::remove(path.c_str());
}

TEST(Serialize, ReadsLegacySn1Snapshots) {
  // SN1 and SN2 hold fixed-width entries and differ only in the magic (the
  // payload carries no node types); snapshots older builds left on disk
  // must still load.  Forge both layouts directly.
  Tree original;
  SplitMix64 rng(29);
  std::map<std::uint64_t, Value> model;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng.Next();
    model[k] = k + 7;
    original.Insert(EncodeU64(k), k + 7);
  }
  for (const char version : {'1', '2'}) {
    SCOPED_TRACE(version);
    const std::string path = TempPath("art_snapshot_legacy.bin");
    test_util::WriteBytesToFile(
        path, test_util::LegacySnapshotImage(original, version));
    Tree loaded;
    ASSERT_TRUE(LoadTree(path, loaded));
    EXPECT_EQ(loaded.size(), model.size());
    for (const auto& [k, v] : model) {
      ASSERT_EQ(loaded.Get(EncodeU64(k)).value(), v) << k;
    }
    std::remove(path.c_str());
  }
}

TEST(Serialize, RejectsGarbageAndUnsortedStreams) {
  Tree out;
  EXPECT_FALSE(LoadTree("/nonexistent/snapshot.bin", out));
  const std::string path = TempPath("art_snapshot_bad.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage header here", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadTree(path, out));
  EXPECT_TRUE(out.empty());
  // Valid magic, bogus huge count -> truncated read must fail cleanly.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("DCARTSN1", 1, 8, f);
    const std::uint64_t count = 1'000'000;
    std::fwrite(&count, sizeof count, 1, f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadTree(path, out));
  std::remove(path.c_str());
}

TEST(Serialize, LoadedTreeIsCanonical) {
  // Two trees with the same content but different insertion orders produce
  // byte-identical snapshots.
  SplitMix64 rng(17);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(rng.Next());
  Tree a, b;
  for (auto k : keys) a.Insert(EncodeU64(k), k);
  Shuffle(keys, rng);
  for (auto k : keys) b.Insert(EncodeU64(k), k);

  const std::string pa = TempPath("snap_a.bin");
  const std::string pb = TempPath("snap_b.bin");
  ASSERT_TRUE(SaveTree(a, pa));
  ASSERT_TRUE(SaveTree(b, pb));
  std::FILE* fa = std::fopen(pa.c_str(), "rb");
  std::FILE* fb = std::fopen(pb.c_str(), "rb");
  ASSERT_NE(fa, nullptr);
  ASSERT_NE(fb, nullptr);
  char ba[4096], bb[4096];
  bool same = true;
  for (;;) {
    const std::size_t na = std::fread(ba, 1, sizeof ba, fa);
    const std::size_t nb = std::fread(bb, 1, sizeof bb, fb);
    if (na != nb || std::memcmp(ba, bb, na) != 0) {
      same = false;
      break;
    }
    if (na == 0) break;
  }
  std::fclose(fa);
  std::fclose(fb);
  EXPECT_TRUE(same);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

std::string FileHex(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string hex;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xf];
  }
  std::fclose(f);
  return hex;
}

std::vector<std::uint8_t> HexBytes(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

TEST(Serialize, SnapshotBytesArePinned) {
  // The on-disk stream does not depend on how the tree lays out its leaves
  // in memory: a small tree with mixed key lengths must save to exactly
  // these bytes (magic, u64 count, then per entry in key order varint
  // shared, varint suffix_len, suffix, u64 value, then the CRC32 of all of
  // it; little-endian), whatever order it was built in.
  const std::string sn3_hex =
      "4443415254534e33"  // "DCARTSN3"
      "0400000000000000"  // count
      "00" "01" "01" "1100000000000000"
      "00" "04" "02aabbcc" "2222000000000000"
      "00" "08" "0300000000000007" "0807060504030201"
      "00" "0d" "040102030405060708090a0b0c" "ffffffffffffffff"
      "b502d1bb";  // CRC32 of the bytes above
  Tree tree;
  tree.Insert(Key{0x04, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
              ~Value{0});
  tree.Insert(Key{0x02, 0xaa, 0xbb, 0xcc}, 0x2222);
  tree.Insert(Key{0x01}, 0x11);
  tree.Insert(Key{0x03, 0, 0, 0, 0, 0, 0, 0x07}, 0x0102030405060708);
  const std::string path = TempPath("art_snapshot_golden.bin");
  ASSERT_TRUE(SaveTree(tree, path));
  EXPECT_EQ(FileHex(path), sn3_hex);
  std::remove(path.c_str());

  // Keys that share a prefix store only their new bytes after the first.
  Tree shared;
  shared.Insert(Key{0x10, 0x30}, 2);
  shared.Insert(Key{0x10, 0x20}, 1);
  ASSERT_TRUE(SaveTree(shared, path));
  EXPECT_EQ(FileHex(path),
            "4443415254534e33"  // "DCARTSN3"
            "0200000000000000"  // count
            "00" "02" "1020" "0100000000000000"
            "01" "01" "30" "0200000000000000"
            "e2f35646");  // CRC32
  std::remove(path.c_str());

  // The SN2 bytes this tree saved to before SN3 stay a load fixture: they
  // must yield the same tree, which saves to the same SN3 bytes.
  const std::string sn2_hex =
      "4443415254534e32"  // "DCARTSN2"
      "0400000000000000"  // count
      "01000000"
      "01"
      "1100000000000000"
      "04000000"
      "02aabbcc"
      "2222000000000000"
      "08000000"
      "0300000000000007"
      "0807060504030201"
      "0d000000"
      "040102030405060708090a0b0c"
      "ffffffffffffffff";
  const std::string sn2_path = TempPath("art_snapshot_golden_sn2.bin");
  test_util::WriteBytesToFile(sn2_path, HexBytes(sn2_hex));
  Tree loaded;
  ASSERT_TRUE(LoadTree(sn2_path, loaded));
  std::remove(sn2_path.c_str());
  ASSERT_TRUE(SaveTree(loaded, path));
  EXPECT_EQ(FileHex(path), sn3_hex);
  std::remove(path.c_str());
}

TEST(Serialize, InMemoryImageIsTheFileSaveTreeWrites) {
  // Large enough that EncodeTree hands its sink several chunks.
  Tree tree;
  SplitMix64 rng(11);
  for (int i = 0; i < 20000; ++i) tree.Insert(EncodeU64(rng.Next()), i);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(EncodeTree(tree, AppendTo(image)));
  const std::string path = TempPath("art_snapshot_image.bin");
  ASSERT_TRUE(SaveTree(tree, path));
  std::vector<std::uint8_t> file;
  ASSERT_TRUE(ReadFile(path, file));
  std::remove(path.c_str());
  EXPECT_GT(image.size(), 2u * (64 << 10));
  EXPECT_TRUE(image == file) << image.size() << " vs " << file.size();

  Tree decoded;
  ASSERT_TRUE(DecodeTree(image, decoded));
  EXPECT_EQ(decoded.size(), tree.size());
}

TEST(Serialize, EncoderRefusesAKeyTheDecoderWouldReject) {
  // Tree::Insert takes a key longer than kMaxKeyBytes; no snapshot may
  // hold one, so the encoder refuses the tree instead of writing an image
  // LoadTree would reject.
  Tree tree;
  tree.Insert(Key{0x01}, 1);
  tree.Insert(Key(kMaxKeyBytes + 1, 0x02), 2);
  std::vector<std::uint8_t> image;
  EXPECT_FALSE(EncodeTree(tree, AppendTo(image)));
  EXPECT_FALSE(SaveTree(tree, TempPath("art_snapshot_oversized.bin")));
  std::remove(TempPath("art_snapshot_oversized.bin").c_str());

  Tree at_bound;
  at_bound.Insert(Key(kMaxKeyBytes, 0x02), 2);
  image.clear();
  ASSERT_TRUE(EncodeTree(at_bound, AppendTo(image)));
  Tree decoded;
  EXPECT_TRUE(DecodeTree(image, decoded));
}

}  // namespace
}  // namespace dcart::art
