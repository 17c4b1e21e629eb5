// Malformed-file corpus for every format the repo reads back: DCARTSN1-3
// tree snapshots, DCWTRC02 workload traces, DCJRNL01 journals and their
// record payloads, and replication wire frames.  Snapshots, traces and
// journals also get seeded mutation loops.  Truncations at every
// offset, flipped magics and bits, oversized length and count fields, and
// CRC mismatches must all be rejected cleanly — no crash, no hang, no leak
// (the CI fault-injection job runs this suite under AddressSanitizer) —
// with the output left empty.  The injected short-read/short-write sites
// are exercised here too, since they produce exactly these files.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "art/serialize.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/key_codec.h"
#include "common/rng.h"
#include "legacy_snapshot.h"
#include "oracle.h"
#include "resilience/fault_injector.h"
#include "resilience/journal.h"
#include "resilience/replication.h"
#include "resilience/resilient_engine.h"
#include "workload/trace_io.h"

namespace dcart {
namespace {

using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSite;

class MalformedFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Global().Disarm();
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  std::string Temp(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/malformed_" + name;
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------- tree snapshots

art::Tree SmallTree() {
  art::Tree tree;
  for (std::uint64_t i = 0; i < 40; ++i) tree.Insert(EncodeU64(i * 7), i);
  return tree;
}

/// SmallTree as SaveTree writes it (SN3) and as older builds wrote it
/// (SN2): the loader must be as strict with the files those left.
std::vector<std::vector<std::uint8_t>> SmallTreeImages(
    const std::string& path) {
  if (!art::SaveTree(SmallTree(), path)) return {};
  return {ReadFile(path), test_util::LegacySnapshotImage(SmallTree(), '2')};
}

TEST_F(MalformedFileTest, TreeTruncatedAtEveryOffsetIsRejected) {
  const std::string good = Temp("tree_good.bin");
  const std::vector<std::vector<std::uint8_t>> images =
      SmallTreeImages(good);
  ASSERT_EQ(images.size(), 2u);

  const std::string cut = Temp("tree_cut.bin");
  for (const std::vector<std::uint8_t>& bytes : images) {
    SCOPED_TRACE(std::string(bytes.begin(), bytes.begin() + 8));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      WriteFile(cut, {bytes.begin(), bytes.begin() + len});
      art::Tree out;
      EXPECT_FALSE(art::LoadTree(cut, out)) << "accepted " << len << " bytes";
      EXPECT_TRUE(out.empty());
    }
    // Sanity: the untruncated file still loads.
    WriteFile(cut, bytes);
    art::Tree out;
    EXPECT_TRUE(art::LoadTree(cut, out));
    EXPECT_EQ(out.size(), SmallTree().size());
  }
}

TEST_F(MalformedFileTest, TreeBadMagicAndOversizedFieldsAreRejected) {
  const std::string good = Temp("tree_good2.bin");
  const std::vector<std::vector<std::uint8_t>> images =
      SmallTreeImages(good);
  ASSERT_EQ(images.size(), 2u);

  const std::string bad = Temp("tree_bad.bin");
  for (const std::vector<std::uint8_t>& bytes : images) {
    SCOPED_TRACE(std::string(bytes.begin(), bytes.begin() + 8));
    // Every byte of the magic flipped, one at a time.
    for (std::size_t i = 0; i < 8; ++i) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[i] ^= 0xff;
      WriteFile(bad, mutated);
      art::Tree out;
      EXPECT_FALSE(art::LoadTree(bad, out)) << "magic byte " << i;
      EXPECT_TRUE(out.empty());
    }

    // A count far beyond what the file could hold must not drive a huge
    // allocation — the loader bounds it against the remaining bytes.
    {
      std::vector<std::uint8_t> mutated = bytes;
      const std::uint64_t huge = ~0ull / 2;
      std::memcpy(mutated.data() + 8, &huge, sizeof huge);
      WriteFile(bad, mutated);
      art::Tree out;
      EXPECT_FALSE(art::LoadTree(bad, out));
      EXPECT_TRUE(out.empty());
    }

    // An oversized length field in the first entry (offset 16) likewise.
    {
      std::vector<std::uint8_t> mutated = bytes;
      const std::uint32_t huge = ~0u;
      std::memcpy(mutated.data() + 16, &huge, sizeof huge);
      WriteFile(bad, mutated);
      art::Tree out;
      EXPECT_FALSE(art::LoadTree(bad, out));
      EXPECT_TRUE(out.empty());
    }
  }
}

// SN3 images forged field by field (art/serialize.h), so a test can write
// what SaveTree never would and still seal it with a valid CRC: each case
// then reaches the field check it targets instead of the CRC check.
class Sn3Forge {
 public:
  explicit Sn3Forge(std::uint64_t count) {
    bytes_ = {'D', 'C', 'A', 'R', 'T', 'S', 'N', '3'};
    Pod(count);
  }

  /// One entry: varint shared, varint suffix_len, suffix, u64 value.
  Sn3Forge& Entry(std::uint32_t shared, const std::vector<std::uint8_t>& suffix,
                  std::uint64_t value) {
    Varint(shared);
    Varint(static_cast<std::uint32_t>(suffix.size()));
    Raw(suffix);
    Pod(value);
    return *this;
  }

  Sn3Forge& Varint(std::uint32_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
    return *this;
  }

  Sn3Forge& Raw(const std::vector<std::uint8_t>& raw) {
    bytes_.insert(bytes_.end(), raw.begin(), raw.end());
    return *this;
  }

  template <typename T>
  Sn3Forge& Pod(T value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof value);
    return *this;
  }

  /// The image with its CRC32 trailer.
  std::vector<std::uint8_t> Sealed() const { return Seal(bytes_); }

  static std::vector<std::uint8_t> Seal(std::vector<std::uint8_t> body) {
    const std::uint32_t crc = Crc32(body.data(), body.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(&crc);
    body.insert(body.end(), p, p + sizeof crc);
    return body;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

TEST_F(MalformedFileTest, TreeSn3FieldCorruptionsAreRejected) {
  const std::string path = Temp("tree_sn3_forged.bin");
  const auto loads = [&](const std::vector<std::uint8_t>& image,
                         std::size_t expect_size) {
    WriteFile(path, image);
    art::Tree out;
    const bool ok = art::LoadTree(path, out);
    EXPECT_EQ(out.size(), ok ? expect_size : 0u);
    return ok;
  };

  // The control: keys {10 20} and {10 30}, the second sharing one byte.
  EXPECT_TRUE(loads(Sn3Forge(2).Entry(0, {0x10, 0x20}, 1)
                        .Entry(1, {0x30}, 2)
                        .Sealed(),
                    2));

  EXPECT_FALSE(loads(Sn3Forge(1).Entry(1, {0x20}, 1).Sealed(), 0))
      << "shared > 0 on the first entry";
  EXPECT_FALSE(loads(Sn3Forge(2).Entry(0, {0x10, 0x20}, 1)
                         .Entry(3, {0x30}, 2)
                         .Sealed(),
                     0))
      << "shared > the previous key's length";
  // A zero suffix_len also makes the key a prefix of its predecessor, so
  // the order check would catch it too; the loader names it first.
  EXPECT_FALSE(loads(Sn3Forge(2).Entry(0, {0x10, 0x20}, 1)
                         .Entry(1, {}, 2)
                         .Sealed(),
                     0))
      << "suffix_len = 0";
  EXPECT_FALSE(loads(Sn3Forge(1).Entry(0, {}, 1).Sealed(), 0))
      << "an empty first key";
  EXPECT_FALSE(loads(Sn3Forge(2).Entry(0, {0x10, 0x20}, 1)
                         .Raw({0x81, 0x80, 0x80, 0x00})  // shared = 1
                         .Varint(1)
                         .Raw({0x30})
                         .Pod(std::uint64_t{2})
                         .Sealed(),
                     0))
      << "a 4-byte varint";
  EXPECT_FALSE(loads(Sn3Forge(1).Varint(0).Varint(100).Raw({0x10, 0x20})
                         .Pod(std::uint64_t{1})
                         .Sealed(),
                     0))
      << "a suffix running past the end of the image";
  EXPECT_FALSE(loads(Sn3Forge(2).Entry(0, {0x10, 0x20}, 1)
                         .Entry(1, {0x20}, 2)
                         .Sealed(),
                     0))
      << "a key equal to its predecessor";
  EXPECT_FALSE(loads(Sn3Forge(2).Entry(0, {0x10, 0x20}, 1)
                         .Entry(1, {0x05}, 2)
                         .Sealed(),
                     0))
      << "a key below its predecessor";
  EXPECT_FALSE(loads(Sn3Forge(2).Entry(0, {0x10, 0x20}, 1)
                         .Entry(2, {0x40}, 2)
                         .Sealed(),
                     0))
      << "a key extending its predecessor (keys are prefix-free)";
  EXPECT_FALSE(loads(Sn3Forge(1).Entry(0, {0x10}, 1).Raw({0x00}).Sealed(),
                     0))
      << "a byte after the last entry";
  EXPECT_FALSE(loads(Sn3Forge(3).Entry(0, {0x10, 0x20}, 1)
                         .Entry(1, {0x30}, 2)
                         .Sealed(),
                     0))
      << "a count above the entries present";
  EXPECT_FALSE(loads(Sn3Forge(~0ull / 2).Entry(0, {0x10}, 1).Sealed(), 0))
      << "a count no file could hold";

  std::vector<std::uint8_t> bad_crc =
      Sn3Forge(2).Entry(0, {0x10, 0x20}, 1).Entry(1, {0x30}, 2).Sealed();
  bad_crc.back() ^= 0x01;
  EXPECT_FALSE(loads(bad_crc, 0)) << "a CRC mismatch";
}

TEST_F(MalformedFileTest, TreeTornSaveAtEveryChunkIsRejected) {
  // A tree whose image spans several of SaveTree's write chunks; tearing
  // the Nth write leaves every earlier chunk on disk and half of the Nth.
  art::Tree tree;
  SplitMix64 rng(FaultSeed());
  for (int i = 0; i < 40000; ++i) tree.Insert(EncodeU64(rng.Next()), i);
  const std::string path = Temp("tree_torn_chunk.bin");
  std::size_t torn = 0;
  for (std::uint64_t write = 1;; ++write) {
    FaultPlan plan;
    plan.TriggerAt(FaultSite::kFileShortWrite) = write;
    FaultInjector::Global().Arm(plan);
    const bool saved = art::SaveTree(tree, path);
    FaultInjector::Global().Disarm();
    if (saved) break;  // the fault landed past the last write
    ++torn;
    art::Tree out;
    EXPECT_FALSE(art::LoadTree(path, out)) << "write " << write;
    EXPECT_TRUE(out.empty());
  }
  EXPECT_GE(torn, 4u);  // several chunks, then the trailer
  art::Tree out;
  ASSERT_TRUE(art::LoadTree(path, out));
  EXPECT_EQ(out.size(), tree.size());
}

TEST_F(MalformedFileTest, TreeSeededMutationsAreRejectedOrLoadSorted) {
  const std::string good = Temp("tree_mutation_good.bin");
  ASSERT_TRUE(art::SaveTree(SmallTree(), good));
  const std::vector<std::uint8_t> bytes = ReadFile(good);
  const std::string bad = Temp("tree_mutation_bad.bin");
  SplitMix64 rng(FaultSeed());

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const auto flip = static_cast<std::uint8_t>(1 + rng.NextBounded(255));
    std::vector<std::uint8_t> mutated = bytes;
    mutated[i] ^= flip;
    // Raw: the CRC trailer (or, for the magic, the legacy count bound)
    // catches every single-byte change.
    WriteFile(bad, mutated);
    art::Tree out;
    EXPECT_FALSE(art::LoadTree(bad, out)) << "raw flip at " << i;
    EXPECT_TRUE(out.empty());

    // Resealed: with a valid CRC the field checks are all that stands
    // between the bytes and the tree.  A load may succeed, but only into
    // a strictly increasing, prefix-free key set.
    if (i + 4 > bytes.size()) continue;  // the trailer itself
    mutated.resize(bytes.size() - 4);
    WriteFile(bad, Sn3Forge::Seal(mutated));
    art::Tree resealed;
    if (!art::LoadTree(bad, resealed)) {
      EXPECT_TRUE(resealed.empty());
      continue;
    }
    Key prev;
    std::size_t seen = 0;
    resealed.ScanFrom({}, [&](KeyView key, art::Value) {
      if (seen++ > 0) {
        EXPECT_LT(CompareKeys(prev, key), 0) << "resealed flip at " << i;
        EXPECT_LT(CommonPrefixLength(prev, key), prev.size());
      }
      prev.assign(key.begin(), key.end());
      return true;
    });
    EXPECT_EQ(seen, resealed.size());
  }
}

// ------------------------------------------------------ workload traces

Workload SmallWorkload() {
  Workload w;
  w.name = "corpus";
  for (std::uint64_t i = 0; i < 12; ++i) {
    w.load_items.emplace_back(EncodeU64(i), i);
  }
  // One op of every type, so every parser branch is on disk — including
  // kRemove (type 3), which a past loader bug rejected as corruption.
  w.ops.push_back({OpType::kRead, EncodeU64(1), 0});
  w.ops.push_back({OpType::kWrite, EncodeU64(2), 99});
  w.ops.push_back({OpType::kScan, EncodeU64(3), 0, 5});
  w.ops.push_back({OpType::kRemove, EncodeU64(4), 0});
  return w;
}

TEST_F(MalformedFileTest, WorkloadWithRemovesRoundTrips) {
  const std::string path = Temp("trace_removes.bin");
  ASSERT_TRUE(SaveWorkload(SmallWorkload(), path));
  Workload out;
  ASSERT_TRUE(LoadWorkload(path, out));
  ASSERT_EQ(out.ops.size(), 4u);
  EXPECT_EQ(out.ops[3].type, OpType::kRemove);
  EXPECT_EQ(out.ops[2].scan_count, 5u);

  // Every engine answers a read or remove of an empty key as a miss, so
  // unlike an empty write key they are no corruption.
  Workload empty_keys = SmallWorkload();
  empty_keys.ops[0].key.clear();  // the kRead
  empty_keys.ops[3].key.clear();  // the kRemove
  ASSERT_TRUE(SaveWorkload(empty_keys, path));
  ASSERT_TRUE(LoadWorkload(path, out));
  ASSERT_EQ(out.ops.size(), 4u);
  EXPECT_TRUE(out.ops[0].key.empty());
  EXPECT_EQ(out.ops[3].type, OpType::kRemove);
  EXPECT_TRUE(out.ops[3].key.empty());
}

TEST_F(MalformedFileTest, WorkloadTruncatedAtEveryOffsetIsRejected) {
  const std::string good = Temp("trace_good.bin");
  ASSERT_TRUE(SaveWorkload(SmallWorkload(), good));
  const std::vector<std::uint8_t> bytes = ReadFile(good);
  ASSERT_FALSE(bytes.empty());

  const std::string cut = Temp("trace_cut.bin");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(cut, {bytes.begin(), bytes.begin() + len});
    Workload out;
    EXPECT_FALSE(LoadWorkload(cut, out)) << "accepted " << len << " bytes";
    EXPECT_TRUE(out.load_items.empty());
    EXPECT_TRUE(out.ops.empty());
  }
}

TEST_F(MalformedFileTest, WorkloadBadMagicCountsAndOpTypeAreRejected) {
  const std::string good = Temp("trace_good2.bin");
  const Workload w = SmallWorkload();
  ASSERT_TRUE(SaveWorkload(w, good));
  const std::vector<std::uint8_t> bytes = ReadFile(good);
  const std::string bad = Temp("trace_bad.bin");

  const auto expect_rejected = [&](std::vector<std::uint8_t> mutated,
                                   const char* what) {
    WriteFile(bad, mutated);
    Workload out;
    EXPECT_FALSE(LoadWorkload(bad, out)) << what;
    EXPECT_TRUE(out.name.empty()) << what;
    EXPECT_TRUE(out.load_items.empty()) << what;
    EXPECT_TRUE(out.ops.empty()) << what;
  };
  // SaveWorkload writes what it is given, so it can forge an empty key.
  const auto saved_bytes = [&](const Workload& forged) {
    EXPECT_TRUE(SaveWorkload(forged, bad));
    return ReadFile(bad);
  };

  {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[0] ^= 0xff;
    expect_rejected(mutated, "flipped magic");
  }
  {
    // load_count (after magic + u32 name_len + name bytes).
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t pos = 8 + 4 + w.name.size();
    const std::uint64_t huge = ~0ull / 2;
    std::memcpy(mutated.data() + pos, &huge, sizeof huge);
    expect_rejected(mutated, "oversized load_count");
  }
  {
    // First load item's key_len.
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t pos = 8 + 4 + w.name.size() + 8;
    const std::uint32_t huge = ~0u;
    std::memcpy(mutated.data() + pos, &huge, sizeof huge);
    expect_rejected(mutated, "oversized key_len");
  }
  {
    // First op's type byte -> 200 (far past kRemove).
    std::vector<std::uint8_t> mutated = bytes;
    std::size_t pos = 8 + 4 + w.name.size() + 8;
    for (const auto& [key, value] : w.load_items) {
      pos += 4 + key.size() + 8;
    }
    pos += 8;  // op_count
    mutated[pos] = 200;
    expect_rejected(mutated, "invalid op type");
  }
  {
    Workload forged = w;
    forged.load_items[0].first.clear();
    expect_rejected(saved_bytes(forged), "empty load key");
  }
  {
    Workload forged = w;
    forged.ops[1].key.clear();  // the kWrite
    expect_rejected(saved_bytes(forged), "empty write key");
  }
  // Load and write keys all become tree keys, which must be prefix-free.
  {
    Workload forged = w;
    forged.load_items.emplace_back(Key{'a'}, 1);
    forged.load_items.emplace_back(Key{'a', 'b'}, 2);
    expect_rejected(saved_bytes(forged), "load keys a and ab");
  }
  {
    Workload forged = w;
    Key longer = w.load_items[5].first;
    longer.push_back(0x01);
    forged.ops.push_back({OpType::kWrite, longer, 3});
    expect_rejected(saved_bytes(forged), "a write extending a load key");
  }
  {
    Workload forged = w;
    forged.ops.push_back({OpType::kWrite, Key{0x7f}, 3});
    forged.load_items.emplace_back(Key{0x7f, 0x01}, 4);
    expect_rejected(saved_bytes(forged), "a load key extending a write key");
  }
}

/// Offsets and widths of every length and count field of `w`'s trace.
std::vector<std::pair<std::size_t, std::size_t>> TraceLengthFields(
    const Workload& w) {
  std::vector<std::pair<std::size_t, std::size_t>> fields = {{8, 4}};
  std::size_t pos = 8 + 4 + w.name.size();
  fields.emplace_back(pos, 8);  // load_count
  pos += 8;
  for (const auto& [key, value] : w.load_items) {
    fields.emplace_back(pos, 4);
    pos += 4 + key.size() + 8;
  }
  fields.emplace_back(pos, 8);  // op_count
  pos += 8;
  for (const Operation& op : w.ops) {
    fields.emplace_back(pos + 1, 4);
    pos += 1 + 4 + op.key.size() + 8 + 4;
  }
  return fields;
}

TEST_F(MalformedFileTest, WorkloadSeededMutationsAreRejectedOrDecodeClean) {
  const Workload w = SmallWorkload();
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(EncodeWorkload(w, AppendTo(bytes)));
  SplitMix64 rng(FaultSeed());

  // A mutant is rejected with `out` empty, or it is a workload an engine
  // can run that re-encodes and decodes to itself.
  const auto check = [](const std::vector<std::uint8_t>& mutated,
                        const std::string& what) {
    Workload out;
    if (!DecodeWorkload(mutated, out)) {
      EXPECT_TRUE(out.name.empty()) << what;
      EXPECT_TRUE(out.load_items.empty()) << what;
      EXPECT_TRUE(out.ops.empty()) << what;
      return;
    }
    std::vector<Key> stored;
    for (const auto& [key, value] : out.load_items) stored.push_back(key);
    for (const Operation& op : out.ops) {
      EXPECT_LE(static_cast<int>(op.type), 3) << what;
      if (op.type == OpType::kWrite) stored.push_back(op.key);
    }
    std::sort(stored.begin(), stored.end());
    stored.erase(std::unique(stored.begin(), stored.end()), stored.end());
    for (std::size_t i = 0; i < stored.size(); ++i) {
      EXPECT_FALSE(stored[i].empty()) << what;
      if (i > 0) {
        EXPECT_TRUE(FollowsInOrder(stored[i - 1], stored[i])) << what;
      }
    }
    std::vector<std::uint8_t> again;
    ASSERT_TRUE(EncodeWorkload(out, AppendTo(again))) << what;
    Workload back;
    ASSERT_TRUE(DecodeWorkload(again, back)) << what;
    EXPECT_EQ(back.name, out.name) << what;
    EXPECT_EQ(back.load_items, out.load_items) << what;
    ASSERT_EQ(back.ops.size(), out.ops.size()) << what;
    for (std::size_t i = 0; i < out.ops.size(); ++i) {
      EXPECT_EQ(back.ops[i].type, out.ops[i].type) << what;
      EXPECT_EQ(back.ops[i].key, out.ops[i].key) << what;
      EXPECT_EQ(back.ops[i].value, out.ops[i].value) << what;
      EXPECT_EQ(back.ops[i].scan_count, out.ops[i].scan_count) << what;
    }
  };

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[i] ^= static_cast<std::uint8_t>(1 + rng.NextBounded(255));
    check(mutated, "flip at " + std::to_string(i));
  }
  for (const auto& [at, width] : TraceLengthFields(w)) {
    std::vector<std::uint8_t> mutated = bytes;
    std::fill_n(mutated.begin() + static_cast<std::ptrdiff_t>(at), width,
                0xff);
    check(mutated, "field at " + std::to_string(at) + " inflated");
  }
}

// ------------------------------------------------------------- journals

/// Replay the journal at `path`, which must be readable, and return the
/// number of records it held.
std::uint64_t ReplayRecords(const std::string& path,
                            std::vector<Operation>& out) {
  std::uint64_t records = 0;
  EXPECT_TRUE(resilience::ReplayJournal(path, out, &records).ok()) << path;
  return records;
}

TEST_F(MalformedFileTest, JournalCorruptionsTruncateNeverCrash) {
  const std::string good = Temp("journal_good.log");
  std::vector<Operation> ops;
  for (std::uint64_t i = 0; i < 30; ++i) {
    ops.push_back({OpType::kWrite, EncodeU64(i), i});
  }
  resilience::OpJournal journal;
  ASSERT_TRUE(journal.Open(good));
  ASSERT_TRUE(journal.Append({ops.data(), 10}).ok());
  ASSERT_TRUE(journal.Append({ops.data() + 10, 10}).ok());
  ASSERT_TRUE(journal.Append({ops.data() + 20, 10}).ok());
  journal.Close();
  const std::vector<std::uint8_t> bytes = ReadFile(good);

  // Truncation at every offset yields some valid prefix of the records —
  // never a crash, never a partially-parsed record.
  const std::string cut = Temp("journal_cut.log");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(cut, {bytes.begin(), bytes.begin() + len});
    std::vector<Operation> replayed;
    const std::uint64_t records = ReplayRecords(cut, replayed);
    EXPECT_LE(records, 3u);
    EXPECT_EQ(replayed.size(), records * 10);  // whole records only
  }

  // A flipped payload byte fails that record's CRC: replay keeps the
  // records before it and truncates from there.
  const std::string bad = Temp("journal_bad.log");
  {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[mutated.size() - 5] ^= 0x01;  // inside the last record
    WriteFile(bad, mutated);
    std::vector<Operation> replayed;
    EXPECT_EQ(ReplayRecords(bad, replayed), 2u);
    EXPECT_EQ(replayed.size(), 20u);
  }
  // A flipped magic byte rejects the whole file.
  {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[3] ^= 0xff;
    WriteFile(bad, mutated);
    std::vector<Operation> replayed;
    EXPECT_EQ(ReplayRecords(bad, replayed), 0u);
    EXPECT_TRUE(replayed.empty());
  }
  // An absurd length field is treated as corruption, not an allocation.
  {
    std::vector<std::uint8_t> mutated(bytes.begin(), bytes.begin() + 8);
    const std::uint32_t huge = ~0u;
    mutated.insert(mutated.end(), reinterpret_cast<const std::uint8_t*>(&huge),
                   reinterpret_cast<const std::uint8_t*>(&huge) + 4);
    mutated.insert(mutated.end(), {1, 2, 3, 4});
    WriteFile(bad, mutated);
    std::vector<Operation> replayed;
    EXPECT_EQ(ReplayRecords(bad, replayed), 0u);
    EXPECT_TRUE(replayed.empty());
  }
}

/// A 12-byte record payload (sequence, op_count) whose count no payload of
/// that length could hold: a CRC over it is valid, so only the count bound
/// stands between it and a reserve() of op_count entries.
std::vector<std::uint8_t> ForgedCountPayload(std::uint64_t sequence) {
  std::vector<std::uint8_t> payload(12);
  const std::uint32_t op_count = 0xFFFFFFFFu;
  std::memcpy(payload.data(), &sequence, sizeof sequence);
  std::memcpy(payload.data() + 8, &op_count, sizeof op_count);
  return payload;
}

TEST_F(MalformedFileTest, RecordPayloadOpCountBeyondItsBytesIsRejected) {
  std::vector<Operation> out = {{OpType::kWrite, EncodeU64(7), 7}};
  std::uint64_t sequence = 0;
  Status decoded;
  EXPECT_NO_THROW(decoded = resilience::DecodeRecordPayload(
                      ForgedCountPayload(0), sequence, out));
  EXPECT_FALSE(decoded.ok());
  ASSERT_EQ(out.size(), 1u);  // untouched
  EXPECT_EQ(out[0].key, EncodeU64(7));

  // One op fewer than the count promises is rejected the same way.
  std::vector<Operation> one = {{OpType::kWrite, EncodeU64(1), 1}};
  std::vector<std::uint8_t> payload;
  resilience::EncodeRecordPayload(3, one, payload);
  const std::uint32_t two = 2;
  std::memcpy(payload.data() + 8, &two, sizeof two);
  out.clear();
  EXPECT_FALSE(resilience::DecodeRecordPayload(payload, sequence, out).ok());
  EXPECT_TRUE(out.empty());
}

/// A record payload whose second op has an empty key.  The encoder writes
/// what it is given, so the payload and its CRC are otherwise valid.
std::vector<std::uint8_t> EmptyKeyPayload(std::uint64_t sequence,
                                          OpType type) {
  const std::vector<Operation> ops = {{OpType::kWrite, EncodeU64(9), 9},
                                      {type, Key{}, 1}};
  std::vector<std::uint8_t> payload;
  resilience::EncodeRecordPayload(sequence, ops, payload);
  return payload;
}

TEST_F(MalformedFileTest, RecordPayloadWithEmptyWriteKeyIsRejected) {
  std::vector<Operation> out = {{OpType::kWrite, EncodeU64(7), 7}};
  std::uint64_t sequence = 0;
  EXPECT_FALSE(resilience::DecodeRecordPayload(
                   EmptyKeyPayload(0, OpType::kWrite), sequence, out)
                   .ok());
  ASSERT_EQ(out.size(), 1u);  // untouched
  EXPECT_EQ(out[0].key, EncodeU64(7));

  // An engine acknowledges an empty-key remove as a no-op, so its record
  // must replay as one.
  ASSERT_TRUE(resilience::DecodeRecordPayload(
                  EmptyKeyPayload(3, OpType::kRemove), sequence, out)
                  .ok());
  EXPECT_EQ(sequence, 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].type, OpType::kRemove);
  EXPECT_TRUE(out[2].key.empty());
}

TEST_F(MalformedFileTest, JournalWithForgedOpCountReplaysOnlyTheGoodRecord) {
  // A forged count, then a record with an empty write key: both are
  // CRC-valid.
  for (const std::vector<std::uint8_t>& forged :
       {ForgedCountPayload(1), EmptyKeyPayload(1, OpType::kWrite)}) {
    const std::string path = Temp("journal_forged_count.log");
    const std::vector<Operation> ops = {{OpType::kWrite, EncodeU64(1), 11},
                                        {OpType::kRemove, EncodeU64(2), 0}};
    resilience::OpJournal journal;
    ASSERT_TRUE(journal.Open(path));
    ASSERT_TRUE(journal.Append(ops).ok());
    journal.Close();
    std::vector<std::uint8_t> bytes = ReadFile(path);
    const auto len = static_cast<std::uint32_t>(forged.size());
    const std::uint32_t crc = Crc32(forged.data(), forged.size());
    bytes.insert(bytes.end(), reinterpret_cast<const std::uint8_t*>(&len),
                 reinterpret_cast<const std::uint8_t*>(&len) + sizeof len);
    bytes.insert(bytes.end(), reinterpret_cast<const std::uint8_t*>(&crc),
                 reinterpret_cast<const std::uint8_t*>(&crc) + sizeof crc);
    bytes.insert(bytes.end(), forged.begin(), forged.end());
    WriteFile(path, bytes);

    std::vector<Operation> replayed;
    std::uint64_t records = 0;
    EXPECT_NO_THROW(records = ReplayRecords(path, replayed));
    EXPECT_EQ(records, 1u);
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_EQ(replayed[0].key, EncodeU64(1));
    EXPECT_EQ(replayed[0].value, 11u);
    EXPECT_EQ(replayed[1].type, OpType::kRemove);
  }
}

TEST_F(MalformedFileTest, JournalLengthPastItsFileAllocatesNothing) {
  // A record header claiming a 256 MiB payload in a 36-byte file.  Replay
  // must size nothing by the claim; this process's peak RSS is the witness
  // (zero-filling the claimed buffer would touch all of it).
  const std::string path = Temp("journal_forged_len.log");
  std::vector<std::uint8_t> bytes = {'D', 'C', 'J', 'R', 'N', 'L', '0', '1'};
  ByteWriter header(bytes);
  header.Pod(std::uint32_t{256u << 20});
  header.Pod(std::uint32_t{0});
  bytes.resize(36, 0xab);
  WriteFile(path, bytes);

  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  std::vector<Operation> replayed;
  EXPECT_EQ(ReplayRecords(path, replayed), 0u);
  EXPECT_TRUE(replayed.empty());
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024)  // KiB
      << "replay allocated by the forged length";
}

TEST_F(MalformedFileTest, JournalSeededMutationsDecodeToAPrefixOfTheRecords) {
  // Three records laid out as OpJournal writes them, in memory.
  std::vector<std::vector<Operation>> records(3);
  std::vector<std::uint8_t> image = {'D', 'C', 'J', 'R', 'N', 'L', '0', '1'};
  std::vector<std::size_t> len_fields;
  for (std::uint64_t r = 0; r < records.size(); ++r) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      records[r].push_back({OpType::kWrite, EncodeU64(r * 10 + i), r + i});
    }
    records[r].push_back({OpType::kRemove, EncodeU64(r * 10), 0});
    std::vector<std::uint8_t> payload;
    const std::uint32_t crc =
        resilience::EncodeRecordPayload(r, records[r], payload);
    len_fields.push_back(image.size());
    ByteWriter out(image);
    out.Pod(static_cast<std::uint32_t>(payload.size()));
    out.Pod(crc);
    out.Bytes(payload.data(), payload.size());
  }

  // Every mutant decodes to the ops of its first k records, k included.
  const auto check = [&records](const std::vector<std::uint8_t>& mutated,
                                const std::string& what) {
    std::vector<Operation> out;
    const std::uint64_t k = resilience::DecodeJournal(mutated, out);
    ASSERT_LE(k, records.size()) << what;
    std::vector<Operation> want;
    for (std::uint64_t r = 0; r < k; ++r) {
      want.insert(want.end(), records[r].begin(), records[r].end());
    }
    ASSERT_EQ(out.size(), want.size()) << what;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].type, want[i].type) << what;
      EXPECT_EQ(out[i].key, want[i].key) << what;
      EXPECT_EQ(out[i].value, want[i].value) << what;
    }
  };
  {
    std::vector<Operation> all;
    ASSERT_EQ(resilience::DecodeJournal(image, all), records.size());
  }
  SplitMix64 rng(FaultSeed());
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::vector<std::uint8_t> mutated = image;
    mutated[i] ^= static_cast<std::uint8_t>(1 + rng.NextBounded(255));
    check(mutated, "flip at " + std::to_string(i));
  }
  for (std::size_t len = 0; len < image.size(); ++len) {
    check({image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len)},
          "cut at " + std::to_string(len));
  }
  for (const std::size_t at : len_fields) {
    for (const std::uint32_t len : {~0u, resilience::kMaxPayloadBytes}) {
      std::vector<std::uint8_t> mutated = image;
      std::memcpy(mutated.data() + at, &len, sizeof len);
      check(mutated, "len at " + std::to_string(at) + " inflated");
    }
  }
}

TEST_F(MalformedFileTest, JournalShortReadFailsRecoveryNamingTheJournal) {
  // Recovery reads the newest snapshot, then its journal.  A short read of
  // that journal must fail the recovery and name the file; recovering a
  // shorter tail than the file holds would drop acknowledged batches.
  namespace fs = std::filesystem;
  resilience::ResilienceOptions options;
  options.dir = ::testing::TempDir() + "/malformed_recover_short_read";
  options.journal_to_snapshot_ratio = 2;
  fs::remove_all(options.dir);
  std::vector<std::pair<Key, art::Value>> items;
  for (std::uint64_t i = 0; i < 100; ++i) items.emplace_back(EncodeU64(i), i);
  std::vector<Operation> ops;
  for (std::uint64_t i = 0; i < 128; ++i) {
    ops.push_back({OpType::kWrite, EncodeU64(50 + i), 1000 + i});
  }
  RunConfig run;
  // Each record is about 0.7 of the 100-key snapshot, so generation 1
  // rolls after batch 3 and batch 4 is the newest journal.
  run.batch_size = 32;
  {
    resilience::ResilientEngine engine(options);
    engine.Load(items);
    ASSERT_TRUE(engine.Run(ops, run).status.ok());
  }
  const resilience::GenerationDir dir(options.dir,
                                     options.journal_to_snapshot_ratio);
  std::error_code ec;
  const std::vector<std::uint64_t> generations = dir.Scan(ec);
  ASSERT_FALSE(generations.empty());
  const std::string newest_journal = dir.JournalPath(generations.front());

  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.TriggerAt(FaultSite::kFileShortRead) = 2;  // snapshot 1st, journal 2nd
  FaultInjector::Global().Arm(plan);
  resilience::ResilientEngine restarted(options);
  const bool recovered = restarted.Recover();
  EXPECT_EQ(FaultInjector::Global().fires(FaultSite::kFileShortRead), 1u);
  FaultInjector::Global().Disarm();
  if (recovered) {
    art::Tree want;
    for (const auto& [key, value] : items) want.Insert(key, value);
    resilience::ApplyToTree(want, ops);
    EXPECT_EQ(resilience::TreeItems(restarted.tree()),
              resilience::TreeItems(want));
  } else {
    EXPECT_NE(restarted.last_recover_error().message().find(newest_journal),
              std::string::npos)
        << restarted.last_recover_error().message();
  }
  fs::remove_all(options.dir);
}

// ------------------------------------------------- replication wire frames

/// What a scripted pipe saw written, and what it hands out to reads.
struct PipeScript {
  std::vector<std::uint8_t> written;
  std::vector<std::uint8_t> to_read;
};

/// A BytePipe that records every write and serves `to_read` to reads, so a
/// test can capture a real wire image and feed the link arbitrary bytes.
class ScriptedPipe : public resilience::BytePipe {
 public:
  explicit ScriptedPipe(PipeScript* script) : script_(script) {}
  Status Connect() override { return Status::Ok(); }
  void Close() override {}
  bool Write(resilience::Direction, std::vector<std::uint8_t>& bytes) override {
    script_->written.insert(script_->written.end(), bytes.begin(), bytes.end());
    bytes.clear();
    return true;
  }
  bool Read(resilience::Direction, std::vector<std::uint8_t>& rx,
            std::size_t max) override {
    const std::size_t n = std::min(max, script_->to_read.size());
    rx.insert(rx.end(), script_->to_read.begin(),
              script_->to_read.begin() + static_cast<std::ptrdiff_t>(n));
    script_->to_read.erase(
        script_->to_read.begin(),
        script_->to_read.begin() + static_cast<std::ptrdiff_t>(n));
    return true;
  }

 private:
  PipeScript* script_;
};

resilience::Frame WireTestFrame() {
  resilience::Frame frame;
  frame.sequence = 5;
  frame.has_checksum = true;
  frame.tree_checksum = 0x0123456789abcdefull;
  const std::vector<Operation> ops = {
      {OpType::kWrite, Key(16, 0xab), 77}};
  frame.payload_crc =
      resilience::EncodeRecordPayload(frame.sequence, ops, frame.payload);
  return frame;
}

/// The link's own wire image of WireTestFrame(), captured off the pipe.
std::vector<std::uint8_t> WireImage() {
  PipeScript script;
  resilience::ReplicationLink link(std::make_unique<ScriptedPipe>(&script));
  EXPECT_TRUE(link.Connect().ok());
  EXPECT_TRUE(link.SendToReplica(WireTestFrame()).ok());
  link.Tick();
  return script.written;
}

/// Feed `bytes` to a fresh link at the replica end and count the frames it
/// delivers; `torn` reports whether the link dropped the connection.
std::size_t Deliveries(std::vector<std::uint8_t> bytes, bool& torn,
                       resilience::Frame* last = nullptr) {
  PipeScript script;
  script.to_read = std::move(bytes);
  resilience::ReplicationLink link(std::make_unique<ScriptedPipe>(&script));
  EXPECT_TRUE(link.Connect().ok());
  std::size_t delivered = 0;
  resilience::Frame frame;
  while (link.ReceiveAtReplica(frame)) {
    ++delivered;
    if (last != nullptr) *last = frame;
  }
  EXPECT_FALSE(link.ReceiveAtReplica(frame));  // nothing more arrives later
  torn = !link.connected();
  return delivered;
}

TEST_F(MalformedFileTest, WireFrameValidImageIsDeliveredExactlyOnce) {
  const std::vector<std::uint8_t> image = WireImage();
  ASSERT_EQ(image.size(), 8u + 26u + WireTestFrame().payload.size());
  bool torn = true;
  resilience::Frame got;
  EXPECT_EQ(Deliveries(image, torn, &got), 1u);
  EXPECT_FALSE(torn);
  const resilience::Frame want = WireTestFrame();
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.payload_crc, want.payload_crc);
  EXPECT_TRUE(got.has_checksum);
  EXPECT_EQ(got.tree_checksum, want.tree_checksum);
  EXPECT_EQ(got.payload, want.payload);
}

TEST_F(MalformedFileTest, WireFrameFlipsAndTruncationsNeverDeliver) {
  const std::vector<std::uint8_t> image = WireImage();
  std::uint32_t wire_len = 0;
  std::memcpy(&wire_len, image.data(), sizeof wire_len);
  for (std::size_t bit = 0; bit < image.size() * 8; ++bit) {
    std::vector<std::uint8_t> flipped = image;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    bool torn = false;
    EXPECT_EQ(Deliveries(flipped, torn), 0u) << "bit " << bit;
    // A flip that grows the length field waits for bytes that never come;
    // every other flip fails the framing and tears the link.
    std::uint32_t flipped_len = 0;
    std::memcpy(&flipped_len, flipped.data(), sizeof flipped_len);
    const bool waits = bit < 32 && flipped_len > wire_len &&
                       flipped_len <= 26 + resilience::kMaxPayloadBytes;
    EXPECT_EQ(torn, !waits) << "bit " << bit;
  }
  for (std::size_t len = 0; len < image.size(); ++len) {
    bool torn = true;
    EXPECT_EQ(Deliveries({image.begin(), image.begin() + len}, torn), 0u)
        << "cut at " << len;
    EXPECT_FALSE(torn) << "a prefix of a valid image is not a tear";
  }
}

TEST_F(MalformedFileTest, WireFrameLengthBoundIsTheRecordPayloadBound) {
  const auto header = [](std::uint32_t wire_len) {
    std::vector<std::uint8_t> bytes(16, 0);
    std::memcpy(bytes.data(), &wire_len, sizeof wire_len);
    return bytes;
  };
  // Past 26 header bytes plus the largest record payload: torn at once.
  bool torn = false;
  EXPECT_EQ(Deliveries(header(26 + resilience::kMaxPayloadBytes + 1), torn),
            0u);
  EXPECT_TRUE(torn);
  // Above the old 64 MiB socket bound but within the shared one: the link
  // waits for the rest of the frame instead of tearing.
  torn = true;
  EXPECT_EQ(Deliveries(header((64u << 20) + 1), torn), 0u);
  EXPECT_FALSE(torn);
}

// ----------------------------------------------- injected short file I/O

TEST_F(MalformedFileTest, InjectedShortWritesFailSavesAndLeaveTornFiles) {
  FaultPlan plan;
  plan.Probability(FaultSite::kFileShortWrite) = 1.0;
  FaultInjector::Global().Arm(plan);

  const std::string tree_path = Temp("tree_short_write.bin");
  EXPECT_FALSE(art::SaveTree(SmallTree(), tree_path));
  const std::string trace_path = Temp("trace_short_write.bin");
  EXPECT_FALSE(SaveWorkload(SmallWorkload(), trace_path));
  FaultInjector::Global().Disarm();

  // Whatever landed on disk is torn — and the loaders reject it.
  art::Tree tree_out;
  EXPECT_FALSE(art::LoadTree(tree_path, tree_out));
  EXPECT_TRUE(tree_out.empty());
  Workload trace_out;
  EXPECT_FALSE(LoadWorkload(trace_path, trace_out));
  EXPECT_TRUE(trace_out.ops.empty());
}

TEST_F(MalformedFileTest, InjectedShortReadsFailLoadsCleanly) {
  const std::string tree_path = Temp("tree_short_read.bin");
  ASSERT_TRUE(art::SaveTree(SmallTree(), tree_path));
  const std::string trace_path = Temp("trace_short_read.bin");
  ASSERT_TRUE(SaveWorkload(SmallWorkload(), trace_path));

  FaultPlan plan;
  plan.Probability(FaultSite::kFileShortRead) = 1.0;
  FaultInjector::Global().Arm(plan);

  art::Tree tree_out;
  EXPECT_FALSE(art::LoadTree(tree_path, tree_out));
  EXPECT_TRUE(tree_out.empty());
  Workload trace_out;
  EXPECT_FALSE(LoadWorkload(trace_path, trace_out));
  EXPECT_TRUE(trace_out.ops.empty());
  FaultInjector::Global().Disarm();

  // Disarmed, the very same files load fine.
  EXPECT_TRUE(art::LoadTree(tree_path, tree_out));
  EXPECT_TRUE(LoadWorkload(trace_path, trace_out));
  EXPECT_EQ(trace_out.ops.size(), 4u);
}

}  // namespace
}  // namespace dcart
