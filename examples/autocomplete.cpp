// Autocomplete / dictionary demo: prefix scans, lower-bound scans, and
// sorted bulk-load — the affix-query APIs radix trees are built for.
//
//   build/examples/autocomplete [prefix...]
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "art/tree.h"
#include "bench/bench_common.h"
#include "common/cli.h"
#include "common/key_codec.h"
#include "workload/generators.h"

using namespace dcart;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (const int rc = bench::RequireValidFlags(flags)) return rc;
  // Build a dictionary with the DICT generator and bulk-load it sorted
  // (O(n), ~5x faster than repeated inserts).
  WorkloadConfig cfg;
  cfg.num_keys = 30'000;
  cfg.num_ops = 1;
  const Workload w = MakeWorkload(WorkloadKind::kDICT, cfg);
  std::vector<std::pair<Key, art::Value>> sorted = w.load_items;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return CompareKeys(a.first, b.first) < 0;
            });
  art::Tree dict;
  dict.BulkLoadSorted(sorted);
  std::printf("dictionary: %zu words, height %zu, %s\n", dict.size(),
              dict.Height(), dict.ComputeMemoryStats().ToString().c_str());

  std::vector<std::string> prefixes = flags.positional();
  if (prefixes.empty()) prefixes = {"tra", "se", "qu"};

  for (const std::string& prefix : prefixes) {
    std::printf("\ncomplete \"%s\":", prefix.c_str());
    std::size_t shown = 0;
    dict.ScanPrefix(Key(prefix.begin(), prefix.end()),
                    [&shown](KeyView key, art::Value) {
                      std::printf(" %s", DecodeString(key).c_str());
                      return ++shown < 8;  // first 8 completions
                    });
    if (shown == 0) {
      // No completion: show where the prefix would land (lower bound).
      std::optional<std::string> next;
      dict.ScanFrom(Key(prefix.begin(), prefix.end()),
                    [&next](KeyView key, art::Value) {
                      next = DecodeString(key);
                      return false;
                    });
      if (next) {
        std::printf(" (nothing; next word is \"%s\")", next->c_str());
      } else {
        std::printf(" (nothing; past the last word)");
      }
    }
    std::printf("\n");
  }

  // Page through the dictionary from a seek point.
  std::printf("\nfive words from \"m\" onward:");
  std::size_t paged = 0;
  dict.ScanFrom(EncodeString("m"), [&paged](KeyView key, art::Value) {
    std::printf(" %s", DecodeString(key).c_str());
    return ++paged < 5;
  });
  std::printf("\n");
  return 0;
}
