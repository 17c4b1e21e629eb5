#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace dcart::lint {

namespace fs = std::filesystem;

namespace {

// ===================================================================== --
// Suppressions.
//
// Syntax: `// dcart-lint: disable(DLxxx[,DLyyy]) <reason>`.  The directive
// must sit inside a comment (an occurrence inside a string literal is code,
// not a suppression); the reason is mandatory and DL000 enforces that.  The
// legacy `allow(DLxxx)` spelling no longer suppresses anything — DL000
// flags it and `--fix` migrates it.

struct Directive {
  std::size_t pos;                 // column of the 'd' of "dcart-lint:"
  std::string verb;                // "disable", "allow", ...
  std::vector<std::string> rules;  // ids inside the parens
  std::string reason;              // trimmed text after the ')'
  bool well_formed;                // verb(r1[,r2]) parsed fully
};

std::string TrimWs(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Parse every in-comment `dcart-lint:` directive on one line.  `code` is
/// the comment-blanked view: a directive is in a comment iff its column is
/// blanked there.
std::vector<Directive> ParseDirectives(const std::string& raw,
                                       const std::string& code) {
  static const std::string kTag = "dcart-lint:";
  std::vector<Directive> out;
  std::size_t from = 0;
  while (true) {
    const std::size_t pos = raw.find(kTag, from);
    if (pos == std::string::npos) break;
    from = pos + kTag.size();
    if (pos >= code.size() || code[pos] != ' ') continue;  // inside a string
    Directive d{pos, "", {}, "", false};
    std::size_t i = pos + kTag.size();
    while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
    while (i < raw.size() &&
           (std::isalnum(static_cast<unsigned char>(raw[i])) ||
            raw[i] == '_' || raw[i] == '-')) {
      d.verb.push_back(raw[i++]);
    }
    // A tag with no verb is prose *about* the marker ("the `dcart-lint:`
    // comment..."), not a directive; skip it silently.
    if (d.verb.empty()) continue;
    if (i < raw.size() && raw[i] == '(') {
      const std::size_t close = raw.find(')', i);
      if (close != std::string::npos) {
        std::string inside = raw.substr(i + 1, close - i - 1);
        std::size_t start = 0;
        while (true) {
          const std::size_t comma = inside.find(',', start);
          const std::string id =
              TrimWs(comma == std::string::npos
                         ? inside.substr(start)
                         : inside.substr(start, comma - start));
          if (!id.empty()) d.rules.push_back(id);
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
        d.reason = TrimWs(raw.substr(close + 1));
        d.well_formed = !d.verb.empty() && !d.rules.empty();
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

bool Suppressed(const SourceFile& file, std::size_t line_index,
                const char* rule) {
  if (line_index >= file.raw.size()) return false;
  for (const Directive& d :
       ParseDirectives(file.raw[line_index], file.code[line_index])) {
    if (d.verb != "disable") continue;
    for (const std::string& r : d.rules) {
      if (r == rule) return true;
    }
  }
  return false;
}

// ------------------------------------------------------------------ DL000 --
// Suppression hygiene: a suppression is a debt record, and a debt record
// without a reason is unauditable.  Legacy `allow(...)` spellings and
// malformed directives are flagged too.  DL000 findings are deliberately
// not themselves suppressible: a reasonless `disable(DL000)` must not be
// able to silence the rule that demands reasons.
void CheckSuppressionHygiene(const SourceFile& file,
                             std::vector<Finding>& findings) {
  static const std::regex rule_id(R"(DL[0-9]{3})");
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    for (const Directive& d :
         ParseDirectives(file.raw[i], file.code[i])) {
      // Documentation placeholder (`disable(DLxxx)` in a doc comment).
      bool placeholder = false;
      for (const std::string& r : d.rules) {
        if (r.find("xxx") != std::string::npos ||
            r.find("yyy") != std::string::npos) {
          placeholder = true;
        }
      }
      if (placeholder) continue;
      if (d.verb == "allow") {
        findings.push_back(
            {kSuppressionHygiene, file.rel, i + 1,
             "legacy suppression syntax 'allow(...)'; use "
             "`dcart-lint: disable(DLxxx) <reason>` (dcart_lint --fix "
             "migrates it)"});
        continue;
      }
      if (d.verb != "disable" || !d.well_formed) {
        findings.push_back(
            {kSuppressionHygiene, file.rel, i + 1,
             "malformed dcart-lint directive; expected "
             "`dcart-lint: disable(DLxxx) <reason>`"});
        continue;
      }
      for (const std::string& r : d.rules) {
        if (!std::regex_match(r, rule_id)) {
          findings.push_back(
              {kSuppressionHygiene, file.rel, i + 1,
               "suppression names unknown rule id '" + r + "'"});
        }
      }
      if (d.reason.empty()) {
        findings.push_back(
            {kSuppressionHygiene, file.rel, i + 1,
             "suppression without a reason; every disable(...) must say why "
             "the finding is acceptable"});
      }
    }
  }
}

// ------------------------------------------------------------------ DL001 --
// Fault-site registry: every FaultSite enumerator must have exactly one
// FaultSiteName entry, a unique name, and at least one injection point
// (a FaultSite::kX reference outside the registry itself).
void CheckFaultSiteRegistry(const RepoModel& model,
                            std::vector<Finding>& findings) {
  const std::string header_rel = "src/resilience/fault_injector.h";
  const std::string impl_rel = "src/resilience/fault_injector.cpp";
  const SourceFile* header = model.Find(header_rel);
  const SourceFile* impl = model.Find(impl_rel);
  if (header == nullptr || impl == nullptr) return;  // not in this corpus

  // Enumerators, in declaration order, with their declaration lines.
  static const std::regex enum_open(R"(enum\s+class\s+FaultSite\b)");
  static const std::regex enumerator(R"(^\s*(k[A-Za-z0-9_]+)\s*[,}=])");
  std::vector<std::pair<std::string, std::size_t>> sites;  // name, 1-based line
  bool in_enum = false;
  for (std::size_t i = 0; i < header->code.size(); ++i) {
    const std::string& line = header->code[i];
    if (!in_enum) {
      if (std::regex_search(line, enum_open)) in_enum = true;
      continue;
    }
    if (line.find("};") != std::string::npos) break;
    std::smatch m;
    if (std::regex_search(line, m, enumerator) && m[1] != "kNumSites") {
      sites.emplace_back(m[1], i + 1);
    }
  }

  // Registry entries: `case FaultSite::kX: return "name";`
  std::map<std::string, std::size_t> case_count;
  std::map<std::string, std::vector<std::string>> name_owners;
  static const std::regex case_entry(
      R"re(case\s+FaultSite::(k[A-Za-z0-9_]+)\s*:(?:\s*return\s*"([^"]*)")?)re");
  for (const std::string& line : impl->code) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), case_entry);
         it != std::sregex_iterator(); ++it) {
      ++case_count[(*it)[1]];
      if ((*it)[2].matched) name_owners[(*it)[2]].push_back((*it)[1]);
    }
  }

  for (const auto& [site, line] : sites) {
    if (Suppressed(*header, line - 1, kFaultSiteRegistry)) continue;
    const std::size_t count =
        case_count.count(site) ? case_count.at(site) : 0;
    if (count != 1) {
      findings.push_back(
          {kFaultSiteRegistry, header_rel, line,
           "FaultSite::" + site + " is registered " + std::to_string(count) +
               " times in FaultSiteName (" + impl_rel +
               "); every site needs exactly one name entry"});
    }
    // Injection point: referenced somewhere outside the registry pair.
    bool referenced = false;
    const std::string token = "FaultSite::" + site;
    for (const SourceFile& f : model.files) {
      if (f.rel == header_rel || f.rel == impl_rel) continue;
      for (const std::string& l : f.code) {
        if (l.find(token) != std::string::npos) {
          referenced = true;
          break;
        }
      }
      if (referenced) break;
    }
    if (!referenced) {
      findings.push_back(
          {kFaultSiteRegistry, header_rel, line,
           "FaultSite::" + site +
               " has no injection point (no reference outside the "
               "registry); dead sites hide untested failure paths"});
    }
  }
  for (const auto& [name, owners] : name_owners) {
    if (owners.size() > 1) {
      findings.push_back(
          {kFaultSiteRegistry, impl_rel, 0,
           "fault-site name \"" + name + "\" is claimed by " +
               std::to_string(owners.size()) +
               " enumerators; a name must identify one site"});
    }
  }
}

// ------------------------------------------------------------------ DL003 --
// The paper's Trigger phase is lock-free by construction (ownership
// partitioning); a blocking lock in the SOU or the parallel trigger path
// would serialize exactly the phase the architecture exists to parallelize.
void CheckTriggerPhaseBlockingLock(const SourceFile& file,
                                   std::vector<Finding>& findings) {
  static const std::set<std::string> scope = {
      "src/dcart/ctt.h",
      "src/dcart/sou.h",
      "src/dcart/sou.cpp",
      "src/dcartc/parallel_runtime.cpp",
  };
  if (!scope.count(file.rel)) return;
  static const std::regex blocking(
      R"(std::(recursive_mutex|timed_mutex|shared_mutex|shared_timed_mutex|mutex|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable_any|condition_variable)\b)"
      R"(|\bMutexLock\b|\bpthread_mutex_|#\s*include\s*<mutex>)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(file.code[i], m, blocking)) continue;
    if (Suppressed(file, i, kTriggerPhaseBlockingLock)) continue;
    findings.push_back(
        {kTriggerPhaseBlockingLock, file.rel, i + 1,
         "blocking lock primitive in a trigger-phase hot path; the trigger "
         "phase is lock-free by the ownership-partitioning contract "
         "(see parallel_runtime.h)"});
  }
}

// ------------------------------------------------------------------ DL004 --
// `assert` is a no-op under NDEBUG — the configuration benchmarks and the
// fault-injection suite actually run — so in release-reachable runtime code
// it is a check that never checks.  Use DCART_CHECK (common/check.h) or
// handle the condition.
void CheckBareAssert(const SourceFile& file, std::vector<Finding>& findings) {
  static const std::vector<std::string> dir_scope = {
      "src/resilience/", "src/workload/", "src/simhw/", "src/dcartc/"};
  bool in_scope = file.rel == "src/art/serialize.cpp";
  for (const std::string& dir : dir_scope) {
    if (file.rel.rfind(dir, 0) == 0) in_scope = true;
  }
  if (!in_scope) return;
  static const std::regex bare(R"((^|[^_A-Za-z0-9])assert\s*\()");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (!std::regex_search(file.code[i], bare)) continue;
    if (Suppressed(file, i, kBareAssert)) continue;
    findings.push_back(
        {kBareAssert, file.rel, i + 1,
         "bare assert in release-reachable runtime code is a no-op under "
         "NDEBUG; use DCART_CHECK (common/check.h) or handle the error"});
  }
}

// ------------------------------------------------------------------ DL005 --
// All raw file reads/writes in the serializers must go through the
// bounds-checked + fault-checked ReadBytes/WriteBytes helpers, so every
// byte of untrusted input is length-validated and every I/O step is a
// fault-injection opportunity.
void CheckRawIoOutsideHelper(const SourceFile& file,
                             std::vector<Finding>& findings) {
  static const std::set<std::string> scope = {"src/art/serialize.cpp",
                                              "src/workload/trace_io.cpp"};
  if (!scope.count(file.rel)) return;
  static const std::regex helper_def(R"(\bbool\s+(Read|Write)Bytes\s*\()");
  static const std::regex raw_io(R"(\b(std::\s*)?f(read|write)\s*\()");
  bool in_helper = false;
  bool body_opened = false;
  int depth = 0;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (!in_helper && std::regex_search(line, helper_def)) {
      in_helper = true;
      body_opened = false;
      depth = 0;
    }
    if (in_helper) {
      for (char c : line) {
        if (c == '{') {
          ++depth;
          body_opened = true;
        } else if (c == '}') {
          --depth;
        }
      }
      // Helper body ends when its braces balance after having opened.
      if (body_opened && depth <= 0) in_helper = false;
      continue;
    }
    if (!std::regex_search(line, raw_io)) continue;
    if (Suppressed(file, i, kRawIoOutsideHelper)) continue;
    findings.push_back(
        {kRawIoOutsideHelper, file.rel, i + 1,
         "raw fread/fwrite outside the bounds-checked ReadBytes/WriteBytes "
         "helpers; raw I/O skips length validation and fault injection"});
  }
}

// ------------------------------------------------------------------ DL006 --
// The obs::MetricsRegistry keeps names in a mutex-guarded map; a
// GetCounter/GetGauge/GetHistogram lookup (string hashing + lock) inside a
// trigger-phase hot path would put a lock and an allocation on exactly the
// per-operation path the lock-free contract protects.  Hot-path files must
// go through the DCART_METRIC_* handle macros, resolved once at coordinator
// scope (static or per-batch), and bump the returned Counter*/Gauge*
// handles — those are wait-free.
void CheckTriggerPhaseRegistryMetrics(const SourceFile& file,
                                      std::vector<Finding>& findings) {
  static const std::set<std::string> scope = {
      "src/dcart/ctt.h",
      "src/dcart/sou.h",
      "src/dcart/sou.cpp",
      "src/dcartc/parallel_runtime.cpp",
  };
  if (!scope.count(file.rel)) return;
  static const std::regex registry_use(
      R"(\b(MetricsRegistry|GetCounter|GetGauge|GetHistogram)\s*[(<:])"
      R"(|MetricsRegistry::Global)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(file.code[i], m, registry_use)) continue;
    if (Suppressed(file, i, kTriggerPhaseRegistryMetrics)) continue;
    findings.push_back(
        {kTriggerPhaseRegistryMetrics, file.rel, i + 1,
         "metrics-registry lookup in a trigger-phase hot path; resolve "
         "handles once via the DCART_METRIC_* macros (obs/metrics.h) at "
         "coordinator scope and bump the returned handle"});
  }
}

// ------------------------------------------------------------------ DL007 --
// Replication faults must go through the FaultSite registry.  The
// replication layer is the code most tempted to invent its own fault
// taxonomy (drop/truncate/... map naturally onto a private enum), but a
// private enum bypasses everything DL001 guarantees: a stable name and a
// provable injection point.  So a replication file must not declare its
// own fault enum.  (A FaultSite::kX the registry does not declare needs no
// rule: the compiler rejects it.)
void CheckReplicationFaultRegistry(const RepoModel& model,
                                   std::vector<Finding>& findings) {
  const std::string header_rel = "src/resilience/fault_injector.h";
  static const std::regex private_enum(
      R"(enum\s+(class\s+|struct\s+)?\w*[Ff]ault\w*)");
  for (const SourceFile& file : model.files) {
    if (file.rel.rfind("src/resilience/", 0) != 0) continue;
    if (file.rel.find("replication") == std::string::npos) continue;
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      if (std::regex_search(line, private_enum) &&
          !Suppressed(file, i, kReplicationFaultRegistry)) {
        findings.push_back(
            {kReplicationFaultRegistry, file.rel, i + 1,
             "replication code declares a private fault enum; fault sites "
             "must be FaultSite enumerators in " + header_rel +
                 " so they get a name and a checked injection point"});
      }
    }
  }
}

// ------------------------------------------------------------------ DL008 --
// Include-graph layering.  tools/dcart_lint/layers.conf declares the
// architecture DAG; every #include edge whose target (or anything the
// target transitively pulls in) lands in a layer the including file's layer
// may not depend on is a finding.  The allowed sets are transitive
// closures, so "A may use B, B may use C" implies "A may use C" — the
// check is therefore a per-edge check with full transitive strength.
void CheckLayering(const RepoModel& model, std::vector<Finding>& findings) {
  const LayerConfig& cfg = model.layers;
  if (!cfg.loaded) return;
  for (const LayerConfigError& err : cfg.errors) {
    findings.push_back({kLayering, kLayersConfRel, err.line, err.message});
  }
  if (!cfg.errors.empty()) return;  // edge checks need a valid DAG
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const SourceFile& file = model.files[i];
    const int from = cfg.LayerOf(file.rel);
    if (from < 0) {
      findings.push_back(
          {kLayering, file.rel, 0,
           "file is not covered by any layer prefix in " +
               std::string(kLayersConfRel) +
               "; every scanned file must belong to a layer"});
      continue;
    }
    for (std::size_t k = 0; k < file.toks.includes.size(); ++k) {
      const int target = file.include_targets[k];
      if (target < 0) continue;  // external header
      const std::size_t line = file.toks.includes[k].line;
      // Layers reachable through this edge: the target plus everything the
      // target transitively includes.
      std::set<int> pulled;
      std::map<int, std::string> witness;  // layer -> example file
      const int direct_layer = cfg.LayerOf(model.files[target].rel);
      if (direct_layer >= 0) {
        pulled.insert(direct_layer);
        witness.emplace(direct_layer, model.files[target].rel);
      }
      for (int r : model.reachable[target]) {
        const int l = cfg.LayerOf(model.files[r].rel);
        if (l >= 0 && pulled.insert(l).second) {
          witness.emplace(l, model.files[r].rel);
        }
      }
      for (int to : pulled) {
        if (cfg.allowed[from].count(to)) continue;
        if (Suppressed(file, line - 1, kLayering)) continue;
        std::string via;
        if (witness[to] != model.files[target].rel) {
          via = " (via " + witness[to] + ")";
        }
        findings.push_back(
            {kLayering, file.rel, line,
             "#include \"" + file.toks.includes[k].path + "\" pulls layer '" +
                 cfg.names[to] + "'" + via + ", which layer '" +
                 cfg.names[from] +
                 "' may not depend on (see " + kLayersConfRel + ")"});
      }
    }
  }
}

// ------------------------------------------------------------------ DL009 --
// Atomics manifest.  Every non-seq_cst atomic operation must be listed in
// tools/dcart_lint/atomics_manifest.txt as `file | symbol | ordering |
// rationale`, so weakening an ordering is a reviewed diff with a written
// argument, not a silent micro-optimization.  Subsumes the retired DL002
// file-allowlist heuristic with per-site granularity.

const std::map<std::string, std::string>& OrderingNames() {
  static const std::map<std::string, std::string> names = {
      {"memory_order_relaxed", "relaxed"},
      {"memory_order_acquire", "acquire"},
      {"memory_order_release", "release"},
      {"memory_order_acq_rel", "acq_rel"},
      {"memory_order_consume", "consume"},
  };
  return names;
}

const std::set<std::string>& OrderingShortNames() {
  static const std::set<std::string> names = {"relaxed", "acquire", "release",
                                              "acq_rel", "consume"};
  return names;
}

}  // namespace

std::vector<AtomicSite> CollectAtomicSites(const RepoModel& model) {
  std::vector<AtomicSite> sites;
  for (const SourceFile& file : model.files) {
    const std::vector<Token>& toks = file.toks.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const std::string& text = toks[i].text;
      std::string ordering;
      auto long_name = OrderingNames().find(text);
      if (long_name != OrderingNames().end()) {
        ordering = long_name->second;
      } else if (text == "memory_order" && i + 2 < toks.size() &&
                 toks[i + 1].Is("::") &&
                 OrderingShortNames().count(toks[i + 2].text)) {
        ordering = toks[i + 2].text;
      } else if ((text == "RelaxedLoad" || text == "RelaxedStore") &&
                 i + 1 < toks.size() &&
                 (toks[i + 1].Is("(") || toks[i + 1].Is("<"))) {
        ordering = "relaxed";
      } else {
        continue;
      }
      sites.push_back({file.rel, toks[i].line,
                       file.EnclosingSymbol(toks[i].line), ordering});
    }
  }
  std::sort(sites.begin(), sites.end(),
            [](const AtomicSite& a, const AtomicSite& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  return sites;
}

namespace {

void CheckAtomicsManifest(const RepoModel& model,
                          std::vector<Finding>& findings) {
  const AtomicsManifest& manifest = model.manifest;
  if (!manifest.loaded) return;
  for (const LayerConfigError& err : manifest.errors) {
    findings.push_back(
        {kAtomicsManifest, kAtomicsManifestRel, err.line, err.message});
  }
  // Index entries by (file, symbol, ordering).
  std::map<std::tuple<std::string, std::string, std::string>,
           const ManifestEntry*>
      by_key;
  std::set<const ManifestEntry*> used;
  for (const ManifestEntry& e : manifest.entries) {
    if (e.rationale.empty() || e.rationale.rfind("TODO", 0) == 0) {
      findings.push_back(
          {kAtomicsManifest, kAtomicsManifestRel, e.line,
           "manifest entry for " + e.file + " :: " + e.symbol +
               " has a placeholder rationale; write the one-line argument "
               "for why '" + e.ordering + "' is safe here"});
    }
    auto [it, inserted] =
        by_key.emplace(std::make_tuple(e.file, e.symbol, e.ordering), &e);
    if (!inserted) {
      findings.push_back(
          {kAtomicsManifest, kAtomicsManifestRel, e.line,
           "duplicate manifest entry for " + e.file + " :: " + e.symbol +
               " (" + e.ordering + "); first on line " +
               std::to_string(it->second->line)});
    }
  }
  for (const AtomicSite& site : CollectAtomicSites(model)) {
    auto it = by_key.find(std::make_tuple(site.file, site.symbol,
                                          site.ordering));
    if (it != by_key.end()) {
      used.insert(it->second);
      continue;
    }
    const SourceFile* file = model.Find(site.file);
    if (file != nullptr &&
        Suppressed(*file, site.line - 1, kAtomicsManifest)) {
      continue;
    }
    findings.push_back(
        {kAtomicsManifest, site.file, site.line,
         "non-seq_cst atomic ('" + site.ordering + "' in " + site.symbol +
             ") is not in the atomics manifest; add `" + site.file + " | " +
             site.symbol + " | " + site.ordering +
             " | <rationale>` to " + kAtomicsManifestRel +
             " (dcart_lint --fix writes a stub)"});
  }
  for (const ManifestEntry& e : manifest.entries) {
    if (used.count(&e)) continue;
    // Duplicates were already reported; only flag the canonical entry.
    auto it = by_key.find(std::make_tuple(e.file, e.symbol, e.ordering));
    if (it != by_key.end() && it->second != &e) continue;
    findings.push_back(
        {kAtomicsManifest, kAtomicsManifestRel, e.line,
         "stale manifest entry: no '" + e.ordering + "' atomic found in " +
             e.file + " :: " + e.symbol +
             "; remove the line or fix the symbol name"});
  }
}

// ------------------------------------------------------------------ DL010 --
// Lock-contract consistency.  Thread-safety annotations are only as good
// as their placement: clang's analysis reads the *declaration*, so an
// annotation that exists only on an out-of-class definition silently never
// applies to callers; and a GUARDED_BY that names a non-existent (or
// non-mutex) member guards nothing.  Two prongs:
//   1. an out-of-class definition must not carry annotations its in-class
//      declaration lacks;
//   2. annotation arguments that are simple identifiers must name a mutex
//      (capability) member declared in the same class.
std::string StripSpaces(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != ' ') out.push_back(c);
  }
  return out;
}

bool IsSimpleIdent(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

std::string LastComponent(const std::string& path) {
  const std::size_t pos = path.rfind("::");
  return pos == std::string::npos ? path : path.substr(pos + 2);
}

void CheckLockContract(const RepoModel& model,
                       std::vector<Finding>& findings) {
  // Capability members per class (keyed by the class's last path component,
  // which is how out-of-class definitions name the class).
  std::map<std::string, std::set<std::string>> capabilities;
  for (const SourceFile& file : model.files) {
    for (const MemberSym& m : file.members) {
      if (m.is_capability) {
        capabilities[LastComponent(m.class_path)].insert(m.name);
      }
    }
  }

  // ACQUIRE/RELEASE are excluded on purpose: scoped lockers (MutexLock)
  // legitimately name a constructor *parameter*, which the member index
  // cannot see.  REQUIRES/EXCLUDES on a member function name the mutex the
  // caller must (not) hold, which for in-class contracts is a member.
  static const std::set<std::string> member_ref_macros = {
      "REQUIRES", "REQUIRES_SHARED", "EXCLUDES"};

  // In-class declarations, keyed by "<Class>::<name>/<arity>".
  struct DeclInfo {
    const SourceFile* file;
    const FunctionSym* fn;
  };
  std::map<std::string, std::vector<DeclInfo>> decls;
  for (const SourceFile& file : model.files) {
    for (const FunctionSym& fn : file.functions) {
      if (fn.class_path.empty()) continue;
      const std::string key = LastComponent(fn.class_path) + "::" + fn.name +
                              "/" + std::to_string(fn.arity);
      decls[key].push_back({&file, &fn});
    }
  }

  for (const SourceFile& file : model.files) {
    // Prong 2a: annotated data members reference a same-class mutex member.
    for (const MemberSym& m : file.members) {
      for (const Annotation& a : m.annotations) {
        if (a.macro != "GUARDED_BY" && a.macro != "PT_GUARDED_BY") continue;
        const std::string arg = StripSpaces(a.arg);
        if (!IsSimpleIdent(arg)) continue;  // expression args: out of scope
        if (capabilities[LastComponent(m.class_path)].count(arg)) continue;
        if (Suppressed(file, a.line - 1, kLockContract)) continue;
        findings.push_back(
            {kLockContract, file.rel, a.line,
             a.macro + "(" + arg + ") on " + m.class_path + "::" + m.name +
                 " does not name a mutex member declared in " +
                 m.class_path + "; the guard is unenforceable"});
      }
    }
    for (const FunctionSym& fn : file.functions) {
      // Prong 2b: in-class function annotations reference a same-class
      // mutex member (simple-identifier arguments only).
      if (!fn.class_path.empty()) {
        for (const Annotation& a : fn.annotations) {
          if (!member_ref_macros.count(a.macro)) continue;
          std::string arg = StripSpaces(a.arg);
          while (!arg.empty() && arg.front() == '!') arg.erase(arg.begin());
          if (!IsSimpleIdent(arg)) continue;
          if (capabilities[LastComponent(fn.class_path)].count(arg)) continue;
          if (Suppressed(file, a.line - 1, kLockContract)) continue;
          findings.push_back(
              {kLockContract, file.rel, a.line,
               a.macro + "(" + arg + ") on " + fn.Display() +
                   " does not name a mutex member declared in " +
                   fn.class_path + "; the contract is unenforceable"});
        }
      }
    }
    // Prong 1: out-of-class definitions must not add annotations.  An
    // in-class definition IS the declaration, so only qualified names
    // (empty class_path, "T::f" form) are compared.
    for (const FunctionSym& fn : file.functions) {
      if (!fn.is_definition || fn.annotations.empty()) continue;
      if (!fn.class_path.empty()) continue;           // in-class def
      const std::size_t q = fn.name.rfind("::");
      if (q == std::string::npos) continue;           // free function
      const std::string base = fn.name.substr(q + 2);
      std::string qualifier = fn.name.substr(0, q);
      const std::string cls = LastComponent(qualifier);
      const std::string key =
          cls + "::" + base + "/" + std::to_string(fn.arity);
      auto it = decls.find(key);
      if (it == decls.end()) continue;  // no in-class decl found
      std::set<std::pair<std::string, std::string>> declared;
      for (const DeclInfo& d : it->second) {
        for (const Annotation& a : d.fn->annotations) {
          declared.emplace(a.macro, StripSpaces(a.arg));
        }
      }
      const DeclInfo& primary = it->second.front();
      for (const Annotation& a : fn.annotations) {
        if (a.macro == "NO_THREAD_SAFETY_ANALYSIS") continue;
        if (declared.count({a.macro, StripSpaces(a.arg)})) continue;
        if (Suppressed(file, a.line - 1, kLockContract)) continue;
        findings.push_back(
            {kLockContract, file.rel, a.line,
             "definition of " + fn.name + " carries " + a.macro + "(" +
                 a.arg + ") but the declaration in " + primary.file->rel +
                 ":" + std::to_string(primary.fn->line) +
                 " does not; clang's thread-safety analysis reads the "
                 "declaration, so the contract silently never applies"});
      }
    }
  }
}

// ------------------------------------------------------------------ DL011 --
// Epoch discipline.  In the concurrent engines, a node unlinked from the
// tree may still be referenced by in-flight readers; the only safe
// reclamation is EpochManager::Retire (sync/epoch.h).  A direct free in
// epoch-managed code — a `delete` expression, or an argument-less
// `->Delete()` / `.Delete()` call, the leaf factory's free (art/leaf.h) —
// is therefore a use-after-free factory.  Sanctioned contexts: the retire
// path itself (a `Retire(` call on the same line), teardown/destructor
// code (enclosing symbol named *Delete*/*Destroy*/*Free*/*Clear* or a
// destructor), and explicitly suppressed sites (e.g. CAS-loser frees of
// thread-private nodes that were never published).
void CheckEpochDiscipline(const RepoModel& model,
                          std::vector<Finding>& findings) {
  auto sanctioned_symbol = [](const std::string& symbol) {
    if (symbol.find('~') != std::string::npos) return true;  // destructor
    for (const char* token : {"Delete", "Destroy", "Free", "Clear",
                              "Retire", "Reclaim", "Teardown"}) {
      if (symbol.find(token) != std::string::npos) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const SourceFile& file = model.files[i];
    if (file.rel.rfind("src/", 0) != 0) continue;  // engine code only
    const bool in_scope = file.rel.rfind("src/sync/", 0) == 0 ||
                          model.Reaches(static_cast<int>(i), "sync/epoch.h");
    if (!in_scope) continue;
    if (file.rel == "src/sync/epoch.h" || file.rel == "src/sync/epoch.cpp") {
      continue;  // the retire path itself
    }
    const std::vector<Token>& toks = file.toks.tokens;
    for (std::size_t t = 0; t < toks.size(); ++t) {
      if (toks[t].kind != Token::Kind::kIdent) continue;
      const bool delete_call = toks[t].Is("Delete") && t > 0 &&
                               (toks[t - 1].Is("->") || toks[t - 1].Is(".")) &&
                               t + 2 < toks.size() && toks[t + 1].Is("(") &&
                               toks[t + 2].Is(")");
      if (!delete_call && !toks[t].Is("delete")) continue;
      if (!delete_call && t > 0 &&
          (toks[t - 1].Is("=") || toks[t - 1].Is("operator"))) {
        continue;  // `= delete;` / `operator delete`
      }
      const std::size_t line = toks[t].line;
      if (line - 1 < file.raw.size() &&
          file.raw[line - 1].find("Retire(") != std::string::npos) {
        continue;  // `Retire(tid, [n] { delete n; })`
      }
      const std::string symbol = file.EnclosingSymbol(line);
      if (sanctioned_symbol(symbol)) continue;
      if (Suppressed(file, line - 1, kEpochDiscipline)) continue;
      findings.push_back(
          {kEpochDiscipline, file.rel, line,
           "direct delete in epoch-managed code (" + symbol +
               "); concurrent readers may still hold this node — route "
               "reclamation through EpochManager::Retire (sync/epoch.h) or "
               "a *Delete/*Destroy teardown helper"});
    }
  }
}

}  // namespace

std::vector<Finding> RunLint(const RepoModel& model) {
  std::vector<Finding> findings;
  CheckFaultSiteRegistry(model, findings);
  CheckReplicationFaultRegistry(model, findings);
  CheckLayering(model, findings);
  CheckAtomicsManifest(model, findings);
  CheckLockContract(model, findings);
  CheckEpochDiscipline(model, findings);
  for (const SourceFile& file : model.files) {
    CheckSuppressionHygiene(file, findings);
    CheckTriggerPhaseBlockingLock(file, findings);
    CheckBareAssert(file, findings);
    CheckRawIoOutsideHelper(file, findings);
    CheckTriggerPhaseRegistryMetrics(file, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> RunLint(const std::string& root) {
  return RunLint(LoadRepo(root));
}

std::string FormatFindings(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

// ===================================================================== --
// --fix: mechanical repairs only.

FixResult ApplyFixes(const std::string& root) {
  FixResult result;
  RepoModel model = LoadRepo(root);

  // 1. Migrate legacy suppressions: rewrite the `allow(` verb to
  //    `disable(` in place, keeping any trailing text as the reason.
  for (const SourceFile& file : model.files) {
    std::vector<std::string> lines = file.raw;
    bool changed = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      static const std::string legacy = "dcart-lint: allow(";
      std::size_t pos = lines[i].find(legacy);
      if (pos == std::string::npos) continue;
      // Only rewrite inside comments (same rule DL000 applies).
      if (pos < file.code[i].size() && file.code[i][pos] != ' ') continue;
      lines[i].replace(pos + std::string("dcart-lint: ").size(),
                       std::string("allow").size(), "disable");
      changed = true;
      ++result.suppressions_migrated;
      result.notes.push_back(file.rel + ":" + std::to_string(i + 1) +
                             ": migrated allow(...) to disable(...)");
    }
    if (changed) {
      std::ofstream out(fs::path(root) / file.rel);
      for (const std::string& line : lines) out << line << "\n";
    }
  }

  // 2. Manifest stubs for unmanifested atomic sites.
  std::set<std::tuple<std::string, std::string, std::string>> have;
  for (const ManifestEntry& e : model.manifest.entries) {
    have.emplace(e.file, e.symbol, e.ordering);
  }
  std::vector<std::string> stubs;
  for (const AtomicSite& site : CollectAtomicSites(model)) {
    const auto key = std::make_tuple(site.file, site.symbol, site.ordering);
    if (have.count(key)) continue;
    have.insert(key);
    stubs.push_back(site.file + " | " + site.symbol + " | " + site.ordering +
                    " | TODO: explain why this ordering is safe");
  }
  if (!stubs.empty()) {
    const fs::path manifest_path = fs::path(root) / kAtomicsManifestRel;
    const bool existed = fs::exists(manifest_path);
    std::ofstream out(manifest_path, std::ios::app);
    if (!existed) {
      out << "# dcart_lint atomics manifest (DL009)\n"
          << "# file | symbol | ordering | rationale\n";
    }
    for (const std::string& stub : stubs) out << stub << "\n";
    result.manifest_stubs_added = stubs.size();
    result.notes.push_back("appended " + std::to_string(stubs.size()) +
                           " stub line(s) to " + kAtomicsManifestRel);
  }
  return result;
}

}  // namespace dcart::lint
