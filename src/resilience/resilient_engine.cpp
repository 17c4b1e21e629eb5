#include "resilience/resilient_engine.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "art/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault_injector.h"

namespace dcart::resilience {

namespace fs = std::filesystem;

namespace {

/// Process-wide durability/recovery event counters (docs/OBSERVABILITY.md).
struct ResilienceMetrics {
  obs::Counter* journal_records =
      DCART_METRIC_COUNTER("resilience.journal.records");
  obs::Counter* checkpoints = DCART_METRIC_COUNTER("resilience.checkpoints");
  obs::Counter* crashes = DCART_METRIC_COUNTER("resilience.crashes");
  obs::Counter* recoveries = DCART_METRIC_COUNTER("resilience.recoveries");
  obs::Counter* recovered_ops =
      DCART_METRIC_COUNTER("resilience.recovered_ops");
  obs::Counter* recover_failures =
      DCART_METRIC_COUNTER("resilience.recover.failures");
};

ResilienceMetrics& Metrics() {
  static ResilienceMetrics metrics;
  return metrics;
}

/// Parse "<stem>-<N><suffix>" into N; nullopt for anything else.
std::optional<std::uint64_t> ParseGeneration(const std::string& filename,
                                             const std::string& stem,
                                             const std::string& suffix) {
  if (filename.size() <= stem.size() + suffix.size()) return std::nullopt;
  if (filename.compare(0, stem.size(), stem) != 0) return std::nullopt;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits = filename.substr(
      stem.size(), filename.size() - stem.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Every write key must be one the tree, its snapshots and its journal can
/// all hold: not empty (tree keys are prefix-free, and the journal refuses
/// to replay an empty-key write) and at most art::kMaxKeyBytes (the SN3
/// bound).  A prefix conflict with a stored key needs a tree probe and is
/// not checked here.
Status CheckWriteKeys(std::span<const Operation> batch) {
  for (const Operation& op : batch) {
    if (op.type == OpType::kWrite &&
        (op.key.empty() || op.key.size() > art::kMaxKeyBytes)) {
      return Status::TypedError(
          StatusCode::kInvalidArgument,
          "batch refused: a write key is empty or longer than " +
              std::to_string(art::kMaxKeyBytes) + " bytes");
    }
  }
  return Status::Ok();
}

}  // namespace

void ApplyToTree(art::Tree& tree, std::span<const Operation> ops) {
  for (const Operation& op : ops) {
    if (op.type == OpType::kWrite) tree.Insert(op.key, op.value);
    if (op.type == OpType::kRemove) tree.Remove(op.key);
  }
}

std::vector<std::pair<Key, art::Value>> TreeItems(const art::Tree& tree) {
  std::vector<std::pair<Key, art::Value>> items;
  items.reserve(tree.size());
  tree.ScanFrom({}, [&items](KeyView key, art::Value value) {
    items.emplace_back(Key(key.begin(), key.end()), value);
    return true;
  });
  return items;
}

// ---------------------------------------------------------- generation dir --

GenerationDir::GenerationDir(std::string path,
                             double journal_to_snapshot_ratio)
    : path_(std::move(path)), ratio_(journal_to_snapshot_ratio) {}

std::string GenerationDir::SnapshotPath(std::uint64_t generation) const {
  return path_ + "/snapshot-" + std::to_string(generation) + ".tree";
}

std::string GenerationDir::JournalPath(std::uint64_t generation) const {
  return path_ + "/journal-" + std::to_string(generation) + ".log";
}

std::vector<std::uint64_t> GenerationDir::Scan(std::error_code& ec) const {
  std::vector<std::uint64_t> generations;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    const auto gen = ParseGeneration(entry.path().filename().string(),
                                     "snapshot-", ".tree");
    if (gen.has_value()) generations.push_back(*gen);
  }
  std::sort(generations.rbegin(), generations.rend());
  return generations;
}

Status GenerationDir::Roll(const art::Tree& tree) {
  std::error_code ec;
  fs::create_directories(path_, ec);
  const std::uint64_t next = generation_ + 1;
  // Write-then-rename: a crash during the write leaves only a .tmp file,
  // which recovery never considers, so a half-written snapshot can never
  // shadow a good older generation.
  const std::string tmp = SnapshotPath(next) + ".tmp";
  if (!art::SaveTree(tree, tmp)) {
    std::remove(tmp.c_str());
    return Status::Error("snapshot write failed: " + tmp);
  }
  const std::uintmax_t image_bytes = fs::file_size(tmp, ec);
  if (!ec) fs::rename(tmp, SnapshotPath(next), ec);
  if (ec) return Status::Error("snapshot rename failed: " + tmp);
  if (!journal_.Open(JournalPath(next))) {
    return Status::Error("journal rollover failed: " + JournalPath(next));
  }
  generation_ = next;
  snapshot_bytes_ = image_bytes;
  // Prune generations that recovery can no longer need: keeping the last K
  // snapshots requires journals from the oldest kept generation forward.
  if (generation_ > kKeepGenerations) {
    for (std::uint64_t g = generation_ - kKeepGenerations; g >= 1; --g) {
      std::error_code ignored;
      const bool s = fs::remove(SnapshotPath(g), ignored);
      const bool j = fs::remove(JournalPath(g), ignored);
      if (!s && !j) break;  // older generations already pruned
    }
  }
  return Status::Ok();
}

void GenerationDir::Resume(std::uint64_t generation) {
  journal_.Close();
  generation_ = generation;
}

void GenerationDir::Wipe() {
  Resume(0);
  std::error_code ec;
  fs::remove_all(path_, ec);
}

// ------------------------------------------------------------------ engine --

ResilientEngine::ResilientEngine(ResilienceOptions options)
    : options_(std::move(options)),
      engine_(std::make_unique<dcartc::DcartCpEngine>()),
      dir_(options_.dir, options_.journal_to_snapshot_ratio) {}

ResilientEngine::~ResilientEngine() = default;

Status ResilientEngine::Checkpoint() {
  obs::ScopedSpan span("ft.checkpoint", "resilience", "image_bytes");
  const Status rolled = dir_.Roll(engine_->tree());
  if (rolled.ok()) {
    Metrics().checkpoints->Increment();
    span.set_arg_value(dir_.snapshot_bytes());
  }
  return rolled;
}

void ResilientEngine::Load(
    const std::vector<std::pair<Key, art::Value>>& items) {
  engine_->Load(items);
  crashed_ = false;
  load_status_ = Status::Ok();
  if (durable()) {
    // Generation 1: the loaded image is the recovery floor.  Load() has no
    // error channel (the IndexEngine interface is void here), so a failed
    // checkpoint is parked in load_status_ and surfaced by the next Run().
    load_status_.Update(Checkpoint());
  }
}

ExecutionResult ResilientEngine::Run(std::span<const Operation> ops,
                                     const RunConfig& config) {
  ExecutionResult result;
  result.platform = "cpu";
  result.wallclock = true;

  if (crashed_) {
    result.status =
        Status::Error("engine is crashed; call Recover() before Run()");
    return result;
  }
  // A checkpoint failure during Load() had nowhere to go (void signature);
  // report it here exactly once.  The generation is still 0 in that case,
  // so the rollover below retries the checkpoint before any batch executes.
  if (!load_status_.ok()) {
    result.status.Update(load_status_);
    load_status_ = Status::Ok();
    return result;
  }
  // Durable mode requires an open journal: roll one on first use so a
  // Run() without a prior Load() still journals from an empty snapshot.
  if (durable() && dir_.generation() == 0) {
    result.status.Update(Checkpoint());
    if (!result.status.ok()) return result;
  }

  const std::size_t batch_size = std::max<std::size_t>(1, config.batch_size);
  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);
    const std::span<const Operation> batch = ops.subspan(begin, end - begin);

    const Status valid = CheckWriteKeys(batch);
    if (!valid.ok()) {
      // Refused, not crashed: the batch is neither journaled nor executed,
      // and the next Run() proceeds.
      result.status.Update(valid);
      break;
    }
    if (FaultCheck(FaultSite::kCrashAtBatchBoundary)) {
      crashed_ = true;
      dir_.Close();  // the dying process takes its descriptor with it
      Metrics().crashes->Increment();
      result.status.Update(
          Status::Error("simulated crash at batch boundary"));
      break;
    }
    if (durable()) {
      const Status journaled = [&] {
        obs::ScopedSpan span("ft.journal", "resilience");
        return dir_.Append(batch);
      }();
      if (!journaled.ok()) {
        // Torn record (crash mid-append) or real I/O failure: the batch is
        // not acknowledged and must not execute — recovery would lose it.
        crashed_ = true;
        dir_.Close();
        Metrics().crashes->Increment();
        result.status.Update(journaled);
        break;
      }
      Metrics().journal_records->Increment();
    }
    result.Merge(engine_->Run(batch, config));
    result.ops_acknowledged += batch.size();
    if (durable() && dir_.BatchDone()) {
      result.status.Update(Checkpoint());
      if (!result.status.ok()) break;
    }
  }
  return result;
}

std::optional<art::Value> ResilientEngine::Lookup(KeyView key) const {
  return engine_->Lookup(key);
}

bool ResilientEngine::Recover() {
  if (!durable()) {
    recover_error_ = Status::Error(
        "recovery impossible: durability is disabled (empty dir)");
    Metrics().recover_failures->Increment();
    return false;
  }
  recovered_ops_ = 0;
  dir_.Close();

  std::error_code ec;
  const std::vector<std::uint64_t> generations = dir_.Scan(ec);
  if (generations.empty()) {
    recover_error_ = Status::Error("no snapshot generation under " +
                                   options_.dir +
                                   (ec ? " (directory unreadable)" : ""));
    Metrics().recover_failures->Increment();
    return false;
  }

  Status rejected;  // why each tried generation was unusable, in try order
  for (std::uint64_t gen : generations) {
    art::Tree tree;
    if (!art::LoadTree(dir_.SnapshotPath(gen), tree)) {
      // Corrupt or torn snapshot: remember why and fall back a generation.
      rejected.Update(Status::Error("generation " + std::to_string(gen) +
                                    " rejected: snapshot unloadable (" +
                                    dir_.SnapshotPath(gen) + ")"));
      continue;
    }
    // Replay every journal from this generation forward, in order.  Each
    // journal's CRC framing truncates a torn tail; a missing journal for
    // the snapshot's own generation means no batch was acknowledged after
    // the checkpoint, which is fine.  A journal that is there but cannot
    // be read fails the recovery: going on without it would drop
    // acknowledged batches.
    const std::uint64_t newest = generations.front();
    std::vector<Operation> tail;
    for (std::uint64_t g = gen; g <= newest + 1; ++g) {
      const Status replayed = ReplayJournal(dir_.JournalPath(g), tail);
      if (!replayed.ok()) {
        recover_error_ = replayed;
        Metrics().recover_failures->Increment();
        return false;
      }
    }
    ApplyToTree(tree, tail);
    recovered_ops_ = tail.size();

    // Serve the recovered tree itself (Load() also pre-warms the shortcut
    // tables, exactly as a restarted service would).
    engine_ = std::make_unique<dcartc::DcartCpEngine>();
    engine_->Load(std::move(tree));
    crashed_ = false;
    load_status_ = Status::Ok();  // recovery supersedes any parked failure
    dir_.Resume(newest);  // the checkpoint below bumps past every old file
    Metrics().recoveries->Increment();
    Metrics().recovered_ops->Add(recovered_ops_);
    recover_error_ = Status::Ok();
    const Status checkpointed = Checkpoint();
    if (!checkpointed.ok()) {
      recover_error_ = checkpointed;
      Metrics().recover_failures->Increment();
      return false;
    }
    return true;
  }
  recover_error_ = Status::Error("every snapshot generation under " +
                                 options_.dir + " is unusable");
  recover_error_.Update(rejected);
  Metrics().recover_failures->Increment();
  return false;
}

}  // namespace dcart::resilience
