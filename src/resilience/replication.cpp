#include "resilience/replication.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "art/serialize.h"
#include "common/crc32.h"
#include "obs/metrics.h"
#include "resilience/fault_injector.h"
#include "resilience/socket_link.h"

namespace dcart::resilience {

namespace fs = std::filesystem;

namespace {

/// Process-wide replication counters/gauges (docs/OBSERVABILITY.md).
struct ReplicationMetrics {
  obs::Counter* records_shipped =
      DCART_METRIC_COUNTER("replication.records_shipped");
  obs::Counter* records_acked =
      DCART_METRIC_COUNTER("replication.records_acked");
  obs::Counter* retries = DCART_METRIC_COUNTER("replication.retries");
  obs::Counter* crc_rejects = DCART_METRIC_COUNTER("replication.crc_rejects");
  obs::Counter* duplicates_dropped =
      DCART_METRIC_COUNTER("replication.duplicates_dropped");
  obs::Counter* catchup_requests =
      DCART_METRIC_COUNTER("replication.catchup_requests");
  obs::Counter* snapshots_shipped =
      DCART_METRIC_COUNTER("replication.snapshots_shipped");
  obs::Counter* divergence_detected =
      DCART_METRIC_COUNTER("replication.divergence_detected");
  obs::Counter* failovers = DCART_METRIC_COUNTER("replication.failovers");
  obs::Counter* reconnects = DCART_METRIC_COUNTER("replication.reconnects");
  obs::Gauge* backoff_ms = DCART_METRIC_GAUGE("replication.backoff_ms");
  obs::Gauge* replica_lag_records =
      DCART_METRIC_GAUGE("replication.replica_lag_records");
};

ReplicationMetrics& Metrics() {
  static ReplicationMetrics metrics;
  return metrics;
}

void ApplySerialToTree(art::Tree& tree, const Operation& op) {
  switch (op.type) {
    case OpType::kRead:
      break;
    case OpType::kWrite:
      tree.Insert(op.key, op.value);
      break;
    case OpType::kRemove:
      tree.Remove(op.key);
      break;
    case OpType::kScan:
      break;  // scans do not change state
  }
}

std::uint32_t FrameCrc(const Frame& frame) {
  return Crc32(frame.payload.data(), frame.payload.size());
}

}  // namespace

// ----------------------------------------------------------------- backoff --

std::uint64_t JitteredBackoff(std::uint64_t base, std::uint64_t salt) {
  if (base <= 1) return base;
  // SplitMix64 finalizer: stateless, so a fixed (base, salt) pair always
  // jitters to the same wait and chaos runs replay bit-identically.
  std::uint64_t z = salt + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint64_t lower = (base + 1) / 2;
  return lower + z % (base - lower + 1);
}

// -------------------------------------------------------------------- link --

Status InProcessLink::Enqueue(std::deque<Queued>& queue, Frame frame) {
  if (!connected_) {
    return Status::Error("replication link is disconnected");
  }
  // Fault opportunities in a fixed order, one check per site per send, so a
  // trigger_at plan lands its fault on exactly the Nth frame and a
  // probability plan replays bit-identically per seed.
  if (FaultCheck(FaultSite::kReplDisconnect)) {
    connected_ = false;
    return Status::Error("replication link dropped (injected disconnect)");
  }
  if (FaultCheck(FaultSite::kReplDrop)) {
    return Status::Ok();  // the frame vanishes; the sender believes it left
  }
  Queued item;
  item.deliver_at = now_;
  if (FaultCheck(FaultSite::kReplTruncate)) {
    // Cut the payload mid-record.  payload_crc still covers the full
    // payload, so the receiver's end-to-end CRC check rejects the frame.
    frame.payload.resize(frame.payload.size() / 2);
  }
  if (FaultCheck(FaultSite::kReplDelay)) {
    item.deliver_at = now_ + delay_ticks_;
  }
  const bool duplicate = FaultCheck(FaultSite::kReplDuplicate);
  const bool reorder = FaultCheck(FaultSite::kReplReorder);
  item.frame = std::move(frame);
  if (duplicate) queue.push_back(item);
  if (reorder) {
    queue.push_front(std::move(item));
  } else {
    queue.push_back(std::move(item));
  }
  return Status::Ok();
}

bool InProcessLink::Dequeue(std::deque<Queued>& queue, Frame& out) {
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->deliver_at <= now_) {
      out = std::move(it->frame);
      queue.erase(it);
      return true;
    }
  }
  return false;
}

Status InProcessLink::SendToReplica(Frame frame) {
  return Enqueue(forward_, std::move(frame));
}

bool InProcessLink::ReceiveAtReplica(Frame& out) {
  return Dequeue(forward_, out);
}

Status InProcessLink::SendToPrimary(Frame frame) {
  return Enqueue(reverse_, std::move(frame));
}

bool InProcessLink::ReceiveAtPrimary(Frame& out) {
  return Dequeue(reverse_, out);
}

// --------------------------------------------------------------- checksums --

std::uint64_t TreeChecksum(const art::Tree& tree) {
  std::uint32_t crc = 0;
  tree.ScanFrom({}, [&crc](KeyView key, art::Value value) {
    const auto len = static_cast<std::uint32_t>(key.size());
    crc = Crc32(&len, sizeof len, crc);
    crc = Crc32(key.data(), key.size(), crc);
    crc = Crc32(&value, sizeof value, crc);
    return true;
  });
  return crc;
}

// ----------------------------------------------------------------- replica --

ReplicaEngine::ReplicaEngine(ReplicationOptions options,
                             dcartc::DcartCpConfig runtime)
    : options_(std::move(options)), runtime_config_(runtime) {
  Reset();
}

ReplicaEngine::~ReplicaEngine() = default;

std::string ReplicaEngine::SnapshotPath(std::uint64_t generation) const {
  return ReplicaDir() + "/snapshot-" + std::to_string(generation) + ".tree";
}

std::string ReplicaEngine::JournalPath(std::uint64_t generation) const {
  return ReplicaDir() + "/journal-" + std::to_string(generation) + ".log";
}

Status ReplicaEngine::Checkpoint() {
  std::error_code ec;
  fs::create_directories(ReplicaDir(), ec);
  const std::uint64_t next = generation_ + 1;
  // Same write-then-rename discipline as the primary's checkpoints: a crash
  // mid-write leaves only a .tmp the recovery scan never considers.
  const std::string tmp = SnapshotPath(next) + ".tmp";
  if (!art::SaveTree(tree_, tmp)) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    return Status::Error("replica snapshot write failed: " + tmp);
  }
  fs::rename(tmp, SnapshotPath(next), ec);
  if (ec) return Status::Error("replica snapshot rename failed: " + tmp);
  if (!journal_.Open(JournalPath(next))) {
    return Status::Error("replica journal rollover failed: " +
                         JournalPath(next));
  }
  generation_ = next;
  records_since_snapshot_ = 0;
  if (generation_ > options_.keep_generations) {
    const std::uint64_t last_dead = generation_ - options_.keep_generations;
    for (std::uint64_t g = last_dead; g >= 1; --g) {
      std::error_code ignored;
      const bool s = fs::remove(SnapshotPath(g), ignored);
      const bool j = fs::remove(JournalPath(g), ignored);
      if (!s && !j) break;  // older generations already pruned
    }
  }
  return Status::Ok();
}

void ReplicaEngine::Reset() {
  journal_.Close();
  tree_ = art::Tree{};
  generation_ = 0;
  records_since_snapshot_ = 0;
  next_sequence_ = 0;
  applied_ops_ = 0;
  wedged_ = false;
  promoted_engine_.reset();
  if (durable()) {
    std::error_code ec;
    fs::remove_all(ReplicaDir(), ec);
    // Generation 1 from the empty tree: every later record is journaled
    // under it, so a promotion before the first snapshot roll still finds a
    // recoverable generation.
    if (!Checkpoint().ok()) wedged_ = true;
  }
}

void ReplicaEngine::Pump(ReplicationLink& link) {
  Frame frame;
  while (link.ReceiveAtReplica(frame)) {
    if (FrameCrc(frame) != frame.payload_crc) {
      // Truncated or corrupted in flight: reject end-to-end and ask for the
      // record again from our applied floor.
      Metrics().crc_rejects->Increment();
      RequestCatchUp(link);
      continue;
    }
    switch (frame.type) {
      case FrameType::kRecord:
        HandleRecord(link, frame);
        break;
      case FrameType::kSnapshot:
        HandleSnapshot(link, frame);
        break;
      case FrameType::kChecksumProbe:
        SendAck(link, /*with_checksum=*/true);
        break;
      case FrameType::kHeartbeat:
        // Liveness only — no reply, no sequence check.  The cluster
        // watchdog reads the age of the last one to judge the primary.
        ++heartbeats_received_;
        last_heartbeat_tick_ = link.now();
        break;
      case FrameType::kAck:
      case FrameType::kCatchUpRequest:
        break;  // wrong direction; ignore
    }
  }
}

void ReplicaEngine::HandleRecord(ReplicationLink& link, const Frame& frame) {
  if (wedged_) return;  // local disk failed: stop acking, let the stall show
  if (frame.sequence < next_sequence_) {
    // Duplicate delivery (injected, or a retransmit racing its own ack):
    // never re-apply, but re-ack so the primary's window can advance.
    Metrics().duplicates_dropped->Increment();
    SendAck(link, frame.want_checksum);
    return;
  }
  if (frame.sequence > next_sequence_) {
    // Gap: a predecessor was dropped or is still delayed.  Ask for a resend
    // from the floor instead of applying out of order.
    RequestCatchUp(link);
    return;
  }
  std::uint64_t sequence = 0;
  std::vector<Operation> ops;
  const Status decoded = DecodeRecordPayload(frame.payload, sequence, ops);
  if (!decoded.ok() || sequence != frame.sequence) {
    Metrics().crc_rejects->Increment();
    RequestCatchUp(link);
    return;
  }
  if (durable()) {
    // Journal before apply: the ack promises the record is replica-durable.
    const Status journaled = journal_.Append(ops);
    if (!journaled.ok()) {
      wedged_ = true;
      return;
    }
  }
  for (const Operation& op : ops) ApplySerialToTree(tree_, op);
  applied_ops_ += ops.size();
  ++next_sequence_;
  if (durable() && ++records_since_snapshot_ >=
                       std::max<std::size_t>(
                           1, options_.snapshot_every_batches)) {
    if (!Checkpoint().ok()) {
      wedged_ = true;
      return;
    }
  }
  SendAck(link, frame.want_checksum);
}

void ReplicaEngine::HandleSnapshot(ReplicationLink& link, const Frame& frame) {
  // A snapshot supersedes everything local: bootstrap, divergence resync,
  // and beyond-window catch-up all land here.
  std::uint64_t sequence = 0;
  std::vector<Operation> ops;
  const Status decoded = DecodeRecordPayload(frame.payload, sequence, ops);
  if (!decoded.ok() || sequence != frame.sequence) {
    Metrics().crc_rejects->Increment();
    RequestCatchUp(link);
    return;
  }
  Reset();
  for (const Operation& op : ops) ApplySerialToTree(tree_, op);
  applied_ops_ = ops.size();
  next_sequence_ = frame.sequence;  // the record floor the image represents
  if (durable() && !wedged_) {
    // Roll a generation so the snapshot itself is replica-durable before
    // the ack goes out (Reset() opened generation 1 from an empty tree).
    if (!Checkpoint().ok()) {
      wedged_ = true;
      return;
    }
  }
  if (wedged_) return;
  SendAck(link, /*with_checksum=*/true);
}

void ReplicaEngine::SendAck(ReplicationLink& link, bool with_checksum) {
  Frame ack;
  ack.type = FrameType::kAck;
  ack.sequence = next_sequence_;  // cumulative: everything below is durable
  ack.payload_crc = FrameCrc(ack);
  if (with_checksum) {
    ack.has_checksum = true;
    ack.tree_checksum = TreeChecksum(tree_);
  }
  (void)link.SendToPrimary(std::move(ack));  // lost acks resolve by resend
}

void ReplicaEngine::RequestCatchUp(ReplicationLink& link) {
  Metrics().catchup_requests->Increment();
  Frame req;
  req.type = FrameType::kCatchUpRequest;
  req.sequence = next_sequence_;  // resend everything from our floor
  req.payload_crc = FrameCrc(req);
  (void)link.SendToPrimary(std::move(req));
}

Status ReplicaEngine::Promote() {
  if (promoted_engine_ != nullptr) {
    return Status::TypedError(
        StatusCode::kAlreadyPromoted,
        "duplicate failover: this replica is already promoted and serving");
  }
  journal_.Close();  // flush descriptor state before recovery scans the dir
  if (durable()) {
    auto engine = std::make_unique<ResilientEngine>(
        ResilienceOptions{ReplicaDir(), options_.snapshot_every_batches,
                          options_.keep_generations},
        runtime_config_);
    if (engine->Recover()) {
      promoted_engine_ = std::move(engine);
      return Status::Ok();
    }
    // The durable path is unusable (reported below, never swallowed); serve
    // the live in-memory tree instead on a fresh durability home.
    Status why = engine->last_recover_error();
    std::error_code ec;
    fs::remove_all(ReplicaDir(), ec);
    Status degraded = Status::Error(
        "promotion degraded to the live in-memory tree: replica-local "
        "recovery failed");
    degraded.Update(why);
    promoted_engine_ = std::make_unique<ResilientEngine>(
        ResilienceOptions{ReplicaDir(), options_.snapshot_every_batches,
                          options_.keep_generations},
        runtime_config_);
    std::vector<std::pair<Key, art::Value>> items;
    items.reserve(tree_.size());
    tree_.ScanFrom({}, [&items](KeyView key, art::Value value) {
      items.emplace_back(Key(key.begin(), key.end()), value);
      return true;
    });
    promoted_engine_->Load(items);
    return degraded;
  }
  // In-memory pair: promotion can only serve the live tree.
  promoted_engine_ = std::make_unique<ResilientEngine>(ResilienceOptions{},
                                                       runtime_config_);
  std::vector<std::pair<Key, art::Value>> items;
  items.reserve(tree_.size());
  tree_.ScanFrom({}, [&items](KeyView key, art::Value value) {
    items.emplace_back(Key(key.begin(), key.end()), value);
    return true;
  });
  promoted_engine_->Load(items);
  return Status::Ok();
}

const art::Tree& ReplicaEngine::tree() const {
  return promoted_engine_ ? promoted_engine_->tree() : tree_;
}

std::optional<art::Value> ReplicaEngine::Lookup(KeyView key) const {
  if (promoted_engine_) return promoted_engine_->Lookup(key);
  const art::Leaf* leaf = tree_.FindLeaf(key);
  if (leaf == nullptr) return std::nullopt;
  return leaf->value;
}

void ReplicaEngine::CorruptForTest(const Key& key, art::Value value) {
  tree_.Insert(key, value);
}

// -------------------------------------------------------- replicated engine --

ReplicatedEngine::ReplicatedEngine(ReplicationOptions options,
                                   dcartc::DcartCpConfig runtime)
    : options_(std::move(options)), runtime_config_(runtime) {
  ResilienceOptions primary;
  if (!options_.dir.empty()) primary.dir = options_.dir + "/primary";
  primary.snapshot_every_batches = options_.snapshot_every_batches;
  primary.keep_generations = options_.keep_generations;
  primary_ = std::make_unique<ResilientEngine>(primary, runtime_config_);
  replica_ = std::make_unique<ReplicaEngine>(options_, runtime_config_);
  if (options_.link == LinkKind::kSocket) {
    link_ = SocketLink::Create(link_error_);
  }
  if (link_ == nullptr) {
    // Default transport, and the fallback when socket setup failed (the
    // parked link_error_ makes the next Run()/Drain() report the failure
    // instead of silently replicating in-process).
    link_ = std::make_unique<InProcessLink>();
  }
}

ReplicatedEngine::~ReplicatedEngine() = default;

void ReplicatedEngine::Load(
    const std::vector<std::pair<Key, art::Value>>& items) {
  primary_->Load(items);
  inflight_.clear();
  next_sequence_ = 0;
  acked_floor_ = 0;
  acked_ops_ = 0;
  // Bootstrap the replica from a snapshot frame — the same resync path a
  // diverged or far-behind replica takes, so bootstrap exercises it too.
  // Load() has no error channel; a failed sync is parked for the next Run().
  load_status_ = link_error_.ok() ? SyncSnapshot() : link_error_;
}

const art::Tree& ReplicatedEngine::tree() const {
  if (replica_->promoted()) return replica_->tree();
  return primary_->tree();
}

std::optional<art::Value> ReplicatedEngine::Lookup(KeyView key) const {
  if (replica_->promoted()) return replica_->Lookup(key);
  if (!primary_alive_) return std::nullopt;  // fenced; promote first
  return primary_->Lookup(key);
}

ExecutionResult ReplicatedEngine::Run(std::span<const Operation> ops,
                                      const RunConfig& config) {
  if (replica_->promoted()) {
    // Failover happened: the promoted replica is the serving engine.
    return replica_->promoted_engine().Run(ops, config);
  }

  ExecutionResult result;
  result.platform = "cpu";
  result.wallclock = true;
  if (!link_error_.ok()) {
    result.status = link_error_;
    return result;
  }
  if (!primary_alive_) {
    result.status = Status::Error(
        "primary is dead; call Promote() to fail over to the replica");
    return result;
  }

  FaultInjector& injector = FaultInjector::Global();
  if (config.faults.Enabled()) injector.Arm(config.faults);
  // Neither wrapped engine may re-arm: that would reset the injector's
  // counters and break trigger_at determinism across batches and frames.
  RunConfig inner = config;
  inner.faults = FaultPlan{};

  if (!load_status_.ok()) {
    result.status.Update(load_status_);
    load_status_ = Status::Ok();
    return result;
  }

  const std::uint64_t acked_ops_before = acked_ops_;
  const std::size_t batch_size = std::max<std::size_t>(1, config.batch_size);
  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);
    const std::span<const Operation> batch = ops.subspan(begin, end - begin);

    result.Merge(primary_->Run(batch, inner));
    if (!result.status.ok()) break;  // primary crashed: stop shipping

    result.status.Update(ShipRecord(batch));
    if (!result.status.ok()) break;
    if (options_.drain_every_batch) {
      // Synchronous mode: the batch is not HA-acknowledged until the record
      // is replica-durable, so a primary loss at any boundary loses nothing
      // that was acknowledged.
      result.status.Update(DrainInflight());
      if (!result.status.ok()) break;
    }
  }
  if (primary_alive_ && !primary_->crashed()) {
    result.status.Update(Drain());
  }
  // HA acknowledgement = replica-durable (strictly stronger than the
  // primary-journaled acknowledgement the inner engine counts).
  result.ops_acknowledged = acked_ops_ - acked_ops_before;
  Metrics().replica_lag_records->Set(
      static_cast<double>(next_sequence_ - acked_floor_));
  return result;
}

Status ReplicatedEngine::ShipRecord(std::span<const Operation> ops) {
  // Respect the bounded window before admitting a new record.
  if (inflight_.size() >= std::max<std::size_t>(1, options_.window)) {
    Status drained = PumpUntil(
        [this] {
          return inflight_.size() < std::max<std::size_t>(1, options_.window);
        },
        "in-flight window");
    if (!drained.ok() && resync_needed_) {
      // The window stalled because the replica fell behind it; a snapshot
      // resync clears the window and the ship can proceed.
      drained = SyncSnapshot();
    }
    if (!drained.ok()) return drained;
  }
  InFlight entry;
  entry.sequence = next_sequence_;
  entry.op_count = ops.size();
  entry.frame.type = FrameType::kRecord;
  entry.frame.sequence = next_sequence_;
  entry.frame.want_checksum =
      options_.checksum_every_records != 0 &&
      (next_sequence_ + 1) % options_.checksum_every_records == 0;
  entry.frame.payload_crc =
      EncodeRecordPayload(next_sequence_, ops, entry.frame.payload);
  entry.last_sent = link_->now();
  entry.attempts = 1;
  ++next_sequence_;
  Metrics().records_shipped->Increment();
  Frame copy = entry.frame;
  inflight_.push_back(std::move(entry));
  SendFrame(std::move(copy));
  Metrics().replica_lag_records->Set(
      static_cast<double>(next_sequence_ - acked_floor_));
  return Status::Ok();
}

void ReplicatedEngine::SendFrame(Frame frame) {
  const Status sent = link_->SendToReplica(std::move(frame));
  if (!sent.ok() && link_->now() >= next_reconnect_) {
    // Link refused (disconnected, or the send itself tore it down).  The
    // record stays in flight; schedule the next reconnect attempt with
    // exponential backoff (1 tick ~ 1 ms for the gauge).  Only schedule
    // when none is pending: pushing next_reconnect_ forward on every failed
    // send would postpone the reconnect indefinitely while several overdue
    // frames keep retrying.
    reconnect_backoff_ =
        reconnect_backoff_ == 0
            ? std::max<std::uint64_t>(1, options_.retry_timeout_ticks)
            : std::min(reconnect_backoff_ * 2, options_.backoff_cap_ticks);
    // The exponential base stays clean in reconnect_backoff_; the scheduled
    // wait is jittered so pairs that lost the same link don't all reconnect
    // on the same tick.
    const std::uint64_t wait =
        JitteredBackoff(reconnect_backoff_, link_->now() ^ reconnect_backoff_);
    next_reconnect_ = link_->now() + wait;
    Metrics().backoff_ms->Set(static_cast<double>(wait));
  }
}

void ReplicatedEngine::PumpOnce() {
  link_->Tick();
  if (!link_->connected() && link_->now() >= next_reconnect_) {
    link_->Reconnect();
    Metrics().reconnects->Increment();
  } else if (link_->connected()) {
    reconnect_backoff_ = 0;
  }
  replica_->Pump(*link_);
  Frame frame;
  while (link_->ReceiveAtPrimary(frame)) {
    if (FrameCrc(frame) != frame.payload_crc) continue;  // timeout resolves it
    switch (frame.type) {
      case FrameType::kAck:
        HandleAck(frame);
        break;
      case FrameType::kCatchUpRequest:
        HandleCatchUp(frame);
        break;
      default:
        break;  // wrong direction; ignore
    }
  }
  // Retransmit every in-flight record whose ack is overdue, with per-record
  // exponential backoff so a struggling link is not hammered.  A dead link
  // fails every send anyway: hold retransmissions until the reconnect, so
  // the outage does not inflate per-record attempt counts.
  if (!link_->connected()) return;
  for (InFlight& entry : inflight_) {
    const std::uint64_t base = std::min(
        std::max<std::uint64_t>(1, options_.retry_timeout_ticks)
            << std::min<std::uint32_t>(entry.attempts - 1, 16),
        std::max<std::uint64_t>(1, options_.backoff_cap_ticks));
    // Jitter per (sequence, attempt): records stalled by the same fault
    // spread their retransmissions instead of re-bursting in lockstep.
    const std::uint64_t wait = JitteredBackoff(
        base, entry.sequence * 0x100000001b3ull + entry.attempts);
    if (link_->now() - entry.last_sent >= wait) {
      entry.last_sent = link_->now();
      ++entry.attempts;
      Metrics().retries->Increment();
      Metrics().backoff_ms->Set(static_cast<double>(wait));
      SendFrame(entry.frame);
    }
  }
}

void ReplicatedEngine::HandleAck(const Frame& frame) {
  if (frame.sequence > acked_floor_) {
    while (!inflight_.empty() && inflight_.front().sequence < frame.sequence) {
      acked_ops_ += inflight_.front().op_count;
      Metrics().records_acked->Increment();
      inflight_.pop_front();
    }
    acked_floor_ = frame.sequence;
    Metrics().replica_lag_records->Set(
        static_cast<double>(next_sequence_ - acked_floor_));
  }
  // A checksum is only comparable when the replica has applied everything
  // the primary shipped; earlier ones describe a tree we no longer have.
  if (frame.has_checksum && frame.sequence == next_sequence_) {
    replica_checksum_ = frame.tree_checksum;
  }
}

void ReplicatedEngine::HandleCatchUp(const Frame& frame) {
  if (frame.sequence >= next_sequence_) {
    // The replica's floor already covers everything shipped; the rejected
    // frame was a probe or a stale duplicate, and its own resend handles it.
    return;
  }
  if (inflight_.empty() || frame.sequence < inflight_.front().sequence) {
    // The replica's floor is behind our window (it was reset, or the gap
    // outlived retention): only a snapshot can resync it.  Flagged here,
    // shipped by the drain loop — resyncing inside the pump would recurse.
    resync_needed_ = true;
    return;
  }
  for (InFlight& entry : inflight_) {
    if (entry.sequence >= frame.sequence) {
      entry.last_sent = link_->now();
      ++entry.attempts;
      Metrics().retries->Increment();
      SendFrame(entry.frame);
    }
  }
}

template <typename Predicate>
Status ReplicatedEngine::PumpUntil(Predicate done, const char* what) {
  std::uint64_t ticks = 0;
  while (!done()) {
    if (resync_needed_) {
      return Status::Error("replication stalled: replica needs a snapshot "
                           "resync");
    }
    if (replica_->wedged()) {
      return Status::Error(
          "replication stalled: replica wedged (local journal/snapshot "
          "failure), acks will not resume");
    }
    if (++ticks > options_.max_drain_ticks) {
      // The stuck state matters more than the fact of the timeout: an
      // operator (or a failing chaos test) needs to see which side stalled.
      return Status::Error(
          std::string("replication drain timed out: ") + what +
          " (inflight=" + std::to_string(inflight_.size()) +
          ", shipped=" + std::to_string(next_sequence_) +
          ", acked_floor=" + std::to_string(acked_floor_) +
          ", replica_applied=" + std::to_string(replica_->applied_records()) +
          ", link=" + (link_->connected() ? "up" : "down") + ")");
    }
    PumpOnce();
  }
  return Status::Ok();
}

Status ReplicatedEngine::DrainInflight() {
  Status drained =
      PumpUntil([this] { return inflight_.empty(); }, "in-flight records");
  if (resync_needed_) {
    resync_needed_ = false;
    drained = SyncSnapshot();
  }
  return drained;
}

Status ReplicatedEngine::Drain() {
  if (!link_error_.ok()) return link_error_;
  if (!primary_alive_) return Status::Ok();  // fenced: nothing to ship
  Status status = DrainInflight();
  if (!status.ok()) return status;
  return VerifyChecksum();
}

Status ReplicatedEngine::VerifyChecksum() {
  const std::uint64_t expected = TreeChecksum(primary_->tree());
  for (int round = 0; round < 2; ++round) {
    replica_checksum_.reset();
    Frame probe;
    probe.type = FrameType::kChecksumProbe;
    probe.sequence = next_sequence_;
    probe.payload_crc = FrameCrc(probe);
    SendFrame(Frame(probe));
    // The probe is not window-tracked, so resend it ourselves on timeout.
    std::uint64_t ticks = 0;
    std::uint64_t last_sent = link_->now();
    while (!replica_checksum_.has_value()) {
      if (replica_->wedged()) {
        return Status::Error("checksum probe stalled: replica wedged");
      }
      if (++ticks > options_.max_drain_ticks) {
        return Status::Error("checksum probe timed out");
      }
      if (link_->now() - last_sent >=
          std::max<std::uint64_t>(1, options_.retry_timeout_ticks)) {
        last_sent = link_->now();
        Metrics().retries->Increment();
        SendFrame(Frame(probe));
      }
      PumpOnce();
    }
    if (*replica_checksum_ == expected) return Status::Ok();
    // Divergence: the replica's tree is not ours.  Resync it wholesale and
    // probe once more; a second mismatch is a real bug, not bad luck.
    Metrics().divergence_detected->Increment();
    const Status synced = SyncSnapshot();
    if (!synced.ok()) return synced;
  }
  return Status::Error("replica diverged and a snapshot resync did not "
                       "converge");
}

Frame ReplicatedEngine::BuildSnapshotFrame() const {
  // The image is the primary tree rendered as one record of writes; the
  // record codec gives it the same CRC-verified envelope as everything else.
  std::vector<Operation> image;
  image.reserve(primary_->tree().size());
  primary_->tree().ScanFrom({}, [&image](KeyView key, art::Value value) {
    Operation op;
    op.type = OpType::kWrite;
    op.key.assign(key.begin(), key.end());
    op.value = value;
    image.push_back(std::move(op));
    return true;
  });
  Frame frame;
  frame.type = FrameType::kSnapshot;
  frame.sequence = next_sequence_;  // the record floor this image represents
  frame.want_checksum = true;
  frame.payload_crc = EncodeRecordPayload(next_sequence_, image, frame.payload);
  return frame;
}

Status ReplicatedEngine::SyncSnapshot() {
  const Frame frame = BuildSnapshotFrame();
  const std::uint64_t expected = TreeChecksum(primary_->tree());
  // The snapshot covers every in-flight record's effects; retiring them
  // here keeps the acked-ops ledger exact (their ops arrive via the image).
  while (!inflight_.empty()) {
    acked_ops_ += inflight_.front().op_count;
    inflight_.pop_front();
  }
  acked_floor_ = next_sequence_;
  resync_needed_ = false;
  Metrics().snapshots_shipped->Increment();
  replica_checksum_.reset();
  SendFrame(Frame(frame));
  std::uint64_t ticks = 0;
  std::uint64_t last_sent = link_->now();
  // Wait for a checksummed ack proving the replica applied *this* image
  // (a stale ack cannot match: the checksum pins the exact tree content).
  while (!(replica_checksum_.has_value() && *replica_checksum_ == expected)) {
    if (replica_->wedged()) {
      return Status::Error("snapshot resync stalled: replica wedged");
    }
    if (++ticks > options_.max_drain_ticks) {
      return Status::Error("snapshot resync timed out");
    }
    if (link_->now() - last_sent >=
        std::max<std::uint64_t>(1, options_.retry_timeout_ticks)) {
      last_sent = link_->now();
      Metrics().retries->Increment();
      SendFrame(Frame(frame));
    }
    PumpOnce();
  }
  // Catch-up requests raced by the resync (e.g. the replica rejecting a
  // truncated copy of this very image) are answered by it; don't let a
  // stale flag trigger a second resync.
  resync_needed_ = false;
  Metrics().replica_lag_records->Set(0.0);
  return Status::Ok();
}

void ReplicatedEngine::KillPrimary() { primary_alive_ = false; }

void ReplicatedEngine::SendHeartbeat() {
  if (!primary_alive_ || primary_->crashed() || replica_->promoted()) return;
  Frame hb;
  hb.type = FrameType::kHeartbeat;
  hb.sequence = next_sequence_;
  hb.payload_crc = FrameCrc(hb);
  // Through SendFrame on purpose: a partitioned or disconnected link starves
  // heartbeats exactly like it starves records, which is the signal the
  // watchdog exists to notice.
  SendFrame(std::move(hb));
}

void ReplicatedEngine::PumpIdle() {
  if (!primary_alive_) {
    // The primary is dead: no retransmits, no reconnect attempts on its
    // behalf — but frames already in flight still come due for the replica.
    link_->Tick();
    replica_->Pump(*link_);
    return;
  }
  PumpOnce();
}

std::uint64_t ReplicatedEngine::replica_heartbeat_age() const {
  return link_->now() - replica_->last_heartbeat_tick();
}

Status ReplicatedEngine::Promote() {
  if (replica_->promoted()) {
    return Status::TypedError(
        StatusCode::kAlreadyPromoted,
        "duplicate failover: the replica is already promoted and serving");
  }
  primary_alive_ = false;  // fence: no split-brain double-serving
  // Promote-during-catch-up: everything already on the wire (including
  // delayed frames still ripening) must reach the replica before it starts
  // serving, or acknowledged records die with the link.  Pump until the
  // replica makes no progress for several consecutive ticks — strictly more
  // than the in-process delay horizon, so a delayed frame cannot outwait us.
  std::uint64_t idle_ticks = 0;
  while (idle_ticks < 8) {
    const std::uint64_t before = replica_->applied_records();
    link_->Tick();
    replica_->Pump(*link_);
    idle_ticks = replica_->applied_records() == before ? idle_ticks + 1 : 0;
  }
  Metrics().failovers->Increment();
  return replica_->Promote();
}

}  // namespace dcart::resilience
