#include "resilience/replication.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "art/serialize.h"
#include "common/crc32.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault_injector.h"
#include "resilience/socket_link.h"

namespace dcart::resilience {

namespace {

constexpr std::size_t kWireHeaderBytes = 8;    // u32 wire_len + u32 wire_crc
constexpr std::size_t kFrameHeaderBytes = 26;  // frame block before payload
constexpr std::size_t kMaxWireLen = kFrameHeaderBytes + kMaxPayloadBytes;
constexpr std::size_t kPartialReadBytes = 3;   // kNetPartialRead haul cap
// Pumps without an answer before the pending frame is resent; doubles per
// attempt up to the cap (1 tick ~ 1 ms for the gauge).  The reconnect
// backoff starts and stops at the same two values.
constexpr std::uint64_t kRetryTimeoutTicks = 4;
constexpr std::uint64_t kBackoffCapTicks = 64;
// Livelock safety valve: a drain that pumps this many ticks without
// converging gives up with an error instead of spinning forever.
constexpr std::uint64_t kMaxDrainTicks = 100000;

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

std::uint32_t FrameCrc(const Frame& frame) {
  return Crc32(frame.payload.data(), frame.payload.size());
}

/// A frame without payload: ack, catch-up request, probe or heartbeat.
Frame ControlFrame(FrameType type, std::uint64_t sequence) {
  Frame frame;
  frame.type = type;
  frame.sequence = sequence;
  frame.payload_crc = FrameCrc(frame);
  return frame;
}

/// Empty `bytes` and give its memory back: a drained buffer must not stay
/// at the size of the largest frame it ever held.
void Release(std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t>().swap(bytes);
}

/// Append the wire image of `frame`, carrying its first `payload_len`
/// payload bytes, to `wire`, straight from the frame.
void EncodeWire(const Frame& frame, std::size_t payload_len,
                std::vector<std::uint8_t>& wire) {
  const auto block_len =
      static_cast<std::uint32_t>(kFrameHeaderBytes + payload_len);
  const std::size_t start = wire.size();
  wire.reserve(start + kWireHeaderBytes + block_len);
  ByteWriter out(wire);
  out.Pod(block_len);
  out.Pod(std::uint32_t{0});  // wire_crc, patched once the block is down
  out.Pod(static_cast<std::uint8_t>(frame.type));
  out.Pod(static_cast<std::uint8_t>(frame.has_checksum ? 2u : 0u));
  out.Pod(frame.sequence);
  out.Pod(frame.payload_crc);
  out.Pod(frame.tree_checksum);
  out.Pod(static_cast<std::uint32_t>(payload_len));
  out.Bytes(frame.payload.data(), payload_len);
  out.PodAt(start + sizeof block_len,
            Crc32(wire.data() + start + kWireHeaderBytes, block_len));
}

/// In-memory pipe.  A write into an empty direction takes the whole buffer
/// over, and a read into an empty receive buffer hands it on, both by swap,
/// so a frame's bytes are never copied in transit.
class MemoryPipe final : public BytePipe {
 public:
  Status Connect() override {
    Close();
    return Status::Ok();
  }
  void Close() override {
    for (Queue& queue : queues_) queue = Queue{};
  }
  bool Write(Direction way, std::vector<std::uint8_t>& bytes) override {
    Queue& queue = queues_[static_cast<std::size_t>(way)];
    if (queue.bytes.empty()) {
      queue.bytes.swap(bytes);
    } else {
      queue.bytes.insert(queue.bytes.end(), bytes.begin(), bytes.end());
    }
    Release(bytes);
    return true;
  }
  bool Read(Direction way, std::vector<std::uint8_t>& rx,
            std::size_t max) override {
    Queue& queue = queues_[static_cast<std::size_t>(way)];
    const std::size_t available = queue.bytes.size() - queue.head;
    if (rx.empty() && queue.head == 0 && available <= max) {
      rx.swap(queue.bytes);
    } else {
      const auto from =
          queue.bytes.begin() + static_cast<std::ptrdiff_t>(queue.head);
      const std::size_t n = std::min(available, max);
      rx.insert(rx.end(), from, from + static_cast<std::ptrdiff_t>(n));
      queue.head += n;
    }
    if (queue.head == queue.bytes.size()) queue = Queue{};
    return true;
  }

 private:
  struct Queue {
    std::vector<std::uint8_t> bytes;
    std::size_t head = 0;  // bytes before this were already read
  };
  std::array<Queue, 2> queues_;
};

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

ReplicationLink::ReplicationLink(LinkKind kind)
    : ReplicationLink(kind == LinkKind::kSocket
                          ? MakeSocketPipe()
                          : std::make_unique<MemoryPipe>()) {}

ReplicationLink::ReplicationLink(std::unique_ptr<BytePipe> pipe)
    : pipe_(std::move(pipe)) {}

Status ReplicationLink::Connect() {
  Tear();
  const Status status = pipe_->Connect();
  connected_ = status.ok();
  return status;
}

void ReplicationLink::Reconnect() {
  if (connected_) return;
  if (FaultCheck(FaultSite::kNetConnectTimeout)) {
    return;  // the attempt timed out; the caller's backoff schedules another
  }
  (void)Connect();  // failure leaves connected_ false, which IS the report
}

void ReplicationLink::Tear() {
  // One connection carries both ways: closing it loses everything in
  // flight, pipe-buffered bytes and the backlog included.  That loss is
  // the point; retransmission and catch-up recover it.
  pipe_->Close();
  for (Way* way : {&to_replica_, &to_primary_}) {
    Release(way->backlog);
    Release(way->rx);
  }
  connected_ = false;
}

void ReplicationLink::Tick() {
  ++now_;
  // What the pipe would not take goes on even if nobody receives this tick
  // (a dead primary's last bytes still drain toward the replica).
  Flush(to_replica_);
  Flush(to_primary_);
}

Status ReplicationLink::Send(Way& way, const Frame& frame) {
  if (!connected_) {
    return Status::Error("replication link is disconnected");
  }
  // Fault opportunities in a fixed order, one check per site per send, so a
  // trigger_at plan lands its fault on exactly the Nth frame and a
  // probability plan replays bit-identically per seed, on either pipe.
  if (FaultCheck(FaultSite::kReplDisconnect)) {
    Tear();
    return Status::Error("replication link dropped (injected disconnect)");
  }
  if (FaultCheck(FaultSite::kReplDrop)) {
    return Status::Ok();  // the frame vanishes; the sender believes it left
  }
  // Truncation cuts the payload mid-record.  The framing describes the cut
  // frame and passes; payload_crc still covers the full payload, so only
  // the receiver's end-to-end check catches it.
  const bool truncate = FaultCheck(FaultSite::kReplTruncate);
  if (FaultCheck(FaultSite::kNetPartialWrite)) {
    // Half the frame lands, then the stream tears mid-record.  Like a short
    // write(), the send reports success; the tear takes the stub with every
    // other byte in flight.
    Tear();
    return Status::Ok();
  }
  EncodeWire(frame,
             truncate ? frame.payload.size() / 2 : frame.payload.size(),
             way.backlog);
  Flush(way);
  return Status::Ok();
}

void ReplicationLink::Flush(Way& way) {
  if (!connected_ || way.backlog.empty()) return;
  if (!pipe_->Write(way.direction, way.backlog)) {
    Tear();  // EPIPE/ECONNRESET/...: the stream is gone
  } else if (way.backlog.empty()) {
    Release(way.backlog);
  }
}

bool ReplicationLink::Receive(Way& way, Frame& out) {
  // Everything sent so far must be receivable now, so write what the pipe
  // would not take at send time before reading.
  Flush(way);
  if (connected_) {
    // A stingy read: a few bytes now, the rest stays in the pipe.
    const std::size_t max = FaultCheck(FaultSite::kNetPartialRead)
                                ? kPartialReadBytes
                                : std::numeric_limits<std::size_t>::max();
    if (!pipe_->Read(way.direction, way.rx, max)) {
      Tear();  // the peer closed, or the stream broke
    }
  }
  // Parse one frame per call (the pump loops until false).
  std::vector<std::uint8_t>& rx = way.rx;
  ByteReader in(rx);
  std::uint32_t wire_len = 0;
  std::uint32_t wire_crc = 0;
  if (!in.Pod(wire_len) || !in.Pod(wire_crc)) return false;
  if (wire_len > kMaxWireLen) {
    Tear();  // desynchronized framing: nothing downstream is trustworthy
    return false;
  }
  if (in.remaining() < wire_len) return false;
  const std::size_t total = kWireHeaderBytes + wire_len;
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint32_t payload_len = 0;
  if (wire_len < kFrameHeaderBytes ||
      Crc32(rx.data() + kWireHeaderBytes, wire_len) != wire_crc ||
      !in.Pod(type) || !in.Pod(flags) || !in.Pod(out.sequence) ||
      !in.Pod(out.payload_crc) || !in.Pod(out.tree_checksum) ||
      !in.Pod(payload_len) ||
      type > static_cast<std::uint8_t>(FrameType::kHeartbeat) ||
      kFrameHeaderBytes + payload_len != wire_len) {
    Tear();  // torn mid-frame: drop the connection, retransmission recovers
    return false;
  }
  out.type = static_cast<FrameType>(type);
  out.has_checksum = (flags & 2u) != 0;
  const std::size_t payload_at = kWireHeaderBytes + kFrameHeaderBytes;
  if (rx.size() == total) {
    // The buffer holds exactly this frame: the payload moves out in place.
    rx.erase(rx.begin(), rx.begin() + payload_at);
    out.payload = std::move(rx);
    Release(rx);
  } else {
    out.payload.assign(rx.begin() + payload_at,
                       rx.begin() + static_cast<std::ptrdiff_t>(total));
    rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(total));
  }
  return true;
}

// --------------------------------------------------------------- checksums --

std::uint64_t TreeChecksum(const art::Tree& tree) {
  obs::ScopedSpan span("ha.checksum", "replication", "keys", tree.size());
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

ReplicaEngine::ReplicaEngine(ReplicationOptions options)
    : options_(std::move(options)),
      dir_(durable() ? options_.dir + "/replica" : "",
           options_.journal_to_snapshot_ratio) {
  Reset();
}

ReplicaEngine::~ReplicaEngine() = default;

void ReplicaEngine::Reset() {
  tree_ = art::Tree{};
  next_sequence_ = 0;
  applied_ops_ = 0;
  wedged_ = false;
  promoted_engine_.reset();
  if (durable()) {
    dir_.Wipe();
    // Generation 1 from the empty tree: every later record is journaled
    // under it, so a promotion before the first snapshot roll still finds a
    // recoverable generation.
    if (!dir_.Roll(tree_).ok()) wedged_ = true;
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
    // Duplicate delivery (the resend after a lost ack): never re-apply, but
    // re-ack so a lost ack cannot stall the primary.
    Metrics().duplicates_dropped->Increment();
    SendAck(link, /*with_checksum=*/false);
    return;
  }
  if (frame.sequence > next_sequence_) {
    // Gap: a predecessor never arrived.  The stop-and-wait primary does not
    // send one, but the wire is input: ask for a resend from the floor
    // instead of applying out of order.
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
  // Journal before apply: the ack promises the record is replica-durable.
  if (durable() && !dir_.Append(ops).ok()) {
    wedged_ = true;
    return;
  }
  ApplyToTree(tree_, ops);
  applied_ops_ += ops.size();
  ++next_sequence_;
  if (durable() && dir_.BatchDone() && !dir_.Roll(tree_).ok()) {
    wedged_ = true;
    return;
  }
  SendAck(link, /*with_checksum=*/false);
}

void ReplicaEngine::HandleSnapshot(ReplicationLink& link, const Frame& frame) {
  if (frame.sequence < next_sequence_) {
    // A copy of an image this replica has since moved past: applying it
    // would roll back records the primary counts as acknowledged.
    Metrics().duplicates_dropped->Increment();
    SendAck(link, /*with_checksum=*/false);
    return;
  }
  // A snapshot supersedes everything local: bootstrap, divergence resync,
  // and the catch-up of a replica missing a record the primary no longer
  // holds all land here.  The payload is the primary tree's SN3 image,
  // held to every check LoadTree makes before anything local is touched.
  art::Tree image;
  if (!art::DecodeTree(frame.payload, image)) {
    Metrics().crc_rejects->Increment();
    RequestCatchUp(link);
    return;
  }
  Reset();
  tree_ = std::move(image);
  applied_ops_ = tree_.size();
  next_sequence_ = frame.sequence;  // the record floor the image represents
  // Roll a generation so the snapshot itself is replica-durable before the
  // ack goes out (Reset() opened generation 1 from an empty tree).
  if (durable() && !wedged_ && !dir_.Roll(tree_).ok()) wedged_ = true;
  if (wedged_) return;
  SendAck(link, /*with_checksum=*/true);
}

void ReplicaEngine::SendAck(ReplicationLink& link, bool with_checksum) {
  // Cumulative: everything below next_sequence_ is durable.
  Frame ack = ControlFrame(FrameType::kAck, next_sequence_);
  if (with_checksum) {
    ack.has_checksum = true;
    ack.tree_checksum = TreeChecksum(tree_);
  }
  (void)link.SendToPrimary(ack);  // lost acks resolve by resend
}

void ReplicaEngine::RequestCatchUp(ReplicationLink& link) {
  Metrics().catchup_requests->Increment();
  // Resend everything from our floor.
  (void)link.SendToPrimary(
      ControlFrame(FrameType::kCatchUpRequest, next_sequence_));
}

Status ReplicaEngine::Promote() {
  if (promoted_engine_ != nullptr) {
    return Status::TypedError(
        StatusCode::kAlreadyPromoted,
        "duplicate failover: this replica is already promoted and serving");
  }
  dir_.Close();  // flush descriptor state before recovery scans the dir
  // An in-memory pair has no durable path: promotion serves the live tree.
  const ResilienceOptions home{dir_.path(),
                               options_.journal_to_snapshot_ratio};
  Status status;
  if (durable()) {
    auto engine = std::make_unique<ResilientEngine>(home);
    if (engine->Recover()) {
      promoted_engine_ = std::move(engine);
      return Status::Ok();
    }
    // The durable path is unusable (reported below, never swallowed); serve
    // the live in-memory tree instead on a fresh durability home.
    status = Status::Error(
        "promotion degraded to the live in-memory tree: replica-local "
        "recovery failed");
    status.Update(engine->last_recover_error());
    dir_.Wipe();
  }
  promoted_engine_ = std::make_unique<ResilientEngine>(home);
  promoted_engine_->Load(TreeItems(tree_));
  return status;
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

ReplicatedEngine::ReplicatedEngine(ReplicationOptions options)
    : options_(std::move(options)), link_(options_.link) {
  ResilienceOptions primary;
  if (!options_.dir.empty()) primary.dir = options_.dir + "/primary";
  primary.journal_to_snapshot_ratio = options_.journal_to_snapshot_ratio;
  primary_ = std::make_unique<ResilientEngine>(primary);
  replica_ = std::make_unique<ReplicaEngine>(options_);
  link_error_ = link_.Connect();
}

ReplicatedEngine::~ReplicatedEngine() = default;

void ReplicatedEngine::Load(
    const std::vector<std::pair<Key, art::Value>>& items) {
  primary_->Load(items);
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

  if (!load_status_.ok()) {
    result.status.Update(load_status_);
    load_status_ = Status::Ok();
    return result;
  }

  // A Run() counts only the ops it ships.  Those of an earlier Run() whose
  // delivery gave up were reported unacknowledged, and their clients retry.
  unacked_ops_ = 0;
  const std::uint64_t acked_ops_before = acked_ops_;
  const std::size_t batch_size = std::max<std::size_t>(1, config.batch_size);
  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);
    const std::span<const Operation> batch = ops.subspan(begin, end - begin);

    result.Merge(primary_->Run(batch, config));
    if (!result.status.ok()) break;  // primary crashed: stop shipping

    // The batch is not HA-acknowledged until its record is replica-durable,
    // so a primary loss at any boundary loses nothing acknowledged.
    result.status.Update(ShipRecord(batch));
    if (!result.status.ok()) break;
  }
  if (primary_alive_ && !primary_->crashed()) {
    result.status.Update(Drain());
  }
  // HA acknowledgement = replica-durable (strictly stronger than the
  // primary-journaled acknowledgement the inner engine counts).
  result.ops_acknowledged = acked_ops_ - acked_ops_before;
  return result;
}

Status ReplicatedEngine::ShipRecord(std::span<const Operation> ops) {
  // Stop-and-wait: the span holds the ack wait, and any resync it turns into.
  obs::ScopedSpan span("ha.ship", "replication", "ops", ops.size());
  unacked_ops_ += ops.size();
  // A delivery gave up, so the replica may lack a record this primary no
  // longer holds: resync it instead, and the image carries this batch.
  if (acked_floor_ < next_sequence_) return SyncSnapshot();
  Frame frame;
  frame.type = FrameType::kRecord;
  frame.sequence = next_sequence_++;
  frame.payload_crc = EncodeRecordPayload(frame.sequence, ops, frame.payload);
  Metrics().records_shipped->Increment();
  Metrics().replica_lag_records->Set(1);
  return Deliver(frame,
                 [this, &frame] { return acked_floor_ > frame.sequence; });
}

void ReplicatedEngine::SendFrame(const Frame& frame) {
  const Status sent = link_.SendToReplica(frame);
  if (!sent.ok() && link_.now() >= next_reconnect_) {
    // Link refused (disconnected, or the send itself tore it down).  The
    // frame stays pending; schedule the next reconnect attempt with
    // exponential backoff (1 tick ~ 1 ms for the gauge).  Only schedule
    // when none is pending: pushing next_reconnect_ forward on every failed
    // send would postpone the reconnect indefinitely.
    reconnect_backoff_ = reconnect_backoff_ == 0
                             ? kRetryTimeoutTicks
                             : std::min(reconnect_backoff_ * 2, kBackoffCapTicks);
    // The exponential base stays clean in reconnect_backoff_; the scheduled
    // wait is jittered so pairs that lost the same link don't all reconnect
    // on the same tick.
    const std::uint64_t wait =
        JitteredBackoff(reconnect_backoff_, link_.now() ^ reconnect_backoff_);
    next_reconnect_ = link_.now() + wait;
    Metrics().backoff_ms->Set(static_cast<double>(wait));
  }
}

void ReplicatedEngine::PumpOnce() {
  link_.Tick();
  if (!link_.connected() && link_.now() >= next_reconnect_) {
    link_.Reconnect();
    Metrics().reconnects->Increment();
  } else if (link_.connected()) {
    reconnect_backoff_ = 0;
  }
  replica_->Pump(link_);
  Frame frame;
  while (link_.ReceiveAtPrimary(frame)) {
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
}

void ReplicatedEngine::HandleAck(const Frame& frame) {
  if (frame.sequence > acked_floor_) {
    Metrics().records_acked->Add(frame.sequence - acked_floor_);
    acked_floor_ = frame.sequence;
    if (acked_floor_ == next_sequence_) {
      // Everything shipped is replica-durable, the ops of any record a
      // snapshot carried across included.
      acked_ops_ += unacked_ops_;
      unacked_ops_ = 0;
    }
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
  // The replica rejected a copy of the pending frame (a truncated one, say):
  // resend it now rather than at its backoff.  Any other request is stale,
  // as the replica's floor never moves back and only one frame is pending.
  if (pending_ != nullptr && frame.sequence == pending_->sequence) {
    resend_at_ = link_.now();
  }
}

template <typename Predicate>
Status ReplicatedEngine::Deliver(const Frame& frame, Predicate done) {
  pending_ = &frame;
  resend_at_ = link_.now();
  std::uint32_t attempts = 0;
  Status status;
  for (std::uint64_t ticks = 0; !done(); PumpOnce()) {
    if (replica_->wedged()) {
      status = Status::Error(
          "replication stalled: replica wedged (local journal/snapshot "
          "failure), acks will not resume");
      break;
    }
    if (++ticks > kMaxDrainTicks) {
      // The stuck state matters more than the fact of the timeout: an
      // operator (or a failing chaos test) needs to see which side stalled.
      const char* what = frame.type == FrameType::kRecord     ? "record "
                         : frame.type == FrameType::kSnapshot ? "snapshot "
                                                              : "probe ";
      status = Status::Error(
          std::string("replication drain timed out: ") + what +
          std::to_string(frame.sequence) +
          " (shipped=" + std::to_string(next_sequence_) +
          ", acked_floor=" + std::to_string(acked_floor_) +
          ", replica_applied=" + std::to_string(replica_->applied_records()) +
          ", link=" + (link_.connected() ? "up" : "down") + ")");
      break;
    }
    // A dead link fails every send anyway: hold resends until the
    // reconnect, so the outage does not inflate the backoff.
    if (link_.now() < resend_at_ || (attempts > 0 && !link_.connected())) {
      continue;
    }
    const bool resend = attempts++ > 0;
    // Exponential backoff per attempt, jittered per (sequence, attempt):
    // frames stalled by the same fault spread their resends instead of
    // re-bursting in lockstep.
    const std::uint64_t base = std::min(
        kRetryTimeoutTicks << std::min<std::uint32_t>(attempts - 1, 16),
        kBackoffCapTicks);
    const std::uint64_t wait =
        JitteredBackoff(base, frame.sequence * 0x100000001b3ull + attempts);
    resend_at_ = link_.now() + wait;
    if (resend) {
      Metrics().retries->Increment();
      Metrics().backoff_ms->Set(static_cast<double>(wait));
    }
    SendFrame(frame);
  }
  pending_ = nullptr;
  return status;
}

Status ReplicatedEngine::Drain() {
  if (!link_error_.ok()) return link_error_;
  if (!primary_alive_) return Status::Ok();  // fenced: nothing to ship
  if (acked_floor_ < next_sequence_) {
    // A delivery gave up: only a snapshot brings the replica level.
    const Status synced = SyncSnapshot();
    if (!synced.ok()) return synced;
  }
  return VerifyChecksum();
}

Status ReplicatedEngine::VerifyChecksum() {
  const std::uint64_t expected = TreeChecksum(primary_->tree());
  for (int round = 0; round < 2; ++round) {
    replica_checksum_.reset();
    const Status probed =
        Deliver(ControlFrame(FrameType::kChecksumProbe, next_sequence_),
                [this] { return replica_checksum_.has_value(); });
    if (!probed.ok()) return probed;
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

Status ReplicatedEngine::BuildSnapshotFrame(Frame& frame) const {
  // The image is the primary tree's SN3 snapshot, the bytes SaveTree
  // writes; the wire CRC covers `sequence`, the record floor it represents.
  frame.type = FrameType::kSnapshot;
  frame.sequence = next_sequence_;
  if (!art::EncodeTree(primary_->tree(), AppendTo(frame.payload))) {
    return Status::Error(
        "snapshot resync: the primary tree holds a key no snapshot can hold");
  }
  frame.payload_crc = FrameCrc(frame);
  return Status::Ok();
}

Status ReplicatedEngine::SyncSnapshot() {
  // Every image takes a floor of its own, so a late copy of any earlier
  // one is below the replica's floor and dropped, and a sync that gives up
  // leaves the acked floor behind: the next ShipRecord() or Drain() retries.
  ++next_sequence_;
  Frame frame;
  const Status built = BuildSnapshotFrame(frame);
  if (!built.ok()) return built;
  const std::uint64_t expected = TreeChecksum(primary_->tree());
  Metrics().snapshots_shipped->Increment();
  replica_checksum_.reset();
  // Wait for a checksummed ack proving the replica applied *this* image
  // (a stale ack cannot match: the checksum pins the exact tree content).
  // That ack's floor is next_sequence_, so HandleAck has counted every
  // shipped op acknowledged by the time it matches.
  return Deliver(frame,
                 [this, expected] { return replica_checksum_ == expected; });
}

void ReplicatedEngine::KillPrimary() { primary_alive_ = false; }

void ReplicatedEngine::SendHeartbeat() {
  if (!primary_alive_ || primary_->crashed() || replica_->promoted()) return;
  // Through SendFrame on purpose: a partitioned or disconnected link starves
  // heartbeats exactly like it starves records, which is the signal the
  // watchdog exists to notice.
  SendFrame(ControlFrame(FrameType::kHeartbeat, next_sequence_));
}

void ReplicatedEngine::PumpIdle() {
  if (!primary_alive_) {
    // The primary is dead: no retransmits, no reconnect attempts on its
    // behalf — but frames already in flight still reach the replica.
    link_.Tick();
    replica_->Pump(link_);
    return;
  }
  PumpOnce();
}

std::uint64_t ReplicatedEngine::replica_heartbeat_age() const {
  return link_.now() - replica_->last_heartbeat_tick();
}

Status ReplicatedEngine::Promote() {
  if (replica_->promoted()) {
    return Status::TypedError(
        StatusCode::kAlreadyPromoted,
        "duplicate failover: the replica is already promoted and serving");
  }
  primary_alive_ = false;  // fence: no split-brain double-serving
  // Promote-during-catch-up: everything already on the wire must reach the
  // replica before it starts serving, or acknowledged records die with the
  // link.  A socket can hand a frame over across several reads, so pump
  // until the replica makes no progress for several consecutive ticks.
  std::uint64_t idle_ticks = 0;
  while (idle_ticks < 8) {
    const std::uint64_t before = replica_->applied_records();
    link_.Tick();
    replica_->Pump(link_);
    idle_ticks = replica_->applied_records() == before ? idle_ticks + 1 : 0;
  }
  Metrics().failovers->Increment();
  return replica_->Promote();
}

}  // namespace dcart::resilience
