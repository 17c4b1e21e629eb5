// High-availability replication: a log-shipped replica of the resilient
// engine, a chaos-hardened shipping link, and automated failover.
//
// The design reuses the durability layer's artifacts as the replication
// protocol (the ROADMAP's scale-out item; SafarDB in PAPERS.md is the
// reference point for log-shipped replication next to an accelerator-style
// engine):
//
//   Record shipping  — every batch the primary acknowledges is also a sealed
//                      journal record (journal.h's record encoding, CRC and
//                      all); the primary ships that record over a
//                      ReplicationLink.  One record per acknowledged batch,
//                      so shipping rides the CTT batch boundaries and never
//                      touches the per-operation hot path.  A record holds
//                      the batch's writes and removes only: reads and scans
//                      are answered by the primary and never shipped.
//   Replica replay   — the ReplicaEngine verifies each record's CRC,
//                      rejects duplicates and gaps by sequence number,
//                      journals the record to replica-local disk (a
//                      GenerationDir, the layout the ResilientEngine
//                      recovers from) and replays it serially, staying
//                      byte-identical with the primary.
//   Catch-up         — on any gap, CRC reject, or truncation the replica
//                      requests retransmission from its applied floor, and
//                      the primary resends the frame it is delivering; a
//                      replica that may lack a record (a delivery gave up),
//                      a fresh one and a diverged one are resynced with a
//                      snapshot frame: the primary tree's SN3 image
//                      (art/serialize.h), the bytes SaveTree writes, which
//                      the replica decodes with every check LoadTree makes.
//   Divergence       — tree checksums (CRC32 over the canonical sorted
//                      stream) are exchanged on the probe every Drain()
//                      sends and on the ack of each snapshot; a mismatch
//                      triggers a full snapshot resync.
//   Failover         — Promote() runs ResilientEngine::Recover() over the
//                      replica-local state, opens a fresh generation, and
//                      the promoted engine serves reads and writes; a failed
//                      recovery reports *why* via last_recover_error() and
//                      degrades to the live in-memory tree.
//
// The link is where the robustness lives.  ReplicationLink is one class
// over a BytePipe that only moves bytes (in memory, or over localhost TCP:
// socket_link.h), so every fault check sits in one place and lands on the
// same frame whatever the pipe.  Both pipes are ordered byte streams, so
// the sites model what a connection can do to a send — in a fixed order,
// repl-disconnect, repl-drop, repl-truncate, then net-partial-write (half a
// frame lands and the stream tears) — plus a read that returns a few bytes
// and a redial that times out.  The primary answers them stop-and-wait: it
// sends one frame (a record, a snapshot or a checksum probe) and resends it
// on a jittered exponential backoff until the answer that proves delivery
// arrives — a sequence-numbered cumulative ack, or a checksummed one —
// reconnecting when the link drops.  A tear loses every byte in flight, as
// a TCP tear does, and the resend recovers it.
//
// Wire format (per frame, little-endian host order — both ends live in one
// process, and a cross-host deployment would pin the encoding anyway):
//
//   u32 wire_len   — byte length of the frame block that follows, at most
//                    26 + kMaxPayloadBytes (journal.h)
//   u32 wire_crc   — CRC32 over the frame block (framing check)
//   frame block:
//     u8  type, u8 flags (bit1 has_checksum; bit0 is unused)
//     u64 sequence, u32 payload_crc, u64 tree_checksum
//     u32 payload_len, payload bytes
//
// Both ends encode and parse the header through common/bytes.h's
// ByteWriter and ByteReader.  A kRecord payload is a journal record
// payload (journal.h); a kSnapshot payload is an SN3 image, and the
// frame's `sequence` is the record floor the image stands for.
//
// The wire CRC only guards framing: a mismatch means the stream is torn
// and the link drops the connection.  Content integrity stays end-to-end:
// payload_crc travels inside the frame and the receiver checks it.
//
// A send writes the frame onto the pipe at once.  Bytes the pipe will not
// take yet wait in a backlog that the next send, Tick() or receive writes
// first, so the stream keeps its order.  Time is virtual: one Pump() is one
// tick, so every timeout/backoff path replays deterministically under the
// seeded fault injector (docs: one tick is nominally one millisecond for
// the backoff_ms gauge).
//
// Thread-safety: like the ResilientEngine it wraps, the whole module is
// thread-compatible, not thread-safe — Load/Run/Pump/Promote must be called
// from one thread at a time (the service loop).  All parallelism stays
// inside the primary's DcartCpEngine::Run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/engine.h"
#include "resilience/resilient_engine.h"

namespace dcart::resilience {

// ------------------------------------------------------------------ frames --

enum class FrameType : std::uint8_t {
  kRecord,         // one sealed journal record (payload = record encoding)
  kSnapshot,       // bootstrap/resync image (payload = SN3 tree image)
  kChecksumProbe,  // primary asks for the replica's tree checksum
  kAck,            // replica -> primary: cumulative applied floor
  kCatchUpRequest,  // replica -> primary: resend records from `sequence`
  kHeartbeat       // primary -> replica liveness beacon (cluster watchdog)
};

/// One message on the link, either direction.  `sequence` is the record
/// sequence for kRecord/kSnapshot, the cumulative applied floor for kAck
/// (every record below it is replica-durable), and the resend-from point
/// for kCatchUpRequest.  Payload integrity is end-to-end: the receiver
/// recomputes CRC32 over `payload` and rejects on mismatch, so a frame
/// truncated in flight is detected no matter what the transport did.
struct Frame {
  FrameType type = FrameType::kRecord;
  std::uint64_t sequence = 0;
  std::uint32_t payload_crc = 0;
  bool has_checksum = false;    // ack: tree_checksum is meaningful
  std::uint64_t tree_checksum = 0;
  std::vector<std::uint8_t> payload;
};

// -------------------------------------------------------------------- link --

/// Which pipe a ReplicatedEngine pair speaks over.
enum class LinkKind : std::uint8_t {
  kInProcess,  // in-memory byte pipe, same address space (the default)
  kSocket      // localhost TCP (socket_link.h)
};

/// The two ways bytes flow between a primary and its replica.
enum class Direction : std::uint8_t { kToReplica, kToPrimary };

/// A transport under a ReplicationLink: one connection that carries bytes
/// both ways.  It knows nothing of frames, faults or time.
class BytePipe {
 public:
  virtual ~BytePipe() = default;
  /// Open a fresh connection, replacing (and losing) any earlier one.
  virtual Status Connect() = 0;
  /// Drop the connection and every byte in flight on it, both ways.
  virtual void Close() = 0;
  /// Hand the front of `bytes` to the connection; what it cannot take yet
  /// stays in `bytes`, in order.  False when the connection broke.
  virtual bool Write(Direction way, std::vector<std::uint8_t>& bytes) = 0;
  /// Append up to `max` bytes that arrived going `way` to `rx`.  False when
  /// the connection broke or the peer closed it.
  virtual bool Read(Direction way, std::vector<std::uint8_t>& rx,
                    std::size_t max) = 0;
};

/// The link between a primary and one replica: the fault checks, the
/// virtual clock and the wire framing (above), over whichever BytePipe
/// moves the bytes.  Every send is one fault opportunity per site it
/// reaches, in a fixed order (disconnect, drop, truncate, partial write),
/// so trigger_at plans place a fault on exactly the Nth frame and
/// probability plans are reproducible per seed.
class ReplicationLink {
 public:
  /// A link over the pipe `kind` names; down until Connect().
  explicit ReplicationLink(LinkKind kind);
  explicit ReplicationLink(std::unique_ptr<BytePipe> pipe);

  /// Open the connection.  Bytes in flight on an earlier one are gone.  A
  /// failure leaves the link down.
  Status Connect();

  Status SendToReplica(const Frame& frame) { return Send(to_replica_, frame); }
  bool ReceiveAtReplica(Frame& out) { return Receive(to_replica_, out); }
  Status SendToPrimary(const Frame& frame) { return Send(to_primary_, frame); }
  bool ReceiveAtPrimary(Frame& out) { return Receive(to_primary_, out); }

  /// Advance virtual time one pump, and write what the pipe would not take.
  void Tick();
  std::uint64_t now() const { return now_; }

  /// A disconnected link refuses sends until Reconnect() (the primary's
  /// backoff state machine calls it).  kNetConnectTimeout can fail the
  /// attempt; the backoff then tries again.
  bool connected() const { return connected_; }
  void Reconnect();

 private:
  struct Way {
    Direction direction;
    std::vector<std::uint8_t> backlog;  // bytes the pipe would not take yet
    std::vector<std::uint8_t> rx;       // bytes read but not yet framed
  };

  /// Fault checks, encode onto the backlog, write.
  Status Send(Way& way, const Frame& frame);
  /// Write the backlog onto the pipe, as much of it as the pipe takes.  A
  /// broken connection tears the link.
  void Flush(Way& way);
  /// Read what arrived (kNetPartialRead may cap the haul), then parse one
  /// complete frame.
  bool Receive(Way& way, Frame& out);
  /// Drop the connection and every byte it was carrying, both ways.
  void Tear();

  std::unique_ptr<BytePipe> pipe_;
  Way to_replica_{Direction::kToReplica, {}, {}};
  Way to_primary_{Direction::kToPrimary, {}, {}};
  bool connected_ = false;
  std::uint64_t now_ = 0;
};

// --------------------------------------------------------------- checksums --

/// CRC32 over the tree's canonical sorted (key, value) stream, each entry
/// as u32 key_len, key bytes, u64 value.  SaveTree writes that same stream
/// (front-coded), so unequal checksums mean unequal trees; equal ones mean
/// equal trees, and byte-identical SaveTree images, up to a 2^-32 chance of
/// a random CRC32 collision.  The checksum is not a CRC of the image.
/// O(n): exchanged on probes and snapshot acks, never per record.
std::uint64_t TreeChecksum(const art::Tree& tree);

// ----------------------------------------------------------------- backoff --

/// Deterministic jitter for an exponential-backoff wait: maps `base` (the
/// doubled-and-capped wait) into [(base+1)/2, base] using a SplitMix64 draw
/// over `salt` (callers mix sequence/attempt so retries of different records
/// decorrelate).  Full-strength retransmit storms after a shared fault are
/// what the jitter breaks up; halving the wait at most keeps the backoff
/// exponential in shape.  Pinned by ReplicationTest.JitteredBackoffBounds.
std::uint64_t JitteredBackoff(std::uint64_t base, std::uint64_t salt);

// ----------------------------------------------------------------- options --

struct ReplicationOptions {
  /// Pipe selection.  A failed socket setup is parked and surfaced by the
  /// next Run()/Drain().
  LinkKind link = LinkKind::kInProcess;
  /// Durability home for the pair.  Non-empty: the primary journals under
  /// `<dir>/primary` and the replica under `<dir>/replica` (the layout
  /// Promote() recovers from).  Empty: both sides run in memory — the link,
  /// catch-up, and divergence machinery still operate, but promotion can
  /// only serve the live tree.
  std::string dir;
  /// Both sides' generation roll rule (ResilienceOptions).
  double journal_to_snapshot_ratio = 1.0;
};

// ----------------------------------------------------------------- replica --

/// The receiving half: verifies, journals, and serially replays shipped
/// records against a replica-local tree, acks cumulatively, and promotes
/// itself through the ResilientEngine recovery machinery on failover.
class ReplicaEngine {
 public:
  explicit ReplicaEngine(ReplicationOptions options);
  ~ReplicaEngine();

  /// Drain every deliverable frame from the link, apply verified records,
  /// and send acks/catch-up requests.  Called from the pair's pump loop.
  void Pump(ReplicationLink& link);

  /// Failover: recover from replica-local durable state (newest snapshot
  /// generation + journal tail), open a fresh generation, and start
  /// serving.  On an unrecoverable local state the promoted engine serves
  /// the live in-memory tree instead and the returned Status says why the
  /// durable path was rejected (ResilientEngine::last_recover_error()).
  /// A second Promote() on an already-promoted replica is a duplicate
  /// failover and returns StatusCode::kAlreadyPromoted.
  Status Promote();

  bool promoted() const { return promoted_engine_ != nullptr; }
  /// Heartbeats observed on the link (cluster watchdog feed).
  std::uint64_t heartbeats_received() const { return heartbeats_received_; }
  std::uint64_t last_heartbeat_tick() const { return last_heartbeat_tick_; }
  /// The serving engine after a successful Promote().
  ResilientEngine& promoted_engine() { return *promoted_engine_; }

  std::uint64_t applied_records() const { return next_sequence_; }
  /// Writes and removes applied (records carry no reads or scans).
  std::uint64_t applied_ops() const { return applied_ops_; }
  /// True when a replica-local journal write failed and the replica stopped
  /// acking (the primary's drain will surface the stall).
  bool wedged() const { return wedged_; }

  const art::Tree& tree() const;
  std::optional<art::Value> Lookup(KeyView key) const;

  /// Test hook: mutate the replica tree out-of-band to simulate divergence
  /// (a cosmic ray, an operator mistake); the checksum exchange must catch
  /// it and trigger a resync.
  void CorruptForTest(const Key& key, art::Value value);

 private:
  bool durable() const { return !options_.dir.empty(); }

  void HandleRecord(ReplicationLink& link, const Frame& frame);
  void HandleSnapshot(ReplicationLink& link, const Frame& frame);
  void SendAck(ReplicationLink& link, bool with_checksum);
  void RequestCatchUp(ReplicationLink& link);
  /// Wipe replica-local state (bootstrap / resync entry point).
  void Reset();

  ReplicationOptions options_;
  art::Tree tree_;
  GenerationDir dir_;  // <options.dir>/replica
  std::uint64_t next_sequence_ = 0;  // next record sequence expected
  std::uint64_t applied_ops_ = 0;
  std::uint64_t heartbeats_received_ = 0;
  std::uint64_t last_heartbeat_tick_ = 0;
  bool wedged_ = false;
  std::unique_ptr<ResilientEngine> promoted_engine_;
};

// -------------------------------------------------------- replicated engine --

/// "DCART-CP-HA" in the registry: a primary ResilientEngine plus a
/// log-shipped ReplicaEngine behind one IndexEngine surface.  Run()
/// executes batches on the primary (journaled locally first), ships each
/// batch's sealed record and waits for the replica's ack before the next
/// batch: an operation is HA-acknowledged only once its record is
/// replica-durable, so killing the primary at any record boundary loses
/// nothing acknowledged.  After KillPrimary() + Promote(), Run()/Lookup()
/// route to the promoted replica.
class ReplicatedEngine : public IndexEngine {
 public:
  explicit ReplicatedEngine(ReplicationOptions options = {});
  ~ReplicatedEngine() override;

  std::string name() const override { return "DCART-CP-HA"; }
  void Load(const std::vector<std::pair<Key, art::Value>>& items) override;
  ExecutionResult Run(std::span<const Operation> ops,
                      const RunConfig& config) override;
  std::optional<art::Value> Lookup(KeyView key) const override;

  /// Resync the replica with a snapshot if a delivery gave up, then run
  /// one checksum probe exchange; a mismatch triggers a snapshot resync.
  /// Run() calls this at its end; tests call it to assert convergence
  /// under faults.
  Status Drain();

  /// Simulated loss of the primary box: the primary stops serving,
  /// shipping, and retransmitting.  Run()/Lookup() fail until Promote().
  void KillPrimary();
  bool primary_alive() const { return primary_alive_; }

  /// Failover: promote the replica (see ReplicaEngine::Promote) and route
  /// all subsequent traffic to it.  Also fences the old primary.  Before
  /// promoting, every frame already on the link is drained into the
  /// replica, so a record the primary sent but never saw acked is replayed
  /// instead of abandoned.  A duplicate Promote()
  /// returns StatusCode::kAlreadyPromoted without touching the replica.
  Status Promote();
  bool promoted() const { return replica_->promoted(); }

  /// Ship one heartbeat frame (no ack expected).  The cluster watchdog's
  /// liveness signal: a dead or killed primary stops sending these.
  void SendHeartbeat();
  /// One idle pump of the pair's loop — tick the link, give the replica a
  /// turn, process acks/retransmits — with no new work shipped.  The
  /// cluster layer calls this between batches to keep heartbeats and
  /// catch-up flowing on idle shards.
  void PumpIdle();
  /// Ticks since the replica last saw a heartbeat (link-now minus
  /// last-heartbeat-tick; the full current age if none arrived yet).
  std::uint64_t replica_heartbeat_age() const;

  /// The actively serving tree (primary's before failover, the promoted
  /// replica's after).
  const art::Tree& tree() const;

  /// Sequences handed out: one per record shipped and one per snapshot
  /// image, which stands for every record before it.  They count on
  /// across Load()s.
  std::uint64_t records_shipped() const { return next_sequence_; }
  std::uint64_t acked_records() const { return acked_floor_; }
  std::uint64_t acked_ops() const { return acked_ops_; }

  ResilientEngine& primary() { return *primary_; }
  ReplicaEngine& replica() { return *replica_; }
  ReplicationLink& link() { return link_; }

 private:
  bool durable() const { return !options_.dir.empty(); }

  /// Encode `ops` as the next sealed record and deliver it; after a
  /// delivery gave up, resync with a snapshot that carries the batch.
  Status ShipRecord(std::span<const Operation> ops);
  /// Make `frame` the one pending frame, send it, and pump until `done()`,
  /// resending on a jittered exponential backoff while the link is up.
  /// Gives up on a wedged replica or after the drain tick budget.
  template <typename Predicate>
  Status Deliver(const Frame& frame, Predicate done);
  /// One pump: tick, reconnect backoff, replica turn, acks/catch-ups.
  void PumpOnce();
  /// One checksum probe exchange; on mismatch, snapshot resync + re-probe.
  Status VerifyChecksum();
  /// Deliver a full snapshot, at a floor of its own, until the replica
  /// acks it checksummed.
  Status SyncSnapshot();
  /// The primary tree's SN3 image (art/serialize.h) as a kSnapshot frame.
  Status BuildSnapshotFrame(Frame& frame) const;
  void HandleAck(const Frame& frame);
  void HandleCatchUp(const Frame& frame);
  /// Send with disconnect handling: a refused send schedules the reconnect
  /// backoff, and Deliver() resends once the link is back.
  void SendFrame(const Frame& frame);

  ReplicationOptions options_;
  std::unique_ptr<ResilientEngine> primary_;
  std::unique_ptr<ReplicaEngine> replica_;
  ReplicationLink link_;

  // The frame Deliver() is waiting on (null between deliveries) and the
  // tick its next resend is due.
  const Frame* pending_ = nullptr;
  std::uint64_t resend_at_ = 0;
  std::uint64_t next_sequence_ = 0;  // next record or image sequence
  std::uint64_t acked_floor_ = 0;    // records below this are replica-durable
  std::uint64_t acked_ops_ = 0;      // ops covered by acked records
  std::uint64_t unacked_ops_ = 0;    // ops this Run() shipped, not yet acked
  std::uint64_t next_reconnect_ = 0;  // earliest tick to try Reconnect()
  std::uint64_t reconnect_backoff_ = 0;
  // Latest comparable replica tree checksum (only stored when the replica's
  // ack floor equals next_sequence_, i.e. it has applied everything).
  std::optional<std::uint64_t> replica_checksum_;
  // Bootstrap-sync failure parked by Load() (void signature), surfaced by
  // the next Run().
  Status load_status_;
  // Link setup failure parked by the constructor (which cannot return
  // Status); surfaced by the next Run()/Drain() instead of burning the
  // whole drain tick budget against a link that never connected.
  Status link_error_;
  bool primary_alive_ = true;
};

}  // namespace dcart::resilience
