// Deterministic synchronization-conflict model.
//
// Reproducing lock contention (paper Fig. 7) must not depend on the host's
// core count, so concurrency is modeled: the tracker keeps a sliding window
// of the last W synchronization points — W is the number of operations in
// flight — and an operation conflicts when the window already contains an
// incompatible access to the same node under the engine's protocol:
//
//   kLockBased  (ART/ROWEX-style node write locks): a write conflicts with
//               any in-window access to the node; a read conflicts with an
//               in-window write (reader blocked or forced to restart).
//   kCasBased   (Heart/SMART-style): writes conflict with writes (CAS
//               failure); reads never block but a read overlapping a write
//               costs an optimistic-validation restart.
//   kCoalesced  (DCART's CTT): callers record one synchronization point per
//               coalesced node-group, so the conflict stream shrinks by the
//               combining factor — exactly the paper's mechanism.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

namespace dcart::simhw {

enum class SyncProtocol { kLockBased, kCasBased, kCoalesced };

class ConflictModel {
 public:
  explicit ConflictModel(std::size_t window_size, SyncProtocol protocol);

  struct Outcome {
    bool contended = false;  // blocked on a lock / failed a CAS
    bool restart = false;    // optimistic read invalidated
    // In-window accesses this one conflicts with: the queue it waits
    // behind.  Contended-access latency grows with the number of waiters
    // (cacheline ping-pong; Schweizer et al., PACT'15), so cost models
    // scale the penalty by this depth.
    std::uint32_t queue_depth = 0;
  };

  /// Record one synchronization point (a node id) and classify it.
  Outcome Record(std::uintptr_t node, bool is_write);

  /// The node was freed: an object later allocated at its address is a new
  /// node, so its in-window accesses stop counting against that address.
  void Forget(std::uintptr_t node);

  std::uint64_t contentions() const { return contentions_; }
  std::uint64_t restarts() const { return restarts_; }
  std::uint64_t lock_acquisitions() const { return acquisitions_; }

  void Reset();

 private:
  struct WindowEntry {
    std::uintptr_t node;
    bool is_write;
    bool forgotten = false;  // its node was freed; holds no count
  };
  struct NodeCounts {
    std::uint32_t reads = 0;
    std::uint32_t writes = 0;
  };

  void Evict();

  std::size_t window_size_;
  SyncProtocol protocol_;
  std::deque<WindowEntry> window_;
  std::unordered_map<std::uintptr_t, NodeCounts> counts_;
  std::uint64_t contentions_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t acquisitions_ = 0;
};

}  // namespace dcart::simhw
