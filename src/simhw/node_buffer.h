// Node-granular on-chip buffer with LRU or value-aware replacement.
//
// Models DCART's four BRAM buffers (Table I).  The Tree_buffer uses the
// paper's value-aware strategy (Section III-E): a node's value is the number
// of operations in its bucket after coalescing; on a miss with a full
// buffer, the lowest-value resident is evicted only if the incoming node is
// worth more — otherwise the incoming node bypasses the buffer.  This
// protects high-value (hot) nodes from thrashing.  The other buffers use
// plain LRU.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string_view>
#include <unordered_map>

namespace dcart::simhw {

enum class EvictionPolicy { kLRU, kValueAware };

class NodeBuffer {
 public:
  NodeBuffer(std::size_t capacity_bytes, EvictionPolicy policy);

  /// Touch object `id` of `bytes`; `value` is the caller-supplied priority
  /// (bucket operation count) used by the value-aware policy.  Returns true
  /// on hit.  On miss the object is inserted if the policy admits it.
  bool Access(std::uintptr_t id, std::size_t bytes, std::uint64_t value = 0);

  /// Update the priority of a resident object (no-op if absent).
  void SetValue(std::uintptr_t id, std::uint64_t value);

  /// Drop an object (e.g. the node was replaced by a grow/split).
  void Invalidate(std::uintptr_t id);

  bool Contains(std::uintptr_t id) const { return entries_.contains(id); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t bypasses() const { return bypasses_; }
  std::size_t bytes_resident() const { return bytes_resident_; }
  std::size_t capacity_bytes() const { return capacity_bytes_; }
  double HitRate() const {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
  }

  void Reset();

  /// Accumulate this buffer's totals into the global metrics registry under
  /// `<prefix>.hits`, `.misses`, `.evictions`, `.bypasses` plus the
  /// `<prefix>.hit_rate` gauge.  Buffers are per-run objects, so
  /// one publish at end-of-run adds exactly this run's traffic.
  void PublishMetrics(std::string_view prefix) const;

 private:
  struct Entry {
    std::size_t bytes;
    std::uint64_t value;
    std::list<std::uintptr_t>::iterator lru_it;
    std::multimap<std::uint64_t, std::uintptr_t>::iterator value_it;
  };

  void Erase(std::uintptr_t id);
  /// Make room for `bytes`; returns false if the policy refuses (bypass).
  bool MakeRoom(std::size_t bytes, std::uint64_t incoming_value);

  std::size_t capacity_bytes_;
  EvictionPolicy policy_;
  std::unordered_map<std::uintptr_t, Entry> entries_;
  std::list<std::uintptr_t> lru_;  // front = MRU
  std::multimap<std::uint64_t, std::uintptr_t> by_value_;
  std::size_t bytes_resident_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t bypasses_ = 0;
};

}  // namespace dcart::simhw
