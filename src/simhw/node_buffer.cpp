#include "simhw/node_buffer.h"

#include <string>

#include "obs/metrics.h"

namespace dcart::simhw {

NodeBuffer::NodeBuffer(std::size_t capacity_bytes, EvictionPolicy policy)
    : capacity_bytes_(capacity_bytes), policy_(policy) {}

void NodeBuffer::Erase(std::uintptr_t id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  bytes_resident_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  by_value_.erase(it->second.value_it);
  entries_.erase(it);
}

bool NodeBuffer::MakeRoom(std::size_t bytes, std::uint64_t incoming_value) {
  while (bytes_resident_ + bytes > capacity_bytes_) {
    if (entries_.empty()) return bytes <= capacity_bytes_;
    std::uintptr_t victim;
    if (policy_ == EvictionPolicy::kLRU) {
      victim = lru_.back();
    } else {
      // Value-aware: evict the lowest-value resident, but only if the
      // incoming node is strictly more valuable; otherwise bypass.
      const auto lowest = by_value_.begin();
      if (incoming_value <= lowest->first) {
        ++bypasses_;
        return false;
      }
      victim = lowest->second;
    }
    Erase(victim);
    ++evictions_;
  }
  return true;
}

bool NodeBuffer::Access(std::uintptr_t id, std::size_t bytes,
                        std::uint64_t value) {
  const auto it = entries_.find(id);
  if (it != entries_.end()) {
    ++hits_;
    lru_.erase(it->second.lru_it);
    lru_.push_front(id);
    it->second.lru_it = lru_.begin();
    if (value != it->second.value && policy_ == EvictionPolicy::kValueAware) {
      by_value_.erase(it->second.value_it);
      it->second.value_it = by_value_.emplace(value, id);
      it->second.value = value;
    }
    return true;
  }
  ++misses_;
  if (bytes > capacity_bytes_) return false;  // cannot ever fit
  if (!MakeRoom(bytes, value)) return false;
  lru_.push_front(id);
  auto value_it = by_value_.emplace(value, id);
  entries_[id] = Entry{bytes, value, lru_.begin(), value_it};
  bytes_resident_ += bytes;
  return false;
}

void NodeBuffer::SetValue(std::uintptr_t id, std::uint64_t value) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  by_value_.erase(it->second.value_it);
  it->second.value_it = by_value_.emplace(value, id);
  it->second.value = value;
}

void NodeBuffer::Invalidate(std::uintptr_t id) { Erase(id); }

void NodeBuffer::Reset() {
  entries_.clear();
  lru_.clear();
  by_value_.clear();
  bytes_resident_ = 0;
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  bypasses_ = 0;
}

void NodeBuffer::PublishMetrics(std::string_view prefix) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string base(prefix);
  registry.GetCounter(base + ".hits")->Add(hits_);
  registry.GetCounter(base + ".misses")->Add(misses_);
  registry.GetCounter(base + ".evictions")->Add(evictions_);
  registry.GetCounter(base + ".bypasses")->Add(bypasses_);
  registry.GetGauge(base + ".hit_rate")->Set(HitRate());
}

}  // namespace dcart::simhw
