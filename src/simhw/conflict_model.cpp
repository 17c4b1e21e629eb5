#include "simhw/conflict_model.h"

#include "common/check.h"

namespace dcart::simhw {

ConflictModel::ConflictModel(std::size_t window_size, SyncProtocol protocol)
    : window_size_(window_size ? window_size : 1), protocol_(protocol) {}

void ConflictModel::Evict() {
  const WindowEntry& old = window_.front();
  if (old.forgotten) {
    window_.pop_front();
    return;
  }
  auto it = counts_.find(old.node);
  DCART_CHECK(it != counts_.end(),
              "window entry evicted for a node with no live count");
  if (old.is_write) {
    --it->second.writes;
  } else {
    --it->second.reads;
  }
  if (it->second.reads == 0 && it->second.writes == 0) counts_.erase(it);
  window_.pop_front();
}

ConflictModel::Outcome ConflictModel::Record(std::uintptr_t node,
                                             bool is_write) {
  while (window_.size() >= window_size_) Evict();

  Outcome outcome;
  const auto it = counts_.find(node);
  const NodeCounts in_window = it == counts_.end() ? NodeCounts{} : it->second;

  switch (protocol_) {
    case SyncProtocol::kLockBased:
      if (is_write) {
        outcome.contended = in_window.reads + in_window.writes > 0;
        outcome.queue_depth = in_window.reads + in_window.writes;
      } else {
        outcome.contended = in_window.writes > 0;
        outcome.queue_depth = in_window.writes;
      }
      break;
    case SyncProtocol::kCasBased:
    case SyncProtocol::kCoalesced:
      if (is_write) {
        outcome.contended = in_window.writes > 0;
        outcome.queue_depth = in_window.writes;
      } else {
        outcome.restart = in_window.writes > 0;
        outcome.queue_depth = in_window.writes;
      }
      break;
  }

  if (is_write) ++acquisitions_;
  if (outcome.contended) ++contentions_;
  if (outcome.restart) ++restarts_;

  window_.push_back({node, is_write});
  auto& counts = counts_[node];
  if (is_write) {
    ++counts.writes;
  } else {
    ++counts.reads;
  }
  return outcome;
}

void ConflictModel::Forget(std::uintptr_t node) {
  if (counts_.erase(node) == 0) return;
  for (WindowEntry& entry : window_) {
    if (entry.node == node) entry.forgotten = true;
  }
}

void ConflictModel::Reset() {
  window_.clear();
  counts_.clear();
  contentions_ = 0;
  restarts_ = 0;
  acquisitions_ = 0;
}

}  // namespace dcart::simhw
