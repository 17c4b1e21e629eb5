// Structured span tracing for the Combine–Traverse–Trigger pipeline,
// exported as Chrome trace_event JSON (loadable in Perfetto / about:tracing).
//
// Two time bases share one file:
//   - Wall-clock spans (DCART-CP real threads): ScopedSpan / RecordSpan
//     timestamp with steady_clock microseconds since Enable(), on a track
//     derived from the recording thread.
//   - Simulated-cycle spans (the DCART accelerator model): the engine
//     converts modeled cycles to microseconds at the model frequency and
//     places spans on explicit virtual tracks ("pcu", "sou-0".."sou-N") via
//     RecordSpanOnTrack.
//
// Cost discipline: recording appends to a thread-local buffer (no lock after
// a thread's first span); when tracing is disabled the only cost is one
// relaxed atomic load.  Span names/categories must be string literals (the
// buffer stores the pointers).
//
// WriteJson/Clear/Collect must not race active recording: call them after
// the traced run has joined its workers (the bench main, not the runtime).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace dcart::obs {

struct TraceEvent {
  const char* name = "";      // static string
  const char* category = "";  // "combine" | "traverse" | "trigger" | ...
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t track = 0;          // Chrome "tid"
  const char* arg_name = nullptr;   // optional single numeric argument
  std::uint64_t arg_value = 0;
};

class Tracer {
 public:
  static Tracer& Global();

  /// Start a tracing session: clears prior events and re-bases NowUs() at 0.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Wall-clock microseconds since Enable() (0 when disabled).
  double NowUs() const;

  /// Append a complete span on the calling thread's track.  No-op when
  /// tracing is disabled.
  void RecordSpan(const char* name, const char* category, double ts_us,
                  double dur_us, const char* arg_name = nullptr,
                  std::uint64_t arg_value = 0);

  /// Same, on an explicit virtual track (simulated timelines).  Tracks
  /// 0..2^16-1 are reserved for real threads; virtual tracks start at
  /// kFirstVirtualTrack.
  void RecordSpanOnTrack(std::uint32_t track, const char* name,
                         const char* category, double ts_us, double dur_us,
                         const char* arg_name = nullptr,
                         std::uint64_t arg_value = 0);

  /// Label a track in the exported JSON (thread_name metadata event).
  void SetTrackName(std::uint32_t track, std::string name);

  /// Write all recorded spans as Chrome trace_event JSON.
  Status WriteJson(const std::string& path) const;
  std::string ToJson() const;

  /// Drop all recorded events (thread buffers stay registered).
  void Clear();

  /// Flattened copy of every recorded event, unordered across threads.
  std::vector<TraceEvent> Collect() const;

  static constexpr std::uint32_t kFirstVirtualTrack = 1u << 16;

 private:
  Tracer() = default;

  struct ThreadBuffer {
    std::uint32_t track = 0;
    std::vector<TraceEvent> events;
  };
  ThreadBuffer& LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point origin_{};
  mutable Mutex mu_;
  // Owned here so buffers outlive their threads; thread_local pointers into
  // this vector are handed out by LocalBuffer().
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mu_);
  std::map<std::uint32_t, std::string> track_names_ GUARDED_BY(mu_);
};

/// RAII wall-clock span: times its scope and records on destruction.  When
/// tracing is disabled construction is one relaxed load and destruction a
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category,
             const char* arg_name = nullptr, std::uint64_t arg_value = 0)
      : name_(name),
        category_(category),
        arg_name_(arg_name),
        arg_value_(arg_value),
        active_(Tracer::Global().enabled()) {
    if (active_) start_us_ = Tracer::Global().NowUs();
  }
  ~ScopedSpan() {
    if (active_) {
      Tracer& tracer = Tracer::Global();
      tracer.RecordSpan(name_, category_, start_us_,
                        tracer.NowUs() - start_us_, arg_name_, arg_value_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Replace the argument's value, for one known only as the scope ends.
  void set_arg_value(std::uint64_t value) { arg_value_ = value; }

 private:
  const char* name_;
  const char* category_;
  const char* arg_name_;
  std::uint64_t arg_value_;
  bool active_;
  double start_us_ = 0.0;
};

}  // namespace dcart::obs
