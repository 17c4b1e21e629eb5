// Minimal status type for operations that can fail without a value to
// return.  Used as the error channel of the fault-tolerant execution layer:
// instead of asserting (a no-op in release builds) or aborting, runtimes
// record what went wrong here and surface it through ExecutionResult.
//
// The class is [[nodiscard]]: a dropped Status is a swallowed failure (a
// recovery that silently didn't happen), so every Status-returning call must
// either propagate it (usually via Update), branch on ok(), or explicitly
// document why the error is unrecoverable-and-ignorable.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace dcart {

/// Machine-checkable failure class.  Most errors are kUnknown (the message
/// carries the diagnosis); the cluster/failover paths use the typed codes so
/// callers can branch on *why* — retry after failover (kUnavailable), refuse
/// a stale owner (kFenced), ignore a duplicate failover (kAlreadyPromoted),
/// fix the request (kInvalidArgument) — instead of string-matching messages.
enum class StatusCode : std::uint8_t {
  kUnknown = 0,      // generic failure; see message()
  kUnavailable,      // the serving member(s) for the target are down
  kFenced,           // rejected by epoch/term fencing (stale owner)
  kAlreadyPromoted,  // duplicate failover: this member already serves
  kInvalidArgument,  // the request itself is bad; nothing failed, no retry
};

class [[nodiscard]] Status {
 public:
  Status() = default;  // ok

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    Status s;
    s.ok_ = false;
    s.message_ = std::move(message);
    return s;
  }
  static Status TypedError(StatusCode code, std::string message) {
    Status s = Error(std::move(message));
    s.code_ = code;
    return s;
  }

  bool ok() const { return ok_; }
  /// kUnknown for ok statuses and untyped errors.
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Merge another status in, keeping the *first* error as the primary one
  /// (the earliest failure is the one that explains the rest — its code is
  /// kept too) but appending every subsequent error's message ("; then: ...")
  /// so a failure chain — crash, then failed checkpoint, then failed
  /// rollover — survives into the recovery logs instead of being silently
  /// discarded.
  void Update(const Status& other) {
    if (other.ok_) return;
    if (ok_) {
      *this = other;
    } else {
      message_ += "; then: " + other.message_;
    }
  }

 private:
  bool ok_ = true;
  StatusCode code_ = StatusCode::kUnknown;
  std::string message_;
};

}  // namespace dcart
