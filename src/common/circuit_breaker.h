#pragma once

/// \file circuit_breaker.h
/// \brief Circuit breaker shared by the pipeline runner (one per method)
/// and the cluster router (one per shard). After `threshold` consecutive
/// failures the breaker opens and calls are skipped. With a cooldown
/// configured, the first call after the cooldown elapses transitions the
/// breaker to half-open and runs as a probe: success closes the breaker,
/// failure re-trips it for another cooldown. With cooldown 0 an open breaker
/// stays open for the rest of the run (the pre-half-open behavior).
///
/// Thread safety: all methods take an internal mutex; "consecutive" counts
/// completion order, which is approximate under a parallel fan-out (see the
/// runner's note). Time is passed in by the caller so tests can drive the
/// state machine with synthetic clocks.

#include <chrono>
#include <mutex>

namespace easytime {

class CircuitBreaker {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    /// Consecutive failures before the breaker opens; 0 disables it
    /// (Allow always returns true and nothing is counted).
    int threshold = 0;
    /// How long an open breaker waits before letting one probe through;
    /// 0 = stay open forever.
    double cooldown_ms = 0.0;
  };

  explicit CircuitBreaker(Options options) : options_(options) {}

  /// \brief Whether a call may proceed at \p now. The caller that flips an
  /// expired open breaker to half-open is the probe: its RecordSuccess /
  /// RecordFailure decides between closing and re-tripping. While the probe
  /// is in flight other calls keep being rejected.
  bool Allow(TimePoint now) {
    if (options_.threshold <= 0) return true;
    std::lock_guard<std::mutex> lock(mu_);
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        if (options_.cooldown_ms > 0.0 &&
            std::chrono::duration<double, std::milli>(now - opened_at_)
                    .count() >= options_.cooldown_ms) {
          state_ = State::kHalfOpen;
          return true;  // this call is the probe
        }
        return false;
      case State::kHalfOpen:
        return false;  // one probe at a time
    }
    return false;
  }

  void RecordSuccess() {
    if (options_.threshold <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    consecutive_ = 0;
    state_ = State::kClosed;
  }

  void RecordFailure(TimePoint now) {
    if (options_.threshold <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kHalfOpen) {  // the probe failed: re-trip
      state_ = State::kOpen;
      opened_at_ = now;
      return;
    }
    if (state_ == State::kOpen) return;  // late completion after the trip
    if (++consecutive_ >= options_.threshold) {
      state_ = State::kOpen;
      opened_at_ = now;
    }
  }

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  /// \brief Returns the breaker to its initial closed state, e.g. after the
  /// guarded endpoint was replaced by a fresh process. Lets long-lived
  /// holders of the breaker pointer keep using it across such swaps instead
  /// of the owner reassigning the object under them.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = State::kClosed;
    consecutive_ = 0;
    trip_logged_ = false;
  }

  /// True exactly once per trip: the transition into kOpen from kClosed
  /// (used by the runner to log the trip once).
  bool ConsumeTripEvent() {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kOpen && !trip_logged_) {
      trip_logged_ = true;
      return true;
    }
    return false;
  }

 private:
  Options options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_ = 0;
  TimePoint opened_at_{};
  bool trip_logged_ = false;
};

}  // namespace easytime
