#pragma once

/// \file deadline.h
/// \brief A wall-clock deadline carried with a request. Serve requests set
/// one from their "deadline_ms" parameter; it propagates through the facade
/// into pipeline::RunHooks and the evaluator's cooperative checks, so a slow
/// request times out with Status::DeadlineExceeded instead of occupying a
/// worker forever. A default-constructed Deadline is infinite (never
/// expires), which keeps it zero-config for callers that don't care.

#include <chrono>
#include <cstdint>
#include <limits>

namespace easytime {

/// \brief Point in time after which work on a request should stop. Cheap to
/// copy; checks are a single steady_clock read.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite: never expires.
  Deadline() : tp_(Clock::time_point::max()) {}

  /// The infinite deadline, spelled explicitly.
  static Deadline Infinite() { return Deadline(); }

  /// Expires \p ms milliseconds from now (non-positive or NaN = already
  /// expired). A budget past half the clock's remaining range (~146 years)
  /// saturates to Infinite() instead of overflowing the time point.
  static Deadline AfterMillis(double ms) {
    const Clock::time_point now = Clock::now();
    if (!(ms > 0.0)) return At(now);
    const std::chrono::duration<double, std::milli> budget(ms);
    if (budget >= (Clock::time_point::max() - now) / 2) return Infinite();
    return At(now + std::chrono::duration_cast<Clock::duration>(budget));
  }

  /// Expires at \p tp.
  static Deadline At(Clock::time_point tp) {
    Deadline d;
    d.tp_ = tp;
    return d;
  }

  bool infinite() const { return tp_ == Clock::time_point::max(); }

  /// True once the deadline has passed (never for an infinite deadline).
  bool expired() const { return !infinite() && Clock::now() >= tp_; }

  /// Milliseconds until expiry: +inf when infinite, <= 0 when expired.
  double remaining_ms() const {
    if (infinite()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(tp_ - Clock::now())
        .count();
  }

  Clock::time_point time_point() const { return tp_; }

 private:
  Clock::time_point tp_;
};

/// \brief Amortized deadline polling for tight fit loops. Reading the clock
/// on every inner iteration would dominate cheap loop bodies, so the checker
/// only touches the clock every \p stride calls (default 64 — with iteration
/// bodies in the microsecond range this lands well under one clock read per
/// millisecond of work). An infinite deadline short-circuits to a single
/// branch per call, and once expired the checker stays expired, so callers
/// can keep testing it on their unwind path for free.
class DeadlineChecker {
 public:
  explicit DeadlineChecker(const Deadline& deadline, uint32_t stride = 64)
      : deadline_(deadline), stride_(deadline.infinite() ? 0 : stride) {}

  /// True once the deadline has passed; sticky. At most one clock read per
  /// \p stride calls (none at all for an infinite deadline).
  bool Expired() {
    if (stride_ == 0) return false;
    if (expired_) return true;
    if (++count_ < stride_) return false;
    count_ = 0;
    expired_ = deadline_.expired();
    return expired_;
  }

  /// Forces a clock read on the next Expired() call (for loop boundaries
  /// where a fresh answer matters more than amortization).
  void ForceCheck() { count_ = stride_ == 0 ? 0 : stride_ - 1; }

  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_;
  uint32_t stride_;
  uint32_t count_ = 0;
  bool expired_ = false;
};

}  // namespace easytime
