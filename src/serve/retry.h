#pragma once

/// \file retry.h
/// \brief Retry with exponential backoff and jitter for transient serving
/// failures. Only Status::Unavailable is considered transient — it is the
/// code the serving layer uses for admission-control rejections (full fast
/// queue, full job queue, server draining), which a short backoff genuinely
/// helps with. Everything else (bad requests, internal errors, expired
/// deadlines) is permanent and surfaces immediately.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <random>
#include <thread>

#include "common/deadline.h"
#include "common/result.h"

namespace easytime::serve {

/// Backoff schedule: base * 2^attempt, capped, with uniform jitter in
/// [0.5, 1.0] of the computed delay so synchronized clients spread out.
struct RetryPolicy {
  int max_attempts = 3;        ///< total tries, including the first
  double base_delay_ms = 5.0;  ///< delay before the first retry
  double max_delay_ms = 200.0;
  uint64_t seed = 0;  ///< 0 = nondeterministic (random_device)

  /// Backoff before retry number \p retry (0-based), pre-jitter.
  double DelayMs(int retry) const {
    double d = base_delay_ms;
    for (int i = 0; i < retry; ++i) d *= 2.0;
    return std::min(d, max_delay_ms);
  }
};

/// True for statuses a retry can plausibly fix.
inline bool IsRetryableStatus(const Status& s) { return s.IsUnavailable(); }

/// Uniform status access for RetryCall over both Status and Result<T>.
inline const Status& GetStatus(const Status& s) { return s; }
template <typename T>
const Status& GetStatus(const easytime::Result<T>& r) {
  return r.status();
}

/// \brief Invokes \p call (returning Status or Result<T>) up to
/// policy.max_attempts times, sleeping the jittered backoff between
/// attempts. Stops early when the result is OK, the failure is permanent,
/// or the deadline would expire before the next attempt.
template <typename Fn>
auto RetryCall(const RetryPolicy& policy, Fn&& call,
               const easytime::Deadline& deadline = easytime::Deadline())
    -> decltype(call()) {
  auto result = call();
  // Seeded at the first backoff: a first-try success (the common case)
  // builds no random_device and no engine.
  std::optional<std::mt19937_64> rng;
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  for (int retry = 0; retry < policy.max_attempts - 1; ++retry) {
    if (result.ok() || !IsRetryableStatus(GetStatus(result))) return result;
    if (!rng) {
      rng.emplace(policy.seed != 0 ? policy.seed : std::random_device{}());
    }
    double delay_ms = policy.DelayMs(retry) * jitter(*rng);
    if (deadline.expired() || delay_ms >= deadline.remaining_ms()) {
      return result;  // the backoff would outlive the budget
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
    result = call();
  }
  return result;
}

}  // namespace easytime::serve
