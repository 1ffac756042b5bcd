#pragma once

/// \file bounded_queue.h
/// \brief A closable bounded MPMC queue — the evaluation job lane's queue
/// (serve/job_manager.h). Producers use non-blocking TryPush (a full queue
/// means the caller should reject the request, not wait), consumers block on
/// Pop.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace easytime {

/// \brief Fixed-capacity FIFO queue shared between producer and consumer
/// threads. Closing the queue rejects further pushes while letting consumers
/// drain what is already queued — the shape graceful shutdown needs.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Enqueues \p value unless the queue is full or closed.
  /// \returns false on rejection (the value is left untouched in that case
  /// only as far as the queue is concerned — it is not consumed).
  bool TryPush(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// \brief Blocks until an item is available or the queue is closed and
  /// drained; nullopt signals the consumer should exit.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this]() { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Rejects future pushes and wakes all blocked consumers. Items already
  /// queued remain poppable (drain semantics).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace easytime
