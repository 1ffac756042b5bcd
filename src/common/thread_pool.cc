#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>

#include "common/logging.h"

namespace easytime {

namespace {
/// Set for the lifetime of each worker thread; lets ParallelFor detect
/// re-entry from one of its own workers and fall back to inline execution.
thread_local const ThreadPool* tls_worker_pool = nullptr;

/// One ParallelFor call's claim counter and completion count. Helper tasks
/// share ownership, so a helper that starts after the call returned finds
/// the range exhausted here instead of in the caller's dead frame.
struct ParallelForState {
  ParallelForState(size_t n, const std::function<void(size_t)>* body,
                   Schedule schedule, size_t participants)
      : n(n),
        body(body),
        schedule(schedule),
        participants(participants),
        grain(std::max<size_t>(1, n / (4 * participants))) {}

  /// Claims the next grain into [*begin, *end); false once the range is
  /// exhausted.
  bool Claim(size_t* begin, size_t* end) {
    if (schedule == Schedule::kStatic) {
      *begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (*begin >= n) return false;
      *end = std::min(n, *begin + grain);
      return true;
    }
    // Guided: half the remaining range per participant, shrinking toward
    // single iterations as the loop drains.
    size_t cur = next.load(std::memory_order_relaxed);
    for (;;) {
      if (cur >= n) return false;
      const size_t chunk = std::max<size_t>(1, (n - cur) / (2 * participants));
      if (next.compare_exchange_weak(cur, cur + chunk,
                                     std::memory_order_relaxed)) {
        *begin = cur;
        *end = cur + chunk;
        return true;
      }
    }
  }

  /// Claims and runs grains until the range is exhausted. \p body is only
  /// dereferenced inside a claimed grain, which the caller is still waiting
  /// on.
  void RunChunks() {
    size_t begin = 0, end = 0;
    while (Claim(&begin, &end)) {
      size_t finished = end - begin;
      try {
        for (size_t i = begin; i < end; ++i) (*body)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
        // Stop the loop: iterations nobody claimed yet count as finished.
        const size_t unclaimed = next.exchange(n, std::memory_order_relaxed);
        if (unclaimed < n) finished += n - unclaimed;
      }
      if (done.fetch_add(finished, std::memory_order_acq_rel) + finished ==
          n) {
        std::lock_guard<std::mutex> lock(mu);
        all_done.notify_all();
      }
    }
  }

  const size_t n;
  const std::function<void(size_t)>* const body;
  const Schedule schedule;
  const size_t participants;
  const size_t grain;  ///< kStatic grain size
  std::atomic<size_t> next{0};  ///< first unclaimed iteration
  std::atomic<size_t> done{0};  ///< iterations finished (or skipped)
  std::mutex mu;
  std::condition_variable all_done;
  std::exception_ptr error;  ///< first exception from body (guarded by mu)
};

/// The EASYTIME_NUM_THREADS override, or 0 when unset/invalid (0 lets
/// ThreadPool fall back to hardware concurrency).
size_t GlobalThreadPoolSizeOverride() {
  const char* env = std::getenv("EASYTIME_NUM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) {
    EASYTIME_LOG(Warning)
        << "EASYTIME_NUM_THREADS=\"" << env
        << "\" is not a positive integer; using hardware concurrency";
    return 0;
  }
  // A huge value (typo, wrong unit) would spawn thousands of threads and
  // thrash or exhaust the process; clamp to a generous multiple of the
  // machine instead.
  const size_t hw = std::thread::hardware_concurrency();
  const size_t cap = std::max<size_t>(256, 4 * std::max<size_t>(1, hw));
  if (static_cast<size_t>(v) > cap) {
    EASYTIME_LOG(Warning) << "EASYTIME_NUM_THREADS=\"" << env
                          << "\" exceeds the sanity cap; clamping to " << cap;
    return cap;
  }
  return static_cast<size_t>(v);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::InWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body,
                             Schedule schedule, size_t max_participants) {
  if (n == 0) return;
  // No more helpers than there are iterations left after the caller's.
  size_t helpers = std::min(workers_.size(), n - 1);
  if (max_participants > 0) helpers = std::min(helpers, max_participants - 1);
  // Inline when there is no parallelism to gain or when called from one of
  // this pool's own workers (blocking a worker on work only other workers
  // can run deadlocks once every worker is inside such a call).
  if (helpers == 0 || InWorkerThread()) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto state =
      std::make_shared<ParallelForState>(n, &body, schedule, helpers + 1);
  {
    // Keep the queue at one task per worker: a helper queued behind a deeper
    // backlog starts only after the caller has run the loop alone, and such
    // helpers would pile up while a long job holds every worker.
    std::lock_guard<std::mutex> lock(mu_);
    const size_t room =
        tasks_.size() < workers_.size() ? workers_.size() - tasks_.size() : 0;
    helpers = std::min(helpers, room);
    for (size_t t = 0; t < helpers; ++t) {
      tasks_.push([state]() { state->RunChunks(); });
    }
  }
  for (size_t t = 0; t < helpers; ++t) cv_.notify_one();

  state->RunChunks();
  {
    // Wait only for grains helpers have claimed and are still running.
    std::unique_lock<std::mutex> lock(state->mu);
    state->all_done.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == n;
    });
    if (state->error) std::rethrow_exception(state->error);
  }
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool global(GlobalThreadPoolSizeOverride());
  return global;
}

}  // namespace easytime
