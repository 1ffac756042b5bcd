#pragma once

/// \file thread_pool.h
/// \brief Fixed-size worker pool with a chunked ParallelFor, and the one
/// process-wide instance (GlobalThreadPool) every fan-out in the library
/// runs on: pipeline pairs, backtest origins, TS_FORECAST_BY groups and the
/// NN kernels.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace easytime {

/// \brief How ParallelFor carves the iteration space into grains.
enum class Schedule {
  /// Fixed grain size picked at dispatch (n / (4 * participants)). Lowest
  /// claiming overhead; best when per-index costs are uniform.
  kStatic,
  /// Decreasing grain sizes: each claim takes half of the remaining
  /// iterations divided by the participant count, down to a minimum of 1.
  /// Large chunks early amortize the atomic traffic, small chunks late keep
  /// the tail balanced — the right trade when per-index costs are skewed
  /// (e.g. the pipeline fan-out, where one (method, dataset) pair can cost
  /// 100x another).
  kGuided,
};

/// \brief A simple FIFO thread pool. Tasks are std::function<void()>; use
/// Submit() for futures or ParallelFor for data-parallel loops.
class ThreadPool {
 public:
  /// Creates \p num_threads workers (defaults to hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task and returns a future for its result.
  template <typename F>
  auto Submit(F&& f) -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// \brief Runs body(i) for i in [0, n), distributing across the pool and
  /// returning once every iteration has finished.
  ///
  /// Iterations are claimed in grains off a shared counter (see Schedule);
  /// the calling thread claims too, and at most one helper task per worker
  /// is queued. The caller never waits for a helper that has not started:
  /// once the range is exhausted it waits only for grains already claimed,
  /// and a helper that starts later finds nothing to claim and returns
  /// without touching \p body. Helpers are not queued at all while the
  /// queue already holds a task per worker, so a saturated pool runs the
  /// loop on its caller alone. When called from one of this pool's own
  /// workers the loop runs inline. An exception from \p body stops
  /// unclaimed iterations and is rethrown to the caller.
  ///
  /// \p max_participants caps the threads running \p body at once: 0 means
  /// the caller plus every worker, 1 runs the loop inline on the caller, k
  /// means the caller plus at most k-1 helpers.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   Schedule schedule = Schedule::kStatic,
                   size_t max_participants = 0);

  /// True when the calling thread is one of this pool's workers.
  bool InWorkerThread() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// \brief Process-wide shared pool (lazily created, hardware-concurrency
/// sized) and the only pool the library runs work on.
///
/// The size can be pinned with the EASYTIME_NUM_THREADS environment variable
/// (a positive integer; malformed or non-positive values are ignored, huge
/// ones clamp to max(256, 4 x cores)) — serving deployments use it to match
/// the pool to their CPU quota, and the 1-core CI box uses it to keep worker
/// counts deterministic. It is read once, at first use.
ThreadPool& GlobalThreadPool();

}  // namespace easytime
