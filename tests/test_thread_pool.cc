#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

namespace easytime {
namespace {

TEST(ThreadPool, SubmitReturnsFutureValues) {
  ThreadPool pool(4);
  auto f1 = pool.Submit([]() { return 21 * 2; });
  auto f2 = pool.Submit([]() { return std::string("hello"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "hello");
}

TEST(ThreadPool, ManyTasksAllExecute) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter]() { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.Submit([&counter]() { counter.fetch_add(1); });
    }
  }  // destructor drains queue before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForManyMoreIndicesThanWorkers) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForFewerIndicesThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Regression: the seed's one-future-per-index ParallelFor deadlocked when
// called from a task already running on a pool worker (the inner wait
// occupied the only thread that could run the inner tasks). The chunked
// version executes inline on workers of the same pool.
TEST(ThreadPool, NestedParallelForFromSubmitDoesNotDeadlock) {
  ThreadPool pool(1);  // single worker: any blocking wait would deadlock
  std::atomic<int> counter{0};
  auto f = pool.Submit([&]() {
    pool.ParallelFor(16, [&](size_t) { counter.fetch_add(1); });
  });
  f.get();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, NestedParallelForFromParallelForBody) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](size_t i) {
                                  if (i == 57) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, GlobalPoolIsSingletonAndUsable) {
  ThreadPool& a = GlobalThreadPool();
  ThreadPool& b = GlobalThreadPool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
  std::atomic<int> counter{0};
  a.ParallelFor(32, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 32);
}

// ------------------------------------------------------- Guided scheduling

TEST(ThreadPool, GuidedParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.ParallelFor(
      visits.size(), [&](size_t i) { visits[i].fetch_add(1); },
      Schedule::kGuided);
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, GuidedParallelForZeroAndSingleIndex) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](size_t) { count.fetch_add(1); }, Schedule::kGuided);
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](size_t) { count.fetch_add(1); }, Schedule::kGuided);
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, GuidedParallelForFewerIndicesThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  pool.ParallelFor(
      visits.size(), [&](size_t i) { visits[i].fetch_add(1); },
      Schedule::kGuided);
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, GuidedParallelForSkewedWorkFinishesCompletely) {
  // Heavily skewed per-index cost — the case guided scheduling exists for.
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  constexpr size_t kN = 256;
  pool.ParallelFor(
      kN,
      [&](size_t i) {
        int64_t acc = 0;  // index 0 does ~256x the work of index 255
        for (size_t j = 0; j < (kN - i) * 200; ++j) acc += static_cast<int64_t>(j % 7);
        sum.fetch_add(acc % 1000 + 1);
      },
      Schedule::kGuided);
  EXPECT_GE(sum.load(), static_cast<int64_t>(kN));
}

TEST(ThreadPool, GuidedParallelForFromWorkerThreadRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  auto f = pool.Submit([&]() {
    // Nested call from a pool worker: must not deadlock, still covers all.
    pool.ParallelFor(50, [&](size_t) { count.fetch_add(1); },
                     Schedule::kGuided);
  });
  f.get();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, GuidedParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(
          100,
          [](size_t i) {
            if (i == 57) throw std::runtime_error("boom");
          },
          Schedule::kGuided),
      std::runtime_error);
}

// ------------------------------------------- Busy pools and participant caps

/// Holds a pool's workers until Release(): each Block() task waits on it.
class Latch {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    ++blocked_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void AwaitBlocked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;
  bool open_ = false;
};

// A ParallelFor issued while every worker is busy elsewhere runs its
// iterations on the caller and returns without waiting for the helper tasks
// it queued: they start only once the workers are free again, and find
// nothing left to do.
TEST(ThreadPool, ParallelForReturnsWhileEveryWorkerIsBlocked) {
  ThreadPool pool(2);
  Latch latch;
  auto w1 = pool.Submit([&] { latch.Block(); });
  auto w2 = pool.Submit([&] { latch.Block(); });
  latch.AwaitBlocked(2);

  std::atomic<int> count{0};
  auto loop = std::async(std::launch::async, [&] {
    pool.ParallelFor(64, [&](size_t) { count.fetch_add(1); });
  });
  const bool returned =
      loop.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  latch.Release();  // lets a hung ParallelFor finish, so the test fails
  loop.get();       // instead of hanging
  w1.get();
  w2.get();
  EXPECT_TRUE(returned) << "ParallelFor waited on helpers that never started";
  EXPECT_EQ(count.load(), 64);

  // The stale helpers ran as no-ops; the pool still fans out afterwards.
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// With a participant cap of k, at most k bodies ever run at once (the caller
// counts), a cap of 1 keeps the whole loop on the caller, and every index
// still runs exactly once.
TEST(ThreadPool, ParticipantCapBoundsBodiesInFlight) {
  ThreadPool pool(4);
  for (size_t cap : {1u, 2u, 3u}) {
    for (Schedule schedule : {Schedule::kStatic, Schedule::kGuided}) {
      std::atomic<int> inflight{0}, peak{0};
      std::vector<std::atomic<int>> hits(40);
      std::mutex ids_mu;
      std::set<std::thread::id> ids;
      pool.ParallelFor(
          hits.size(),
          [&](size_t i) {
            const int now = inflight.fetch_add(1) + 1;
            int prev = peak.load();
            while (now > prev && !peak.compare_exchange_weak(prev, now)) {
            }
            {
              std::lock_guard<std::mutex> lock(ids_mu);
              ids.insert(std::this_thread::get_id());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            hits[i].fetch_add(1);
            inflight.fetch_sub(1);
          },
          schedule, cap);
      EXPECT_LE(peak.load(), static_cast<int>(cap)) << "cap " << cap;
      if (cap == 1) {
        EXPECT_EQ(ids.size(), 1u);
        EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
      }
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

// A body that throws on the caller still waits for grains helpers already
// claimed before the exception leaves ParallelFor (they reference the
// caller's frame).
TEST(ThreadPool, ParallelForExceptionWaitsForClaimedGrains) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> slots(64, 0);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.ParallelFor(
                     slots.size(),
                     [&](size_t i) {
                       if (i == 0) throw std::runtime_error("first");
                       std::this_thread::sleep_for(
                           std::chrono::microseconds(200));
                       slots[i] = 1;
                       ran.fetch_add(1);
                     },
                     Schedule::kGuided),
                 std::runtime_error);
    const int ran_at_return = ran.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(ran.load(), ran_at_return)
        << "a body was still running after ParallelFor returned";
  }
}

}  // namespace
}  // namespace easytime
