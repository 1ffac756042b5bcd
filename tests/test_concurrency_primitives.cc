#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"

namespace easytime {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------- BoundedQueue

TEST(BoundedQueueTest, CloseWakesBlockedPop) {
  BoundedQueue<int> q(4);
  std::atomic<bool> got_nullopt{false};
  std::thread consumer([&]() {
    auto item = q.Pop();  // blocks: queue is empty
    got_nullopt.store(!item.has_value());
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(got_nullopt.load());
  q.Close();
  consumer.join();
  EXPECT_TRUE(got_nullopt.load());
}

TEST(BoundedQueueTest, FullQueueShutdownDrainsQueuedItemsThenSignalsExit) {
  BoundedQueue<int> q(3);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_FALSE(q.TryPush(4)) << "queue is full";

  q.Close();
  EXPECT_FALSE(q.TryPush(5)) << "closed queue rejects pushes";

  // Drain semantics: the three admitted items remain poppable in order.
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_EQ(q.Pop(), std::nullopt) << "drained + closed signals exit";
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueueTest, ConcurrentProducersAgainstClosingConsumer) {
  // Shutdown race: producers hammer TryPush while the consumer closes the
  // queue mid-stream. Every accepted item must be popped exactly once.
  BoundedQueue<int> q(8);
  std::atomic<int> accepted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&]() {
      while (!stop.load()) {
        if (q.TryPush(1)) accepted.fetch_add(1);
      }
    });
  }

  int popped = 0;
  for (int i = 0; i < 200; ++i) {
    if (q.Pop().has_value()) ++popped;
  }
  q.Close();
  stop.store(true);
  for (auto& t : producers) t.join();
  // Post-close drain picks up whatever was admitted before closure.
  while (q.Pop().has_value()) ++popped;
  EXPECT_EQ(popped, accepted.load());
}

}  // namespace
}  // namespace easytime
