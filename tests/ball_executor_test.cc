#include "matching/ball_executor.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace gpm::internal {
namespace {

TEST(BallExecutorTest, VisitsAndDrainsEveryIndexExactlyOnce) {
  for (const size_t threads : {1, 2, 4, 8}) {
    for (const size_t n : {0, 1, 3, 1000}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " n=" + std::to_string(n));
      std::vector<std::atomic<int>> visits(n);
      std::vector<int> drained(n, 0);
      std::atomic<bool> worker_out_of_range{false};
      const size_t workers = BallLoopWorkers(n, threads);
      RunBallLoop<size_t>(
          n, threads,
          [&](size_t worker, size_t i, auto& emit) {
            if (worker >= workers) worker_out_of_range = true;
            visits[i].fetch_add(1);
            emit(size_t{i});
          },
          [&](size_t&& i) {
            ++drained[i];
            return true;
          });
      EXPECT_FALSE(worker_out_of_range.load());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
        EXPECT_EQ(drained[i], 1) << "index " << i;
      }
    }
  }
}

TEST(BallExecutorTest, SerialDrainsEachItemBeforeTheNextVisit) {
  std::vector<std::string> log;
  RunBallLoop<size_t>(
      5, 1,
      [&](size_t worker, size_t i, auto& emit) {
        EXPECT_EQ(worker, 0u);
        log.push_back("visit " + std::to_string(i));
        emit(size_t{i});
      },
      [&](size_t&& i) {
        log.push_back("drain " + std::to_string(i));
        return true;
      });
  std::vector<std::string> expected;
  for (size_t i = 0; i < 5; ++i) {
    expected.push_back("visit " + std::to_string(i));
    expected.push_back("drain " + std::to_string(i));
  }
  EXPECT_EQ(log, expected);
}

TEST(BallExecutorTest, SerialStopsAtTheFirstFalseDrain) {
  size_t visits = 0;
  size_t drained = 0;
  bool emit_after_stop = true;
  RunBallLoop<size_t>(
      100, 1,
      [&](size_t, size_t i, auto& emit) {
        ++visits;
        const bool more = emit(size_t{i});
        if (i == 5) {
          EXPECT_FALSE(more);
          // Items emitted after the stop are dropped, not drained.
          emit_after_stop = emit(size_t{i});
        }
      },
      [&](size_t&& i) {
        ++drained;
        return i < 5;
      });
  EXPECT_EQ(visits, 6u);
  EXPECT_EQ(drained, 6u);
  EXPECT_FALSE(emit_after_stop);
}

TEST(BallExecutorTest, ParallelStopsOnFalseDrainWithoutDeadlock) {
  for (const size_t threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    constexpr size_t kN = 100000;
    std::atomic<size_t> visits{0};
    size_t drained = 0;
    RunBallLoop<size_t>(
        kN, threads,
        [&](size_t, size_t i, auto& emit) {
          visits.fetch_add(1);
          emit(size_t{i});
        },
        [&](size_t&&) { return ++drained < 3; });
    EXPECT_EQ(drained, 3u);
    // Workers block on the bounded queue, so a stopped drain bounds the
    // visits far below n.
    EXPECT_LT(visits.load(), kN);
  }
}

TEST(BallExecutorTest, ReusesACallerOwnedPool) {
  std::unique_ptr<ThreadPool> pool;
  std::atomic<size_t> visits{0};
  auto run = [&](size_t n, size_t threads) {
    RunBallLoop<size_t>(
        n, threads,
        [&](size_t, size_t i, auto& emit) {
          visits.fetch_add(1);
          emit(size_t{i});
        },
        [](size_t&&) { return true; }, &pool);
  };
  run(100, 4);
  ASSERT_NE(pool, nullptr);
  ThreadPool* const first = pool.get();
  EXPECT_EQ(first->num_threads(), 4u);
  run(100, 4);
  run(3, 4);  // fewer workers fit the existing pool
  EXPECT_EQ(pool.get(), first);
  run(100, 1);  // serial never touches the pool
  EXPECT_EQ(pool.get(), first);
  run(100, 8);  // more workers than the pool has: grown once
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->num_threads(), 8u);
  ThreadPool* const grown = pool.get();
  run(100, 8);
  EXPECT_EQ(pool.get(), grown);
  EXPECT_EQ(visits.load(), 503u);
}

}  // namespace
}  // namespace gpm::internal
