#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sama {
namespace {

TEST(ThreadPoolTest, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPoolTest, WorkerCountClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  // Declared after what its tasks use, so it joins them first: the wait
  // can return before the last task has notified.
  ThreadPool pool(4);
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return counter.load() == kTasks; }));
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasksAndJoins) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    // No wait: the destructor must run every queued task before the
    // workers exit, then join them.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SpinningPoolRunsBackToBackSections) {
  ThreadPool pool(3, std::chrono::microseconds(500));
  EXPECT_EQ(pool.spin(), std::chrono::microseconds(500));
  std::vector<std::atomic<int>> hits(64);
  for (int round = 0; round < 200; ++round) {
    Status s = ParallelFor(&pool, hits.size(), [&](size_t i) -> Status {
      hits[i].fetch_add(1);
      return Status::Ok();
    });
    ASSERT_TRUE(s.ok());
  }
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 200);
}

TEST(ThreadPoolTest, SpinningPoolDrainsAndJoins) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2, std::chrono::microseconds(500));
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  ThreadPool pool(2);
  bool ran = false;
  Status s = ParallelFor(&pool, 0, [&](size_t) -> Status {
    ran = true;
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(ran);
  // Null pool, empty range.
  EXPECT_TRUE(
      ParallelFor(nullptr, 0, [&](size_t) { return Status::Ok(); }).ok());
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(100, 0);
  Status s = ParallelFor(nullptr, hits.size(), [&](size_t i) -> Status {
    ++hits[i];
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  Status s = ParallelFor(&pool, kN, [&](size_t i) -> Status {
    hits[i].fetch_add(1);
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, ErrorOfLowestIndexWins) {
  ThreadPool pool(4);
  // Several indices fail; the reported error must deterministically be
  // index 3's, the lowest, regardless of which thread hit it first.
  Status s = ParallelFor(&pool, 100, [&](size_t i) -> Status {
    if (i == 3 || i == 50 || i == 99) {
      return Status::Internal("fail " + std::to_string(i));
    }
    return Status::Ok();
  });
  EXPECT_EQ(s.code(), Status::Code::kInternal);
  EXPECT_EQ(s.message(), "fail 3");
}

TEST(ParallelForTest, ExceptionsBecomeInternalStatus) {
  ThreadPool pool(2);
  Status s = ParallelFor(&pool, 10, [&](size_t i) -> Status {
    if (i == 0) throw std::runtime_error("boom");
    return Status::Ok();
  });
  EXPECT_EQ(s.code(), Status::Code::kInternal);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Inner ParallelFor calls run from worker threads while every worker
  // is already busy — the caller-participates design must make progress
  // anyway (the nested caller drains its own range).
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  Status s = ParallelFor(&pool, 8, [&](size_t) -> Status {
    return ParallelFor(&pool, 8, [&](size_t) -> Status {
      inner_total.fetch_add(1);
      return Status::Ok();
    });
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ParallelForTest, BusyNanosAccumulates) {
  ThreadPool pool(2);
  std::atomic<uint64_t> busy{0};
  Status s = ParallelFor(
      &pool, 16,
      [&](size_t) -> Status {
        // Spin briefly so the accumulated busy time is visibly nonzero.
        auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
        while (std::chrono::steady_clock::now() < until) {
        }
        return Status::Ok();
      },
      &busy);
  ASSERT_TRUE(s.ok());
  // 16 iterations of >= 1ms each.
  EXPECT_GE(busy.load(), 16ull * 1000 * 1000);
}

#if defined(__linux__)
// A helper that starts on its caller's CPU narrows its affinity mask for
// a moment to move elsewhere; every helper must run with its mask whole.
TEST(ParallelForTest, HelpersKeepTheirAffinityMask) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  ThreadPool pool(3);
  std::atomic<int> narrowed{0};
  for (int round = 0; round < 50; ++round) {
    Status s = ParallelFor(&pool, 16, [&](size_t) -> Status {
      cpu_set_t now;
      if (sched_getaffinity(0, sizeof(now), &now) != 0 ||
          !CPU_EQUAL(&now, &before)) {
        narrowed.fetch_add(1);
      }
      return Status::Ok();
    });
    ASSERT_TRUE(s.ok());
  }
  EXPECT_EQ(narrowed.load(), 0);
}

// With one CPU allowed there is nowhere to move a helper to; every index
// still runs exactly once.
TEST(ParallelForTest, RunsWhenConfinedToOneCpu) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  std::vector<std::atomic<int>> hits(200);
  Status s;
  {
    ThreadPool pool(3);  // Its workers inherit the one-CPU mask.
    s = ParallelFor(&pool, hits.size(), [&](size_t i) -> Status {
      hits[i].fetch_add(1);
      return Status::Ok();
    });
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(before), &before), 0);
  ASSERT_TRUE(s.ok());
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}
#endif

}  // namespace
}  // namespace sama
