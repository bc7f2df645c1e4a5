// Tests for the fixed-size thread pool behind the parallel miniature
// simulation and the sharded engines: inline degeneration, full index
// coverage, exception propagation, concurrent counting, and the fork-join
// contract (outstanding forks, callers that only run their own fork).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"

namespace macaron {
namespace {

TEST(ThreadPoolTest, WorkerlessPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 0);
  int calls = 0;
  pool.Submit([&calls] { ++calls; }).get();
  pool.ParallelFor(5, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 6);  // no workers: everything ran on this thread
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::vector<std::atomic<int>> hits(103);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);  // single index runs inline
}

TEST(ThreadPoolTest, ParallelForMoreIndicesThanWorkers) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(1000, [&sum](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 1000ull * 999 / 2);
}

TEST(ThreadPoolTest, SubmitFutureCarriesException) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(16,
                       [](size_t i) {
                         if (i == 7) {
                           throw std::runtime_error("grid point failed");
                         }
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(8, [&total](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 1600);
}

TEST(ThreadPoolTest, ParallelForJoinsEveryClaimedIndexBeforeRethrowing) {
  // Index 0 throws at once; index 1 sleeps, then reads the callable's
  // captures. ParallelFor must not return (and destroy the callable) while
  // index 1 still runs: the exception surfaces only after it finished.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  const int marker = 7;
  EXPECT_THROW(pool.ParallelFor(2,
                                [&finished, marker](size_t i) {
                                  if (i == 0) {
                                    throw std::runtime_error("index 0 failed");
                                  }
                                  std::this_thread::sleep_for(std::chrono::milliseconds(50));
                                  finished += marker;
                                }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), marker);
}

TEST(ThreadPoolTest, ForkRunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    for (size_t n : {0, 1, 2, 5, 64}) {
      std::vector<std::atomic<int>> hits(n);
      ForkJoin fork = pool.Fork(n, [&hits](size_t i) { ++hits[i]; });
      fork.Join();
      pool.ParallelFor(n, [&hits](size_t i) { ++hits[i]; });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 2) << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, AsyncForkStaysOutstandingAcrossParallelFor) {
  // The mini-sim bank pattern: a bank's batch fork stays in flight while the
  // engine runs a segment fan-out on the same pool, and joins afterwards.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> bank(64);
  std::vector<std::atomic<int>> shards(4);
  ForkJoin replay = pool.Fork(bank.size(), [&bank](size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++bank[i];
  });
  pool.ParallelFor(shards.size(), [&shards](size_t s) { ++shards[s]; });
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].load(), 1) << s;
  }
  replay.Join();
  for (size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(bank[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, JoinNeverRunsAnotherForksIndices) {
  // While the caller joins fork B, fork A (forked earlier, still holding
  // unclaimed indices) must run only on workers; A's leftovers reach the
  // caller only when it joins A itself.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> joining_b{false};
  std::atomic<int> stolen{0};
  std::vector<std::atomic<int>> a_hits(64);
  ForkJoin a = pool.Fork(a_hits.size(), [&](size_t i) {
    if (joining_b.load() && std::this_thread::get_id() == caller) {
      ++stolen;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++a_hits[i];
  });
  std::atomic<int> b_runs{0};
  joining_b = true;
  pool.ParallelFor(8, [&b_runs](size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    ++b_runs;
  });
  joining_b = false;
  a.Join();
  EXPECT_EQ(stolen.load(), 0);
  EXPECT_EQ(b_runs.load(), 8);
  for (size_t i = 0; i < a_hits.size(); ++i) {
    EXPECT_EQ(a_hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, DestroyedForkHandleJoins) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  {
    ForkJoin fork = pool.Fork(16, [&done](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++done;
    });
  }
  EXPECT_EQ(done.load(), 16);
}

}  // namespace
}  // namespace macaron
