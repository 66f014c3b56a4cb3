#include "core/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ddpm::core {
namespace {

TEST(ParallelRunner, ZeroJobsMeansOne) {
  ParallelRunner pool(0);
  EXPECT_EQ(pool.jobs(), 1u);
}

TEST(ParallelRunner, VisitsEveryIndexExactlyOnce) {
  for (std::size_t jobs : {1u, 2u, 4u, 7u}) {
    ParallelRunner pool(jobs);
    constexpr std::size_t kN = 500;
    std::vector<std::atomic<int>> hits(kN);
    pool.for_each_index(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelRunner, MapReturnsResultsInIndexOrder) {
  ParallelRunner pool(4);
  const auto out =
      pool.map<std::size_t>(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, FewerItemsThanJobs) {
  ParallelRunner pool(8);
  const auto out = pool.map<int>(3, [](std::size_t i) { return int(i) + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelRunner, ZeroItemsIsANoop) {
  ParallelRunner pool(4);
  int calls = 0;
  pool.for_each_index(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(pool.map<int>(0, [](std::size_t) { return 0; }).empty());
}

TEST(ParallelRunner, ParallelMatchesSerial) {
  // The whole point of the runner: identical results regardless of jobs.
  auto work = [](std::size_t i) {
    // A little arithmetic so the units take unequal time.
    std::uint64_t x = i + 1;
    for (std::size_t k = 0; k < (i % 97) * 50; ++k) x = x * 6364136223846793005ull + 1;
    return x;
  };
  ParallelRunner serial(1);
  ParallelRunner parallel(4);
  const auto a = serial.map<std::uint64_t>(300, work);
  const auto b = parallel.map<std::uint64_t>(300, work);
  EXPECT_EQ(a, b);
}

TEST(ParallelRunner, RunsItemsConcurrentlyUpToTheWorkerCount) {
  // Each item waits until as many items are inside at once as the runner
  // may have workers (jobs, capped by the hardware thread count). A runner
  // that serializes its items never gets there: the wait is a spin with one
  // shared deadline, so it fails the test instead of hanging it.
  constexpr std::size_t kJobs = 4;
  const std::size_t hw = std::thread::hardware_concurrency();
  const int target = int(hw == 0 ? kJobs : std::min(kJobs, hw));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  ParallelRunner pool(kJobs);
  pool.for_each_index(kJobs, [&](std::size_t) {
    const int now = inside.fetch_add(1) + 1;
    int seen = peak.load();
    while (seen < now && !peak.compare_exchange_weak(seen, now)) {
    }
    while (peak.load() < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    inside.fetch_sub(1);
  });
  EXPECT_EQ(peak.load(), target) << "items inside at once, jobs " << kJobs
                                 << ", hardware threads " << hw;
}

TEST(ParallelRunner, ExceptionPropagatesToCaller) {
  ParallelRunner pool(4);
  try {
    pool.for_each_index(64, [](std::size_t i) {
      if (i == 17) throw std::runtime_error("unit 17 failed");
    });
    FAIL() << "expected the worker exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "unit 17 failed");
  }
}

TEST(ParallelRunner, UsableAfterException) {
  ParallelRunner pool(2);
  EXPECT_THROW(pool.for_each_index(8,
                                   [](std::size_t) {
                                     throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.for_each_index(10, [&](std::size_t i) {
    sum.fetch_add(int(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45);
}

}  // namespace
}  // namespace ddpm::core
