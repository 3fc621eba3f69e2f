//===- tests/support_threadpool_test.cpp ----------------------------------==//
//
// Tests for the worker pool behind the parallel experiment engine: task
// completion, exception propagation into futures and through parallelFor,
// nested submission, and the --threads/-j plumbing.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/CommandLine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

using namespace dtb;

TEST(ThreadPoolTest, TasksCompleteAndReturnValues) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I != 64; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(Futures[static_cast<size_t>(I)].get(), I * I);
}

TEST(ThreadPoolTest, ZeroMeansHardwareThreads) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), ThreadPool::hardwareThreads());
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool Pool(2);
  std::future<int> Bad =
      Pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The worker that ran the throwing task is still usable.
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, NestedSubmit) {
  ThreadPool Pool(2);
  // A task submits a follow-up task to the same pool and hands back its
  // future; both complete.
  std::future<std::future<int>> Outer = Pool.submit(
      [&Pool] { return Pool.submit([] { return 42; }); });
  EXPECT_EQ(Outer.get().get(), 42);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 100; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
  } // Destructor joins after the queue drains.
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(1000);
  parallelFor(
      Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); }, &Pool);
  for (const std::atomic<int> &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> Order;
  parallelFor(
      5, [&](size_t I) { Order.push_back(static_cast<int>(I)); }, nullptr);
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ExceptionRethrownAfterAllIterationsFinish) {
  ThreadPool Pool(2);
  std::vector<std::atomic<int>> Hits(64);
  EXPECT_THROW(parallelFor(
                   Hits.size(),
                   [&](size_t I) {
                     Hits[I].fetch_add(1);
                     if (I == 10)
                       throw std::runtime_error("iteration failed");
                   },
                   &Pool),
               std::runtime_error);
  // One failing iteration does not cancel the others (slots independent).
  int Total = 0;
  for (const std::atomic<int> &H : Hits)
    Total += H.load();
  EXPECT_EQ(Total, 64);
}

TEST(ParallelForTest, NestedFanOutRunsInlineWithoutDeadlock) {
  ThreadPool Pool(1); // The tightest case: a single worker.
  std::vector<std::atomic<int>> Hits(16);
  parallelFor(
      4,
      [&](size_t Outer) {
        parallelFor(
            4,
            [&](size_t Inner) { Hits[Outer * 4 + Inner].fetch_add(1); },
            &Pool);
      },
      &Pool);
  for (const std::atomic<int> &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadsOptionTest, LongAndShortSpellings) {
  for (const char *Arg : {"--threads=3", "-j3"}) {
    uint64_t Threads = 0;
    OptionParser Parser("test");
    addThreadsOption(Parser, &Threads);
    const char *Argv[] = {"prog", Arg};
    ASSERT_TRUE(Parser.parse(2, Argv)) << Arg;
    EXPECT_EQ(Threads, 3u) << Arg;
    EXPECT_TRUE(Parser.positionals().empty()) << Arg;
  }

  uint64_t Threads = 0;
  OptionParser Parser("test");
  addThreadsOption(Parser, &Threads);
  const char *Argv[] = {"prog", "-j", "5", "positional"};
  ASSERT_TRUE(Parser.parse(4, Argv));
  EXPECT_EQ(Threads, 5u);
  ASSERT_EQ(Parser.positionals().size(), 1u);
  EXPECT_EQ(Parser.positionals()[0], "positional");
}

TEST(ThreadsOptionTest, UnknownShortArgsAreRejected) {
  uint64_t Threads = 0;
  OptionParser Parser("test");
  addThreadsOption(Parser, &Threads);
  const char *Argv[] = {"prog", "-x", "-"};
  EXPECT_FALSE(Parser.parse(3, Argv));

  OptionParser Dash("test");
  addThreadsOption(Dash, &Threads);
  const char *DashArgv[] = {"prog", "-j2", "-"};
  ASSERT_TRUE(Dash.parse(3, DashArgv));
  EXPECT_EQ(Threads, 2u);
  EXPECT_EQ(Dash.positionals(), (std::vector<std::string>{"-"}));
}

TEST(DefaultPoolTest, ThreadCountOneMeansNoPool) {
  setDefaultThreadCount(1);
  EXPECT_EQ(defaultThreadPool(), nullptr);
  EXPECT_EQ(defaultThreadCount(), 1u);

  setDefaultThreadCount(3);
  ThreadPool *Pool = defaultThreadPool();
  ASSERT_NE(Pool, nullptr);
  // The caller participates in parallelFor, so 3 lanes = 2 pool workers.
  EXPECT_EQ(Pool->numThreads(), 2u);

  setDefaultThreadCount(0); // Restore the hardware default.
}
