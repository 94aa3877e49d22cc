// ThreadPool edge cases: empty and thread-starved ranges, the nested
// dispatch fallback, and exception propagation out of worker chunks — the
// corners a happy-path determinism test never touches but a driver refactor
// can trip (a zero-row round after mass elimination, a kernel accidentally
// re-entering the pool it runs on, a throwing cost function inside a
// parallel phase).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "abft/agg/batch.hpp"
#include "abft/agg/threads.hpp"

namespace {

using namespace abft;

void hits_add(std::vector<std::atomic<int>>& hits, int i) {
  hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
}

TEST(ThreadPool, ZeroRangeNeverInvokes) {
  agg::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 4, [&](int, int) { ++calls; });
  pool.parallel_for(7, 3, 4, [&](int, int) { ++calls; });  // inverted == empty
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, RangeSmallerThanWidthCoversEveryIndexOnce) {
  // 3 rows on an 8-wide pool: workers clamp to the range, every index runs
  // exactly once, and no chunk is empty.
  agg::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, 8, [&](int lo, int hi) {
    ASSERT_LT(lo, hi);
    for (int i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleIndexRunsOnCaller) {
  agg::ThreadPool pool(4);
  int lo_seen = -1;
  int hi_seen = -1;
  pool.parallel_for(41, 42, 4, [&](int lo, int hi) {
    lo_seen = lo;
    hi_seen = hi;
  });
  EXPECT_EQ(lo_seen, 41);
  EXPECT_EQ(hi_seen, 42);
}

TEST(ThreadPool, NestedDispatchFallsBackToSerial) {
  // A chunk that re-enters the pool must not deadlock on the job slot: the
  // nested call detects it is inside a chunk and degenerates to one direct
  // serial invocation covering its whole range.
  agg::ThreadPool pool(4);
  constexpr int kOuter = 4;
  constexpr int kInner = 32;
  std::mutex mutex;
  std::vector<std::pair<int, int>> inner_chunks;
  std::vector<std::atomic<int>> inner_hits(kInner);
  pool.parallel_for(0, kOuter, 4, [&](int outer_lo, int outer_hi) {
    for (int o = outer_lo; o < outer_hi; ++o) {
      pool.parallel_for(0, kInner, 4, [&](int lo, int hi) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          inner_chunks.emplace_back(lo, hi);
        }
        for (int i = lo; i < hi; ++i) hits_add(inner_hits, i);
      });
    }
  });
  // Every nested dispatch ran as exactly one full-range serial chunk...
  ASSERT_EQ(inner_chunks.size(), static_cast<std::size_t>(kOuter));
  for (const auto& [lo, hi] : inner_chunks) {
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, kInner);
  }
  // ...and the work happened once per outer index.
  for (const auto& h : inner_hits) EXPECT_EQ(h.load(), kOuter);
}

TEST(ThreadPool, WorkspaceRunParallelNestedIsSafe) {
  // The kernel-facing wrapper: a workspace whose pool is mid-job falls back
  // the same way, so an aggregation kernel invoked from a round-level phase
  // can never hang the driver.
  agg::ThreadPool pool(4);
  agg::AggregatorWorkspace ws;
  ws.pool = &pool;
  std::vector<std::atomic<int>> hits(64);
  ws.run_parallel(0, 8, [&](int outer_lo, int outer_hi) {
    for (int o = outer_lo; o < outer_hi; ++o) {
      ws.run_parallel(0, 8, [&](int lo, int hi) {
        for (int i = lo; i < hi; ++i) hits_add(hits, o * 8 + i);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionFromWorkerChunkPropagates) {
  // 8 indices over width 4: chunks are [0,2) caller, [2,4), [4,6), [6,8)
  // workers.  A throw in a worker chunk must surface in the caller, and the
  // non-throwing chunks must still have run.
  agg::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8);
  EXPECT_THROW(
      pool.parallel_for(0, 8, 4,
                        [&](int lo, int hi) {
                          if (lo == 6) throw std::runtime_error("worker boom");
                          for (int i = lo; i < hi; ++i) hits_add(hits, i);
                        }),
      std::runtime_error);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, CallerChunkExceptionWinsAndPoolStaysUsable) {
  agg::ThreadPool pool(4);
  try {
    pool.parallel_for(0, 8, 4, [&](int lo, int) {
      if (lo == 0) throw std::logic_error("caller boom");
      if (lo == 6) throw std::runtime_error("worker boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error& error) {
    EXPECT_STREQ(error.what(), "caller boom");
  }
  // The job slot must be clean again: a fresh job runs normally.
  std::vector<std::atomic<int>> hits(8);
  pool.parallel_for(0, 8, 4, [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) hits_add(hits, i);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
