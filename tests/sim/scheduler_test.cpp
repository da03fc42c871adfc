#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/collector.h"
#include "obs/export.h"
#include "sim/parallel.h"

namespace backfi::sim {
namespace {

TEST(SchedulerTest, ChunkSizeIsAPureFunctionOfTaskCount) {
  // Policy: max(1, min(64, n / 64)). These are pinned because the
  // sim.scheduler.chunks counter — which deterministic exports compare
  // across thread counts — is derived from them.
  EXPECT_EQ(sweep_chunk_size(0), 1u);
  EXPECT_EQ(sweep_chunk_size(63), 1u);
  EXPECT_EQ(sweep_chunk_size(64), 1u);
  EXPECT_EQ(sweep_chunk_size(127), 1u);
  EXPECT_EQ(sweep_chunk_size(128), 2u);
  EXPECT_EQ(sweep_chunk_size(4096), 64u);
  EXPECT_EQ(sweep_chunk_size(1000000), 64u);
}

TEST(SchedulerTest, RunsEveryIndexExactlyOnceAtEveryThreadCount) {
  const std::size_t n = 1337;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    scoped_thread_count guard(threads);
    std::vector<std::atomic<int>> counts(n);
    for (auto& c : counts) c.store(0);
    const sweep_stats stats = sweep_for(n, [&](std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(counts[i].load(), 1) << "threads=" << threads << " i=" << i;
    EXPECT_EQ(stats.tasks, n);
  }
}

TEST(SchedulerTest, StatsDescribeTheSubmittedWork) {
  scoped_thread_count guard(4);
  const std::size_t n = 500;
  const sweep_stats stats = sweep_for(n, [](std::size_t) {});
  EXPECT_EQ(stats.tasks, n);
  EXPECT_EQ(stats.chunk, sweep_chunk_size(n));
  EXPECT_EQ(stats.chunks, (n + stats.chunk - 1) / stats.chunk);
  EXPECT_GE(stats.wall_seconds, 0.0);
  // Body time summed over the lanes; lane count never exceeds the
  // requested threads or the chunk count.
  EXPECT_GE(stats.busy_seconds_total, 0.0);
  EXPECT_LE(stats.threads, 4u);
  EXPECT_LE(stats.threads, stats.chunks);
}

TEST(SchedulerTest, ZeroTasksIsANoOp) {
  scoped_thread_count guard(4);
  bool ran = false;
  const sweep_stats stats = sweep_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.chunks, 0u);
}

TEST(SchedulerTest, PropagatesFirstBodyException) {
  scoped_thread_count guard(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      sweep_for(200,
                [&](std::size_t i) {
                  if (i == 17) throw std::runtime_error("task failed");
                  completed.fetch_add(1, std::memory_order_relaxed);
                }),
      std::runtime_error);
  // The throw abandons unclaimed work instead of running it.
  EXPECT_LT(completed.load(), 200);
}

TEST(SchedulerTest, NestedSweepsRunSeriallyWithoutDeadlock) {
  scoped_thread_count guard(4);
  const std::size_t outer = 6, inner = 20;
  std::vector<int> counts(outer * inner, 0);
  sweep_for(outer, [&](std::size_t i) {
    const sweep_stats inner_stats = sweep_for(inner, [&](std::size_t j) {
      // Serial on this worker, so the unsynchronized write is race-free.
      ++counts[i * inner + j];
    });
    EXPECT_EQ(inner_stats.threads, 1u);
  });
  for (std::size_t k = 0; k < counts.size(); ++k)
    ASSERT_EQ(counts[k], 1) << "k=" << k;
}

TEST(SchedulerTest, DeterministicCountersAreThreadCountInvariant) {
  // The sim.scheduler.* counters must depend only on the submitted work,
  // never on how many lanes executed it: deterministic exports diff these
  // across BACKFI_THREADS settings.
  const std::size_t n = 777;
  std::string exports[2];
  std::size_t idx = 0;
  for (const std::size_t threads : {1u, 8u}) {
    scoped_thread_count guard(threads);
    obs::collector collector;
    const sweep_stats stats = sweep_for(n, [](std::size_t) {});
    report_sweep_stats(&collector, stats);
    exports[idx++] = obs::to_json(collector.registry(),
                                  {.include_timings = false});
  }
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(SchedulerTest, ReportSplitsCountersFromRuntimeGauges) {
  scoped_thread_count guard(2);
  obs::collector collector;
  const sweep_stats stats = sweep_for(50, [](std::size_t) {});
  report_sweep_stats(&collector, stats);
  const auto& reg = collector.registry();
  EXPECT_EQ(reg.counter_at(obs::probe::scheduler_sweeps).value, 1u);
  EXPECT_EQ(reg.counter_at(obs::probe::scheduler_tasks).value, 50u);
  EXPECT_TRUE(reg.gauge_at(obs::probe::scheduler_threads).set);
  EXPECT_TRUE(reg.gauge_at(obs::probe::scheduler_wall_seconds).set);
  // Null collector is a no-op, not a crash.
  report_sweep_stats(nullptr, stats);
}

TEST(SchedulerTest, RangesCoverEveryIndexExactlyOnceAtEveryThreadCount) {
  const std::size_t n = 1337;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    scoped_thread_count guard(threads);
    std::vector<std::atomic<int>> counts(n);
    for (auto& c : counts) c.store(0);
    const sweep_stats stats =
        sweep_for_ranges(n, [&](std::size_t begin, std::size_t end) {
          ASSERT_LT(begin, end);
          ASSERT_LE(end, n);
          for (std::size_t i = begin; i < end; ++i)
            counts[i].fetch_add(1, std::memory_order_relaxed);
        });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(counts[i].load(), 1) << "threads=" << threads << " i=" << i;
    EXPECT_EQ(stats.tasks, n);
    // Same chunk layout as the per-index API: a delivered range never
    // exceeds one chunk.
    EXPECT_EQ(stats.chunk, sweep_chunk_size(n));
  }
}

TEST(SchedulerTest, RangeBodiesNeverReceiveMoreThanOneChunk) {
  scoped_thread_count guard(4);
  const std::size_t n = 1000, chunk = sweep_chunk_size(n);
  sweep_for_ranges(n, [&](std::size_t begin, std::size_t end) {
    EXPECT_LE(end - begin, chunk);
  });
  // Serial fallback (threads=1) delivers the whole pool as one range.
  scoped_thread_count serial(1);
  std::size_t calls = 0, covered = 0;
  sweep_for_ranges(n, [&](std::size_t begin, std::size_t end) {
    ++calls;
    covered += end - begin;
    EXPECT_EQ(begin, 0u);
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(covered, n);
}

TEST(SchedulerTest, RangeResultsIdenticalAcrossThreadCounts) {
  // The trial batchers ride on this: a range body whose per-index value is
  // a function of the index alone fills identical slot vectors at any
  // thread count, no matter how the chunks were distributed.
  const std::size_t n = 513;
  std::vector<std::uint64_t> reference(n);
  for (std::size_t i = 0; i < n; ++i)
    reference[i] = derive_trial_seed(42, i) * 0x2545F4914F6CDD1DULL;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    scoped_thread_count guard(threads);
    std::vector<std::uint64_t> out(n, 0);
    sweep_for_ranges(n, [&](std::size_t begin, std::size_t end) {
      // Per-chunk state (as in the PER engine): accumulation order inside a
      // chunk is fixed, and slots depend only on their own index.
      for (std::size_t i = begin; i < end; ++i)
        out[i] = derive_trial_seed(42, i) * 0x2545F4914F6CDD1DULL;
    });
    EXPECT_EQ(out, reference) << "threads=" << threads;
  }
}

TEST(SchedulerTest, ResultsIdenticalAcrossThreadCountsForSeededBodies) {
  // The determinism contract end to end: a body that derives its value
  // from (seed, index) alone produces the same slot vector at any thread
  // count.
  const std::size_t n = 400;
  std::vector<std::uint64_t> reference(n);
  for (std::size_t i = 0; i < n; ++i)
    reference[i] = derive_trial_seed(99, i) ^ (i * 0x9e3779b97f4a7c15ULL);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    scoped_thread_count guard(threads);
    std::vector<std::uint64_t> out(n, 0);
    sweep_for(n, [&](std::size_t i) {
      out[i] = derive_trial_seed(99, i) ^ (i * 0x9e3779b97f4a7c15ULL);
    });
    EXPECT_EQ(out, reference) << "threads=" << threads;
  }
}

TEST(SchedulerTest, LanesOverlapOnBlockingTasks) {
  // A pool that serializes its lanes (one lock held across every task
  // body) still runs each index exactly once; only the wall time shows
  // it. Sleeping tasks overlap on any core count and under sanitizers, so
  // 8 lanes must finish well inside the serial sleep sum.
  constexpr std::size_t n = 64;
  constexpr auto task = std::chrono::milliseconds(2);
  scoped_thread_count guard(8);
  const auto t0 = std::chrono::steady_clock::now();
  const sweep_stats stats = sweep_for(
      n, [&](std::size_t) { std::this_thread::sleep_for(task); });
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(stats.threads, 8u);
  EXPECT_LT(wall, n * task / 2);
}

TEST(SchedulerTest, LaneCountFollowsTheCurrentThreadCount) {
  // The pool keeps the workers an earlier, wider sweep started; a later
  // sweep must still run on no more lanes than the thread count it sees.
  {
    scoped_thread_count wide(8);
    EXPECT_EQ(sweep_for(64, [](std::size_t) {}).threads, 8u);  // 7 workers
  }
  constexpr std::size_t n = 64;
  constexpr auto task = std::chrono::milliseconds(1);
  scoped_thread_count guard(2);
  std::mutex mutex;
  std::set<std::thread::id> lanes;
  const sweep_stats stats = sweep_for(n, [&](std::size_t) {
    std::this_thread::sleep_for(task);
    std::lock_guard<std::mutex> lock(mutex);
    lanes.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_LE(lanes.size(), 2u);
  // Every lane's body time reaches the total.
  EXPECT_GE(stats.busy_seconds_total,
            std::chrono::duration<double>(n * task).count());
}

}  // namespace
}  // namespace backfi::sim
