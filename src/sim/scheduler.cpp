#include "sim/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/collector.h"
#include "sim/parallel.h"

namespace backfi::sim {

namespace {

using clock = std::chrono::steady_clock;

class sweep_pool {
 public:
  static sweep_pool& instance() {
    static sweep_pool pool;
    return pool;
  }

  using body_fn = std::function<void(std::size_t, std::size_t)>;

  /// Runs `body` over stats.tasks indices in stats.chunk-sized chunks on
  /// stats.threads lanes; fills in the timings.
  sweep_stats run(const body_fn& body, sweep_stats stats);

 private:
  sweep_pool() = default;

  ~sweep_pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  void ensure_workers_locked(std::size_t want) {
    want = std::min(want, max_pool_threads);
    while (workers_.size() < want) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void worker_main();
  double participate(const body_fn& body);

  // Serializes whole jobs; concurrent top-level sweeps queue here.
  std::mutex job_mutex_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;

  // Job state, set under mutex_ for each run(). A worker registers in
  // participants_ under mutex_ before its first claim and deregisters under
  // mutex_ after its last, and run() clears body_ under mutex_ only once
  // participants_ == 0, so no worker ever claims from a finished job.
  const body_fn* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> next_{0};  ///< first unclaimed task index
  std::size_t open_slots_ = 0;        // guarded by mutex_
  std::size_t participants_ = 0;      // guarded by mutex_
  double busy_seconds_ = 0.0;         // guarded by mutex_
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stopping_ = false;
};

// True on threads currently executing a sweep body (workers, and the
// calling thread while it participates). Nested sweeps on such threads run
// serially instead of re-entering the pool.
thread_local bool tl_in_sweep = false;

void sweep_pool::worker_main() {
  tl_in_sweep = true;
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen_generation = 0;
  for (;;) {
    work_available_.wait(lock, [&] {
      return stopping_ || (body_ != nullptr && generation_ != seen_generation);
    });
    if (stopping_) return;
    seen_generation = generation_;
    if (open_slots_ == 0) continue;  // job already has all its lanes
    --open_slots_;
    ++participants_;
    const body_fn& body = *body_;
    lock.unlock();
    const double busy = participate(body);
    lock.lock();
    busy_seconds_ += busy;
    if (--participants_ == 0) job_done_.notify_all();
  }
}

double sweep_pool::participate(const body_fn& body) {
  double busy = 0.0;
  for (;;) {
    // One fetch_add per chunk on the shared cursor; claims that land at or
    // past n (overshoot from racing lanes, or an abandoned job) are not work.
    const std::size_t begin =
        next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= n_) return busy;
    const std::size_t end = std::min(begin + chunk_, n_);
    const clock::time_point t0 = clock::now();
    std::exception_ptr error;
    try {
      // One call per claimed chunk: range bodies batch their per-chunk
      // setup here; index bodies arrive pre-wrapped by sweep_for.
      body(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    busy += std::chrono::duration<double>(clock::now() - t0).count();
    if (error) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = error;
      next_.store(n_, std::memory_order_relaxed);  // abandon unclaimed work
    }
  }
}

sweep_stats sweep_pool::run(const body_fn& body, sweep_stats stats) {
  std::lock_guard<std::mutex> job_lock(job_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ensure_workers_locked(stats.threads - 1);
    body_ = &body;
    n_ = stats.tasks;
    chunk_ = stats.chunk;
    next_.store(0, std::memory_order_relaxed);
    // The pool may hold more workers than this job's lanes (an earlier
    // sweep ran at a higher thread count); only threads - 1 may join.
    open_slots_ = stats.threads - 1;
    busy_seconds_ = 0.0;
    error_ = nullptr;
    ++generation_;
  }
  work_available_.notify_all();
  const clock::time_point t0 = clock::now();
  double busy = 0.0;
  {
    const bool was_in_sweep = tl_in_sweep;
    tl_in_sweep = true;
    busy = participate(body);
    tl_in_sweep = was_in_sweep;
  }
  // The cursor has passed n, so every chunk is claimed; the claimed ones
  // still running belong to registered workers.
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock, [&] { return participants_ == 0; });
  stats.wall_seconds = std::chrono::duration<double>(clock::now() - t0).count();
  stats.busy_seconds_total = busy_seconds_ + busy;
  body_ = nullptr;
  open_slots_ = 0;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
  return stats;
}

}  // namespace

std::size_t sweep_chunk_size(std::size_t n) {
  // Pure function of n (never of the thread count): the chunk layout and
  // the sim.scheduler.chunks counter stay identical at any BACKFI_THREADS.
  return std::max<std::size_t>(1, std::min<std::size_t>(64, n / 64));
}

sweep_stats sweep_for(std::size_t n,
                      const std::function<void(std::size_t)>& body) {
  return sweep_for_ranges(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

sweep_stats sweep_for_ranges(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  sweep_stats stats;
  stats.chunk = sweep_chunk_size(n);
  stats.tasks = n;
  stats.chunks = n == 0 ? 0 : (n + stats.chunk - 1) / stats.chunk;
  if (n == 0) return stats;
  const std::size_t threads = std::min(thread_count(), stats.chunks);
  if (threads <= 1 || tl_in_sweep) {
    const clock::time_point t0 = clock::now();
    body(0, n);
    stats.wall_seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    stats.busy_seconds_total = stats.wall_seconds;
    return stats;
  }
  stats.threads = threads;
  return sweep_pool::instance().run(body, stats);
}

void report_sweep_stats(obs::collector* c, const sweep_stats& stats) {
  if (!c) return;
  // Deterministic counters: pure functions of the submitted work.
  using obs::probe;
  c->count(probe::scheduler_sweeps);
  c->count(probe::scheduler_tasks, stats.tasks);
  c->count(probe::scheduler_chunks, stats.chunks);
  // Execution-dependent gauges: runtime.* is excluded from the
  // deterministic export profile alongside timing.*.
  c->set(probe::scheduler_threads, static_cast<double>(stats.threads));
  c->set(probe::scheduler_wall_seconds, stats.wall_seconds);
  c->set(probe::scheduler_busy_seconds_total, stats.busy_seconds_total);
  c->set(probe::scheduler_efficiency_pct, 100.0 * stats.efficiency());
}

}  // namespace backfi::sim
