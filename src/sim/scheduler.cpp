#include "sim/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/collector.h"
#include "sim/parallel.h"

namespace backfi::sim {

namespace {

using clock = std::chrono::steady_clock;

// One lane of the sweep: a contiguous task range claimed in chunks through
// the atomic cursor, plus owner-written execution stats. alignas keeps each
// lane on its own cache line(s) so lane-local claims and stat updates never
// invalidate another lane's line — the false sharing that flattened the old
// pool's scaling happened exactly here, on shared bookkeeping words.
struct alignas(64) lane_state {
  std::atomic<std::size_t> next{0};  ///< first unclaimed task index
  std::size_t end = 0;               ///< one past the lane's last task
  // Execution stats, written only by the lane's owner while it runs.
  double busy_seconds = 0.0;
  std::size_t steals = 0;
};

class sweep_pool {
 public:
  static sweep_pool& instance() {
    static sweep_pool pool;
    return pool;
  }

  sweep_stats run(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t chunk, std::size_t threads);

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
  void participate(std::size_t my_lane);
  bool claim(std::size_t my_lane, std::size_t& begin, std::size_t& end,
             bool& stolen);

  bool drained_relaxed() const {
    for (std::size_t k = 0; k < lane_count_; ++k)
      if (lanes_[k].next.load(std::memory_order_relaxed) < lanes_[k].end)
        return false;
    return true;
  }

  // Serializes whole jobs; concurrent top-level sweeps queue here.
  std::mutex job_mutex_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;

  // Job state, rebuilt under mutex_ for each run(). Workers only touch it
  // between registering in participants_ (under mutex_) and deregistering
  // (under mutex_), and run() does not return until participants_ == 0, so
  // teardown never races a late worker.
  std::unique_ptr<lane_state[]> lanes_;
  std::size_t lanes_capacity_ = 0;
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t chunk_ = 1;
  std::size_t lane_count_ = 0;
  std::atomic<std::size_t> worker_slot_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::size_t participants_ = 0;  // guarded by mutex_
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
    const std::size_t slot =
        worker_slot_.fetch_add(1, std::memory_order_relaxed);
    if (slot + 1 >= lane_count_) continue;  // job needs fewer lanes
    ++participants_;
    lock.unlock();
    participate(slot + 1);
    lock.lock();
    --participants_;
    if (participants_ == 0) job_done_.notify_all();
  }
}

bool sweep_pool::claim(std::size_t my_lane, std::size_t& begin,
                       std::size_t& end, bool& stolen) {
  // Own range first: one uncontended fetch_add per chunk.
  lane_state& mine = lanes_[my_lane];
  std::size_t i = mine.next.fetch_add(chunk_, std::memory_order_relaxed);
  if (i < mine.end) {
    begin = i;
    end = std::min(i + chunk_, mine.end);
    stolen = false;
    return true;
  }
  // Own range dry: steal a chunk from the victim with the most work left.
  // Overshooting fetch_adds from racing thieves are harmless — a claim at
  // or past the lane end is simply not work.
  for (;;) {
    std::size_t best = lane_count_;
    std::size_t best_left = 0;
    for (std::size_t v = 0; v < lane_count_; ++v) {
      if (v == my_lane) continue;
      const std::size_t next = lanes_[v].next.load(std::memory_order_relaxed);
      const std::size_t left = next < lanes_[v].end ? lanes_[v].end - next : 0;
      if (left > best_left) {
        best_left = left;
        best = v;
      }
    }
    if (best == lane_count_) return false;  // every lane is dry
    lane_state& victim = lanes_[best];
    i = victim.next.fetch_add(chunk_, std::memory_order_relaxed);
    if (i < victim.end) {
      begin = i;
      end = std::min(i + chunk_, victim.end);
      stolen = true;
      return true;
    }
  }
}

void sweep_pool::participate(std::size_t my_lane) {
  lane_state& mine = lanes_[my_lane];
  const auto* body = body_;
  std::size_t begin = 0, end = 0;
  bool stolen = false;
  while (claim(my_lane, begin, end, stolen)) {
    if (stolen) ++mine.steals;
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    const clock::time_point t0 = clock::now();
    std::exception_ptr error;
    try {
      // One call per claimed chunk: range bodies batch their per-chunk
      // setup here; index bodies arrive pre-wrapped by sweep_for.
      (*body)(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    mine.busy_seconds +=
        std::chrono::duration<double>(clock::now() - t0).count();
    if (error) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = error;
      // Abandon all unclaimed work; racing claims land past end harmlessly.
      for (std::size_t k = 0; k < lane_count_; ++k)
        lanes_[k].next.store(lanes_[k].end, std::memory_order_relaxed);
    }
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        drained_relaxed()) {
      // Last task of the job: wake the caller (lock for a clean handoff
      // with the caller's predicate check).
      { std::lock_guard<std::mutex> lock(mutex_); }
      job_done_.notify_all();
    }
  }
}

sweep_stats sweep_pool::run(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t chunk, std::size_t threads) {
  std::lock_guard<std::mutex> job_lock(job_mutex_);
  sweep_stats stats;
  stats.tasks = n;
  stats.chunk = chunk;
  stats.chunks = (n + chunk - 1) / chunk;
  stats.threads = threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ensure_workers_locked(threads - 1);
    if (lanes_capacity_ < threads) {
      lanes_ = std::make_unique<lane_state[]>(threads);
      lanes_capacity_ = threads;
    }
    // Partition the chunk grid into contiguous per-lane blocks (in chunk
    // units so no chunk straddles two lanes).
    const std::size_t n_chunks = stats.chunks;
    for (std::size_t k = 0; k < threads; ++k) {
      const std::size_t chunk_begin = k * n_chunks / threads;
      const std::size_t chunk_end = (k + 1) * n_chunks / threads;
      lanes_[k].next.store(chunk_begin * chunk, std::memory_order_relaxed);
      lanes_[k].end = std::min(chunk_end * chunk, n);
      lanes_[k].busy_seconds = 0.0;
      lanes_[k].steals = 0;
    }
    body_ = &body;
    chunk_ = chunk;
    lane_count_ = threads;
    worker_slot_.store(0, std::memory_order_relaxed);
    in_flight_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    ++generation_;
  }
  work_available_.notify_all();
  const clock::time_point t0 = clock::now();
  {
    const bool was_in_sweep = tl_in_sweep;
    tl_in_sweep = true;
    participate(0);
    tl_in_sweep = was_in_sweep;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock, [&] {
    return participants_ == 0 &&
           in_flight_.load(std::memory_order_acquire) == 0 &&
           drained_relaxed();
  });
  stats.wall_seconds = std::chrono::duration<double>(clock::now() - t0).count();
  stats.busy_seconds.resize(threads);
  for (std::size_t k = 0; k < threads; ++k) {
    stats.busy_seconds[k] = lanes_[k].busy_seconds;
    stats.steals += lanes_[k].steals;
  }
  body_ = nullptr;
  lane_count_ = 0;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
  return stats;
}

}  // namespace

bool in_parallel_region() { return tl_in_sweep; }

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
  if (n == 0) {
    stats.busy_seconds.assign(1, 0.0);
    return stats;
  }
  const std::size_t threads = std::min(thread_count(), stats.chunks);
  if (threads <= 1 || tl_in_sweep) {
    const clock::time_point t0 = clock::now();
    body(0, n);
    stats.wall_seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    stats.busy_seconds.assign(1, stats.wall_seconds);
    return stats;
  }
  return sweep_pool::instance().run(n, body, stats.chunk, threads);
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
  c->set(probe::scheduler_steals, static_cast<double>(stats.steals));
  c->set(probe::scheduler_wall_seconds, stats.wall_seconds);
  c->set(probe::scheduler_busy_seconds_total, stats.busy_seconds_total());
  c->set(probe::scheduler_efficiency_pct, 100.0 * stats.efficiency());
}

}  // namespace backfi::sim
