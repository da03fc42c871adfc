// Thread-count control for the deterministic parallel Monte-Carlo loops.
//
// Design rules that keep parallel results bit-identical to the serial loop
// at any thread count (including 1):
//  - The caller derives every trial's RNG seed from (base seed, trial
//    index) alone — never from execution order or thread identity.
//  - Each index writes only its own result slot; reductions happen on the
//    calling thread in index order after the loop.
//  - The trial functions are pure given their config, so which thread runs
//    an index never changes what it computes.
//
// The loops themselves run on the sweep scheduler (scheduler.h: sweep_for
// / sweep_for_ranges), whose lanes claim chunks from one shared cursor.
// Its pool is lazily created, grows to the largest thread_count() - 1
// workers any sweep asked for, admits at most thread_count() - 1 of them
// (plus the calling thread) per sweep, and is shared process-wide. Nested
// sweeps from inside a worker run serially on that worker, so trial bodies
// may themselves call parallelized evaluators without deadlock or
// oversubscription.
#pragma once

#include <cstddef>

namespace backfi::sim {

/// Sanity cap on pool workers: more than this is configuration error, not
/// tuning. thread_count() and the scheduler both clamp to it.
inline constexpr std::size_t max_pool_threads = 256;

// --- Thread-count control ------------------------------------------------
//
// thread_count() is what the sweep scheduler actually uses;
// scoped_thread_count is how callers change it for a region. The
// resolution order is: the value set by set_thread_count /
// scoped_thread_count if nonzero, else the BACKFI_THREADS environment
// variable if it is a nonzero plain decimal count (dsp::env_size), else
// std::thread::hardware_concurrency.

/// Number of threads a sweep may use right now.
std::size_t thread_count();

/// Override thread_count() process-wide; 0 restores the default resolution.
void set_thread_count(std::size_t n);

/// RAII thread-count override (restores the previous override on exit).
/// Used by perf_kernels to measure 1/2/4-thread scaling in one process.
class scoped_thread_count {
 public:
  explicit scoped_thread_count(std::size_t n);
  ~scoped_thread_count();
  scoped_thread_count(const scoped_thread_count&) = delete;
  scoped_thread_count& operator=(const scoped_thread_count&) = delete;

 private:
  std::size_t previous_;
};

}  // namespace backfi::sim
