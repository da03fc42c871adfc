// Sweep scheduler for Monte-Carlo evaluations.
//
// The Monte-Carlo evaluators flatten their whole (sweep point x trial)
// space into one global pool of independent tasks and hand it to
// sweep_for. Every lane — the calling thread plus up to thread_count() - 1
// persistent pool workers — claims fixed-size chunks from one shared
// atomic cursor (one fetch_add per chunk) until the cursor passes n. The
// sweeps in this repo are at most a few hundred chunks of trials that each
// take hundreds of microseconds or more, so a single cursor cannot
// contend; a lane that finishes early simply claims the next chunk.
//
// Determinism contract (the rules in parallel.h): the caller derives every
// task's RNG seed from (base seed, flattened index) alone and each index
// writes only its own result slot, so results — and index-ordered
// collector merges — are bit-identical at any BACKFI_THREADS. The
// scheduler only changes *which lane* runs an index, never what the index
// computes or the order results are committed in.
//
// The chunk size is a pure function of the task count (never of the
// thread count), so the deterministic scheduler telemetry
// (sim.scheduler.tasks / sim.scheduler.chunks) is identical at any
// thread count; execution-dependent quantities (lanes, wall and busy
// time) are exported under runtime.scheduler.*, which the deterministic
// export profile excludes alongside timing.*.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace backfi::obs {
class collector;
}

namespace backfi::sim {

/// Chunking policy of one sweep: max(1, min(64, n / 64)). Single-index
/// chunks for the trial-sized pools (up to 127 multi-millisecond tasks,
/// which covers every campaign grid) and coarser chunks once a sweep is
/// large enough that per-chunk claim overhead could show up. The size
/// depends only on n, keeping the chunk layout — and therefore the
/// deterministic chunk telemetry — independent of the thread count.
std::size_t sweep_chunk_size(std::size_t n);

/// Execution report of one sweep_for call. Everything here describes how
/// the work was *executed*; the results the body produced are unaffected.
struct sweep_stats {
  std::size_t threads = 1;   ///< lanes allowed: min(thread_count(), chunks)
  std::size_t tasks = 0;     ///< total flattened task count (== n)
  std::size_t chunk = 1;     ///< chunk size used
  std::size_t chunks = 0;    ///< ceil(n / chunk)
  double wall_seconds = 0.0;
  /// Time all lanes together spent inside the task body; each lane adds
  /// its share when it leaves the job.
  double busy_seconds_total = 0.0;

  /// Fraction of lane wall-clock spent in task bodies: busy / (wall *
  /// lanes). 1.0 means no lane ever waited on the pool.
  double efficiency() const {
    const double denom = wall_seconds * static_cast<double>(threads);
    return denom > 0.0 ? busy_seconds_total / denom : 1.0;
  }
};

/// Run body(0) ... body(n - 1) across the worker pool, each lane claiming
/// chunks from one shared cursor. Returns after every index has completed,
/// rethrows the first body exception (abandoning unclaimed work), and runs
/// serially in index order when thread_count() <= 1 or when called from
/// inside a pool worker; the returned report describes the execution.
/// Chunks are sweep_chunk_size(n) indices long.
sweep_stats sweep_for(std::size_t n,
                      const std::function<void(std::size_t)>& body);

/// Range variant: each claimed chunk is delivered to the body as one
/// contiguous [begin, end) range instead of per-index calls, so the body
/// can batch per-chunk setup (a shared scenario copy, one pass through
/// the vectorized synthesis kernels) across the trials of the chunk. The
/// chunk layout is identical to sweep_for's (pure function of n, never of
/// the thread count) and bodies must keep per-index results a function of
/// the index alone, so everything the determinism contract pins —
/// results, collector merges, sim.scheduler.* counters — is unchanged.
/// Serial fallback delivers the single range [0, n).
sweep_stats sweep_for_ranges(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body);

/// Export one sweep's telemetry to `c` (null-safe no-op):
///   sim.scheduler.sweeps / .tasks / .chunks   counters, deterministic
///   runtime.scheduler.*                       gauges, execution-dependent
/// The counters are pure functions of n so merged exports stay
/// bit-identical at any BACKFI_THREADS; the gauges ride in the same exempt
/// group as timing.*.
void report_sweep_stats(obs::collector* c, const sweep_stats& stats);

/// Seed derivation shared by the flattened trial loops (the
/// packet_error_rates engine and the fault campaign polls): the per-trial
/// seed depends only on (base seed, flattened trial index), never on lane,
/// chunk, or thread count. The pinned trial literals depend on this exact
/// formula.
constexpr std::uint64_t derive_trial_seed(std::uint64_t base_seed,
                                          std::uint64_t trial_index) {
  return base_seed * 1000003ULL + trial_index;
}

}  // namespace backfi::sim
