// ARQ, rate control and link supervision of one BackFi tag.
//
// The paper's rate adaptation (Section 6.1) assumes the link is merely
// noisy; in the wild (GuardRider, arXiv:1912.06493) the excitation itself
// is bursty and unreliable, so the AP runs a state machine over the tag's
// polling opportunities that
// (a) retries a failed packet a bounded number of times immediately,
// (b) falls back to a more robust operating point and backs its polling
//     off exponentially when retries keep failing (driven off its
//     consecutive-failure count),
// (c) probes back up after a healthy streak, reverting on the first
//     probe failure, and
// (d) suspends a tag that stays dead at the most robust point, keeping a
//     slow keepalive poll so it can revive.
#pragma once

#include <cstddef>
#include <cstdint>

#include "phy/erasure_code.h"
#include "tag/energy_model.h"

namespace backfi::obs {
class collector;
}  // namespace backfi::obs

namespace backfi::mac {

/// Step an operating point to the next more robust one: halve the symbol
/// rate; below the minimum, drop the modulation order / coding rate.
/// Returns false when already at the most robust point.
bool fallback_rate(tag::tag_rate_config& rate);

/// Inverse ladder for probing a faster point after a healthy streak:
/// raise the symbol rate; at the maximum clock, raise the coding rate,
/// then the modulation order. Returns false at the fastest point.
bool probe_up_rate(tag::tag_rate_config& rate);

struct arq_config {
  std::size_t max_retries = 3;     ///< immediate re-polls per transaction
  /// Consecutive failed polls (retries included) before a rate fallback.
  std::size_t fallback_after = 2;
  std::size_t backoff_base = 2;    ///< polls skipped after first fallback
  std::size_t backoff_cap = 16;    ///< ceiling of the exponential backoff
  /// Consecutive successes before probing one step faster.
  std::size_t probe_up_after = 16;
  /// Fallback cycles at the most robust point before suspension.
  std::size_t suspend_after = 3;
  /// Keepalive poll period while suspended.
  std::size_t suspend_poll_interval = 32;

  // Coded-link knobs (report_symbol_result / report_block_outcome). An
  // erased coded symbol is expected wild-traffic behaviour, not evidence
  // the operating point is wrong, so it never triggers rate fallback —
  // only a short fixed backoff once erasures run long enough to look like
  // an OFF burst worth riding out.
  /// Consecutive erased symbols before the coded link backs off.
  std::size_t erasure_backoff_after = 8;
  /// Fixed polls skipped when the erasure threshold trips (clamped to
  /// backoff_cap).
  std::size_t erasure_backoff = 4;
  /// Repair rounds granted per source block before it is abandoned.
  std::size_t max_repair_rounds = 4;
};

enum class link_state : std::uint8_t {
  healthy,    ///< delivering at the current operating point
  retrying,   ///< transaction failed, immediate re-poll pending
  backoff,    ///< rate dropped, polls deferred exponentially
  probing,    ///< trying one step faster after a healthy streak
  suspended,  ///< dead at the most robust point; keepalive polls only
};

const char* to_string(link_state state);

/// What the supervisor wants the tag-side coder to do after a block
/// outcome report.
enum class coded_directive : std::uint8_t {
  continue_stream,  ///< block decoded (or still streaming); carry on
  send_repair,      ///< grant the block one more round of repair symbols
  abandon_block,    ///< repair budget exhausted; drop the block, move on
};

/// Coded-link bookkeeping (symbol = one coded packet / poll).
struct coding_stats {
  std::size_t symbols_delivered = 0;
  std::size_t symbols_erased = 0;
  std::size_t erasure_backoffs = 0;  ///< times the erasure threshold tripped
  std::size_t repair_rounds = 0;     ///< send_repair directives issued
  std::size_t blocks_decoded = 0;
  std::size_t blocks_abandoned = 0;
};

struct supervision_stats {
  std::size_t retries = 0;        ///< immediate re-polls issued
  std::size_t fallbacks = 0;      ///< rate steps down (incl. probe reverts)
  std::size_t probe_ups = 0;      ///< rate steps up attempted
  std::size_t deferred_polls = 0; ///< opportunities spent backed off
  std::size_t suspensions = 0;
  std::size_t recoveries = 0;     ///< successes that left a degraded state
};

/// Supervises one tag's polling opportunities. The caller runs the loop:
///   if (supervisor.next()) {             // false: the slot idles
///     ... run the poll at supervisor.rate() ...
///     supervisor.report_result(ok);
///   }
class link_supervisor {
 public:
  /// `collector` (nullable) receives mac.arq_* counters: one
  /// arq_state_transitions per state change plus one counter per
  /// retry/fallback/probe-up/recovery/suspension/deferred-poll event,
  /// mirroring supervision_stats in the exported telemetry.
  explicit link_supervisor(const tag::tag_rate_config& start_rate,
                           const arq_config& config = {},
                           obs::collector* collector = nullptr);

  /// Advance the opportunity clock and decide whether to poll in it. A
  /// pending ARQ retry always polls; otherwise the tag polls unless a
  /// backoff or suspension window still covers this opportunity.
  bool next();

  /// Outcome of one poll; drives the state machine.
  void report_result(bool success);

  /// Coded-link outcome of one poll. Unlike report_result, an erasure
  /// never steps the rate down or burns retries — the code absorbs losses
  /// and per-packet ARQ degrades to "request more repair symbols". A long
  /// erasure run (erasure_backoff_after) defers polls by a fixed clamped
  /// erasure_backoff to ride out an OFF burst.
  void report_symbol_result(bool delivered);

  /// Reader-side verdict on a source block; returns what the coder should
  /// do next. `pending` earns repair rounds up to max_repair_rounds, then
  /// the block is abandoned.
  coded_directive report_block_outcome(phy::block_status status);

  /// The operating point the next poll runs at.
  const tag::tag_rate_config& rate() const { return rate_; }
  link_state state() const { return state_; }
  const supervision_stats& stats() const { return stats_; }
  const coding_stats& coding() const { return coding_; }
  const arq_config& config() const { return config_; }

  /// Overflow-safe exponential ladder value for a fallback streak:
  /// min(backoff_base * 2^(streak-1), backoff_cap) without shift overflow.
  std::size_t clamped_backoff(std::size_t streak) const;

 private:
  void handle_transaction_failure();
  /// Skip the next `opportunities` opportunities (saturating); a new
  /// defer replaces any pending one.
  void defer(std::size_t opportunities);
  /// State assignment that counts distinct transitions as a probe.
  void transition(link_state next);

  arq_config config_;
  obs::collector* collector_ = nullptr;
  tag::tag_rate_config rate_;
  std::size_t opportunity_ = 0;      ///< opportunities seen so far
  std::size_t defer_until_ = 0;      ///< last opportunity a defer gates
  std::size_t consecutive_failures_ = 0;  ///< polls, either report kind
  link_state state_ = link_state::healthy;
  std::size_t retries_used_ = 0;     ///< within the current transaction
  bool retry_pending_ = false;
  std::size_t fallback_streak_ = 0;  ///< consecutive fallbacks, no success
  std::size_t floor_failures_ = 0;   ///< failed cycles at the robust floor
  std::size_t success_streak_ = 0;
  tag::tag_rate_config pre_probe_rate_;  ///< revert target while probing
  supervision_stats stats_;
  std::size_t erasure_streak_ = 0;   ///< consecutive erased coded symbols
  std::size_t repair_rounds_used_ = 0;  ///< for the block in flight
  coding_stats coding_;
};

}  // namespace backfi::mac
