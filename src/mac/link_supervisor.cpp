#include "mac/link_supervisor.h"

#include <algorithm>
#include <limits>

#include "obs/collector.h"

namespace backfi::mac {

namespace {

/// Supported symbol rates, ascending (the Fig. 7 columns).
constexpr double kRates[] = {1e4, 1e5, 5e5, 1e6, 2e6, 2.5e6};

const double* symbol_rate_below(double current) {
  const double* found = nullptr;
  for (const double& r : kRates)
    if (r < current - 1.0 && (found == nullptr || r > *found)) found = &r;
  return found;
}

const double* symbol_rate_above(double current) {
  const double* found = nullptr;
  for (const double& r : kRates)
    if (r > current + 1.0 && (found == nullptr || r < *found)) found = &r;
  return found;
}

}  // namespace

bool fallback_rate(tag::tag_rate_config& rate) {
  // 1. Slow the symbol clock (more MRC gain, same modulation) — but once
  // the clock is down to 100 kSPS, dense modulations are clearly SNR-bound
  // and dropping the order converges faster than crawling to 10 kSPS.
  const bool dense = rate.modulation != tag::tag_modulation::bpsk &&
                     rate.modulation != tag::tag_modulation::qpsk;
  if (!(dense && rate.symbol_rate_hz <= 1e5)) {
    if (const double* lower = symbol_rate_below(rate.symbol_rate_hz)) {
      rate.symbol_rate_hz = *lower;
      return true;
    }
  }
  if (dense) {
    rate.modulation = tag::tag_modulation::qpsk;
    rate.symbol_rate_hz = 1e6;
    return true;
  }
  // 2. At the slowest clock: reduce coding rate, then modulation order.
  if (rate.coding == phy::code_rate::two_thirds) {
    rate.coding = phy::code_rate::half;
    rate.symbol_rate_hz = 2.5e6;
    return true;
  }
  switch (rate.modulation) {
    case tag::tag_modulation::psk16:
      rate.modulation = tag::tag_modulation::qpsk;
      rate.symbol_rate_hz = 2.5e6;
      return true;
    case tag::tag_modulation::psk8:
      rate.modulation = tag::tag_modulation::qpsk;
      rate.symbol_rate_hz = 2.5e6;
      return true;
    case tag::tag_modulation::qpsk:
      rate.modulation = tag::tag_modulation::bpsk;
      rate.symbol_rate_hz = 2.5e6;
      return true;
    case tag::tag_modulation::bpsk:
      return false;  // already most robust
  }
  return false;
}

bool probe_up_rate(tag::tag_rate_config& rate) {
  if (const double* higher = symbol_rate_above(rate.symbol_rate_hz)) {
    rate.symbol_rate_hz = *higher;
    return true;
  }
  if (rate.coding == phy::code_rate::half) {
    rate.coding = phy::code_rate::two_thirds;
    return true;
  }
  switch (rate.modulation) {
    case tag::tag_modulation::bpsk:
      rate.modulation = tag::tag_modulation::qpsk;
      return true;
    case tag::tag_modulation::qpsk:
      rate.modulation = tag::tag_modulation::psk8;
      return true;
    case tag::tag_modulation::psk8:
      rate.modulation = tag::tag_modulation::psk16;
      return true;
    case tag::tag_modulation::psk16:
      return false;  // already fastest
  }
  return false;
}

const char* to_string(link_state state) {
  switch (state) {
    case link_state::healthy: return "healthy";
    case link_state::retrying: return "retrying";
    case link_state::backoff: return "backoff";
    case link_state::probing: return "probing";
    case link_state::suspended: return "suspended";
  }
  return "unknown";
}

link_supervisor::link_supervisor(const tag::tag_rate_config& start_rate,
                                 const arq_config& config,
                                 obs::collector* collector)
    : config_(config), collector_(collector), rate_(start_rate) {}

void link_supervisor::transition(link_state next) {
  if (state_ == next) return;
  state_ = next;
  obs::count(collector_, obs::probe::arq_state_transitions);
}

bool link_supervisor::next() {
  // A retry polls at once; it still consumes the opportunity.
  ++opportunity_;
  if (retry_pending_ || defer_until_ < opportunity_) return true;
  // The window's last opportunity idles too, but the window ends there, so
  // only the opportunities before it count as deferred polls.
  if (defer_until_ > opportunity_) {
    ++stats_.deferred_polls;
    obs::count(collector_, obs::probe::arq_deferred_polls);
  }
  return false;
}

void link_supervisor::defer(std::size_t opportunities) {
  // Saturating add: a pathological backoff request near SIZE_MAX must park
  // the tag, not wrap the gate around to "pollable immediately".
  const std::size_t limit = std::numeric_limits<std::size_t>::max();
  defer_until_ = opportunities > limit - opportunity_
                     ? limit
                     : opportunity_ + opportunities;
}

std::size_t link_supervisor::clamped_backoff(std::size_t streak) const {
  // Doubling in a loop with a midpoint guard saturates at the cap no
  // matter how large the base, cap, or streak get — the old
  // `base << min(streak-1, 16)` form overflowed for bases above
  // SIZE_MAX >> 16 and wrapped the ladder back to tiny delays.
  const std::size_t cap = std::max<std::size_t>(config_.backoff_cap, 1);
  std::size_t backoff = std::max<std::size_t>(config_.backoff_base, 1);
  for (std::size_t i = 1; i < streak && backoff < cap; ++i) {
    if (backoff > cap / 2) {
      backoff = cap;
      break;
    }
    backoff *= 2;
  }
  return std::min(backoff, cap);
}

void link_supervisor::handle_transaction_failure() {
  if (fallback_rate(rate_)) {
    ++stats_.fallbacks;
    obs::count(collector_, obs::probe::arq_fallbacks);
    ++fallback_streak_;
    defer(clamped_backoff(fallback_streak_));
    transition(link_state::backoff);
    return;
  }
  // Already at the robust floor: count dead cycles toward suspension.
  ++floor_failures_;
  if (floor_failures_ >= config_.suspend_after) {
    if (state_ != link_state::suspended) {
      ++stats_.suspensions;
      obs::count(collector_, obs::probe::arq_suspensions);
    }
    transition(link_state::suspended);
    defer(config_.suspend_poll_interval);
  } else {
    defer(clamped_backoff(fallback_streak_ + floor_failures_));
    transition(link_state::backoff);
  }
}

void link_supervisor::report_result(bool success) {
  consecutive_failures_ = success ? 0 : consecutive_failures_ + 1;

  if (success) {
    if (state_ != link_state::healthy) {
      ++stats_.recoveries;
      obs::count(collector_, obs::probe::arq_recoveries);
    }
    transition(link_state::healthy);
    retries_used_ = 0;
    retry_pending_ = false;
    fallback_streak_ = 0;
    floor_failures_ = 0;
    ++success_streak_;
    if (success_streak_ >= config_.probe_up_after) {
      pre_probe_rate_ = rate_;
      if (probe_up_rate(rate_)) {
        ++stats_.probe_ups;
        obs::count(collector_, obs::probe::arq_probe_ups);
        transition(link_state::probing);
      }
      success_streak_ = 0;
    }
    return;
  }

  success_streak_ = 0;
  if (state_ == link_state::probing) {
    // First failure after a probe-up: revert immediately, no retry burn.
    rate_ = pre_probe_rate_;
    ++stats_.fallbacks;
    obs::count(collector_, obs::probe::arq_fallbacks);
    transition(link_state::healthy);
    return;
  }

  if (retries_used_ < config_.max_retries) {
    ++retries_used_;
    ++stats_.retries;
    obs::count(collector_, obs::probe::arq_retries);
    retry_pending_ = true;
    transition(link_state::retrying);
    return;
  }

  // Transaction failed outright (retries exhausted). The consecutive-
  // failure count is now >= fallback_after by construction; honour it
  // anyway so a reconfigured threshold behaves as documented.
  retries_used_ = 0;
  retry_pending_ = false;
  if (consecutive_failures_ >= config_.fallback_after)
    handle_transaction_failure();
}

void link_supervisor::report_symbol_result(bool delivered) {
  consecutive_failures_ = delivered ? 0 : consecutive_failures_ + 1;

  if (delivered) {
    ++coding_.symbols_delivered;
    obs::count(collector_, obs::probe::coding_symbols_delivered);
    erasure_streak_ = 0;
    if (state_ != link_state::healthy) {
      ++stats_.recoveries;
      obs::count(collector_, obs::probe::arq_recoveries);
    }
    transition(link_state::healthy);
    return;
  }

  ++coding_.symbols_erased;
  obs::count(collector_, obs::probe::coding_symbols_erased);
  ++erasure_streak_;
  if (erasure_streak_ >= config_.erasure_backoff_after) {
    // Erasures this long look like an OFF burst, not noise the code can
    // absorb: skip a fixed handful of polls instead of climbing the
    // exponential ladder (the operating point is not at fault).
    erasure_streak_ = 0;
    ++coding_.erasure_backoffs;
    obs::count(collector_, obs::probe::coding_erasure_backoffs);
    defer(std::min(config_.erasure_backoff, config_.backoff_cap));
    transition(link_state::backoff);
  }
}

coded_directive link_supervisor::report_block_outcome(
    phy::block_status status) {
  switch (status) {
    case phy::block_status::decoded:
      ++coding_.blocks_decoded;
      obs::count(collector_, obs::probe::coding_blocks_decoded);
      repair_rounds_used_ = 0;
      return coded_directive::continue_stream;
    case phy::block_status::pending:
      if (repair_rounds_used_ < config_.max_repair_rounds) {
        ++repair_rounds_used_;
        ++coding_.repair_rounds;
        obs::count(collector_, obs::probe::coding_repair_rounds);
        return coded_directive::send_repair;
      }
      break;
    case phy::block_status::unrecoverable:
      break;
  }
  ++coding_.blocks_abandoned;
  obs::count(collector_, obs::probe::coding_blocks_abandoned);
  repair_rounds_used_ = 0;
  return coded_directive::abandon_block;
}

}  // namespace backfi::mac
