#include "mac/link_supervisor.h"

#include <algorithm>
#include <stdexcept>

#include "obs/collector.h"

namespace backfi::mac {

const char* to_string(coded_directive directive) {
  switch (directive) {
    case coded_directive::continue_stream: return "continue_stream";
    case coded_directive::send_repair: return "send_repair";
    case coded_directive::abandon_block: return "abandon_block";
  }
  return "unknown";
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

link_supervisor::link_supervisor(tag_scheduler& scheduler,
                                 const arq_config& config,
                                 obs::collector* collector)
    : scheduler_(scheduler), config_(config), collector_(collector) {
  // The supervisor owns rate control; the scheduler only keeps the books.
  scheduler_.set_auto_rate_fallback(false);
  for (const std::uint32_t id : scheduler_.tag_ids()) {
    tag_record record;
    record.id = id;
    records_.push_back(record);
  }
}

link_supervisor::tag_record& link_supervisor::record_of(std::uint32_t id) {
  for (auto& r : records_)
    if (r.id == id) return r;
  throw std::out_of_range("link_supervisor: unsupervised tag id");
}

void link_supervisor::transition(tag_record& r, link_state next) {
  if (r.state == next) return;
  r.state = next;
  obs::count(collector_, obs::probe::arq_state_transitions);
}

const link_supervisor::tag_record& link_supervisor::record_of(
    std::uint32_t id) const {
  for (const auto& r : records_)
    if (r.id == id) return r;
  throw std::out_of_range("link_supervisor: unsupervised tag id");
}

std::optional<std::uint32_t> link_supervisor::next() {
  // Pending ARQ retries first, rotating fairly among them. A retry still
  // consumes the opportunity, so the scheduler's clock must advance (the
  // other tags' backoff windows keep draining).
  for (std::size_t step = 0; step < records_.size(); ++step) {
    auto& r = records_[(retry_cursor_ + step) % records_.size()];
    if (r.retry_pending) {
      retry_cursor_ = (retry_cursor_ + step + 1) % records_.size();
      scheduler_.advance_opportunity();
      return r.id;
    }
  }
  const auto chosen = scheduler_.next();
  // Every tag still inside its backoff window spent this opportunity
  // deferred — including the case where nobody was pollable at all (a
  // single supervised tag backing off idles the whole slot).
  for (auto& r : records_) {
    if ((!chosen || r.id != *chosen) && scheduler_.is_deferred(r.id)) {
      ++r.stats.deferred_polls;
      obs::count(collector_, obs::probe::arq_deferred_polls);
    }
  }
  return chosen;
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

void link_supervisor::handle_transaction_failure(tag_record& r) {
  tag::tag_rate_config rate = scheduler_.descriptor(r.id).rate;
  if (fallback_rate(rate)) {
    scheduler_.set_rate(r.id, rate);
    ++r.stats.fallbacks;
    obs::count(collector_, obs::probe::arq_fallbacks);
    ++r.fallback_streak;
    scheduler_.defer(r.id, clamped_backoff(r.fallback_streak));
    transition(r, link_state::backoff);
    return;
  }
  // Already at the robust floor: count dead cycles toward suspension.
  ++r.floor_failures;
  if (r.floor_failures >= config_.suspend_after) {
    if (r.state != link_state::suspended) {
      ++r.stats.suspensions;
      obs::count(collector_, obs::probe::arq_suspensions);
    }
    transition(r, link_state::suspended);
    scheduler_.defer(r.id, config_.suspend_poll_interval);
  } else {
    scheduler_.defer(r.id,
                     clamped_backoff(r.fallback_streak + r.floor_failures));
    transition(r, link_state::backoff);
  }
}

void link_supervisor::report_result(std::uint32_t id, bool success,
                                    double delivered_bits) {
  tag_record& r = record_of(id);
  scheduler_.report_result(id, success, delivered_bits);

  if (success) {
    if (r.state != link_state::healthy) {
      ++r.stats.recoveries;
      obs::count(collector_, obs::probe::arq_recoveries);
    }
    transition(r, link_state::healthy);
    r.retries_used = 0;
    r.retry_pending = false;
    r.fallback_streak = 0;
    r.floor_failures = 0;
    ++r.success_streak;
    if (r.success_streak >= config_.probe_up_after) {
      tag::tag_rate_config rate = scheduler_.descriptor(id).rate;
      r.pre_probe_rate = rate;
      if (probe_up_rate(rate)) {
        scheduler_.set_rate(id, rate);
        ++r.stats.probe_ups;
        obs::count(collector_, obs::probe::arq_probe_ups);
        transition(r, link_state::probing);
      }
      r.success_streak = 0;
    }
    return;
  }

  r.success_streak = 0;
  if (r.state == link_state::probing) {
    // First failure after a probe-up: revert immediately, no retry burn.
    scheduler_.set_rate(id, r.pre_probe_rate);
    ++r.stats.fallbacks;
    obs::count(collector_, obs::probe::arq_fallbacks);
    transition(r, link_state::healthy);
    return;
  }

  if (r.retries_used < config_.max_retries) {
    ++r.retries_used;
    ++r.stats.retries;
    obs::count(collector_, obs::probe::arq_retries);
    r.retry_pending = true;
    transition(r, link_state::retrying);
    return;
  }

  // Transaction failed outright (retries exhausted). The scheduler's
  // consecutive-failure counter is now >= fallback_after by construction;
  // honour it anyway so a reconfigured threshold behaves as documented.
  r.retries_used = 0;
  r.retry_pending = false;
  if (scheduler_.stats(id).consecutive_failures >=
      static_cast<double>(config_.fallback_after))
    handle_transaction_failure(r);
}

void link_supervisor::report_symbol_result(std::uint32_t id, bool delivered,
                                           double delivered_bits) {
  tag_record& r = record_of(id);
  scheduler_.report_result(id, delivered, delivered_bits);

  if (delivered) {
    ++r.coding.symbols_delivered;
    obs::count(collector_, obs::probe::coding_symbols_delivered);
    r.erasure_streak = 0;
    if (r.state != link_state::healthy) {
      ++r.stats.recoveries;
      obs::count(collector_, obs::probe::arq_recoveries);
    }
    transition(r, link_state::healthy);
    return;
  }

  ++r.coding.symbols_erased;
  obs::count(collector_, obs::probe::coding_symbols_erased);
  ++r.erasure_streak;
  if (r.erasure_streak >= config_.erasure_backoff_after) {
    // Erasures this long look like an OFF burst, not noise the code can
    // absorb: skip a fixed handful of polls instead of climbing the
    // exponential ladder (the operating point is not at fault).
    r.erasure_streak = 0;
    ++r.coding.erasure_backoffs;
    obs::count(collector_, obs::probe::coding_erasure_backoffs);
    scheduler_.defer(r.id,
                     std::min(config_.erasure_backoff, config_.backoff_cap));
    transition(r, link_state::backoff);
  }
}

coded_directive link_supervisor::report_block_outcome(std::uint32_t id,
                                                      phy::block_status status) {
  tag_record& r = record_of(id);
  switch (status) {
    case phy::block_status::decoded:
      ++r.coding.blocks_decoded;
      obs::count(collector_, obs::probe::coding_blocks_decoded);
      r.repair_rounds_used = 0;
      return coded_directive::continue_stream;
    case phy::block_status::pending:
      if (r.repair_rounds_used < config_.max_repair_rounds) {
        ++r.repair_rounds_used;
        ++r.coding.repair_rounds;
        obs::count(collector_, obs::probe::coding_repair_rounds);
        return coded_directive::send_repair;
      }
      break;
    case phy::block_status::unrecoverable:
      break;
  }
  ++r.coding.blocks_abandoned;
  obs::count(collector_, obs::probe::coding_blocks_abandoned);
  r.repair_rounds_used = 0;
  return coded_directive::abandon_block;
}

link_state link_supervisor::state(std::uint32_t id) const {
  return record_of(id).state;
}

const supervision_stats& link_supervisor::stats(std::uint32_t id) const {
  return record_of(id).stats;
}

const coding_stats& link_supervisor::coding(std::uint32_t id) const {
  return record_of(id).coding;
}

}  // namespace backfi::mac
