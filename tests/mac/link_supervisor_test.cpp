#include "mac/link_supervisor.h"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <memory>
#include <string>

namespace backfi::mac {
namespace {

const tag::tag_rate_config kStartRate = {tag::tag_modulation::qpsk,
                                         phy::code_rate::half, 1e6};

struct harness {
  arq_config config;
  std::unique_ptr<link_supervisor> supervisor;

  explicit harness(const arq_config& cfg = {}) : config(cfg) {
    supervisor = std::make_unique<link_supervisor>(kStartRate, config);
  }

  /// One opportunity: poll if the supervisor grants one, report `ok`.
  /// Returns whether a poll was issued (false = backed-off idle slot).
  bool step(bool ok) {
    if (!supervisor->next()) return false;
    supervisor->report_result(ok);
    return true;
  }

  /// One opportunity of an outcome pattern: 'o' a delivered poll, 'f' a
  /// failed poll, 'e' an erased coded symbol. Returns whether a poll was
  /// issued; an idle slot ignores the outcome.
  bool step_outcome(char outcome) {
    if (!supervisor->next()) return false;
    if (outcome == 'e')
      supervisor->report_symbol_result(false);
    else
      supervisor->report_result(outcome == 'o');
    return true;
  }

  const tag::tag_rate_config& rate() const { return supervisor->rate(); }
  link_state state() const { return supervisor->state(); }
  const supervision_stats& stats() const { return supervisor->stats(); }
  const coding_stats& coding() const { return supervisor->coding(); }
};

/// One character per field: modulation, coding, symbol-rate rung.
std::string rate_code(const tag::tag_rate_config& rate) {
  std::string code;
  switch (rate.modulation) {
    case tag::tag_modulation::bpsk: code += 'b'; break;
    case tag::tag_modulation::qpsk: code += 'q'; break;
    case tag::tag_modulation::psk8: code += '8'; break;
    case tag::tag_modulation::psk16: code += 'x'; break;
  }
  code += rate.coding == phy::code_rate::half ? 'h' : 't';
  constexpr double kRungs[] = {1e4, 1e5, 5e5, 1e6, 2e6, 2.5e6};
  char rung = '?';
  for (std::size_t i = 0; i < std::size(kRungs); ++i)
    if (rate.symbol_rate_hz == kRungs[i]) rung = static_cast<char>('0' + i);
  code += rung;
  return code;
}

TEST(LinkSupervisorTest, HealthyLinkPollsEveryOpportunity) {
  harness h;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(h.step(true));
  EXPECT_EQ(h.state(), link_state::healthy);
  EXPECT_EQ(h.stats().retries, 0u);
}

TEST(LinkSupervisorTest, FailureTriggersBoundedImmediateRetries) {
  harness h;
  EXPECT_TRUE(h.step(false));
  EXPECT_EQ(h.state(), link_state::retrying);
  // The retry succeeds: transaction recovered without touching the rate.
  EXPECT_TRUE(h.step(true));
  EXPECT_EQ(h.state(), link_state::healthy);
  EXPECT_EQ(h.stats().retries, 1u);
  EXPECT_EQ(h.rate().symbol_rate_hz,
            kStartRate.symbol_rate_hz);
}

TEST(LinkSupervisorTest, PersistentFailureFallsBackAndBacksOff) {
  harness h;
  for (int i = 0; i < 20; ++i) h.step(false);
  EXPECT_GT(h.stats().fallbacks, 0u);
  EXPECT_LT(h.rate().symbol_rate_hz,
            kStartRate.symbol_rate_hz);
  // Exponential backoff: some opportunities must have been idle slots.
  EXPECT_GT(h.stats().deferred_polls, 0u);
}

TEST(LinkSupervisorTest, RetriesPerTransactionAreBounded) {
  arq_config cfg;
  cfg.max_retries = 2;
  harness h(cfg);
  // Fail forever: each transaction may retry at most max_retries times, so
  // retries never exceed polls * max_retries / (max_retries + 1).
  std::size_t polls = 0;
  for (int i = 0; i < 30; ++i) polls += h.step(false) ? 1 : 0;
  const auto& stats = h.stats();
  EXPECT_LE(stats.retries, polls * cfg.max_retries / (cfg.max_retries + 1) + 1);
}

TEST(LinkSupervisorTest, HealthyStreakProbesUpAndRevertsOnFailure) {
  arq_config cfg;
  cfg.probe_up_after = 4;
  harness h(cfg);
  // Drive a fallback first so there is headroom to probe into.
  for (int i = 0; i < 12; ++i) h.step(false);
  const double fallen = h.rate().symbol_rate_hz;
  ASSERT_LT(fallen, kStartRate.symbol_rate_hz);
  // A healthy streak triggers a probe one step faster.
  int steps = 0;
  while (h.stats().probe_ups == 0 && steps < 64) {
    h.step(true);
    ++steps;
  }
  EXPECT_GT(h.stats().probe_ups, 0u);
  EXPECT_GT(h.rate().symbol_rate_hz, fallen);
  // First failure while probing reverts to the pre-probe point.
  if (h.state() == link_state::probing) {
    h.step(false);
    EXPECT_EQ(h.rate().symbol_rate_hz, fallen);
  }
}

TEST(LinkSupervisorTest, DeadLinkSuspendsWithKeepalive) {
  arq_config cfg;
  cfg.suspend_after = 2;
  cfg.suspend_poll_interval = 8;
  harness h(cfg);
  int issued = 0;
  for (int i = 0; i < 400; ++i) issued += h.step(false) ? 1 : 0;
  EXPECT_EQ(h.state(), link_state::suspended);
  EXPECT_GT(h.stats().suspensions, 0u);
  // Keepalive only: far fewer polls than opportunities.
  EXPECT_LT(issued, 200);

  // A keepalive success revives the tag.
  int guard = 0;
  while (!h.step(true) && guard < 64) ++guard;
  EXPECT_NE(h.state(), link_state::suspended);
  EXPECT_GT(h.stats().recoveries, 0u);
}

TEST(LinkSupervisorTest, FallbackStopsAtTheRobustFloor) {
  harness h;
  for (int i = 0; i < 600; ++i) h.step(false);
  const auto& rate = h.rate();
  tag::tag_rate_config floor_probe = rate;
  EXPECT_FALSE(fallback_rate(floor_probe));  // nothing more robust exists
}

TEST(LinkSupervisorTest, ClampedBackoffPinsTheLadder) {
  arq_config cfg;
  cfg.backoff_base = 2;
  cfg.backoff_cap = 16;
  harness h(cfg);
  const std::size_t expected[] = {2, 4, 8, 16, 16, 16};
  for (std::size_t streak = 1; streak <= 6; ++streak)
    EXPECT_EQ(h.supervisor->clamped_backoff(streak), expected[streak - 1])
        << streak;
}

TEST(LinkSupervisorTest, ClampedBackoffCannotOverflow) {
  arq_config cfg;
  // A base past SIZE_MAX >> 16 overflowed the old shift form and wrapped
  // the ladder around to tiny delays; the clamp must saturate at the cap.
  cfg.backoff_base = std::numeric_limits<std::size_t>::max() - 3;
  cfg.backoff_cap = std::numeric_limits<std::size_t>::max();
  harness h(cfg);
  for (std::size_t streak : {std::size_t{1}, std::size_t{17}, std::size_t{1000},
                             std::numeric_limits<std::size_t>::max()}) {
    const std::size_t backoff = h.supervisor->clamped_backoff(streak);
    EXPECT_GE(backoff, cfg.backoff_base) << streak;
    EXPECT_LE(backoff, cfg.backoff_cap) << streak;
  }
  // Degenerate zeros behave as ones rather than dividing by zero or
  // deferring forever on a zero ladder.
  arq_config zero;
  zero.backoff_base = 0;
  zero.backoff_cap = 0;
  harness hz(zero);
  EXPECT_EQ(hz.supervisor->clamped_backoff(1), 1u);
  EXPECT_EQ(hz.supervisor->clamped_backoff(9), 1u);
}

TEST(LinkSupervisorTest, SaturatedBackoffStillParksTheTag) {
  // Drive the huge-base ladder through a real transaction failure: the
  // defer must park the tag (saturating arithmetic end to end), not wrap
  // around and poll it again immediately.
  arq_config cfg;
  cfg.max_retries = 0;
  cfg.fallback_after = 1;
  cfg.backoff_base = std::numeric_limits<std::size_t>::max() - 3;
  cfg.backoff_cap = std::numeric_limits<std::size_t>::max();
  harness h(cfg);
  ASSERT_TRUE(h.step(false));  // fail -> fallback -> defer(~SIZE_MAX)
  EXPECT_EQ(h.state(), link_state::backoff);
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(h.step(true));
  EXPECT_GE(h.stats().deferred_polls, 32u);
}

TEST(LinkSupervisorTest, ErasuresNeverStepTheRateDown) {
  arq_config cfg;
  cfg.erasure_backoff_after = 4;
  cfg.erasure_backoff = 2;
  harness h(cfg);
  std::size_t polls = 0;
  for (int i = 0; i < 40; ++i) {
    if (!h.supervisor->next()) continue;
    ++polls;
    h.supervisor->report_symbol_result(false);
  }
  // The rate is untouched and no retries/fallbacks were burned...
  EXPECT_EQ(h.rate().symbol_rate_hz,
            kStartRate.symbol_rate_hz);
  EXPECT_EQ(h.stats().retries, 0u);
  EXPECT_EQ(h.stats().fallbacks, 0u);
  // ...but long erasure runs did defer polls in fixed-size steps.
  const auto& coding = h.coding();
  EXPECT_EQ(coding.symbols_erased, polls);
  EXPECT_GT(coding.erasure_backoffs, 0u);
  EXPECT_LT(polls, 40u);
  // A delivered symbol recovers the link immediately.
  int guard = 0;
  bool polled = false;
  while (!(polled = h.supervisor->next()) && guard < 16) ++guard;
  ASSERT_TRUE(polled);
  h.supervisor->report_symbol_result(true);
  EXPECT_EQ(h.state(), link_state::healthy);
  EXPECT_EQ(h.coding().symbols_delivered, 1u);
}

TEST(LinkSupervisorTest, BlockOutcomesFollowTheRepairBudget) {
  arq_config cfg;
  cfg.max_repair_rounds = 2;
  harness h(cfg);
  EXPECT_EQ(h.supervisor->report_block_outcome(phy::block_status::pending),
            coded_directive::send_repair);
  EXPECT_EQ(h.supervisor->report_block_outcome(phy::block_status::pending),
            coded_directive::send_repair);
  EXPECT_EQ(h.supervisor->report_block_outcome(phy::block_status::pending),
            coded_directive::abandon_block);
  const auto& coding = h.coding();
  EXPECT_EQ(coding.repair_rounds, 2u);
  EXPECT_EQ(coding.blocks_abandoned, 1u);
  // The budget resets per block: a decode clears it.
  EXPECT_EQ(h.supervisor->report_block_outcome(phy::block_status::decoded),
            coded_directive::continue_stream);
  EXPECT_EQ(h.supervisor->report_block_outcome(phy::block_status::pending),
            coded_directive::send_repair);
  // An unrecoverable verdict abandons unconditionally.
  EXPECT_EQ(h.supervisor->report_block_outcome(
                phy::block_status::unrecoverable),
            coded_directive::abandon_block);
  EXPECT_EQ(h.coding().blocks_decoded, 1u);
  EXPECT_EQ(h.coding().blocks_abandoned, 2u);
}

const char* const kExpectedTrace =
    "Phqh3Phqh3Phqh3Phqh3Ppqh4Phqh4Phqh4Phqh4Phqh4Ppqh5Phqh5Phqh5Prqh5Phqh5Phqh5Phqh5"
    "Phqh5Ppqt5Phqt5Phqt5Prqt5Pbqt4.bqt4.bqt4Phqt4Prqt4Pbqt3.bqt3.bqt3Prqt3Pbqt2.bqt2"
    ".bqt2.bqt2.bqt2Phqt2Phqt2Phqt2Phqt2Ppqt3Phqt3Phqt3Phqt3Phqt3Ppqt4Phqt4Phqt4Phqt4"
    "Phqt4Phqt4Pbqt4.bqt4.bqt4.bqt4Pbqt4Pbqt4Pbqt4.bqt4.bqt4.bqt4Phqt4Ppqt5Phqt4Prqt4"
    "Pbqt3.bqt3.bqt3Prqt3Pbqt2.bqt2.bqt2.bqt2.bqt2Prqt2Pbqt1.bqt1.bqt1.bqt1.bqt1Prqt1"
    "Pbqt0.bqt0.bqt0.bqt0.bqt0Prqt0Pbqh5.bqh5.bqh5.bqh5.bqh5Prqh5Pbqh4.bqh4.bqh4.bqh4"
    ".bqh4Prqh4Pbqh3.bqh3.bqh3.bqh3.bqh3Prqh3Pbqh2.bqh2.bqh2.bqh2.bqh2Prqh2Pbqh1.bqh1"
    ".bqh1.bqh1.bqh1Prqh1Pbqh0.bqh0.bqh0.bqh0.bqh0Prqh0Pbbh5.bbh5.bbh5.bbh5.bbh5Prbh5"
    "Pbbh4.bbh4.bbh4.bbh4.bbh4Prbh4Pbbh3.bbh3.bbh3.bbh3.bbh3Prbh3Pbbh2.bbh2.bbh2.bbh2"
    ".bbh2Prbh2Pbbh1.bbh1.bbh1.bbh1.bbh1Prbh1Pbbh0.bbh0.bbh0.bbh0.bbh0Prbh0Pbbh0.bbh0"
    ".bbh0.bbh0.bbh0Prbh0Psbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0Prbh0Psbh0.sbh0"
    ".sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0Prbh0Psbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0"
    ".sbh0Prbh0Psbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0Prbh0Psbh0.sbh0.sbh0.sbh0"
    ".sbh0.sbh0.sbh0.sbh0.sbh0Phbh0Phbh0Phbh0Phbh0Ppbh1Phbh1Phbh1Phbh1Phbh1Ppbh2Phbh2"
    "Phbh2Phbh2Phbh2Ppbh3Phbh3Phbh3Phbh3Phbh3Phbh3Phbh3Pbbh3.bbh3.bbh3.bbh3Pbbh3Prbh3"
    "Pbbh2.bbh2.bbh2Prbh2Phbh2Phbh2Phbh2Phbh2Ppbh3Phbh3Phbh3Phbh3Phbh3Phbh3Pbbh3.bbh3"
    ".bbh3.bbh3Prbh3Pbbh2.bbh2.bbh2Prbh2Pbbh1.bbh1.bbh1.bbh1.bbh1Prbh1Pbbh0.bbh0.bbh0"
    ".bbh0.bbh0Prbh0Pbbh0.bbh0.bbh0.bbh0.bbh0Prbh0Psbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0"
    ".sbh0.sbh0Phbh0Phbh0Phbh0Phbh0Ppbh1Phbh1Phbh1Phbh1Phbh1Ppbh2Phbh2Phbh2Phbh2Prbh2"
    "Phbh2Phbh2Phbh2Phbh2Ppbh3Phbh3Phbh3Prbh3Pbbh2.bbh2.bbh2Phbh2Prbh2Pbbh1.bbh1.bbh1"
    "Prbh1Pbbh0.bbh0.bbh0.bbh0.bbh0Phbh0Phbh0Phbh0Phbh0Ppbh1Phbh1Phbh1Phbh1Phbh1Ppbh2"
    "Phbh2Phbh2Phbh2Phbh2Phbh2Pbbh2.bbh2.bbh2.bbh2Pbbh2Pbbh2Pbbh2.bbh2.bbh2.bbh2Phbh2"
    "Ppbh3Phbh2Prbh2Pbbh1.bbh1.bbh1Prbh1Pbbh0.bbh0.bbh0.bbh0.bbh0Prbh0Pbbh0.bbh0.bbh0"
    ".bbh0.bbh0Prbh0Psbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0Prbh0Psbh0.sbh0.sbh0"
    ".sbh0.sbh0.sbh0.sbh0.sbh0.sbh0Prbh0Psbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0.sbh0";

// A fixed 400-opportunity outcome pattern walks the whole ladder: probe-
// ups and a probe revert from a healthy start, retries, rate fallback with
// exponential backoff, suspension with keepalive polls at the robust
// floor, a revival, and erasure backoffs. Each opportunity is pinned as
// five characters: 'P' poll or '.' idle, the state's initial, and the
// rate code after the step (modulation, coding, symbol-rate rung).
TEST(LinkSupervisorTest, DecisionTracePinned) {
  arq_config cfg;
  cfg.max_retries = 1;
  cfg.backoff_cap = 4;
  cfg.probe_up_after = 5;
  cfg.suspend_after = 2;
  cfg.suspend_poll_interval = 8;
  cfg.erasure_backoff_after = 3;
  cfg.erasure_backoff = 3;
  harness h(cfg);
  // (outcome, opportunities) runs, repeated until 400 opportunities.
  const std::pair<char, int> runs[] = {
      {'o', 12}, {'f', 1}, {'o', 7},  {'f', 2},  {'o', 3},  {'f', 9},
      {'o', 14}, {'e', 10}, {'o', 4}, {'f', 150}, {'o', 20}, {'e', 7},
      {'f', 5},  {'o', 9},  {'e', 2}, {'f', 30},  {'o', 6}};
  std::string pattern;
  while (pattern.size() < 400)
    for (const auto& [outcome, n] : runs) pattern.append(n, outcome);
  pattern.resize(400);

  std::string trace;
  for (const char outcome : pattern) {
    trace += h.step_outcome(outcome) ? 'P' : '.';
    trace += to_string(h.state())[0];
    trace += rate_code(h.rate());
  }
  const std::string expected = kExpectedTrace;
  ASSERT_EQ(trace.size(), expected.size());
  for (std::size_t step = 0; step < trace.size() / 5; ++step)
    EXPECT_EQ(trace.substr(5 * step, 5), expected.substr(5 * step, 5))
        << "opportunity " << step << " (outcome " << pattern[step] << ")";
  // The last idle slot of each backoff window is not a deferred poll:
  // the window ends on it, so deferred_polls trails the idle count.
  const supervision_stats& stats = h.stats();
  EXPECT_EQ(stats.retries, 43u);
  EXPECT_EQ(stats.fallbacks, 30u);
  EXPECT_EQ(stats.probe_ups, 16u);
  EXPECT_EQ(stats.deferred_polls, 152u);
  EXPECT_EQ(stats.suspensions, 9u);
  EXPECT_EQ(stats.recoveries, 25u);
  EXPECT_EQ(h.coding().symbols_erased, 18u);
  EXPECT_EQ(h.coding().erasure_backoffs, 6u);
}

TEST(FallbackRateTest, WalksDownToMostRobustPoint) {
  tag::tag_rate_config rate{tag::tag_modulation::psk16,
                            phy::code_rate::two_thirds, 2.5e6};
  int steps = 0;
  while (fallback_rate(rate) && steps < 100) ++steps;
  EXPECT_EQ(rate.modulation, tag::tag_modulation::bpsk);
  EXPECT_EQ(rate.coding, phy::code_rate::half);
  EXPECT_DOUBLE_EQ(rate.symbol_rate_hz, 1e4);
  EXPECT_GT(steps, 5);
  EXPECT_FALSE(fallback_rate(rate));
}

TEST(FallbackRateTest, FirstStepSlowsSymbolClock) {
  tag::tag_rate_config rate{tag::tag_modulation::qpsk, phy::code_rate::half,
                            1e6};
  ASSERT_TRUE(fallback_rate(rate));
  EXPECT_EQ(rate.modulation, tag::tag_modulation::qpsk);
  EXPECT_DOUBLE_EQ(rate.symbol_rate_hz, 5e5);
}

}  // namespace
}  // namespace backfi::mac
