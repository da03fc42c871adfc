// Robustness campaign harness: sweep every fault injector against the
// recovery stack and measure goodput under impairment.
//
// Each campaign cell runs the same single-tag polling loop twice:
//   baseline  — polls every opportunity at the starting operating point:
//               no retries, no backoff, no fallback (the pipeline as the
//               clean-simulation benches drive it);
//   recovery  — mac::link_supervisor ARQ: bounded immediate retries,
//               exponential poll backoff, rate fallback and probe-up.
// The pair of goodput curves (per fault class, over severity) is the
// graceful-degradation evidence: recovery must keep non-zero goodput and
// reach its first success within a bounded number of polls where the
// baseline collapses.
#pragma once

#include <cstdint>
#include <vector>

#include "impair/plan.h"
#include "mac/link_supervisor.h"
#include "sim/backscatter_sim.h"

namespace backfi::sim {

struct campaign_config {
  scenario_config link;  ///< shared link/excitation parameters
  /// Operating point both arms start from (the baseline never leaves it).
  static constexpr tag::tag_rate_config start_rate = {
      tag::tag_modulation::qpsk, phy::code_rate::half, 2e6};
  double distance_m = 1.5;
  std::size_t opportunities = 40;  ///< polls per arm
  std::size_t payload_bits = 256;
  std::vector<impair::fault_class> faults;  ///< empty = all classes
  std::vector<double> severities = {0.0, 0.5, 1.0};
  mac::arq_config arq;
  std::uint64_t seed = 1;
};

/// One polling-loop run (one arm of one cell).
struct campaign_run {
  double goodput_bps = 0.0;     ///< delivered bits / (polls * poll airtime)
  double success_rate = 0.0;    ///< successful polls / polls issued
  /// Poll index of the first delivered packet; == opportunities when the
  /// arm never succeeded (the "bounded recovery" criterion).
  std::size_t first_success_poll = 0;
  std::size_t polls_issued = 0;   ///< excludes backed-off (idle) slots
  std::size_t retries = 0;        ///< ARQ re-polls (recovery arm only)
  std::size_t fallbacks = 0;      ///< rate steps down
  std::size_t probe_ups = 0;      ///< rate steps up
  tag::tag_rate_config final_rate;
};

struct campaign_cell {
  impair::fault_class fault = impair::fault_class::none;
  double severity = 0.0;
  campaign_run baseline;
  campaign_run recovery;
};

struct campaign_result {
  std::vector<campaign_cell> cells;
};

/// The hardened receive chain the supervised arms run: `chain` with the
/// widely-linear + DC-removing digital stage and residual-gain tracking.
fd::receive_chain_config hardened_chain(fd::receive_chain_config chain);

/// One poll of a single-tag arm (the fault campaign's and the wild-traffic
/// evaluator's): a trial of `base` at `rate` and `distance_m` under `plan`
/// with the caller's receive chain, seeded derive_trial_seed(seed, poll).
/// Returns the payload bits delivered intact (CRC ok and no bit errors),
/// 0 when the poll failed.
std::size_t run_poll_trial(const scenario_config& base,
                           const tag::tag_rate_config& rate,
                           double distance_m,
                           const impair::impairment_plan& plan,
                           const fd::receive_chain_config& chain,
                           std::uint64_t seed, std::size_t poll);

/// Run one arm: `recovery` selects the supervised loop.
campaign_run run_campaign_arm(const campaign_config& config,
                              impair::fault_class fault, double severity,
                              bool recovery);

/// Full sweep: every configured fault class at every severity, both arms.
campaign_result run_fault_campaign(const campaign_config& config);

}  // namespace backfi::sim
