// Wild-traffic sustainability evaluator: how much goodput each erasure
// scheme sustains when the ambient excitation itself comes and goes in
// bursts (GuardRider-style ON/OFF air, on top of the PR 1 fault classes).
//
// Each cell of the (scheme x duty-cycle) grid runs the same supervised
// single-tag polling loop over a burst-gated link:
//   none          — plain packet-level ARQ through mac::link_supervisor's
//                   retry/fallback/backoff/suspend ladder (the PR 4 wild
//                   baseline). Without a coding layer the reader's
//                   feedback is one CRC per packet, so the source block
//                   travels as ONE long packet spanning k symbol-slots of
//                   airtime: the burst must stay ON across the whole
//                   window or the transmission is lost and retried from
//                   scratch, and the failures walk the tag down the rate
//                   ladder into suspension.
//   reed_solomon  — tag::packet_coder stripes RS-coded symbols; erasures
//                   feed report_symbol_result (no rate fallback) and ARQ
//                   degrades to "request more repair symbols".
//   fountain      — same loop with rateless LT symbols; repair never runs
//                   out of ESIs.
// The reader side reassembles through reader::block_collector; only fully
// decoded source blocks count toward goodput (no partial credit).
#pragma once

#include <cstdint>
#include <vector>

#include "impair/plan.h"
#include "mac/link_supervisor.h"
#include "phy/erasure_code.h"
#include "sim/backscatter_sim.h"

namespace backfi::sim {

struct wild_traffic_config {
  scenario_config link;  ///< shared link/excitation parameters
  /// Operating point every arm starts from.
  tag::tag_rate_config start_rate = {tag::tag_modulation::qpsk,
                                     phy::code_rate::half, 2e6};
  double distance_m = 1.5;
  std::size_t opportunities = 64;  ///< polls per arm
  /// Code geometry shared by every arm (scheme and seed are overridden
  /// per arm so the grid stays trial-independent).
  phy::erasure_spec coding;
  std::vector<phy::erasure_scheme> schemes = {
      phy::erasure_scheme::none, phy::erasure_scheme::reed_solomon,
      phy::erasure_scheme::fountain};
  mac::arq_config arq;
  /// Mean ON-burst length in polls; OFF bursts follow from the duty cycle.
  /// Short bursts relative to block_symbols are the interesting regime:
  /// whole-block packets need the air ON for k consecutive slots.
  double mean_burst_polls = 2.5;
  /// Burst duty-cycle grid, each in (0, 1]; 1.0 = clean air.
  std::vector<double> duty_cycles = {1.0, 0.85, 0.75, 0.65, 0.5};
  std::size_t trials = 2;  ///< independent burst/noise draws per cell
  /// Fault injected on top of the bursts (PR 1 campaign classes).
  impair::fault_class fault = impair::fault_class::none;
  double severity = 0.0;
  std::uint64_t seed = 1;
};

/// One polling-loop run (one trial of one cell), or a mean over trials.
struct wild_run {
  /// Decoded source bits / (opportunities * nominal poll airtime) — the
  /// same fixed denominator as the fault campaign, so arms compare.
  double goodput_bps = 0.0;
  double delivered_fraction = 0.0;  ///< delivered polls / polls issued
  double polls_issued = 0.0;        ///< excludes backed-off (idle) slots
  double blocks_decoded = 0.0;
  double blocks_abandoned = 0.0;
  double repair_symbols = 0.0;      ///< extra symbols granted on request
  /// Mean polls from a block's first symbol to its decode (decoded blocks
  /// only; 0 when nothing decoded).
  double block_latency_polls = 0.0;
};

struct wild_cell {
  phy::erasure_scheme scheme = phy::erasure_scheme::none;
  double duty_cycle = 1.0;
  wild_run mean;  ///< trial average, merged in trial order
};

struct wild_result {
  std::vector<wild_cell> cells;  ///< scheme-major, duty-cycle-minor
};

/// Run one arm (one trial of one cell). `arm_seed` drives the burst
/// schedule, the per-poll PHY seeds and the fountain neighbour streams.
/// Throws std::invalid_argument (from mac::generate_burst_schedule) for a
/// non-positive mean_burst_polls or duty_cycle.
wild_run run_wild_arm(const wild_traffic_config& config,
                      phy::erasure_scheme scheme, double duty_cycle,
                      std::uint64_t arm_seed);

/// Full sweep: every scheme at every duty cycle, `trials` runs each,
/// flattened through the sweep scheduler (bit-identical results and
/// telemetry at any BACKFI_THREADS). Throws std::invalid_argument for
/// degenerate configs: zero trials/opportunities, empty scheme or duty
/// grids, duty cycles outside (0, 1], non-positive burst length, and any
/// scenario_config or code-geometry violation.
wild_result run_wild_traffic(const wild_traffic_config& config);

}  // namespace backfi::sim
