// Rate adaptation over the tag's operating points (paper Section 6.1):
// enumerate every (modulation, coding rate, symbol rate) combination,
// evaluate which ones decode at a given range, and pick either the
// maximum-throughput point (Fig. 8) or the minimum-REPB point achieving a
// target throughput (Figs. 9/10) — "the rate adaptation algorithm would
// always pick the combination with the lowest REPB since the most
// precious resource here is energy".
#pragma once

#include <optional>
#include <vector>

#include "sim/backscatter_sim.h"
#include "tag/energy_model.h"

namespace backfi::sim {

/// One tag operating point with its energy/throughput figures.
struct operating_point {
  tag::tag_rate_config rate;
  double throughput_bps = 0.0;
  double repb = 0.0;
};

/// All 36 operating points of Fig. 7 (3 modulations x 2 code rates x 6
/// symbol rates), throughput-ascending.
std::vector<operating_point> all_operating_points();

/// Link evaluation of one operating point at one placement.
struct link_evaluation {
  operating_point point;
  double packet_error_rate = 1.0;
  /// Effective rate including retransmissions: throughput * (1 - PER).
  double goodput_bps = 0.0;
  bool usable = false;
};

/// Build a scenario for one operating point: scales the sync word and the
/// excitation burst length so the packet fits the symbol rate, and bounds
/// the payload to what the paper's ~1000-bit tag packets carry.
scenario_config scenario_for_point(const scenario_config& base,
                                   const tag::tag_rate_config& rate,
                                   double distance_m);

/// Evaluate every operating point at `distance_m` with `trials` packets
/// each; a point is usable when its PER is at most `per_threshold`. The
/// whole (point x trial) grid is one packet_error_rates call — one
/// flattened sweep-scheduler pool with no per-point barrier — so results
/// and merged telemetry are identical at any BACKFI_THREADS.
std::vector<link_evaluation> evaluate_link(const scenario_config& base,
                                           double distance_m, int trials,
                                           double per_threshold = 0.5);

/// As above with explicit per_options (e.g. the early-stopping Wilson-CI
/// rule, see backscatter_sim.h). Deterministic given (base, distance_m,
/// options) — independent of the thread count.
std::vector<link_evaluation> evaluate_link(const scenario_config& base,
                                           double distance_m,
                                           const per_options& options,
                                           double per_threshold = 0.5);

/// The point with the highest goodput (Fig. 8); empty when nothing ever
/// decodes. Returns the evaluation so the caller sees PER and goodput.
std::optional<link_evaluation> max_goodput_point(
    const std::vector<link_evaluation>& evaluations);

/// Fast path for throughput-vs-range sweeps: evaluates points in
/// descending nominal throughput, one at a time with every lane on that
/// point's trials, and stops at the first point that cannot beat the best
/// goodput found so far even at zero PER. The chosen point and the merged
/// telemetry (examined points only) are identical at any BACKFI_THREADS.
std::optional<link_evaluation> find_max_goodput(const scenario_config& base,
                                                double distance_m, int trials);

/// As above with explicit per_options: with a CI target, confidently bad
/// (or confidently good) points stop sampling early.
std::optional<link_evaluation> find_max_goodput(const scenario_config& base,
                                                double distance_m,
                                                const per_options& options);

/// Minimum-REPB usable point with throughput >= target (Figs. 9/10).
std::optional<operating_point> min_repb_point_for_throughput(
    const std::vector<link_evaluation>& evaluations, double target_bps);

}  // namespace backfi::sim
