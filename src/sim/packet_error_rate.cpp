// The Monte-Carlo PER engine: every packet-error-rate evaluation in the
// simulator (packet_error_rate, evaluate_link, find_max_goodput) runs its
// trials through packet_error_rates below.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/backscatter_sim.h"
#include "sim/scheduler.h"

namespace backfi::sim {

double wilson_halfwidth(int failures, int trials, double z) {
  if (trials <= 0) return 1.0;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(failures) / n;
  const double z2 = z * z;
  return (z / (1.0 + z2 / n)) *
         std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
}

std::vector<per_estimate> packet_error_rates(
    std::span<const scenario_config> configs, const per_options& options,
    obs::collector* collector) {
  for (const scenario_config& config : configs)
    validate_or_throw(config, "packet_error_rates");
  std::vector<per_estimate> out(configs.size());
  if (configs.empty() || options.max_trials <= 0) return out;
  const int max_trials = options.max_trials;
  const int min_trials = std::clamp(options.min_trials, 1, max_trials);
  const bool adaptive = options.target_ci_halfwidth > 0.0;
  // Without a target every point's whole budget is one round: a single
  // sweep over the (point, trial) grid.
  const int batch = adaptive ? per_options::batch : max_trials;

  // Round loop: every live point contributes its next `batch` trial
  // indices to one flattened sweep, then the stopping rule replays the
  // committed outcome prefix of each point in index order. Each trial's
  // seed is derive_trial_seed(point seed, trial) and each trial writes only
  // its own slot, and the round composition is a pure function of
  // (configs, options) and those deterministic outcomes, so every quantity
  // below — including the (point, trial) telemetry merge order and the
  // sim.scheduler.* counters — is independent of the thread count.
  struct round_task {
    std::size_t point;
    int trial;
  };
  std::vector<std::uint8_t> live(configs.size(), 1);
  std::vector<round_task> round;
  std::vector<std::uint8_t> failed;
  for (;;) {
    round.clear();
    for (std::size_t p = 0; p < configs.size(); ++p) {
      if (!live[p]) continue;
      const int end = std::min(out[p].trials_run + batch, max_trials);
      for (int t = out[p].trials_run; t < end; ++t) round.push_back({p, t});
    }
    if (round.empty()) break;
    obs::collector_fork fork(collector, round.size());
    failed.assign(round.size(), 0);
    const sweep_stats stats = sweep_for_ranges(
        round.size(), [&](std::size_t begin, std::size_t end) {
          // Rounds are laid out point-major, so a chunk is almost always
          // same-point trials: the lane's scenario copy is re-made only at
          // point boundaries, and only the per-trial seed and collector
          // change in between.
          thread_local scenario_config scratch;
          std::size_t loaded = static_cast<std::size_t>(-1);
          for (std::size_t k = begin; k < end; ++k) {
            const round_task task = round[k];
            if (task.point != loaded) {
              scratch = configs[task.point];
              loaded = task.point;
            }
            scratch.seed = derive_trial_seed(
                configs[task.point].seed, static_cast<std::uint64_t>(task.trial));
            scratch.collector = fork.child(k);
            const trial_result r = run_backscatter_trial(scratch);
            failed[k] = (!r.crc_ok || r.bit_errors != 0) ? 1 : 0;
          }
        });
    fork.join();
    report_sweep_stats(collector, stats);
    // Commit the round in (point, trial) order, then apply the stopping
    // rule at the new batch boundary of every live point.
    for (std::size_t k = 0; k < round.size(); ++k) {
      per_estimate& e = out[round[k].point];
      e.failures += failed[k];
      ++e.trials_run;
    }
    for (std::size_t p = 0; p < configs.size(); ++p) {
      if (!live[p]) continue;
      per_estimate& e = out[p];
      e.ci_halfwidth =
          wilson_halfwidth(e.failures, e.trials_run, per_options::z);
      if (adaptive && e.trials_run >= min_trials && e.trials_run < max_trials &&
          e.ci_halfwidth <= options.target_ci_halfwidth) {
        e.early_stopped = true;
        live[p] = 0;
      } else if (e.trials_run >= max_trials) {
        live[p] = 0;
      }
    }
  }
  std::uint64_t trials_run = 0, trials_saved = 0, early_stops = 0;
  for (per_estimate& e : out) {
    e.per = static_cast<double>(e.failures) / static_cast<double>(e.trials_run);
    trials_run += static_cast<std::uint64_t>(e.trials_run);
    trials_saved += static_cast<std::uint64_t>(max_trials - e.trials_run);
    early_stops += e.early_stopped ? 1 : 0;
  }
  if (adaptive && collector) {
    collector->count(obs::probe::adaptive_points, configs.size());
    collector->count(obs::probe::adaptive_trials_run, trials_run);
    collector->count(obs::probe::adaptive_trials_saved, trials_saved);
    collector->count(obs::probe::adaptive_early_stops, early_stops);
  }
  return out;
}

per_estimate packet_error_rate(const scenario_config& config,
                               const per_options& options) {
  return packet_error_rates(std::span(&config, 1), options,
                            config.collector)[0];
}

double packet_error_rate(const scenario_config& config, int trials) {
  return packet_error_rate(config, per_options{.max_trials = trials}).per;
}

}  // namespace backfi::sim
