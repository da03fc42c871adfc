#include "sim/fault_campaign.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "reader/excitation.h"
#include "obs/collector.h"
#include "sim/parallel.h"
#include "sim/rate_adaptation.h"
#include "sim/scheduler.h"

namespace backfi::sim {

namespace {

// Reject degenerate campaigns up front, on the caller's thread: the
// payload override bypasses the scenario's own zero_payload check, zero
// opportunities would divide goodput by zero, and an empty severity grid
// silently returns an empty result a plot script then misreads as "no
// regressions". Same message shape as validate_or_throw.
void validate_campaign_or_throw(const campaign_config& config,
                                const char* where) {
  scenario_config effective = config.link;
  effective.payload_bits = config.payload_bits;
  validate_or_throw(effective, where);
  const auto fail = [&](const char* what) {
    throw std::invalid_argument(std::string(where) +
                                ": invalid campaign_config (" + what + ")");
  };
  if (config.opportunities == 0) fail("zero_opportunities");
  if (config.severities.empty()) fail("empty_severities");
}

}  // namespace

fd::receive_chain_config hardened_chain(fd::receive_chain_config chain) {
  chain.digital.widely_linear = true;
  chain.digital.remove_dc = true;
  chain.track_residual_gain = true;
  return chain;
}

std::size_t run_poll_trial(const scenario_config& base,
                           const tag::tag_rate_config& rate,
                           double distance_m,
                           const impair::impairment_plan& plan,
                           const fd::receive_chain_config& chain,
                           std::uint64_t seed, std::size_t poll) {
  scenario_config trial = scenario_for_point(base, rate, distance_m);
  trial.tag.id = 1;  // the one polled tag's wake preamble
  trial.impairments = plan;
  trial.chain = chain;
  trial.seed = derive_trial_seed(seed, poll);
  const trial_result r = run_backscatter_trial(trial);
  return r.crc_ok && r.bit_errors == 0 ? trial.payload_bits : 0;
}

campaign_run run_campaign_arm(const campaign_config& config,
                              impair::fault_class fault, double severity,
                              bool recovery) {
  validate_campaign_or_throw(config, "run_campaign_arm");
  campaign_run run;
  run.first_success_poll = config.opportunities;

  // The baseline has no supervisor: it polls every opportunity at the
  // starting operating point.
  std::optional<mac::link_supervisor> supervisor;
  if (recovery)
    supervisor.emplace(config.start_rate, config.arq, config.link.collector);

  // Goodput denominator: every opportunity costs one nominal poll's
  // airtime at the starting operating point, whether it was issued,
  // retried or spent backed off. That makes the two arms comparable.
  scenario_config base = config.link;
  base.payload_bits = config.payload_bits;
  const scenario_config nominal =
      scenario_for_point(base, config.start_rate, config.distance_m);
  const double poll_airtime_s =
      static_cast<double>(reader::excitation_length(nominal.excitation)) *
      sample_period_s;

  const impair::impairment_plan plan =
      impair::plan_for(fault, severity, config.seed);
  // The hardened receive chain rides with the recovery arm: the
  // widely-linear + DC-removing digital stage is the front-end answer to
  // IQ-imbalance/DC faults, which no amount of ARQ can fix (the conjugate
  // image of the self-interference swamps the backscatter).
  const fd::receive_chain_config chain =
      recovery ? hardened_chain(base.chain) : base.chain;

  double delivered_bits = 0.0;
  std::size_t successes = 0;
  for (std::size_t poll = 0; poll < config.opportunities; ++poll) {
    if (supervisor && !supervisor->next())
      continue;  // backed off / suspended: the slot idles

    ++run.polls_issued;
    // Same per-poll seeds in both arms: paired comparison, the only
    // difference between the curves is the recovery machinery.
    const std::size_t bits = run_poll_trial(
        base, supervisor ? supervisor->rate() : config.start_rate,
        config.distance_m, plan, chain, config.seed, poll);
    if (bits > 0) {
      delivered_bits += static_cast<double>(bits);
      ++successes;
      run.first_success_poll = std::min(run.first_success_poll, poll);
    }
    if (supervisor) supervisor->report_result(bits > 0);
  }

  run.success_rate =
      run.polls_issued > 0
          ? static_cast<double>(successes) / static_cast<double>(run.polls_issued)
          : 0.0;
  run.goodput_bps = delivered_bits / (static_cast<double>(config.opportunities) *
                                      poll_airtime_s);
  run.final_rate = config.start_rate;
  if (supervisor) {
    const auto& stats = supervisor->stats();
    run.retries = stats.retries;
    run.fallbacks = stats.fallbacks;
    run.probe_ups = stats.probe_ups;
    run.final_rate = supervisor->rate();
  }
  return run;
}

campaign_result run_fault_campaign(const campaign_config& config) {
  validate_campaign_or_throw(config, "run_fault_campaign");
  campaign_result result;
  std::vector<impair::fault_class> faults = config.faults;
  if (faults.empty()) {
    const auto all = impair::all_fault_classes();
    faults.assign(all.begin(), all.end());
  }
  result.cells.resize(faults.size() * config.severities.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    for (std::size_t s = 0; s < config.severities.size(); ++s) {
      campaign_cell& cell = result.cells[f * config.severities.size() + s];
      cell.fault = faults[f];
      cell.severity = config.severities[s];
    }
  }
  // Each (cell, arm) pair is an independent pure computation — seeds come
  // from (config.seed, poll index) — so the grid runs flattened through the
  // sweep scheduler with one collector child per pair; the index-ordered
  // commit and join keep results and telemetry identical to the old nested
  // serial loops. Arms are whole multi-poll campaigns (the heaviest task
  // granularity in the repo); grids under 128 arms get single-arm chunks,
  // so any lane that finishes early claims the next single arm instead of
  // sitting behind a multi-arm chunk.
  const std::size_t n_runs = 2 * result.cells.size();
  obs::collector_fork fork(config.link.collector, n_runs);
  std::vector<campaign_run> runs(n_runs);
  const sweep_stats stats = sweep_for(
      n_runs,
      [&](std::size_t i) {
        const campaign_cell& cell = result.cells[i / 2];
        const bool recovery = (i % 2) != 0;
        campaign_config arm_config = config;
        arm_config.link.collector = fork.child(i);
        runs[i] =
            run_campaign_arm(arm_config, cell.fault, cell.severity, recovery);
      });
  fork.join();
  report_sweep_stats(config.link.collector, stats);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    campaign_cell& cell = result.cells[i / 2];
    ((i % 2) != 0 ? cell.recovery : cell.baseline) = std::move(runs[i]);
  }
  return result;
}

}  // namespace backfi::sim
