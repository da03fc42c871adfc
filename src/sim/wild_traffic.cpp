#include "sim/wild_traffic.h"

#include <algorithm>

#include "dsp/invalid_config.h"
#include "dsp/rng.h"
#include "mac/trace.h"
#include "obs/collector.h"
#include "reader/block_collector.h"
#include "reader/excitation.h"
#include "sim/fault_campaign.h"
#include "sim/rate_adaptation.h"
#include "sim/scheduler.h"
#include "tag/packet_coder.h"

namespace backfi::sim {

namespace {

/// Repair symbols granted per send_repair directive.
constexpr std::size_t repair_chunk = 4;

[[noreturn]] void throw_invalid(const char* reason) {
  dsp::throw_invalid_config("run_wild_traffic", "wild_traffic_config", reason);
}

std::vector<std::uint8_t> source_block(const phy::erasure_spec& spec,
                                       std::uint64_t arm_seed,
                                       std::uint32_t block) {
  dsp::rng gen(derive_trial_seed(arm_seed, 1u << 20) + block);
  std::vector<std::uint8_t> data(spec.block_symbols * spec.symbol_bytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(gen.uniform_int(256));
  return data;
}

}  // namespace

wild_run run_wild_arm(const wild_traffic_config& config,
                      phy::erasure_scheme scheme, double duty_cycle,
                      std::uint64_t arm_seed) {
  const bool coded = scheme != phy::erasure_scheme::none;

  phy::erasure_spec spec = config.coding;
  spec.scheme = scheme;
  spec.seed = arm_seed;
  tag::packet_coder coder(spec);
  reader::block_collector collector(spec);

  mac::link_supervisor supervisor(config.start_rate, config.arq,
                                  config.link.collector);

  // Fixed goodput denominator, as in the fault campaign: every
  // opportunity costs one nominal poll's airtime whether it was issued,
  // erased or spent backed off.
  scenario_config base = config.link;
  base.payload_bits = spec.packet_payload_bits();
  const scenario_config nominal =
      scenario_for_point(base, config.start_rate, config.distance_m);
  const double poll_airtime_s =
      static_cast<double>(reader::excitation_length(nominal.excitation)) *
      sample_period_s;
  const double poll_airtime_us = poll_airtime_s * 1e6;

  // The excitation's ON/OFF bursts, sampled at poll boundaries. The
  // schedule's seed is decoupled from the per-poll PHY seeds so the same
  // air pattern hits every scheme of a trial identically.
  const mac::burst_schedule schedule = mac::generate_burst_schedule(
      {.duty_cycle = duty_cycle,
       .mean_on_us = config.mean_burst_polls * poll_airtime_us,
       .seed = derive_trial_seed(arm_seed, config.opportunities + 1)},
      static_cast<double>(config.opportunities) * poll_airtime_us);
  const std::vector<std::uint8_t> available =
      mac::poll_availability(schedule, config.opportunities, poll_airtime_us);

  const impair::impairment_plan plan =
      impair::plan_for(config.fault, config.severity, arm_seed);
  const fd::receive_chain_config chain = hardened_chain(base.chain);

  wild_run run;
  std::size_t delivered_polls = 0;
  double latency_sum = 0.0;

  if (!coded) {
    // Plain packet-level ARQ: the source block travels as ONE long packet
    // (k symbol-slots of airtime) with a single CRC, because without the
    // coding layer the reader's feedback is per packet, not per symbol.
    // Delivery therefore needs the burst to stay ON across all k slots —
    // the whole-packet fragility the rateless symbols are built to avoid.
    // A deferred opportunity costs one slot, not k, which if anything
    // flatters this arm.
    const std::size_t k = spec.block_symbols;
    scenario_config block_base = base;
    block_base.payload_bits = spec.block_payload_bits();
    std::size_t slot = 0;
    while (slot + k <= config.opportunities) {
      if (!supervisor.next()) {
        ++slot;
        continue;
      }
      run.polls_issued += 1.0;
      bool burst_covers_packet = true;
      for (std::size_t j = slot; j < slot + k; ++j)
        burst_covers_packet = burst_covers_packet && available[j] != 0;
      const bool delivered =
          burst_covers_packet &&
          run_poll_trial(block_base, supervisor.rate(), config.distance_m,
                         plan, chain, arm_seed, slot) > 0;
      supervisor.report_result(delivered);
      if (delivered) {
        ++delivered_polls;
        run.blocks_decoded += 1.0;
        latency_sum += static_cast<double>(k);
      }
      slot += k;
    }
    run.delivered_fraction =
        run.polls_issued > 0.0
            ? static_cast<double>(delivered_polls) / run.polls_issued
            : 0.0;
    run.goodput_bps =
        run.blocks_decoded * static_cast<double>(spec.block_payload_bits()) /
        (static_cast<double>(config.opportunities) * poll_airtime_s);
    run.block_latency_polls =
        run.blocks_decoded > 0.0 ? latency_sum / run.blocks_decoded : 0.0;
    return run;
  }

  // One source block in flight at a time; block ids count up from 0.
  std::vector<std::size_t> block_start_poll;
  const auto push_next_block = [&](std::size_t poll) {
    const std::uint32_t id = coder.push_block(
        source_block(spec, arm_seed, static_cast<std::uint32_t>(
                                         block_start_poll.size())));
    block_start_poll.resize(id + 1, poll);
  };
  push_next_block(0);

  for (std::size_t poll = 0; poll < config.opportunities; ++poll) {
    if (!supervisor.next()) continue;  // backed off / suspended: idle slot
    run.polls_issued += 1.0;

    // Keep the coder fed: an exhausted block asks the supervisor whether
    // to grant repair or give up; an empty coder starts the next block.
    if (!coder.has_packet()) {
      if (const auto exhausted = coder.exhausted_block()) {
        mac::coded_directive directive =
            supervisor.report_block_outcome(collector.status(*exhausted));
        if (directive == mac::coded_directive::send_repair &&
            coder.request_repair(*exhausted, repair_chunk) == 0)
          directive = mac::coded_directive::abandon_block;  // RS field spent
        if (directive == mac::coded_directive::abandon_block) {
          coder.abandon_block(*exhausted);
          collector.abandon(*exhausted);
        }
      }
      if (!coder.has_packet()) push_next_block(poll);
    }
    const phy::coded_packet packet = coder.next_packet();

    // The PHY trial only runs while the burst is ON; dark air is a
    // deterministic erasure (there is nothing to backscatter).
    const bool delivered =
        available[poll] != 0 &&
        run_poll_trial(base, supervisor.rate(), config.distance_m, plan,
                       chain, arm_seed, poll) > 0;
    supervisor.report_symbol_result(delivered);

    if (!delivered) continue;
    ++delivered_polls;
    const reader::block_report report = collector.accept(packet.bits);
    if (report.status == phy::block_status::decoded) {
      coder.complete_block(packet.block);
      supervisor.report_block_outcome(phy::block_status::decoded);
      latency_sum += static_cast<double>(poll -
                                         block_start_poll[packet.block]) + 1.0;
    }
  }

  const auto& cstats = collector.stats();
  run.blocks_decoded = static_cast<double>(cstats.blocks_decoded);
  run.blocks_abandoned = static_cast<double>(cstats.blocks_abandoned);
  run.repair_symbols =
      static_cast<double>(coder.stats().repair_symbols_granted);
  run.delivered_fraction =
      run.polls_issued > 0.0
          ? static_cast<double>(delivered_polls) / run.polls_issued
          : 0.0;
  run.goodput_bps =
      run.blocks_decoded * static_cast<double>(spec.block_payload_bits()) /
      (static_cast<double>(config.opportunities) * poll_airtime_s);
  run.block_latency_polls =
      cstats.blocks_decoded > 0
          ? latency_sum / static_cast<double>(cstats.blocks_decoded)
          : 0.0;
  return run;
}

wild_result run_wild_traffic(const wild_traffic_config& config) {
  {
    scenario_config effective = config.link;
    effective.payload_bits = std::max<std::size_t>(
        config.coding.packet_payload_bits(), 1);
    validate_or_throw(effective, "run_wild_traffic");
  }
  if (config.trials == 0) throw_invalid("zero_trials");
  if (config.opportunities == 0) throw_invalid("zero_opportunities");
  if (config.schemes.empty()) throw_invalid("empty_schemes");
  if (config.duty_cycles.empty()) throw_invalid("empty_duty_cycles");
  for (const double duty : config.duty_cycles)
    if (!(duty > 0.0) || duty > 1.0) throw_invalid("bad_duty_cycle");
  if (!(config.mean_burst_polls > 0.0)) throw_invalid("bad_burst_length");
  // Code-geometry violations (zero symbols, RS past the GF(256) field)
  // must surface here, on the caller's thread, not inside a sweep lane.
  for (const phy::erasure_scheme scheme : config.schemes) {
    phy::erasure_spec probe = config.coding;
    probe.scheme = scheme;
    tag::packet_coder{probe};
  }

  wild_result result;
  result.cells.resize(config.schemes.size() * config.duty_cycles.size());
  for (std::size_t s = 0; s < config.schemes.size(); ++s) {
    for (std::size_t d = 0; d < config.duty_cycles.size(); ++d) {
      wild_cell& cell = result.cells[s * config.duty_cycles.size() + d];
      cell.scheme = config.schemes[s];
      cell.duty_cycle = config.duty_cycles[d];
    }
  }

  // Each (cell, trial) arm is an independent pure computation — seeds
  // derive from the flat index — so the grid runs flattened through the
  // sweep scheduler, one collector child per arm (single-arm chunks below
  // 128 arms: arms are whole multi-poll campaigns, the heaviest task
  // granularity in the repo).
  const std::size_t n_runs = result.cells.size() * config.trials;
  obs::collector_fork fork(config.link.collector, n_runs);
  std::vector<wild_run> runs(n_runs);
  const sweep_stats stats = sweep_for(
      n_runs,
      [&](std::size_t i) {
        const wild_cell& cell = result.cells[i / config.trials];
        wild_traffic_config arm_config = config;
        arm_config.link.collector = fork.child(i);
        runs[i] = run_wild_arm(arm_config, cell.scheme, cell.duty_cycle,
                               derive_trial_seed(config.seed, i));
      });
  fork.join();
  report_sweep_stats(config.link.collector, stats);

  const double inv_trials = 1.0 / static_cast<double>(config.trials);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    wild_run& mean = result.cells[i / config.trials].mean;
    mean.goodput_bps += runs[i].goodput_bps * inv_trials;
    mean.delivered_fraction += runs[i].delivered_fraction * inv_trials;
    mean.polls_issued += runs[i].polls_issued * inv_trials;
    mean.blocks_decoded += runs[i].blocks_decoded * inv_trials;
    mean.blocks_abandoned += runs[i].blocks_abandoned * inv_trials;
    mean.repair_symbols += runs[i].repair_symbols * inv_trials;
    mean.block_latency_polls += runs[i].block_latency_polls * inv_trials;
  }

  if (obs::collector* c = config.link.collector) {
    c->count(obs::probe::coding_arms, n_runs);
    for (const wild_run& run : runs) {
      c->count(obs::probe::coding_arm_blocks_decoded,
               static_cast<std::uint64_t>(run.blocks_decoded));
      c->count(obs::probe::coding_arm_blocks_abandoned,
               static_cast<std::uint64_t>(run.blocks_abandoned));
      c->count(obs::probe::coding_arm_repair_symbols,
               static_cast<std::uint64_t>(run.repair_symbols));
      c->observe(obs::probe::coding_arm_goodput_bps, run.goodput_bps);
    }
  }
  return result;
}

}  // namespace backfi::sim
