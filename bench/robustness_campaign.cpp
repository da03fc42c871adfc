// Robustness campaign: goodput under injected RF/tag/canceller faults,
// no-recovery baseline vs the ARQ + link-supervision stack. Not a paper
// figure — this is the "in the wild" scenario sweep the testbed results
// (Figs. 8-13) implicitly survived: oscillator drift, phase noise, ADC
// saturation bursts, concurrent WiFi traffic, canceller tap drift and
// stage failure, tag clock jitter and energy brownouts (GuardRider,
// arXiv:1912.06493, motivates the link-supervision requirement).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "sim/fault_campaign.h"
#include "sim/parallel.h"

namespace {

using namespace backfi;

sim::campaign_config make_config() {
  sim::campaign_config cfg;
  cfg.link.excitation.ppdu_bytes = 1500;
  cfg.distance_m = 1.5;
  // Paper-scale poll count; affordable now that the (fault, severity, arm)
  // grid runs flattened through the sweep scheduler (single-arm chunks:
  // whole campaign arms are the repo's heaviest tasks, so idle lanes claim
  // single arms).
  cfg.opportunities = 60;
  cfg.payload_bits = 256;
  cfg.severities = {0.0, 0.25, 0.5, 1.0};
  cfg.seed = 7;
  return cfg;
}

int run_experiment() {
  bench::print_header("Robustness campaign",
                      "goodput under impairment: baseline vs ARQ+supervision");
  bench::telemetry_session telemetry("robustness");
  sim::campaign_config cfg = make_config();
  cfg.link.collector = telemetry.collector();
  const auto sweep_start = std::chrono::steady_clock::now();
  const sim::campaign_result result = sim::run_fault_campaign(cfg);
  const std::chrono::duration<double> campaign_elapsed =
      std::chrono::steady_clock::now() - sweep_start;

  std::printf("%-24s %-9s %-14s %-14s %-10s %-9s %-9s\n", "fault", "severity",
              "baseline", "recovery", "1st-ok@", "retries", "fallbacks");
  impair::fault_class last = impair::fault_class::none;
  for (const auto& cell : result.cells) {
    if (cell.fault != last) {
      std::printf("\n");
      last = cell.fault;
    }
    char first_ok[32];
    if (cell.recovery.first_success_poll < cfg.opportunities)
      std::snprintf(first_ok, sizeof first_ok, "poll %zu",
                    cell.recovery.first_success_poll);
    else
      std::snprintf(first_ok, sizeof first_ok, "never");
    std::printf("%-24s %-9.2f %-14s %-14s %-10s %-9zu %-9zu\n",
                impair::fault_class_name(cell.fault), cell.severity,
                bench::format_throughput(cell.baseline.goodput_bps).c_str(),
                bench::format_throughput(cell.recovery.goodput_bps).c_str(),
                first_ok, cell.recovery.retries, cell.recovery.fallbacks);
  }
  bench::print_paper_reference(
      "no figure — robustness extension; recovery must keep non-zero "
      "goodput within bounded polls wherever the baseline collapses");
  bench::print_wall_time(
      std::to_string(result.cells.size()) + " fault cells x 2 arms, " +
          std::to_string(cfg.opportunities) + " polls/arm",
      campaign_elapsed.count(), sim::thread_count());

  const obs::probe required[] = {
      obs::probe::trials,
      obs::probe::trials_woke,
      obs::probe::decode_failures,
      obs::probe::arq_state_transitions,
      obs::probe::arq_retries,
      // run_fault_campaign goes through the sweep scheduler; its
      // deterministic counters must have landed in the merged registry.
      obs::probe::scheduler_sweeps,
      obs::probe::scheduler_tasks,
  };
  return telemetry.finish(required);
}

void bm_campaign_cell(benchmark::State& state) {
  sim::campaign_config cfg = make_config();
  cfg.opportunities = 8;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(sim::run_campaign_arm(
        cfg, impair::fault_class::canceller_drift, 0.75, true));
  }
}
BENCHMARK(bm_campaign_cell)->Unit(benchmark::kMillisecond);

void bm_impairment_plan_apply(benchmark::State& state) {
  const impair::impairment_plan plan =
      impair::plan_for(impair::fault_class::phase_noise, 1.0, 3);
  dsp::rng gen(11);
  cvec rx(1 << 16);
  for (auto& v : rx) v = gen.complex_gaussian();
  for (auto _ : state) {
    cvec copy = rx;
    plan.apply_to_rx(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(bm_impairment_plan_apply)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int status = run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
