// Fig. 8: maximum backscatter throughput vs range for the 32 us and 96 us
// estimation preambles. Paper anchors: ~6.67 Mbps at 0.5 m, 5 Mbps at
// 1 m, 1 Mbps at 5 m; at 7 m the longer preamble buys ~10x (10 Kbps ->
// 100 Kbps) because the combined-channel estimate is noise-limited.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "sim/parallel.h"
#include "sim/rate_adaptation.h"
#include "sim/scheduler.h"

namespace {

using namespace backfi;

// Paper-scale trial count; affordable because find_max_goodput runs each
// examined point's trials across every lane of the sweep scheduler, and
// cheaper still under the adaptive rerun below.
constexpr int kTrials = 40;

sim::scenario_config base_scenario(std::size_t preamble_us) {
  sim::scenario_config base;
  base.excitation.ppdu_bytes = 4000;
  base.payload_bits = 600;
  base.tag.preamble_us = preamble_us;
  return base;
}

int run_sweep() {
  bench::print_header("Fig. 8", "Max throughput vs range, preamble 32 us vs 96 us");
  bench::telemetry_session telemetry("fig08");
  const auto sweep_start = std::chrono::steady_clock::now();
  const double distances[] = {0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  std::printf("%-8s | %-34s | %-34s\n", "range", "32 us preamble", "96 us preamble");
  std::printf("---------+------------------------------------+-----------------------------------\n");
  // Fixed-trials results, kept so the adaptive rerun below can report its
  // PER deltas against them.
  struct cell_result {
    bool decoded = false;
    double per = 0.0;
    double goodput_bps = 0.0;
  };
  cell_result fixed[8][2];
  std::size_t d_idx = 0;
  for (const double d : distances) {
    std::string cells[2];
    std::size_t idx = 0;
    for (const std::size_t pre : {32u, 96u}) {
      sim::scenario_config base = base_scenario(pre);
      base.seed = static_cast<std::uint64_t>(d * 1000) + pre;
      base.collector = telemetry.collector();
      const auto best = sim::find_max_goodput(base, d, kTrials);
      if (best) {
        fixed[d_idx][idx] = {true, best->packet_error_rate, best->goodput_bps};
        char buf[96];
        std::snprintf(buf, sizeof buf, "%-10s (%s %s @%.2fM, PER %.2f)",
                      bench::format_throughput(best->goodput_bps).c_str(),
                      tag::modulation_name(best->point.rate.modulation),
                      phy::code_rate_name(best->point.rate.coding),
                      best->point.rate.symbol_rate_hz / 1e6,
                      best->packet_error_rate);
        cells[idx] = buf;
      } else {
        cells[idx] = "no decode";
      }
      ++idx;
    }
    std::printf("%5.1f m  | %-34s | %-34s\n", d, cells[0].c_str(), cells[1].c_str());
    ++d_idx;
  }
  bench::print_paper_reference("6.67 Mbps @ 0.5 m, 5 Mbps @ 1 m, 1 Mbps @ 5 m (32 us)");
  bench::print_paper_reference("7 m: 96 us preamble gives ~10x over 32 us (10 -> 100 Kbps)");
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - sweep_start;
  bench::print_wall_time(
      "8 ranges x 2 preambles, " + std::to_string(kTrials) + " trials/point",
      elapsed.count(), sim::thread_count());

  // Adaptive rerun of the same sweep: identical configuration, but each
  // point's trial count is governed by the Wilson early-stopping rule
  // (max_trials = kTrials, so the estimates can only use fewer trials,
  // never more). Confidently-decided points — PER pinned near 0 or 1 —
  // stop after min_trials, which is most of the descending-throughput
  // scan, so the sweep wall time drops substantially at identical
  // operating-point decisions.
  sim::per_options adaptive;
  adaptive.max_trials = kTrials;
  adaptive.target_ci_halfwidth = 0.15;
  const auto adaptive_start = std::chrono::steady_clock::now();
  double max_per_delta = 0.0;
  std::size_t agree = 0, cells_total = 0;
  d_idx = 0;
  for (const double d : distances) {
    std::size_t idx = 0;
    for (const std::size_t pre : {32u, 96u}) {
      sim::scenario_config base = base_scenario(pre);
      base.seed = static_cast<std::uint64_t>(d * 1000) + pre;
      base.collector = telemetry.collector();
      const auto best = sim::find_max_goodput(base, d, adaptive);
      ++cells_total;
      if (best && fixed[d_idx][idx].decoded) {
        max_per_delta = std::max(
            max_per_delta,
            std::abs(best->packet_error_rate - fixed[d_idx][idx].per));
      }
      if (static_cast<bool>(best) == fixed[d_idx][idx].decoded) ++agree;
      ++idx;
    }
    ++d_idx;
  }
  const std::chrono::duration<double> adaptive_elapsed =
      std::chrono::steady_clock::now() - adaptive_start;
  bench::print_wall_time("same sweep, adaptive PER (CI half-width <= 0.15)",
                         adaptive_elapsed.count(), sim::thread_count());
  std::printf(
      "# adaptive: %.2f s vs fixed %.2f s (%.0f%% saved), decode agreement "
      "%zu/%zu, max |PER delta| %.3f\n",
      adaptive_elapsed.count(), elapsed.count(),
      100.0 * (1.0 - adaptive_elapsed.count() /
                         std::max(elapsed.count(), 1e-12)),
      agree, cells_total, max_per_delta);

  // Every probe the fig. 8 pipeline is supposed to exercise must have
  // fired; a zero-sample probe is disconnected instrumentation and fails
  // the bench (and the CI telemetry job) via the exit code.
  const obs::probe required[] = {
      obs::probe::trials,          obs::probe::trials_woke,
      obs::probe::trials_sync_found, obs::probe::trials_decoded,
      obs::probe::trials_crc_ok,   obs::probe::analog_depth_db,
      obs::probe::total_depth_db,  obs::probe::residual_si_over_noise_db,
      obs::probe::sync_attempts,   obs::probe::sync_correlation,
      obs::probe::timing_offset,   obs::probe::post_mrc_snr_db,
      obs::probe::expected_snr_db, obs::probe::evm_rms,
      obs::probe::viterbi_path_metric, obs::probe::tag_energy_pj,
      obs::probe::effective_throughput_bps,
      obs::probe::adaptive_points, obs::probe::adaptive_trials_run,
  };
  return telemetry.finish(required);
}

void bm_single_link_trial(benchmark::State& state) {
  sim::scenario_config cfg = base_scenario(32);
  cfg.tag_distance_m = 2.0;
  cfg.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(sim::run_backscatter_trial(cfg));
  }
}
BENCHMARK(bm_single_link_trial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int status = run_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
