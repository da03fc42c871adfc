// Wild-traffic sustainability: goodput vs burst duty-cycle for plain
// packet ARQ vs the systematic-RS coded stream when the ambient
// excitation itself is ON/OFF bursty (GuardRider-style air,
// arXiv:1912.06493). Not a paper figure — BackFi's testbed assumed its
// own excitation; this is the sustainability extension: at a duty cycle
// where plain ARQ has collapsed below 10% of its clean-air goodput, the
// coded link must hold >= 35% of its own and >= 5x plain's share (the
// margins WildTrafficClaim.RsSustainsWherePlainArqCollapses asserts).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dsp/rng.h"
#include "sim/parallel.h"
#include "sim/wild_traffic.h"

namespace {

using namespace backfi;

sim::wild_traffic_config make_config() {
  sim::wild_traffic_config cfg;
  cfg.link.excitation.ppdu_bytes = 1500;
  cfg.distance_m = 1.5;
  // k=8 x 4-byte symbols: a 256-bit source block, matching the campaign
  // payload. Mean bursts of 2.5 polls are the interesting regime — long
  // enough to land symbols, far too short to keep an 8-slot packet alive.
  cfg.coding.block_symbols = 8;
  cfg.coding.symbol_bytes = 4;
  cfg.coding.rs_repair_symbols = 4;
  cfg.opportunities = 128;
  cfg.mean_burst_polls = 2.5;
  cfg.duty_cycles = {1.0, 0.85, 0.75, 0.65, 0.5};
  // 10 trials, as the claim test: 3 trials once printed RS at 56% of clean
  // air at duty 0.5, where its expected share is 43-46%.
  cfg.trials = 10;
  cfg.seed = 7;
  // CI smoke mode: same grid shape, a fraction of the polls/trials.
  if (std::getenv("BACKFI_WILD_SMOKE") != nullptr) {
    cfg.opportunities = 24;
    cfg.duty_cycles = {1.0, 0.5};
    cfg.trials = 1;
  }
  return cfg;
}

int run_experiment() {
  bench::print_header("Wild-traffic sustainability",
                      "goodput vs burst duty-cycle: plain ARQ vs RS");
  bench::telemetry_session telemetry("wild_traffic");
  sim::wild_traffic_config cfg = make_config();
  cfg.link.collector = telemetry.collector();
  const auto sweep_start = std::chrono::steady_clock::now();
  const sim::wild_result result = sim::run_wild_traffic(cfg);
  const std::chrono::duration<double> sweep_elapsed =
      std::chrono::steady_clock::now() - sweep_start;

  const std::size_t n_duty = cfg.duty_cycles.size();
  std::printf("%-14s %-6s %-14s %-9s %-9s %-9s %-8s %-9s\n", "scheme", "duty",
              "goodput", "of-clean", "decoded", "abandon", "repair",
              "latency");
  // Track, per duty cycle, plain's and RS's goodput as a fraction of that
  // scheme's own clean-air (duty 1.0) goodput.
  std::vector<double> plain_rel(n_duty, 0.0), rs_rel(n_duty, 0.0);
  for (std::size_t s = 0; s < cfg.schemes.size(); ++s) {
    const double clean = result.cells[s * n_duty].mean.goodput_bps;
    for (std::size_t d = 0; d < n_duty; ++d) {
      const sim::wild_cell& cell = result.cells[s * n_duty + d];
      const double rel =
          clean > 0.0 ? cell.mean.goodput_bps / clean : 0.0;
      if (cfg.schemes[s] == phy::erasure_scheme::none)
        plain_rel[d] = rel;
      else
        rs_rel[d] = rel;
      std::printf("%-14s %-6.2f %-14s %8.1f%% %-9.1f %-9.1f %-8.1f %-9.1f\n",
                  phy::to_string(cell.scheme), cell.duty_cycle,
                  bench::format_throughput(cell.mean.goodput_bps).c_str(),
                  100.0 * rel, cell.mean.blocks_decoded,
                  cell.mean.blocks_abandoned, cell.mean.repair_symbols,
                  cell.mean.block_latency_polls);
    }
    std::printf("\n");
  }
  // The acceptance criterion: some duty cycle where plain ARQ is dead
  // (< 10% of its clean-air goodput) while RS still sustains >= 35% of its
  // own and >= 5x plain's share. Reported, not enforced here
  // (WildTrafficClaim asserts it): the smoke grid is too small to resolve
  // it.
  bool sustained = false;
  for (std::size_t d = 0; d < n_duty; ++d) {
    if (plain_rel[d] < 0.10 && rs_rel[d] >= 0.35 &&
        rs_rel[d] >= 5.0 * plain_rel[d]) {
      std::printf(
          "# criterion: PASS at duty %.2f — plain %.1f%% of clean, RS "
          "%.1f%%\n",
          cfg.duty_cycles[d], 100.0 * plain_rel[d], 100.0 * rs_rel[d]);
      sustained = true;
      break;
    }
  }
  if (!sustained)
    std::printf(
        "# criterion: no duty cycle in this grid has plain < 10%%, and "
        "RS >= 35%% and >= 5x plain, of clean air\n");
  bench::print_paper_reference(
      "no figure — sustainability extension; coded link must hold >= 35% "
      "of clean-air goodput, and >= 5x plain's share, where plain ARQ drops "
      "below 10%");
  bench::print_wall_time(
      std::to_string(result.cells.size()) + " cells x " +
          std::to_string(cfg.trials) + " trials, " +
          std::to_string(cfg.opportunities) + " polls/arm",
      sweep_elapsed.count(), sim::thread_count());

  const obs::probe required[] = {
      obs::probe::trials,
      obs::probe::trials_woke,
      obs::probe::arq_state_transitions,
      obs::probe::scheduler_sweeps,
      obs::probe::scheduler_tasks,
      // The erasure-coding layer: per-arm sweep totals and the link
      // supervisor's per-symbol accounting.
      obs::probe::coding_arms,
      obs::probe::coding_arm_blocks_decoded,
      obs::probe::coding_symbols_delivered,
  };
  return telemetry.finish(required);
}

void bm_wild_arm_coded(benchmark::State& state) {
  sim::wild_traffic_config cfg = make_config();
  cfg.opportunities = 16;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_wild_arm(
        cfg, phy::erasure_scheme::reed_solomon, 0.65, seed++));
  }
}
BENCHMARK(bm_wild_arm_coded)->Unit(benchmark::kMillisecond);

void bm_wild_arm_plain(benchmark::State& state) {
  sim::wild_traffic_config cfg = make_config();
  cfg.opportunities = 16;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_wild_arm(cfg, phy::erasure_scheme::none, 0.65, seed++));
  }
}
BENCHMARK(bm_wild_arm_plain)->Unit(benchmark::kMillisecond);

void bm_rs_block_roundtrip(benchmark::State& state) {
  constexpr std::size_t k = 8, symbol_bytes = 4;
  dsp::rng gen(3);
  std::vector<std::uint8_t> block(k * symbol_bytes);
  for (auto& b : block) b = static_cast<std::uint8_t>(gen.uniform_int(256));
  for (auto _ : state) {
    // Encode the systematic row plus 4 repair symbols, then decode from
    // the repair tail plus half the prefix: the erasure-heavy path
    // (Lagrange interpolation, not a memcpy).
    std::vector<std::uint32_t> esis;
    std::vector<std::vector<std::uint8_t>> symbols;
    for (std::uint32_t esi = 4; esi < k + 4; ++esi) {
      esis.push_back(esi);
      symbols.push_back(phy::rs_encode_symbol(block, k, symbol_bytes, esi));
    }
    auto decoded = phy::rs_decode_block(esis, symbols, k, symbol_bytes);
    benchmark::DoNotOptimize(decoded->data());
  }
}
BENCHMARK(bm_rs_block_roundtrip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int status = run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
