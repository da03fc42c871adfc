// Fig. 10: minimum REPB needed to sustain a fixed throughput (1.25 Mbps
// and 5 Mbps) as the tag moves away from the reader. The paper's
// observation: the REPB steps between levels as the link is forced from
// the 2/3-rate code down to 1/2 (and to costlier modulations), and the
// target eventually becomes infeasible.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "sim/parallel.h"
#include "sim/rate_adaptation.h"

namespace {

using namespace backfi;

// Paper-scale trial count; affordable now that evaluate_link flattens the
// whole (operating point x trial) grid into one sweep-scheduler pool — no
// per-point barrier, idle lanes claim the slowest points' remaining trials.
constexpr int kTrials = 24;

int run_sweep() {
  bench::print_header("Fig. 10", "Min REPB vs range at fixed 1.25 / 5 Mbps");
  bench::telemetry_session telemetry("fig10");
  const auto sweep_start = std::chrono::steady_clock::now();
  sim::scenario_config base;
  base.excitation.ppdu_bytes = 4000;
  base.payload_bits = 600;
  base.collector = telemetry.collector();

  std::printf("%-8s | %-30s | %-30s\n", "range", "1.25 Mbps target",
              "5 Mbps target");
  std::printf("---------+--------------------------------+--------------------------------\n");
  for (const double d : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0}) {
    base.seed = static_cast<std::uint64_t>(d * 1409);
    const auto evals = sim::evaluate_link(base, d, kTrials, 0.5);
    std::string cells[2];
    std::size_t idx = 0;
    for (const double target : {1.25e6, 5e6}) {
      const auto point = sim::min_repb_point_for_throughput(evals, target);
      if (point) {
        char buf[80];
        std::snprintf(buf, sizeof buf, "REPB %.3f (%s %s @%.2fM)", point->repb,
                      tag::modulation_name(point->rate.modulation),
                      phy::code_rate_name(point->rate.coding),
                      point->rate.symbol_rate_hz / 1e6);
        cells[idx] = buf;
      } else {
        cells[idx] = "infeasible";
      }
      ++idx;
    }
    std::printf("%5.1f m  | %-30s | %-30s\n", d, cells[0].c_str(), cells[1].c_str());
  }
  bench::print_paper_reference(
      "1.25 Mbps at range costs up to ~2.5x the reference energy; REPB "
      "steps between two levels as coding shifts 2/3 -> 1/2");
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - sweep_start;
  bench::print_wall_time(
      "8 ranges x full operating-point grid, " + std::to_string(kTrials) +
          " trials/point",
      elapsed.count(), sim::thread_count());

  const obs::probe required[] = {
      obs::probe::trials,         obs::probe::trials_woke,
      obs::probe::trials_crc_ok,  obs::probe::total_depth_db,
      obs::probe::post_mrc_snr_db, obs::probe::tag_energy_pj,
  };
  return telemetry.finish(required);
}

void bm_min_repb_selection(benchmark::State& state) {
  // Selection logic itself (table scan), separated from the simulation.
  std::vector<sim::link_evaluation> evals;
  for (const auto& p : sim::all_operating_points()) {
    sim::link_evaluation e;
    e.point = p;
    e.usable = p.throughput_bps < 3e6;
    evals.push_back(e);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::min_repb_point_for_throughput(evals, 1.25e6));
}
BENCHMARK(bm_min_repb_selection);

}  // namespace

int main(int argc, char** argv) {
  const int status = run_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
