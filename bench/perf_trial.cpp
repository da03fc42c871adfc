// perf_trial: end-to-end trial-pipeline throughput benchmark.
//
// Measures run_backscatter_trial on the fig08 mid-range scenario (the
// 4000-byte PPDU / 600 payload-bit point) in three configurations:
//
//   serial      one trial after another on the calling thread, telemetry on
//   threads=4   the same trial batch through the Monte-Carlo pool
//   determinism the serial and threads=4 PER must be bit-identical
//
// and records the per-stage timing means plus the workspace reuse gauges
// (runtime.workspace.*) from the serial run. Results go to BENCH_trial.json
// (override with --out=FILE); scripts/bench_compare.py diffs that file
// against the committed baseline in CI and fails on a >25% regression of
// serial trials/sec.
//
// Exit code: non-zero when the parallel PER diverges from serial or the
// output file cannot be written, so CI catches determinism bugs here too.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "channel/awgn.h"
#include "obs/collector.h"
#include "reader/excitation.h"
#include "obs/export.h"
#include "sim/backscatter_sim.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "sim/stream_sim.h"

namespace {

using namespace backfi;

constexpr int kTrialsPerRep = 60;
constexpr int kReps = 5;

sim::scenario_config fig08_mid() {
  sim::scenario_config cfg;
  cfg.excitation.ppdu_bytes = 4000;
  cfg.payload_bits = 600;
  cfg.tag.preamble_us = 32;
  cfg.tag_distance_m = 2.0;
  cfg.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  return cfg;
}

double wall_seconds_serial(obs::collector* collector) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t seed = 1; seed <= kTrialsPerRep; ++seed) {
    sim::scenario_config cfg = fig08_mid();
    cfg.seed = seed;
    cfg.collector = collector;
    sim::run_backscatter_trial(cfg);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void append_kv(std::string& out, const char* key, double v, bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "    \"%s\": %.17g%s\n", key, v,
                last ? "" : ",");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_trial.json";
  std::size_t pool_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--threads=", 10) == 0)
      pool_threads = static_cast<std::size_t>(
          std::max(1L, std::strtol(argv[i] + 10, nullptr, 10)));
  }

  bench::print_header("perf_trial", "end-to-end trial pipeline throughput");
  std::printf("scenario: fig08_mid (ppdu=4000B payload=600b dist=2.0m psk16)\n");
  std::printf("%d trials/rep, %d reps, median wall time\n", kTrialsPerRep,
              kReps);

  // Warm-up: populate the thread-local workspace and every process-wide
  // cache (FFT plans, excitation prefix, scrambler keystreams) so the
  // measured reps see the steady state a Monte-Carlo sweep runs in.
  wall_seconds_serial(nullptr);

  // Serial throughput, telemetry on (the realistic sweep configuration).
  // The collector also supplies the per-stage means and — because the
  // workspace gauges are set at the end of every trial — the post-warm-up
  // reuse percentages.
  obs::collector serial_collector;
  std::vector<double> serial_walls;
  for (int r = 0; r < kReps; ++r)
    serial_walls.push_back(wall_seconds_serial(&serial_collector));
  const double serial_wall = bench::median(serial_walls);
  const double serial_tps = kTrialsPerRep / serial_wall;
  std::printf("serial:    %8.1f trials/sec  (%7.1f us/trial)\n", serial_tps,
              serial_wall / kTrialsPerRep * 1e6);

  // Batch API through the sweep scheduler at 4 threads, plus the serial
  // reference for the determinism check. packet_error_rate aggregates the
  // same per-seed trials, so the PERs must match bit-for-bit. The last rep
  // runs as an instrumented sweep_for to capture the execution report
  // (per-lane busy seconds, steal count) the scaling diagnosis needs.
  double per_serial = 0.0;
  double per_threads = 0.0;
  double pool_wall = 0.0;
  sim::sweep_stats pool_stats;
  {
    sim::scenario_config cfg = fig08_mid();
    cfg.seed = 1;
    {
      sim::scoped_thread_count guard(1);
      per_serial = sim::packet_error_rate(cfg, kTrialsPerRep);
    }
    sim::scoped_thread_count guard(pool_threads);
    std::vector<double> walls;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      per_threads = sim::packet_error_rate(cfg, kTrialsPerRep);
      walls.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    pool_wall = bench::median(walls);
    // Instrumented rep: the same per-seed trial batch packet_error_rate
    // runs, through the same scheduler, but with the stats returned to us.
    pool_stats = sim::sweep_for(kTrialsPerRep, [&](std::size_t t) {
      sim::scenario_config c = cfg;
      c.seed = sim::derive_trial_seed(cfg.seed, t);
      sim::run_backscatter_trial(c);
    });
  }
  const double pool_tps = kTrialsPerRep / pool_wall;
  const bool identical = per_serial == per_threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Speedup is bounded by the cores actually present, not by the lane
  // count: normalize so 4 lanes on a 1-core box score ~1.0 (perfect use of
  // the single core), not 0.25. Oversubscribed runs (--threads above the
  // core count) are normalized the same way, so the gate checks "no pool
  // collapse" rather than impossible speedups.
  const double scaling_efficiency_4t =
      (pool_tps / serial_tps) /
      std::min<double>(static_cast<double>(pool_threads), hw);
  std::printf("threads=%zu: %7.1f trials/sec on %u hardware thread%s  "
              "(scaling efficiency %.2f)\n",
              pool_threads, pool_tps, hw, hw == 1 ? "" : "s",
              scaling_efficiency_4t);
  std::printf("lanes:     busy");
  for (const double b : pool_stats.busy_seconds) std::printf(" %.3fs", b);
  std::printf("  steals=%zu  wall=%.3fs  busy/wall*lanes=%.2f\n",
              pool_stats.steals, pool_stats.wall_seconds,
              pool_stats.efficiency());
  std::printf("PER serial %.17g  threads=4 %.17g  bit-identical: %s\n",
              per_serial, per_threads,
              identical ? "yes" : "NO — DETERMINISM BUG");

  const auto& reg = serial_collector.registry();
  auto gauge = [&](const char* name) {
    const auto it = reg.gauges().find(name);
    return it != reg.gauges().end() && it->second.set ? it->second.value : 0.0;
  };
  const double reused = gauge("runtime.workspace.bytes_reused");
  const double allocated = gauge("runtime.workspace.bytes_allocated");
  const double reuse_pct = gauge("runtime.workspace.reuse_pct");
  std::printf("workspace: reused=%.0f B  allocated=%.0f B  reuse=%.2f%%\n",
              reused, allocated, reuse_pct);

  // ROI accounting (gauges are per-chain-run, so these describe the last
  // trial — every trial in the rep shares the fig08_mid geometry): how much
  // of the capture the quantize/cancel sweeps actually visit now that the
  // chain runs region-of-interest shrunk.
  const double roi_processed = gauge("runtime.chain.roi.samples_processed");
  const double roi_skipped = gauge("runtime.chain.roi.samples_skipped");
  const double roi_coverage = gauge("runtime.chain.roi.coverage");
  std::printf("roi:       processed=%.0f  skipped=%.0f  coverage=%.1f%% of "
              "capture\n",
              roi_processed, roi_skipped, roi_coverage * 100.0);

  // Replay-cache effectiveness (process-wide, cumulative across the whole
  // run): hit rates near 100% after warm-up are what buy the batched
  // noise/excitation stage times below.
  const auto noise_cache = channel::awgn_cache_stats();
  const auto ex_cache = reader::excitation_cache_stats();
  auto hit_pct = [](std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t total = hits + misses;
    return total > 0 ? 100.0 * static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
  };
  std::printf("noise cache:      %llu hits / %llu misses (%.1f%%)  "
              "%zu entries, %.1f MiB\n",
              static_cast<unsigned long long>(noise_cache.hits),
              static_cast<unsigned long long>(noise_cache.misses),
              hit_pct(noise_cache.hits, noise_cache.misses),
              noise_cache.entries,
              static_cast<double>(noise_cache.bytes) / (1024.0 * 1024.0));
  std::printf("excitation cache: %llu hits / %llu misses (%.1f%%)  "
              "%zu entries, %.1f MiB\n",
              static_cast<unsigned long long>(ex_cache.hits),
              static_cast<unsigned long long>(ex_cache.misses),
              hit_pct(ex_cache.hits, ex_cache.misses), ex_cache.entries,
              static_cast<double>(ex_cache.bytes) / (1024.0 * 1024.0));

  // Stage coverage: the top-level stage spans partition sim.trial, so
  // their means must account for (nearly) all of the trial mean. A low
  // ratio means a pipeline stage lost its span — the probe-gap regression
  // this PR closed.
  auto stage_mean = [&](const char* name) {
    const auto it = reg.histograms().find(std::string("timing.") + name);
    return it != reg.histograms().end() && it->second.count > 0
               ? it->second.mean()
               : 0.0;
  };
  const char* top_level_stages[] = {
      "reader.excitation", "channel.forward",   "tag.modulate",
      "channel.backscatter", "sim.noise",       "fd.receive_chain",
      "reader.decode",     "reader.slicer",     "sim.oracle",
  };
  double stage_sum = 0.0;
  for (const char* s : top_level_stages) stage_sum += stage_mean(s);
  const double trial_mean = stage_mean("sim.trial");
  const double stage_coverage =
      trial_mean > 0.0 ? stage_sum / trial_mean : 0.0;
  std::printf("stages:    sum %.1f us of trial %.1f us  (coverage %.1f%%)\n",
              stage_sum * 1e6, trial_mean * 1e6, stage_coverage * 100.0);

  // Streaming pipeline: one continuous 32-packet capture with inter-packet
  // channel/LO drift through reader::stream_session, at 1 and 2 threads.
  // Uses its own collector so the reader.stream.* stage spans stay out of
  // the batch-trial stage-coverage math above; the decoded bit-stream must
  // be identical across topologies (streaming determinism contract).
  obs::collector stream_collector;
  sim::stream_scenario_config stream_cfg;
  stream_cfg.scenario = fig08_mid();
  stream_cfg.scenario.seed = 1;
  stream_cfg.scenario.collector = &stream_collector;
  stream_cfg.n_packets = 32;
  stream_cfg.forward_drift.coherence_packets = 16.0;
  stream_cfg.lo_drift.step_std_rad = 0.02;
  stream_cfg.feed_chunk_samples = 1u << 14;

  auto stream_rep = [&](std::size_t threads, std::vector<double>& walls,
                        int reps) {
    stream_cfg.threads = threads;
    sim::stream_trial_result last;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      last = sim::run_stream_trial(stream_cfg);
      walls.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    return last;
  };
  std::vector<double> stream_walls_1t;
  std::vector<double> stream_walls_2t;
  stream_rep(1, stream_walls_1t, 1);  // warm-up (capture caches, buffers)
  stream_walls_1t.clear();
  const sim::stream_trial_result stream_1t =
      stream_rep(1, stream_walls_1t, kReps);
  const sim::stream_trial_result stream_2t =
      stream_rep(2, stream_walls_2t, kReps);
  const double stream_wall_1t = bench::median(stream_walls_1t);
  const double stream_wall_2t = bench::median(stream_walls_2t);
  const double stream_pps_1t = stream_cfg.n_packets / stream_wall_1t;
  const double stream_pps_2t = stream_cfg.n_packets / stream_wall_2t;
  bool stream_identical =
      stream_1t.crc_ok == stream_2t.crc_ok &&
      stream_1t.packets.size() == stream_2t.packets.size();
  if (stream_identical) {
    for (std::size_t i = 0; i < stream_1t.packets.size(); ++i)
      if (stream_1t.packets[i].payload != stream_2t.packets[i].payload)
        stream_identical = false;
  }
  const sim::stream_trial_result& sr = stream_2t;
  std::printf("stream:    %5.1f pkt/sec 1t  %5.1f pkt/sec 2t  (32-pkt "
              "drifting capture, crc %zu/32, bit-identical: %s)\n",
              stream_pps_1t, stream_pps_2t, sr.crc_ok,
              stream_identical ? "yes" : "NO — DETERMINISM BUG");
  std::printf("stream 2t: cancel %.0f us/pkt  decode %.0f us/pkt  latency "
              "max %.0f us  queue high-water %zu\n",
              sr.stats.cancel_us_total / stream_cfg.n_packets,
              sr.stats.decode_us_total / stream_cfg.n_packets,
              sr.stats.latency_us_max, sr.stats.queue_high_water);
  const double stream_roi_total =
      static_cast<double>(sr.stats.roi_samples_processed +
                          sr.stats.roi_samples_skipped);
  std::printf("stream roi: processed=%zu skipped=%zu (%.1f%% of capture)\n",
              sr.stats.roi_samples_processed, sr.stats.roi_samples_skipped,
              stream_roi_total > 0.0
                  ? 100.0 * static_cast<double>(sr.stats.roi_samples_processed) /
                        stream_roi_total
                  : 100.0);

  std::string json;
  json += "{\n";
  json += "  \"backfi_bench_trial\": 1,\n";
  json += "  \"scenario\": \"fig08_mid\",\n";
  json += "  \"trials_per_rep\": " + std::to_string(kTrialsPerRep) + ",\n";
  json += "  \"reps\": " + std::to_string(kReps) + ",\n";
  json += "  \"hardware_threads\": " + std::to_string(hw) + ",\n";
  json += "  \"serial\": {\n";
  append_kv(json, "trials_per_sec", serial_tps);
  append_kv(json, "us_per_trial", serial_wall / kTrialsPerRep * 1e6, true);
  json += "  },\n";
  json += "  \"threads_4\": {\n";
  append_kv(json, "pool_threads", static_cast<double>(pool_threads));
  append_kv(json, "trials_per_sec", pool_tps);
  append_kv(json, "scaling_efficiency_4t", scaling_efficiency_4t);
  append_kv(json, "steals", static_cast<double>(pool_stats.steals));
  append_kv(json, "busy_seconds_total", pool_stats.busy_seconds_total());
  append_kv(json, "lane_efficiency", pool_stats.efficiency(), true);
  json += "  },\n";
  json += "  \"stage_coverage\": {\n";
  append_kv(json, "stage_sum_us", stage_sum * 1e6);
  append_kv(json, "trial_us", trial_mean * 1e6);
  append_kv(json, "coverage", stage_coverage, true);
  json += "  },\n";
  json += "  \"determinism\": {\n";
  append_kv(json, "per_serial", per_serial);
  append_kv(json, "per_threads_4", per_threads);
  json += std::string("    \"identical\": ") + (identical ? "true" : "false") +
          "\n  },\n";
  json += "  \"workspace\": {\n";
  append_kv(json, "bytes_reused", reused);
  append_kv(json, "bytes_allocated", allocated);
  append_kv(json, "reuse_pct", reuse_pct, true);
  json += "  },\n";
  json += "  \"roi\": {\n";
  append_kv(json, "samples_processed", roi_processed);
  append_kv(json, "samples_skipped", roi_skipped);
  append_kv(json, "coverage", roi_coverage);
  append_kv(json, "stream_samples_processed",
            static_cast<double>(sr.stats.roi_samples_processed));
  append_kv(json, "stream_samples_skipped",
            static_cast<double>(sr.stats.roi_samples_skipped), true);
  json += "  },\n";
  json += "  \"caches\": {\n";
  append_kv(json, "noise_hits", static_cast<double>(noise_cache.hits));
  append_kv(json, "noise_misses", static_cast<double>(noise_cache.misses));
  append_kv(json, "noise_entries", static_cast<double>(noise_cache.entries));
  append_kv(json, "noise_bytes", static_cast<double>(noise_cache.bytes));
  append_kv(json, "excitation_hits", static_cast<double>(ex_cache.hits));
  append_kv(json, "excitation_misses", static_cast<double>(ex_cache.misses));
  append_kv(json, "excitation_entries",
            static_cast<double>(ex_cache.entries));
  append_kv(json, "excitation_bytes", static_cast<double>(ex_cache.bytes),
            true);
  json += "  },\n";
  json += "  \"stream\": {\n";
  append_kv(json, "packets", static_cast<double>(stream_cfg.n_packets));
  append_kv(json, "packets_per_sec_1t", stream_pps_1t);
  append_kv(json, "packets_per_sec_2t", stream_pps_2t);
  append_kv(json, "crc_ok", static_cast<double>(sr.crc_ok));
  append_kv(json, "cancel_us_per_packet",
            sr.stats.cancel_us_total / stream_cfg.n_packets);
  append_kv(json, "decode_us_per_packet",
            sr.stats.decode_us_total / stream_cfg.n_packets);
  append_kv(json, "latency_us_max", sr.stats.latency_us_max);
  append_kv(json, "queue_high_water",
            static_cast<double>(sr.stats.queue_high_water));
  json += std::string("    \"identical\": ") +
          (stream_identical ? "true" : "false") + "\n  },\n";
  json += "  \"stage_means_us\": {\n";
  bool first = true;
  for (const auto& [name, h] : reg.histograms()) {
    if (name.rfind("timing.", 0) != 0 || h.count == 0) continue;
    if (!first) json += ",\n";
    first = false;
    char buf[128];
    std::snprintf(buf, sizeof buf, "    \"%s\": %.17g", name.c_str() + 7,
                  h.mean() * 1e6);
    json += buf;
  }
  // The streaming stage spans live on their own collector (see above);
  // record the reader.stream.* means alongside the batch stages.
  for (const auto& [name, h] : stream_collector.registry().histograms()) {
    if (name.rfind("timing.reader.stream.", 0) != 0 || h.count == 0) continue;
    if (!first) json += ",\n";
    first = false;
    char buf[128];
    std::snprintf(buf, sizeof buf, "    \"%s\": %.17g", name.c_str() + 7,
                  h.mean() * 1e6);
    json += buf;
  }
  json += "\n  }\n}\n";

  const bool wrote = obs::write_file(out_path, json);
  std::printf("%s %s\n", wrote ? "wrote" : "FAILED to write", out_path.c_str());
  return (identical && stream_identical && wrote) ? 0 : 1;
}
