// backfi_bench: the end-to-end benchmark binary (see README.md).
//
//   backfi_bench --workload=NAME --seed=S [--seconds=T] [--trace=FILE]
//                [--smoke]
//
// Runs one workload in this process and prints one JSON document on stdout
// with the raw measurements: set-up times, per-op latencies and timing
// blocks, correctness tallies, values to compare with reference.json, the
// run manifest and workload detail. bench/e2e/run.py turns them into the
// named metrics.
//
// Untraced runs call only the library's public entry points. With --trace
// the ops alternate between a traced replay (replay.h) and an untraced
// call, every traced op is checked bit for bit against the untraced entry
// point, and the spans are written to FILE as JSONL.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "channel/awgn.h"
#include "dsp/replay_cache.h"
#include "obs/collector.h"
#include "reader/excitation.h"
#include "reader/stream_session.h"
#include "replay.h"
#include "sim/fault_campaign.h"
#include "sim/parallel.h"
#include "sim/rate_adaptation.h"
#include "sim/scheduler.h"
#include "sim/stream_sim.h"
#include "trace.h"

namespace {

using namespace backfi;
using bench::now_ns;

// ---------------------------------------------------------------- JSON out

class json_object {
 public:
  json_object& num(std::string_view k, double v) {
    key(k);
    append_number(v);
    return *this;
  }
  json_object& integer(std::string_view k, std::uint64_t v) {
    key(k);
    body_ += std::to_string(v);
    return *this;
  }
  json_object& boolean(std::string_view k, bool v) {
    key(k);
    body_ += v ? "true" : "false";
    return *this;
  }
  json_object& str(std::string_view k, std::string_view v) {
    key(k);
    append_string(v);
    return *this;
  }
  json_object& nums(std::string_view k, const std::vector<double>& v) {
    key(k);
    body_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) body_ += ',';
      append_number(v[i]);
    }
    body_ += ']';
    return *this;
  }
  json_object& strs(std::string_view k, const std::vector<std::string>& v) {
    key(k);
    body_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) body_ += ',';
      append_string(v[i]);
    }
    body_ += ']';
    return *this;
  }
  json_object& pairs(std::string_view k,
                     const std::vector<std::array<double, 2>>& v) {
    key(k);
    body_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) body_ += ',';
      body_ += '[';
      append_number(v[i][0]);
      body_ += ',';
      append_number(v[i][1]);
      body_ += ']';
    }
    body_ += ']';
    return *this;
  }
  json_object& raw(std::string_view k, const std::string& json) {
    key(k);
    body_ += json;
    return *this;
  }
  json_object& obj(std::string_view k, const json_object& o) {
    key(k);
    body_ += o.dump();
    return *this;
  }
  json_object& objs(std::string_view k, const std::vector<json_object>& v) {
    key(k);
    body_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) body_ += ',';
      body_ += v[i].dump();
    }
    body_ += ']';
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k) {
    if (!body_.empty()) body_ += ',';
    append_string(k);
    body_ += ':';
  }
  void append_number(double v) {
    if (!std::isfinite(v)) {
      body_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    body_ += buf;
  }
  void append_string(std::string_view s) {
    body_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') body_ += '\\';
      body_ += (c == '\n' || c == '\t') ? ' ' : c;
    }
    body_ += '"';
  }
  std::string body_;
};

// ---------------------------------------------------------------- helpers

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  std::string trace_path;  ///< empty: untraced run
  bool smoke = false;
};

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double us_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-3;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Independent seed streams from the workload seed (splitmix64 finalizer):
// warm-up, timed and per-block seeds never share a stream.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr double kMiB = 1024.0 * 1024.0;

/// What one run measured and checked. The timed phase is cut into blocks
/// of about a second; run.py reports the median over blocks, so a burst of
/// interference from other processes moves a minority of blocks only.
struct run_record {
  std::vector<double> setup_s;
  std::vector<double> op_us;  ///< latency samples of the timed ops
  std::vector<std::array<double, 2>> latency_blocks;     ///< [begin, end) of op_us
  std::vector<std::array<double, 2>> throughput_blocks;  ///< (ops, seconds)
  std::size_t attempted = 0;
  std::size_t exceptions = 0;
  std::size_t drops = 0;
  std::size_t invalid = 0;
  std::vector<std::string> notes;
  json_object check;   ///< values run.py compares with reference.json
  json_object detail;  ///< workload-specific numbers
  json_object trace;   ///< traced runs: per-layer counters

  void flag(std::size_t& tally, const std::string& note) {
    ++tally;
    if (notes.size() < 8) notes.push_back(note);
  }
};

// Cache lookups attributed to the traced ops only (the identity reruns
// that follow them would otherwise add guaranteed hits).
struct cache_tally {
  std::uint64_t noise_hits = 0, noise_misses = 0, ex_hits = 0, ex_misses = 0;

  struct snapshot {
    channel::noise_cache_stats noise = channel::awgn_cache_stats();
    reader::excitation_cache_stats_snapshot ex = reader::excitation_cache_stats();
  };
  void add(const snapshot& before, const snapshot& after) {
    noise_hits += after.noise.hits - before.noise.hits;
    noise_misses += after.noise.misses - before.noise.misses;
    ex_hits += after.ex.hits - before.ex.hits;
    ex_misses += after.ex.misses - before.ex.misses;
  }
};

/// Counters of a traced run, turned into per-layer metrics by run.py.
struct trace_tally {
  bench::layer_counts layers;
  std::size_t woke = 0;
  std::size_t woke_of = 0;
  cache_tally cache;
  std::vector<double> traced_us;    ///< traced op wall times
  std::vector<double> untraced_us;  ///< untraced ops of the same mix
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::size_t threads = 1;

  void emit(json_object& out) const {
    const auto noise = channel::awgn_cache_stats();
    const auto ex = reader::excitation_cache_stats();
    out.integer("chain_runs", layers.chain_runs)
        .integer("bypassed", layers.bypassed)
        .integer("roi_processed", layers.roi_processed)
        .integer("roi_skipped", layers.roi_skipped)
        .integer("decodes", layers.decodes)
        .integer("sync_attempts", layers.sync_attempts)
        .integer("crc_ok", layers.crc_ok)
        .integer("woke", woke)
        .integer("woke_of", woke_of)
        .integer("noise_hits", cache.noise_hits)
        .integer("noise_misses", cache.noise_misses)
        .integer("excitation_hits", cache.ex_hits)
        .integer("excitation_misses", cache.ex_misses)
        .num("noise_cache_mb", static_cast<double>(noise.bytes) / kMiB)
        .num("excitation_cache_mb", static_cast<double>(ex.bytes) / kMiB)
        .num("cpu_s", cpu_s)
        .num("wall_s", wall_s)
        .integer("threads", threads)
        .nums("traced_us", traced_us)
        .nums("untraced_us", untraced_us);
  }
};

bool trial_failed(const sim::trial_result& r) {
  return !r.crc_ok || r.bit_errors != 0;
}

// Seed-independent output checks of one trial.
void check_trial(const sim::trial_result& r, std::size_t op, run_record& rec) {
  const obs::link_report& l = r.link;
  const double values[] = {l.post_mrc_snr_db, l.expected_snr_db,
                           l.residual_si_over_noise_db, l.analog_depth_db,
                           l.total_depth_db, l.sync_correlation, l.evm_rms,
                           r.tag_energy_pj, r.effective_throughput_bps};
  for (const double v : values) {
    if (!std::isfinite(v)) {
      rec.flag(rec.invalid, "op " + std::to_string(op) + ": non-finite link metric");
      return;
    }
  }
  if (r.crc_ok && r.bit_errors != 0)
    rec.flag(rec.invalid, "op " + std::to_string(op) + ": CRC ok with bit errors");
}

// ---------------------------------------------------------------- trials

// A trial workload as a numbered op sequence, timed in blocks of `block`
// ops. The run stops at a block boundary once the time budget is spent
// (smoke runs: after one block). The first block is the reference prefix
// whose PER reference.json pins.
struct trial_plan {
  std::function<void(std::size_t, sim::scenario_config&)> make;
  std::size_t block = 1;
};

void run_trials(const trial_plan& plan, const options& opt, run_record& rec,
                bench::tracer* tr) {
  sim::scenario_config cfg;
  bench::replay_workspace ws;
  trace_tally tally;
  std::size_t prefix_failures = 0;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  std::int64_t block_t0 = t0;
  std::size_t block_begin = 0;
  for (std::size_t k = 0;; ++k) {
    if (k > 0 && k % plan.block == 0) {
      if (!tr) {
        rec.latency_blocks.push_back({static_cast<double>(block_begin),
                                      static_cast<double>(rec.op_us.size())});
        rec.throughput_blocks.push_back(
            {static_cast<double>(rec.op_us.size() - block_begin),
             seconds_since(block_t0)});
        block_begin = rec.op_us.size();
        block_t0 = now_ns();
      }
      if (opt.smoke || seconds_since(t0) >= opt.seconds) break;
    }
    plan.make(k, cfg);
    ++rec.attempted;
    try {
      sim::trial_result r;
      if (tr && k % 2 == 0) {
        const cache_tally::snapshot before;
        r = bench::replay_trial(cfg, ws, tr, tally.layers);
        tally.cache.add(before, cache_tally::snapshot{});
        tally.traced_us.push_back(tr->last_root_us());
        ++tally.woke_of;
        if (r.woke) ++tally.woke;
        if (!bench::same_trial(r, sim::run_backscatter_trial(cfg)))
          rec.flag(rec.invalid, "op " + std::to_string(k) +
                                    ": traced replay differs from the library");
      } else {
        const std::int64_t s = now_ns();
        r = sim::run_backscatter_trial(cfg);
        (tr ? tally.untraced_us : rec.op_us).push_back(us_since(s));
      }
      check_trial(r, k, rec);
      if (k < plan.block && trial_failed(r)) ++prefix_failures;
    } catch (const std::exception& e) {
      rec.flag(rec.exceptions, "op " + std::to_string(k) + ": " + e.what());
    }
  }
  rec.check.integer("per_ops", plan.block)
      .num("per", static_cast<double>(prefix_failures) /
                      static_cast<double>(plan.block));
  if (tr) {
    tally.cpu_s = cpu_seconds() - cpu0;
    tally.wall_s = seconds_since(t0);
    tally.emit(rec.trace);
  }
}

// Set-up, repeated `reps` times and timed: input synthesis and warm-up ops
// on seeds disjoint from the timed ones, the cost a user pays before the
// first measured op (workspaces, FFT plans, tables).
void warm_up(run_record& rec, std::size_t reps,
             const std::function<void(std::size_t rep)>& body) {
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    body(r);
    rec.setup_s.push_back(seconds_since(t0));
  }
}

constexpr std::size_t kSetupReps = 5;

// The fig08 mid-range point: 4000-byte PPDU, 600-bit payload, 2 m,
// 16PSK-1/2 at 2.5 Msym/s, 32 us preamble.
sim::scenario_config fig08_mid() {
  sim::scenario_config cfg;
  cfg.excitation.ppdu_bytes = 4000;
  cfg.payload_bits = 600;
  cfg.tag.preamble_us = 32;
  cfg.tag_distance_m = 2.0;
  cfg.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  return cfg;
}

void run_trial_fresh(const options& opt, run_record& rec, bench::tracer* tr) {
  sim::set_thread_count(1);
  const sim::scenario_config base = fig08_mid();
  const std::size_t warm = opt.smoke ? 2 : 16;
  warm_up(rec, kSetupReps, [&](std::size_t r) {
    sim::scenario_config cfg = base;
    for (std::size_t j = 0; j < warm; ++j) {
      cfg.seed = sim::derive_trial_seed(mix_seed(opt.seed, 100 + r), j);
      sim::run_backscatter_trial(cfg);
    }
  });
  const std::uint64_t timed = mix_seed(opt.seed, 1);
  trial_plan plan;
  plan.make = [&](std::size_t k, sim::scenario_config& cfg) {
    cfg = base;
    cfg.seed = sim::derive_trial_seed(timed, k);
  };
  plan.block = opt.smoke ? 20 : 500;
  run_trials(plan, opt, rec, tr);
}

// The robustness campaign's recovery arm at its starting operating point:
// 1500-byte PPDU, 1.5 m, QPSK-1/2 at 2 Msym/s, 256-bit payload, hardened
// chain (widely-linear + DC removal + residual-gain tracking).
sim::scenario_config campaign_point() {
  const sim::campaign_config campaign;
  sim::scenario_config base = campaign.link;
  base.payload_bits = campaign.payload_bits;
  sim::scenario_config cfg =
      sim::scenario_for_point(base, campaign.start_rate, campaign.distance_m);
  cfg.tag.id = 1;
  cfg.chain.digital.widely_linear = true;
  cfg.chain.digital.remove_dc = true;
  cfg.chain.track_residual_gain = true;
  return cfg;
}

void run_campaign_robust(const options& opt, run_record& rec, bench::tracer* tr) {
  sim::set_thread_count(1);
  struct cell {
    impair::fault_class fault;
    double severity;
  };
  std::vector<cell> cells;
  for (const auto fault : {impair::fault_class::iq_imbalance,
                           impair::fault_class::cfo_drift,
                           impair::fault_class::phase_noise})
    for (const double severity : {0.25, 0.5, 1.0}) cells.push_back({fault, severity});
  const sim::scenario_config point = campaign_point();
  const std::size_t polls = opt.smoke ? 2 : 60;
  const std::size_t block = cells.size() * polls;  // one campaign poll block
  const std::size_t warm_polls = opt.smoke ? 1 : 3;

  warm_up(rec, kSetupReps, [&](std::size_t r) {
    const std::uint64_t s = mix_seed(opt.seed, 50 + r);
    sim::scenario_config cfg = point;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      cfg.impairments = impair::plan_for(cells[c].fault, cells[c].severity, s);
      for (std::size_t p = 0; p < warm_polls; ++p) {
        cfg.seed = sim::derive_trial_seed(s, p);
        sim::run_backscatter_trial(cfg);
      }
    }
  });

  // Seeds follow run_fault_campaign: cell-major within a block, poll p of
  // every cell uses derive_trial_seed(block seed, p), the fault plan is
  // seeded with the block seed.
  std::vector<impair::impairment_plan> plans(cells.size());
  std::size_t plans_block = static_cast<std::size_t>(-1);
  trial_plan plan;
  plan.make = [&](std::size_t k, sim::scenario_config& cfg) {
    const std::size_t b = k / block;
    const std::uint64_t block_seed = mix_seed(opt.seed, 1000 + b);
    if (b != plans_block) {
      for (std::size_t c = 0; c < cells.size(); ++c)
        plans[c] = impair::plan_for(cells[c].fault, cells[c].severity, block_seed);
      plans_block = b;
    }
    cfg = point;
    cfg.impairments = plans[(k % block) / polls];
    cfg.seed = sim::derive_trial_seed(block_seed, k % polls);
  };
  plan.block = opt.smoke ? block : 2 * block;
  run_trials(plan, opt, rec, tr);
}

// ---------------------------------------------------------------- stream

constexpr std::size_t kChunk = 4096;
constexpr double kSampleRate = 20e6;

sim::stream_scenario_config stream_scenario(std::uint64_t seed, bool smoke) {
  sim::stream_scenario_config cfg;
  cfg.scenario = fig08_mid();
  cfg.scenario.seed = seed;
  cfg.n_packets = smoke ? 8 : 64;
  cfg.gap_us = 8;
  cfg.forward_drift.coherence_packets = 16.0;
  cfg.lo_drift.step_std_rad = 0.02;
  cfg.threads = 1;
  return cfg;
}

// Decode one pass through a fresh session fed in 4096-sample chunks.
std::vector<reader::stream_packet_result> session_pass(
    const sim::stream_capture& cap, const reader::stream_config& scfg,
    std::size_t& queue_high_water) {
  reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
  for (std::size_t fed = 0; fed < cap.y.size(); fed += kChunk)
    session.feed(std::min(kChunk, cap.y.size() - fed));
  session.finish();
  queue_high_water = std::max(queue_high_water, session.stats().queue_high_water);
  return session.results();
}

// Wait until `due_ns`: sleep to within 200 us, then spin.
void wait_until(std::int64_t due_ns) {
  const std::int64_t slack = due_ns - now_ns() - 200'000;
  if (slack > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(slack));
  while (now_ns() < due_ns) {
  }
}

// Open-loop pass at 1x air rate: chunk k is fed when its last sample is
// due. A packet's latency runs from the instant its last sample was due to
// the return of the feed() that decoded it.
std::vector<reader::stream_packet_result> paced_pass(
    const sim::stream_capture& cap, const reader::stream_config& scfg,
    std::vector<double>& latency_us, std::vector<double>& late_us) {
  reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
  const auto due = [t0 = now_ns() + 1'000'000](std::size_t sample) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(sample) * 1e9 / kSampleRate);
  };
  std::size_t next = 0;
  for (std::size_t fed = 0; fed < cap.y.size();) {
    const std::size_t step = std::min(kChunk, cap.y.size() - fed);
    const std::int64_t chunk_due = due(fed + step);
    wait_until(chunk_due);
    late_us.push_back(static_cast<double>(now_ns() - chunk_due) * 1e-3);
    session.feed(step);
    fed += step;
    const std::int64_t done = now_ns();
    for (; next < cap.schedule.size() && cap.schedule[next].end <= fed; ++next)
      latency_us.push_back(static_cast<double>(done - due(cap.schedule[next].end)) * 1e-3);
  }
  session.finish();
  return session.results();
}

// Ground-truth checks of decoded packets: PER over the capture, CRC count,
// and no CRC-ok packet with bit errors.
void check_stream(const sim::stream_capture& cap,
                  const std::vector<reader::stream_packet_result>& results,
                  run_record& rec) {
  std::size_t crc_ok = 0, failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const reader::decode_result& d = results[i].decoded;
    const bool errors = d.decoded && cap.woke[i] &&
                        phy::hamming_distance(d.payload, cap.payloads[i]) != 0;
    if (d.crc_ok) ++crc_ok;
    if (d.crc_ok && (errors || !cap.woke[i]))
      rec.flag(rec.invalid, "packet " + std::to_string(i) + ": CRC ok with bit errors");
    if (!d.crc_ok || errors || !cap.woke[i]) ++failures;
  }
  rec.check.integer("packets", results.size())
      .integer("crc_ok", crc_ok)
      .num("per", static_cast<double>(failures) / static_cast<double>(results.size()));
}

void run_stream_drift(const options& opt, run_record& rec, bench::tracer* tr) {
  sim::set_thread_count(1);
  sim::stream_scenario_config cfg = stream_scenario(mix_seed(opt.seed, 200), opt.smoke);
  const reader::stream_config scfg = bench::session_config(cfg);
  bench::replay_workspace ws;
  bench::layer_counts untraced_counts;
  trace_tally tally;
  std::size_t high_water = 0;

  // Set-up: synthesize a capture and warm the reader with one pass over it.
  // Repetitions synthesize other captures; the timed phases use the first.
  sim::stream_capture cap;
  warm_up(rec, tr ? 1 : kSetupReps, [&](std::size_t r) {
    sim::stream_scenario_config rep = cfg;
    rep.scenario.seed = mix_seed(opt.seed, 200 + r);
    sim::stream_capture c;
    if (tr) {
      const cache_tally::snapshot before;
      c = bench::replay_stream_capture(rep, tr);
      tally.cache.add(before, cache_tally::snapshot{});
    } else {
      c = sim::build_stream_capture(rep);
    }
    session_pass(c, scfg, high_water);
    if (r == 0) cap = std::move(c);
  });
  if (tr && !bench::same_capture(cap, sim::build_stream_capture(cfg)))
    rec.flag(rec.invalid, "traced capture synthesis differs from the library");
  for (const std::uint8_t w : cap.woke) tally.woke += w;
  tally.woke_of = cap.woke.size();

  // The bench's own ROI replay is the reference every session pass must
  // reproduce.
  const auto reference =
      bench::replay_stream_decode(cap, scfg, ws, nullptr, untraced_counts, nullptr);
  check_stream(cap, reference, rec);
  const std::size_t n = cap.schedule.size();
  const auto check_pass = [&](const std::vector<reader::stream_packet_result>& got,
                              std::size_t pass) {
    rec.attempted += n;
    for (const auto& p : got)
      if (p.dropped) rec.flag(rec.drops, "pass " + std::to_string(pass) + ": drop");
    if (!bench::same_packets(got, reference))
      rec.flag(rec.invalid, "pass " + std::to_string(pass) +
                                ": session output differs from the ROI replay");
  };

  const std::int64_t t0 = now_ns();
  if (tr) {
    // Traced replay passes alternate with session passes whose per-packet
    // service time is measured by feeding exactly one packet per call.
    const double cpu0 = cpu_seconds();
    std::vector<double> service_us;
    for (std::size_t pass = 0;; ++pass) {
      if (pass >= 2 && (opt.smoke || seconds_since(t0) >= opt.seconds)) break;
      if (pass % 2 == 0) {
        check_pass(bench::replay_stream_decode(cap, scfg, ws, tr, tally.layers,
                                               &tally.traced_us),
                   pass);
        continue;
      }
      reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
      std::size_t fed = 0;
      for (const reader::stream_packet& p : cap.schedule) {
        const std::int64_t s = now_ns();
        session.feed(p.end - fed);
        service_us.push_back(us_since(s));
        fed = p.end;
      }
      session.finish();
      check_pass(session.results(), pass);
    }
    tally.untraced_us = service_us;
    tally.cpu_s = cpu_seconds() - cpu0;
    tally.wall_s = seconds_since(t0);
    tally.emit(rec.trace);
    return;
  }

  // Cycles of one unpaced pass (capacity: packets per second of decode
  // wall time, one throughput block per pass) and one pass paced at 1x air
  // rate (latency), so both sample the whole run. A latency block spans
  // eight paced passes (512 packets).
  const std::size_t block_passes = opt.smoke ? 1 : 8;
  std::vector<double> late_us;
  std::size_t block_begin = 0;
  std::size_t cycle = 0;
  for (;; ++cycle) {
    if (cycle > 0 && cycle % block_passes == 0) {
      rec.latency_blocks.push_back({static_cast<double>(block_begin),
                                    static_cast<double>(rec.op_us.size())});
      block_begin = rec.op_us.size();
      if (opt.smoke || seconds_since(t0) >= opt.seconds) break;
    }
    const std::int64_t p0 = now_ns();
    check_pass(session_pass(cap, scfg, high_water), 2 * cycle);
    rec.throughput_blocks.push_back({static_cast<double>(n), seconds_since(p0)});
    check_pass(paced_pass(cap, scfg, rec.op_us, late_us), 2 * cycle + 1);
  }
  rec.detail.integer("cycles", cycle)
      .num("capture_air_s", static_cast<double>(cap.y.size()) / kSampleRate)
      .integer("queue_high_water", high_water)
      .nums("gen_late_us", late_us);
}

// ---------------------------------------------------------------- fig08

struct fig08_cell {
  double range_m;
  std::size_t preamble_us;
};

// The figure's fixed cells, in table order (bench/fig08_throughput_vs_range).
std::vector<fig08_cell> fig08_cells(bool smoke) {
  if (smoke) return {{0.5, 32}, {2.0, 96}};
  std::vector<fig08_cell> cells;
  for (const double d : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0})
    for (const std::size_t pre : {32u, 96u}) cells.push_back({d, pre});
  return cells;
}

// The fig08 bench's scenario and per-cell seed.
sim::scenario_config fig08_base(const fig08_cell& cell) {
  sim::scenario_config base;
  base.excitation.ppdu_bytes = 4000;
  base.payload_bits = 600;
  base.tag.preamble_us = cell.preamble_us;
  base.seed = static_cast<std::uint64_t>(cell.range_m * 1000) + cell.preamble_us;
  return base;
}

// Cell order of a run: a Fisher-Yates shuffle drawn from the seed.
std::vector<std::size_t> cell_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 gen(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[gen() % i]);
  return order;
}

json_object cell_json(const fig08_cell& cell,
                      const std::optional<sim::link_evaluation>& best) {
  json_object o;
  o.num("range_m", cell.range_m).integer("preamble_us", cell.preamble_us);
  if (!best) return o.str("point", "none").num("per", 1.0).num("goodput_bps", 0.0);
  char point[64];
  std::snprintf(point, sizeof point, "%s %s @%.2fM",
                tag::modulation_name(best->point.rate.modulation),
                phy::code_rate_name(best->point.rate.coding),
                best->point.rate.symbol_rate_hz / 1e6);
  return o.str("point", point)
      .num("per", best->packet_error_rate)
      .num("goodput_bps", best->goodput_bps);
}

// Replays the chosen point's trials (the seeds the sweep just ran) twice,
// traced and untraced, alternating which goes first so both see the same
// cache state on average. The outcomes must agree, and their PER must
// equal the sweep's.
void replay_cell(const sim::scenario_config& base, const fig08_cell& cell,
                 const sim::link_evaluation& best, int trials,
                 bench::replay_workspace& ws, bench::tracer* tr,
                 trace_tally& tally, run_record& rec) {
  sim::scenario_config point =
      sim::scenario_for_point(base, best.point.rate, cell.range_m);
  std::size_t failures = 0;
  for (int t = 0; t < trials; ++t) {
    point.seed = sim::derive_trial_seed(base.seed, static_cast<std::uint64_t>(t));
    rec.attempted += 2;
    try {
      sim::trial_result traced, untraced;
      const auto run_traced = [&] {
        traced = bench::replay_trial(point, ws, tr, tally.layers);
        tally.traced_us.push_back(tr->last_root_us());
      };
      const auto run_untraced = [&] {
        const std::int64_t c0 = now_ns();
        untraced = sim::run_backscatter_trial(point);
        tally.untraced_us.push_back(us_since(c0));
      };
      if (t % 2 == 0) {
        run_traced();
        run_untraced();
      } else {
        run_untraced();
        run_traced();
      }
      ++tally.woke_of;
      if (traced.woke) ++tally.woke;
      if (!bench::same_trial(traced, untraced))
        rec.flag(rec.invalid, "traced replay differs from the library");
      check_trial(traced, static_cast<std::size_t>(t), rec);
      if (trial_failed(traced)) ++failures;
    } catch (const std::exception& e) {
      rec.flag(rec.exceptions, std::string("replay: ") + e.what());
    }
  }
  if (static_cast<double>(failures) / static_cast<double>(trials) !=
      best.packet_error_rate)
    rec.flag(rec.invalid, "replayed PER differs from the sweep's");
}

// The sweep runs `sweeps` times over identical cells (seeds and order); a
// cell's time is its fastest repetition, so interference that slows one
// repetition does not move the result. Every repetition must reproduce the
// first one's table.
void run_fig08_sweep(const options& opt, run_record& rec, bench::tracer* tr) {
  const std::size_t threads =
      std::min<std::size_t>(2, std::max(1u, std::thread::hardware_concurrency()));
  sim::set_thread_count(threads);
  const std::vector<fig08_cell> cells = fig08_cells(opt.smoke);
  const int trials = opt.smoke ? 8 : 40;

  warm_up(rec, kSetupReps, [&](std::size_t r) {
    sim::scenario_config base = fig08_base(cells.front());
    base.seed = mix_seed(opt.seed, 400 + r);
    sim::find_max_goodput(base, cells.front().range_m, trials);
  });

  const std::size_t sweeps =
      (opt.smoke || tr) ? 1
                        : std::max<std::size_t>(1, static_cast<std::size_t>(opt.seconds + 5) / 10);
  const std::vector<std::size_t> order = cell_order(cells.size(), mix_seed(opt.seed, 300));
  std::vector<std::string> table(cells.size());
  std::vector<double> goodput(cells.size(), 0.0);
  std::vector<double> fastest_us(cells.size(), 0.0);
  std::vector<double> sweep_s;
  trace_tally tally;
  tally.threads = threads;
  bench::replay_workspace ws;
  std::vector<json_object> traced_cells;
  for (std::size_t s = 0; s < sweeps; ++s) {
    const std::int64_t sweep_t0 = now_ns();
    for (const std::size_t idx : order) {
      const fig08_cell& cell = cells[idx];
      sim::scenario_config base = fig08_base(cell);
      ++rec.attempted;
      std::optional<sim::link_evaluation> best;
      // The collector of a traced run only supplies the examined-trials
      // counter.
      obs::collector collector;
      if (tr) base.collector = &collector;
      const cache_tally::snapshot before;
      const double cpu0 = cpu_seconds();
      const std::int64_t c0 = now_ns();
      try {
        bench::scoped_span op(tr, "sim.sweep.cell");
        bench::scoped_span span(tr, "sim.sweep");
        best = sim::find_max_goodput(base, cell.range_m, trials);
      } catch (const std::exception& e) {
        rec.flag(rec.exceptions, std::string("cell: ") + e.what());
        continue;
      }
      const double cell_us = us_since(c0);
      base.collector = nullptr;
      if (s == 0 || cell_us < fastest_us[idx]) fastest_us[idx] = cell_us;

      if (best && !(std::isfinite(best->goodput_bps) && best->goodput_bps > 0.0 &&
                    best->packet_error_rate >= 0.0 && best->packet_error_rate < 1.0))
        rec.flag(rec.invalid, "cell: unusable chosen point");
      const std::string row = cell_json(cell, best).dump();
      if (s == 0) {
        table[idx] = row;
        goodput[idx] = best ? best->goodput_bps : 0.0;
      } else if (row != table[idx]) {
        rec.flag(rec.invalid, "cell: repeated sweep chose differently");
      }
      if (!tr) continue;
      tally.cpu_s += cpu_seconds() - cpu0;
      tally.wall_s += cell_us * 1e-6;
      tally.cache.add(before, cache_tally::snapshot{});
      traced_cells.push_back(
          json_object()
              .num("range_m", cell.range_m)
              .integer("preamble_us", cell.preamble_us)
              .num("seconds", cell_us * 1e-6)
              .integer("trials_examined",
                       collector.registry()
                           .get_counter(obs::to_string(obs::probe::trials))
                           .value));
      if (best) replay_cell(base, cell, *best, trials, ws, tr, tally, rec);
    }
    sweep_s.push_back(seconds_since(sweep_t0));
  }

  double fastest_total_s = 0.0;
  double goodput_sum = 0.0;  // table order, so the mean is order-independent
  std::string cells_json = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    rec.op_us.push_back(fastest_us[i]);
    fastest_total_s += fastest_us[i] * 1e-6;
    goodput_sum += goodput[i];
    cells_json += (i ? "," : "") + table[i];
  }
  rec.latency_blocks.push_back({0.0, static_cast<double>(cells.size())});
  rec.throughput_blocks.push_back({static_cast<double>(cells.size()), fastest_total_s});
  rec.check.raw("cells", cells_json + "]")
      .num("sweep_goodput_mbps", goodput_sum / static_cast<double>(cells.size()) / 1e6);
  rec.detail.nums("sweep_s", sweep_s)
      .num("fastest_sweep_s", fastest_total_s)
      .integer("trials_per_point", trials);
  if (tr) {
    tally.emit(rec.trace);
    rec.trace.objs("cells", traced_cells);
  }
}

// ---------------------------------------------------------------- main

struct workload {
  const char* name;
  void (*run)(const options&, run_record&, bench::tracer*);
};

constexpr workload kWorkloads[] = {
    {"fig08_sweep", run_fig08_sweep},
    {"trial_fresh", run_trial_fresh},
    {"campaign_robust", run_campaign_robust},
    {"stream_drift", run_stream_drift},
};

json_object manifest(const options& opt) {
  const char* threads_env = std::getenv("BACKFI_THREADS");
  return json_object()
      .str("compiler", BACKFI_BENCH_COMPILER)
      .str("build_type", BACKFI_BENCH_BUILD_TYPE)
      .str("flags", BACKFI_BENCH_FLAGS)
      .boolean("avx2", BACKFI_BENCH_AVX2 != 0)
      // Same resolution (and 64 MiB default) as the two caches themselves.
      .num("noise_cache_mb",
           static_cast<double>(dsp::cache_budget_bytes("BACKFI_NOISE_CACHE_MB", 64)) / kMiB)
      .num("excitation_cache_mb",
           static_cast<double>(dsp::cache_budget_bytes("BACKFI_EXCITATION_CACHE_MB", 64)) / kMiB)
      .str("backfi_threads_env", threads_env ? threads_env : "")
      .integer("threads", sim::thread_count())
      .integer("nproc", std::thread::hardware_concurrency())
      .integer("seed", opt.seed);
}

bool parse(int argc, char** argv, options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&](std::string_view flag) -> const char* {
      return a.substr(0, flag.size()) == flag ? argv[i] + flag.size() : nullptr;
    };
    if (const char* v = value("--workload=")) {
      opt.workload = v;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (const char* v = value("--seconds=")) {
      char* end = nullptr;
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (const char* v = value("--trace=")) {
      opt.trace_path = v;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: backfi_bench --workload=NAME --seed=S [--seconds=T] "
                 "[--trace=FILE] [--smoke]\n"
                 "workloads: fig08_sweep trial_fresh campaign_robust stream_drift\n");
    return 2;
  }
  const workload* selected = nullptr;
  for (const workload& w : kWorkloads)
    if (opt.workload == w.name) selected = &w;
  if (!selected) {
    std::fprintf(stderr, "backfi_bench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  run_record rec;
  bench::tracer tracer;
  bench::tracer* tr = opt.trace_path.empty() ? nullptr : &tracer;
  try {
    selected->run(opt, rec, tr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "backfi_bench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (tr && !tracer.write_jsonl(opt.trace_path)) {
    std::fprintf(stderr, "backfi_bench: cannot write %s\n", opt.trace_path.c_str());
    return 1;
  }

  json_object out;
  out.str("workload", opt.workload)
      .integer("seed", opt.seed)
      .boolean("smoke", opt.smoke)
      .boolean("traced", tr != nullptr)
      .obj("manifest", manifest(opt))
      .nums("setup_s", rec.setup_s)
      .nums("op_us", rec.op_us)
      .pairs("latency_blocks", rec.latency_blocks)
      .pairs("throughput_blocks", rec.throughput_blocks)
      .num("peak_rss_mb", peak_rss_mib())
      .integer("attempted", rec.attempted)
      .integer("exceptions", rec.exceptions)
      .integer("drops", rec.drops)
      .integer("invalid", rec.invalid)
      .strs("notes", rec.notes)
      .obj("check", rec.check)
      .obj("detail", rec.detail);
  if (tr) out.obj("trace", rec.trace);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
