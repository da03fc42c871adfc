// perf_kernels: the DSP/performance-layer benchmark.
//
// Part 1 prints a speedup summary comparing the FFT plan against the
// per-call twiddle recurrence it replaced at the PHY's 64 points, and the
// thread scaling of packet_error_rate, including the bit-identity check
// that the parallel result equals the serial one. Part 2 runs google-benchmark timings
// (including cold AWGN synthesis and a fresh-seed excitation build, which
// first evaluations pay, the glibc-exact block sin/cos and log against the
// plain libm loops, and the four-symbol OFDM modulation against the
// per-symbol plan path) and
// writes BENCH_dsp.json (override with --benchmark_out=FILE) so the perf
// trajectory of the DSP layer is recorded per build.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "channel/awgn.h"
#include "channel/backscatter_link.h"
#include "dsp/fft.h"
#include "dsp/libm_kernels.h"
#include "dsp/math_util.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "fd/receive_chain.h"
#include "impair/rf_impairments.h"
#include "phy/constellation.h"
#include "reader/decoder.h"
#include "reader/excitation.h"
#include "reader/stream_session.h"
#include "sim/backscatter_sim.h"
#include "sim/parallel.h"
#include "sim/stream_sim.h"
#include "wifi/ofdm.h"
#include "wifi/rates.h"

namespace {

using namespace backfi;

cvec random_vector(std::size_t n, std::uint64_t seed) {
  dsp::rng gen(seed);
  cvec out(n);
  for (auto& v : out) v = gen.complex_gaussian();
  return out;
}

template <typename Fn>
double median_seconds(Fn&& fn, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return bench::median(samples);
}

sim::scenario_config per_scaling_config() {
  sim::scenario_config cfg;
  cfg.tag_distance_m = 4.5;
  cfg.payload_bits = 400;
  cfg.seed = 42;
  return cfg;
}

int print_speedup_summary() {
  bench::print_header("perf_kernels",
                      "fast paths vs reference implementations");
  bench::telemetry_session telemetry("perf");
  std::printf("host: hardware_concurrency=%u, threads=%zu\n",
              std::thread::hardware_concurrency(), sim::thread_count());

  {  // FFT: cached plan vs the seed's per-call twiddle recurrence.
    constexpr std::size_t n = 64;
    constexpr int iters = 2000;
    const cvec base = random_vector(n, 11);
    cvec buf = base;
    const dsp::fft_plan& plan = dsp::get_fft_plan(n, dsp::fft_direction::forward);
    const double t_ref = median_seconds(
        [&] {
          for (int i = 0; i < iters; ++i) {
            buf = base;
            dsp::fft_in_place_reference(buf);
            benchmark::DoNotOptimize(buf.data());
          }
        },
        9);
    const double t_plan = median_seconds(
        [&] {
          for (int i = 0; i < iters; ++i) {
            buf = base;
            plan.execute(buf);
            benchmark::DoNotOptimize(buf.data());
          }
        },
        9);
    std::printf("fft %5zu-pt:   reference %9.2f us   plan %9.2f us   speedup %5.2fx\n",
                n, t_ref / iters * 1e6, t_plan / iters * 1e6, t_ref / t_plan);
  }

  {  // packet_error_rate thread scaling + bit-identity.
    sim::scenario_config cfg = per_scaling_config();
    cfg.collector = telemetry.collector();
    constexpr int kTrials = 24;
    double per_serial = 0.0;
    bool identical = true;
    double t_serial = 0.0;
    std::printf("packet_error_rate scaling (%d trials, seed %llu):\n", kTrials,
                static_cast<unsigned long long>(cfg.seed));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      sim::scoped_thread_count guard(threads);
      double per = 0.0;
      const double t = median_seconds(
          [&] { per = sim::packet_error_rate(cfg, kTrials); }, 3);
      if (threads == 1) {
        per_serial = per;
        t_serial = t;
      } else if (per != per_serial) {
        identical = false;
      }
      std::printf("  threads=%zu   wall %8.1f ms   speedup %4.2fx   PER %.17g\n",
                  threads, t * 1e3, t_serial / t, per);
    }
    std::printf("  parallel PER bit-identical to serial: %s\n",
                identical ? "yes" : "NO — DETERMINISM BUG");
  }

  const obs::probe required[] = {
      obs::probe::trials,
      obs::probe::total_depth_db,
      obs::probe::post_mrc_snr_db,
  };
  return telemetry.finish(required);
}

// --- google-benchmark timings (recorded in BENCH_dsp.json) ---

void bm_fft_reference(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const cvec base = random_vector(n, 3);
  cvec buf = base;
  for (auto _ : state) {
    buf = base;
    dsp::fft_in_place_reference(buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(bm_fft_reference)->Arg(64)->Unit(benchmark::kMicrosecond);

void bm_fft_plan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const cvec base = random_vector(n, 3);
  cvec buf = base;
  const dsp::fft_plan& plan = dsp::get_fft_plan(n, dsp::fft_direction::forward);
  for (auto _ : state) {
    buf = base;
    plan.execute(buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(bm_fft_plan)->Arg(64)->Unit(benchmark::kMicrosecond);

// Cold AWGN synthesis at the fig08 mid-point capture length: a fresh
// generator state every iteration (the seed counter runs on across the
// row's runs), so every add_awgn call misses the noise replay cache. The
// first ~150 misses fill the budget and pay the record; the cache then
// refuses these never-repeated keys, so the row times the plain
// Box-Muller pass a first evaluation pays.
void bm_awgn_cold(benchmark::State& state) {
  cvec x(27440, cplx{0.0, 0.0});
  static std::uint64_t seed = 1;
  for (auto _ : state) {
    dsp::rng gen(seed++);
    channel::add_awgn(x, 1e-4, gen);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_awgn_cold)->Unit(benchmark::kMicrosecond);

// The bare block Gaussian kernel over the same number of draws.
void bm_fill_gaussian(benchmark::State& state) {
  std::vector<double> g(2 * 27440);
  dsp::rng gen(11);
  for (auto _ : state) {
    gen.fill_gaussian(g);
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_fill_gaussian)->Unit(benchmark::kMicrosecond);

// One capture's Box-Muller inputs: the 27,440 angles 2*pi*u2 and radii
// arguments u1 of a fig08-mid trial's noise, for the libm block kernels
// and the plain glibc loops they replace (the reference rows).
struct box_muller_inputs {
  std::vector<double> u1, angle;
  box_muller_inputs() : u1(27440), angle(27440) {
    dsp::rng gen(12);
    for (std::size_t k = 0; k < u1.size(); ++k) {
      do {
        u1[k] = gen.uniform();
      } while (u1[k] <= 0.0);
      angle[k] = two_pi * gen.uniform();
    }
  }
};

void bm_sincos_block(benchmark::State& state) {
  const box_muller_inputs in;
  std::vector<double> sn(in.angle.size()), cs(in.angle.size());
  std::size_t libm = 0;
  for (auto _ : state) {
    libm = dsp::sincos_block(in.angle, sn, cs);
    benchmark::DoNotOptimize(sn.data());
    benchmark::DoNotOptimize(cs.data());
    benchmark::ClobberMemory();
  }
  state.counters["libm_share"] =
      static_cast<double>(libm) / static_cast<double>(2 * in.angle.size());
}
BENCHMARK(bm_sincos_block)->Unit(benchmark::kMicrosecond);

void bm_sincos_glibc_loop(benchmark::State& state) {
  const box_muller_inputs in;
  std::vector<double> sn(in.angle.size()), cs(in.angle.size());
  for (auto _ : state) {
    for (std::size_t k = 0; k < in.angle.size(); ++k)
      dsp::sin_cos(in.angle[k], sn[k], cs[k]);
    benchmark::DoNotOptimize(sn.data());
    benchmark::DoNotOptimize(cs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_sincos_glibc_loop)->Unit(benchmark::kMicrosecond);

void bm_log_block(benchmark::State& state) {
  const box_muller_inputs in;
  std::vector<double> out(in.u1.size());
  std::size_t libm = 0;
  for (auto _ : state) {
    libm = dsp::log_block(in.u1, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["libm_share"] =
      static_cast<double>(libm) / static_cast<double>(in.u1.size());
}
BENCHMARK(bm_log_block)->Unit(benchmark::kMicrosecond);

void bm_log_glibc_loop(benchmark::State& state) {
  const box_muller_inputs in;
  std::vector<double> out(in.u1.size());
  for (auto _ : state) {
    for (std::size_t k = 0; k < in.u1.size(); ++k) out[k] = std::log(in.u1[k]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_log_glibc_loop)->Unit(benchmark::kMicrosecond);

// The 334 data symbols of the 4000-byte, 24 Mbps PPDU every fig08
// mid-range excitation carries: modulate_symbols_into (four symbols per
// transform pass) against the per-symbol fft_plan path it replaced (the
// reference row: scatter into a zeroed buffer, plan, 1/N and tx scale,
// cyclic prefix), on the same 16-QAM points.
struct ofdm_symbols {
  static constexpr std::size_t n = 334;
  cvec points;
  cvec out;
  ofdm_symbols()
      : points(n * wifi::n_data_subcarriers), out(n * wifi::symbol_samples) {
    const phy::constellation& c =
        phy::wifi_constellation(wifi::params_for(wifi::wifi_rate::mbps24).n_bpsc);
    dsp::rng gen(31);
    for (auto& v : points) v = c.points[gen.uniform_int(c.points.size())];
  }
};

void bm_ofdm_modulate(benchmark::State& state) {
  ofdm_symbols sym;
  for (auto _ : state) {
    wifi::modulate_symbols_into(sym.points, 1, sym.out);
    benchmark::DoNotOptimize(sym.out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_ofdm_modulate)->Unit(benchmark::kMicrosecond);

void bm_ofdm_modulate_plan_reference(benchmark::State& state) {
  ofdm_symbols sym;
  const dsp::fft_plan& plan =
      dsp::get_fft_plan(wifi::fft_size, dsp::fft_direction::inverse);
  const auto data_sc = wifi::data_subcarrier_indices();
  const auto pilot_sc = wifi::pilot_subcarrier_indices();
  const double inv_n = 1.0 / static_cast<double>(wifi::fft_size);
  for (auto _ : state) {
    for (std::size_t s = 0; s < ofdm_symbols::n; ++s) {
      const std::span<cplx> symbol = std::span<cplx>(sym.out).subspan(
          s * wifi::symbol_samples, wifi::symbol_samples);
      const std::span<cplx> freq =
          symbol.subspan(wifi::cyclic_prefix, wifi::fft_size);
      std::fill(freq.begin(), freq.end(), cplx{0.0, 0.0});
      for (std::size_t i = 0; i < wifi::n_data_subcarriers; ++i)
        freq[wifi::subcarrier_to_bin(data_sc[i])] =
            sym.points[s * wifi::n_data_subcarriers + i];
      const double polarity = wifi::pilot_polarity(1 + s);
      for (std::size_t i = 0; i < wifi::n_pilot_subcarriers; ++i)
        freq[wifi::subcarrier_to_bin(pilot_sc[i])] =
            wifi::pilot_base_values()[i] * polarity;
      plan.execute(freq);
      for (cplx& v : freq) {
        v *= inv_n;
        v *= wifi::tx_scale();
      }
      std::copy(freq.end() - wifi::cyclic_prefix, freq.end(), symbol.begin());
    }
    benchmark::DoNotOptimize(sym.out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_ofdm_modulate_plan_reference)->Unit(benchmark::kMicrosecond);

// A first evaluation's excitation (trial_fresh's: 4000 B at 24 Mbps, one
// PPDU), a fresh payload seed every iteration, with the excitation cache on
// and already full of keys that never come back. The timed build is the
// refused miss: synthesis into the caller's buffers, no copy into the
// cache. `refused_share` reports which path the iterations took.
void bm_excitation_fresh(benchmark::State& state) {
  // Seeds no other row uses, never repeated across the row's runs.
  static std::uint64_t seed = std::uint64_t{1} << 40;
  reader::excitation_config cfg;
  cfg.ppdu_bytes = 4000;
  cfg.payload_seed = seed;
  reader::excitation ex;
  const auto refused = [] { return reader::excitation_cache_stats().refused; };
  // Fill the budget (64 MiB holds ~150 of these) until the cache refuses.
  const std::uint64_t refused_at_start = refused();
  for (int i = 0; i < 4096 && refused() == refused_at_start; ++i) {
    reader::build_excitation_into(cfg, ex);
    ++cfg.payload_seed;
  }
  const auto before = reader::excitation_cache_stats();
  for (auto _ : state) {
    reader::build_excitation_into(cfg, ex);
    ++cfg.payload_seed;
    benchmark::DoNotOptimize(ex.samples.data());
    benchmark::ClobberMemory();
  }
  seed = cfg.payload_seed;
  const auto after = reader::excitation_cache_stats();
  const double lookups = static_cast<double>(after.misses - before.misses +
                                             after.hits - before.hits);
  state.counters["refused_share"] =
      lookups > 0.0 ? static_cast<double>(after.refused - before.refused) / lookups
                    : 0.0;
}
BENCHMARK(bm_excitation_fresh)->Unit(benchmark::kMicrosecond);

// The phase-noise impairment over one capture: a Gaussian walk of the
// oscillator phase rotating every sample (block draws and block sincos).
void bm_phase_noise(benchmark::State& state) {
  cvec x = random_vector(27440, 13);
  const impair::phase_noise_config cfg{.linewidth_hz = 2e3};
  dsp::rng gen(14);
  for (auto _ : state) {
    impair::apply_phase_noise(cfg, x, gen);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_phase_noise)->Unit(benchmark::kMicrosecond);

// The fault campaign's recovery-arm receive chain, warm: the widely-linear
// + DC-removing digital stage and residual-gain tracking behind a
// front-end hook (slow LO rotation, an IQ image strong enough that the
// conjugate taps are kept, a DC offset at a tenth of the residual's rms),
// over a 10,800-sample capture. The hook's rotation is precomputed, so the
// row times the chain, not libm.
void bm_hardened_chain(benchmark::State& state) {
  constexpr std::size_t n = 10800;
  const cvec tx = random_vector(n, 21);
  dsp::rng gen(22);
  const auto ch =
      channel::draw_backscatter_channels(channel::link_budget{}, 1.5, gen);
  cvec rx = channel::apply_channel(tx, ch.h_env);
  channel::add_awgn(rx, ch.noise_power, gen);
  cvec rotation(n);
  for (std::size_t i = 0; i < n; ++i)
    rotation[i] = std::polar(1.0, 3e-4 * static_cast<double>(i));
  fd::receive_chain_config cfg;
  cfg.digital.widely_linear = true;
  cfg.digital.remove_dc = true;
  cfg.track_residual_gain = true;
  cfg.front_end_hook = [&rotation](std::span<cplx> v) {
    const double rms = std::sqrt(dsp::mean_power(v));
    const cplx image{0.2, 0.02};
    const cplx dc{0.1 * rms, -0.07 * rms};
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = v[i] * rotation[i] + image * std::conj(v[i]) + dc;
  };
  fd::receive_chain_scratch scratch;
  fd::run_receive_chain(tx, rx, 0, 640, cfg, &scratch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fd::run_receive_chain(tx, rx, 0, 640, cfg, &scratch));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_hardened_chain)->Unit(benchmark::kMicrosecond);

// The always-on reader's per-packet path, warm: reader::cancel_packet (the
// receive chain over the decoder's read window) then backfi_decoder::decode,
// on one packet of a Fig. 8 mid-range stream capture (2 m, 16-PSK, rate 1/2,
// 2.5 Msym/s, 600-bit payload, 4000-byte excitation PPDUs).
void bm_stream_packet(benchmark::State& state) {
  sim::stream_scenario_config cfg;
  cfg.scenario.excitation.ppdu_bytes = 4000;
  cfg.scenario.payload_bits = 600;
  cfg.scenario.tag.preamble_us = 32;
  cfg.scenario.tag_distance_m = 2.0;
  cfg.scenario.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half,
                           2.5e6};
  cfg.n_packets = 1;
  const sim::stream_capture cap = sim::build_stream_capture(cfg);
  const reader::stream_packet& packet = cap.schedule[0];
  const reader::backfi_decoder decoder(cfg.scenario.tag, cfg.scenario.decoder);
  fd::receive_chain_config chain = cfg.scenario.chain;
  fd::receive_chain_scratch chain_scratch;
  reader::decoder_scratch decode_scratch;
  const auto x = std::span<const cplx>(cap.x).subspan(
      packet.begin, packet.end - packet.begin);
  const auto run = [&] {
    reader::cancel_packet(cap.x, cap.y, packet, decoder, true, {}, chain,
                          chain_scratch);
    return decoder.decode(x, chain_scratch.cleaned,
                          packet.wake_end - packet.begin, packet.payload_bits,
                          &decode_scratch);
  };
  if (!run().crc_ok) {
    state.SkipWithError("the fig08 mid-range packet did not decode");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(run());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_stream_packet)->Unit(benchmark::kMicrosecond);

// The soft demapper on one fig08 packet's worth of 16-PSK symbols (319).
void bm_demap_llr_16psk(benchmark::State& state) {
  const phy::constellation& c = phy::psk_constellation(16);
  dsp::rng gen(23);
  cvec symbols(319);
  for (auto& y : symbols)
    y = c.points[gen.uniform_int(c.points.size())] +
        0.1 * gen.complex_gaussian();
  std::vector<double> llr;
  for (auto _ : state) {
    c.demap_llr_stream_into(symbols, 0.01, llr);
    benchmark::DoNotOptimize(llr.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_demap_llr_16psk)->Unit(benchmark::kMicrosecond);

void bm_backscatter_trial(benchmark::State& state) {
  sim::scenario_config cfg = per_scaling_config();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(sim::run_backscatter_trial(cfg));
  }
}
BENCHMARK(bm_backscatter_trial)->Unit(benchmark::kMillisecond);

void bm_packet_error_rate(benchmark::State& state) {
  const sim::scenario_config cfg = per_scaling_config();
  sim::scoped_thread_count guard(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::packet_error_rate(cfg, 16));
}
BENCHMARK(bm_packet_error_rate)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int status = print_speedup_summary();
  // Default to recording BENCH_dsp.json next to the working directory so
  // CI can upload it; any explicit --benchmark_out wins.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_dsp.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int n_args = static_cast<int>(args.size());
  benchmark::Initialize(&n_args, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
