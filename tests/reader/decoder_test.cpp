#include "reader/decoder.h"
#include "reader/decoder_kernels.h"

#include <gtest/gtest.h>
#include <cstdint>
#include <stdexcept>
#include <string>

#include <limits>

#include "channel/awgn.h"
#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "phy/convolutional.h"
#include "reader/excitation.h"

namespace backfi::reader {
namespace {

/// A synthetic backscatter exchange with controllable channels/noise and
/// no cancellation stage (the decoder sees backscatter + noise directly).
struct exchange {
  cvec x;          // excitation
  cvec y;          // backscatter + noise at the reader
  phy::bitvec payload;
  std::size_t origin;       // true tag time origin
  std::size_t nominal;      // reader's assumed origin
};

exchange make_exchange(const tag::tag_config& tag_cfg, std::size_t payload_bits,
                       double noise_db, int jitter, std::uint64_t seed) {
  dsp::rng gen(seed);
  exchange ex;
  excitation_config ex_cfg;
  ex_cfg.tag_id = tag_cfg.id;
  ex_cfg.ppdu_bytes = 4000;
  ex_cfg.n_ppdus = 2;
  ex_cfg.payload_seed = seed;
  const excitation e = build_excitation(ex_cfg);
  ex.x = e.samples;
  ex.nominal = e.wake_end;
  ex.origin = e.wake_end + static_cast<std::size_t>(jitter);

  const cvec h_f = {cplx{5e-3, 1e-3}, cplx{1e-3, -5e-4}};
  const cvec h_b = {cplx{4e-3, -2e-3}, cplx{8e-4, 6e-4}};

  ex.payload = gen.random_bits(payload_bits);
  const tag::tag_device device(tag_cfg);
  const auto tag_tx = device.backscatter(ex.payload, ex.x.size(), ex.origin);

  const cvec incident = dsp::convolve_same(ex.x, h_f);
  const cvec reflected = dsp::hadamard(incident, tag_tx.reflection);
  ex.y = dsp::convolve_same(reflected, h_b);
  channel::add_awgn(ex.y, dsp::from_db(noise_db), gen);
  return ex;
}

tag::tag_config default_tag() {
  tag::tag_config cfg;
  cfg.id = 4;
  cfg.rate = {tag::tag_modulation::qpsk, phy::code_rate::half, 1e6};
  return cfg;
}

/// backfi_decoder::decode on a fresh scratch.
decode_result decode(const backfi_decoder& decoder, std::span<const cplx> x,
                     std::span<const cplx> y, std::size_t nominal_origin,
                     std::size_t payload_bits) {
  decoder_scratch scratch;
  return decoder.decode(x, y, nominal_origin, payload_bits, &scratch);
}

TEST(DecoderTest, DecodesCleanExchange) {
  const auto ex = make_exchange(default_tag(), 400, -120.0, 0, 1);
  const backfi_decoder decoder(default_tag());
  const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 400);
  ASSERT_TRUE(result.sync_found);
  ASSERT_TRUE(result.decoded);
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.payload, ex.payload);
  EXPECT_EQ(result.timing_offset, 0);
  EXPECT_GT(result.post_mrc_snr_db, 25.0);
}

TEST(DecoderTest, RecoversTagTimingJitter) {
  for (int jitter : {3, 9, 17}) {
    const auto ex = make_exchange(default_tag(), 300, -110.0, jitter,
                                  static_cast<std::uint64_t>(jitter));
    const backfi_decoder decoder(default_tag());
    const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 300);
    ASSERT_TRUE(result.crc_ok) << jitter;
    EXPECT_EQ(result.payload, ex.payload) << jitter;
    // The score is flat over offsets the guard absorbs; only coarse
    // agreement is required for correct decoding.
    EXPECT_NEAR(result.timing_offset, jitter, 6) << jitter;
  }
}

class DecoderModulationTest
    : public ::testing::TestWithParam<std::tuple<tag::tag_modulation,
                                                 phy::code_rate, double>> {};

TEST_P(DecoderModulationTest, DecodesAllTagRates) {
  const auto [mod, coding, symbol_rate] = GetParam();
  tag::tag_config cfg = default_tag();
  cfg.rate = {mod, coding, symbol_rate};
  const auto ex = make_exchange(cfg, 200, -112.0, 5, 42);
  const backfi_decoder decoder(cfg);
  const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 200);
  ASSERT_TRUE(result.crc_ok);
  EXPECT_EQ(result.payload, ex.payload);
}

INSTANTIATE_TEST_SUITE_P(
    RateMatrix, DecoderModulationTest,
    ::testing::Values(
        std::make_tuple(tag::tag_modulation::bpsk, phy::code_rate::half, 1e6),
        std::make_tuple(tag::tag_modulation::bpsk, phy::code_rate::two_thirds, 2e6),
        std::make_tuple(tag::tag_modulation::qpsk, phy::code_rate::half, 2.5e6),
        std::make_tuple(tag::tag_modulation::qpsk, phy::code_rate::two_thirds, 5e5),
        std::make_tuple(tag::tag_modulation::psk16, phy::code_rate::half, 1e6),
        std::make_tuple(tag::tag_modulation::psk16, phy::code_rate::two_thirds,
                        2.5e6)));

TEST(DecoderTest, FailsGracefullyOnPureNoise) {
  const auto ex = make_exchange(default_tag(), 300, -110.0, 0, 7);
  cvec noise(ex.y.size());
  dsp::rng gen(9);
  for (auto& v : noise) v = 1e-5 * gen.complex_gaussian();
  const backfi_decoder decoder(default_tag());
  const auto result = decode(decoder, ex.x, noise, ex.nominal, 300);
  EXPECT_FALSE(result.sync_found);
  EXPECT_FALSE(result.crc_ok);
}

TEST(DecoderTest, CrcCatchesResidualErrors) {
  // Heavy noise: if decoding completes, corrupted payloads must be flagged.
  int crc_false_accepts = 0;
  for (int t = 0; t < 10; ++t) {
    const auto ex = make_exchange(default_tag(), 300, -63.0, 0,
                                  static_cast<std::uint64_t>(t) + 100);
    const backfi_decoder decoder(default_tag());
    const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 300);
    if (result.decoded && result.crc_ok && result.payload != ex.payload)
      ++crc_false_accepts;
  }
  EXPECT_EQ(crc_false_accepts, 0);
}

TEST(DecoderTest, SnrEstimateTracksNoiseLevel) {
  const auto quiet = make_exchange(default_tag(), 300, -115.0, 0, 11);
  const auto loud = make_exchange(default_tag(), 300, -95.0, 0, 11);
  const backfi_decoder decoder(default_tag());
  const auto r_quiet = decode(decoder, quiet.x, quiet.y, quiet.nominal, 300);
  const auto r_loud = decode(decoder, loud.x, loud.y, loud.nominal, 300);
  ASSERT_TRUE(r_quiet.sync_found);
  ASSERT_TRUE(r_loud.sync_found);
  EXPECT_GT(r_quiet.post_mrc_snr_db, r_loud.post_mrc_snr_db + 10.0);
}

TEST(DecoderTest, CombinedChannelEstimateMatchesTruth) {
  const tag::tag_config cfg = default_tag();
  const auto ex = make_exchange(cfg, 300, -120.0, 0, 13);
  const backfi_decoder decoder(cfg);
  const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 300);
  ASSERT_TRUE(result.crc_ok);
  // True combined channel (with the tag's reflection amplitude and the
  // constant preamble phase absorbed).
  const cvec h_f = {cplx{5e-3, 1e-3}, cplx{1e-3, -5e-4}};
  const cvec h_b = {cplx{4e-3, -2e-3}, cplx{8e-4, 6e-4}};
  const cvec h_fb = dsp::convolve(h_f, h_b);
  const double amp = dsp::db_to_amplitude(-cfg.insertion_loss_db);
  ASSERT_GE(result.h_fb.size(), h_fb.size());
  for (std::size_t k = 0; k < h_fb.size(); ++k) {
    EXPECT_NEAR(std::abs(result.h_fb[k] - h_fb[k] * amp),
                0.0, 0.05 * std::abs(h_fb[0])) << k;
  }
}

TEST(DecoderTest, ReturnsEarlyWhenPayloadCannotFit) {
  const auto ex = make_exchange(default_tag(), 300, -120.0, 0, 15);
  const backfi_decoder decoder(default_tag());
  // Absurd payload size: cannot fit in the excitation.
  const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 1000000);
  EXPECT_FALSE(result.decoded);
  EXPECT_FALSE(result.crc_ok);
  EXPECT_EQ(result.failure, decode_failure::payload_too_long);
}

// Oversized payload_bits through every decoder entry point. 2^40 is
// representable but cannot fit the capture (or the 64-symbol stream); the
// coded-length walk it used to start ran 2^41 iterations. SIZE_MAX - 20
// wrapped `payload_bits + 32` to 11 and ended in std::length_error. Both
// must now end in a typed failure without reading past the capture.
TEST(DecoderTest, OversizedPayloadIsTypedAtEveryEntryPoint) {
  const auto ex = make_exchange(default_tag(), 300, -120.0, 0, 17);
  const backfi_decoder decoder(default_tag());
  const cvec symbols(64, cplx{0.7, 0.7});
  constexpr std::size_t kRepresentable = std::size_t{1} << 40;
  constexpr std::size_t kWrapping =
      std::numeric_limits<std::size_t>::max() - 20;

  for (const std::size_t bits : {kRepresentable, kWrapping}) {
    const auto r = decode(decoder, ex.x, ex.y, ex.nominal, bits);
    EXPECT_FALSE(r.decoded) << bits;
    EXPECT_EQ(r.failure, decode_failure::payload_too_long) << bits;
  }

  decoder_scratch scratch;
  const auto long_stream =
      decoder.decode_from_symbols(symbols, 0.1, kRepresentable, &scratch);
  EXPECT_FALSE(long_stream.decoded);
  EXPECT_EQ(long_stream.failure, decode_failure::insufficient_symbols);
  const auto wrapping =
      decoder.decode_from_symbols(symbols, 0.1, kWrapping, &scratch);
  EXPECT_FALSE(wrapping.decoded);
  EXPECT_EQ(wrapping.failure, decode_failure::payload_too_long);

  // decode() scans the clamped window for its finite check before the
  // payload_too_long exit, so the representable size keeps a window that
  // runs to the capture end; the unrepresentable one exits before reading
  // anything, so its window is empty.
  const dsp::sample_range w =
      decoder.read_window_bounds(ex.y.size(), ex.nominal, kRepresentable);
  EXPECT_FALSE(w.empty());
  EXPECT_EQ(w.end, ex.y.size());
  EXPECT_TRUE(
      decoder.read_window_bounds(ex.y.size(), ex.nominal, kWrapping).empty());
  EXPECT_TRUE(decoder
                  .read_window_bounds(ex.y.size(), ex.nominal,
                                      tag::max_payload_bits + 1)
                  .empty());
}

TEST(DecoderTest, MrcGuardSkipsChannelMemoryButKeepsSamples) {
  static_assert(decoder_config::fb_taps == 5);
  tag::tag_config tag_cfg = default_tag();
  tag_cfg.rate.symbol_rate_hz = 1e6;  // 20 samples per symbol: skips 4
  EXPECT_EQ(backfi_decoder(tag_cfg).mrc_guard(), 4u);
  tag_cfg.rate.symbol_rate_hz = 4e6;  // 5 samples: keeps 2
  EXPECT_EQ(backfi_decoder(tag_cfg).mrc_guard(), 3u);
  tag_cfg.rate.symbol_rate_hz = 10e6;  // 2 samples: keeps 1
  EXPECT_EQ(backfi_decoder(tag_cfg).mrc_guard(), 1u);
}

TEST(DecoderTest, RetryScheduleStopsWideningAtTheSearchClamp) {
  // 24 * 3^10 ~ 1.4e6 is the first search width past the 10^6-sample
  // clamp, so every longer retry schedule reads the same window, and one
  // of SIZE_MAX retries constructs at once instead of widening 1.8e19
  // times. Nine retries (472,392) stay below the clamp.
  const std::size_t capture_len = std::size_t{1} << 23;
  const std::size_t origin = 2'000'000;
  const auto bounds = [&](std::size_t retries) {
    decoder_config cfg;
    cfg.sync_retries = retries;
    return backfi_decoder(default_tag(), cfg)
        .read_window_bounds(capture_len, origin, 600);
  };
  const dsp::sample_range clamped = bounds(10);
  const dsp::sample_range saturated = bounds(SIZE_MAX);
  ASSERT_FALSE(clamped.empty());
  EXPECT_GT(clamped.begin, 0u);
  EXPECT_LT(clamped.end, capture_len);
  EXPECT_EQ(saturated.begin, clamped.begin);
  EXPECT_EQ(saturated.end, clamped.end);
  EXPECT_EQ(bounds(11).end, clamped.end);
  EXPECT_GT(clamped.size(), bounds(9).size());
}

TEST(DecoderTest, EmptyInputYieldsTypedFailure) {
  const backfi_decoder decoder(default_tag());
  const auto result = decode(decoder, {}, {}, 0, 100);
  EXPECT_FALSE(result.decoded);
  EXPECT_EQ(result.failure, decode_failure::empty_input);
}

TEST(DecoderTest, MismatchedBufferLengthsYieldTypedFailure) {
  const auto ex = make_exchange(default_tag(), 300, -120.0, 0, 16);
  const backfi_decoder decoder(default_tag());
  const auto result = decode(
      decoder, ex.x, std::span(ex.y).first(ex.y.size() - 7), ex.nominal, 300);
  EXPECT_FALSE(result.decoded);
  EXPECT_EQ(result.failure, decode_failure::size_mismatch);
}

TEST(DecoderTest, OriginPastBufferEndYieldsTypedFailure) {
  const auto ex = make_exchange(default_tag(), 300, -120.0, 0, 17);
  const backfi_decoder decoder(default_tag());
  const auto result = decode(decoder, ex.x, ex.y, ex.y.size(), 300);
  EXPECT_FALSE(result.decoded);
  EXPECT_EQ(result.failure, decode_failure::origin_out_of_range);
}

TEST(DecoderTest, ZeroPayloadYieldsTypedFailure) {
  const auto ex = make_exchange(default_tag(), 300, -120.0, 0, 18);
  const backfi_decoder decoder(default_tag());
  const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 0);
  EXPECT_FALSE(result.decoded);
  EXPECT_EQ(result.failure, decode_failure::zero_payload);
}

TEST(DecoderTest, NonFiniteSamplesYieldTypedFailure) {
  auto ex = make_exchange(default_tag(), 300, -120.0, 0, 19);
  // Inside the estimation preamble (the silent period before it is no
  // longer scanned: the finite check covers only the samples the decoder
  // reads, see NonFiniteSamplesOutsideDecodeWindowStillDecode).
  const std::size_t silent_samples = 20 * default_tag().silent_us;
  ex.y[ex.nominal + silent_samples + 100] =
      cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
  const backfi_decoder decoder(default_tag());
  const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 300);
  EXPECT_FALSE(result.decoded);
  EXPECT_EQ(result.failure, decode_failure::non_finite_samples);
}

TEST(FiniteWindowKernelTest, FlagsEveryLanePositionAndKind) {
  // The vectorized finite scan checks four doubles per compare; a NaN/inf
  // must be caught at every lane alignment, in either component, in either
  // buffer, including the scalar remainder tail and the window edges.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t n = 67;  // odd: exercises the remainder path
  const cvec clean(n, cplx{1.0, -1.0});
  EXPECT_TRUE(detail::all_finite_window(clean, clean, 0, n));
  EXPECT_TRUE(detail::all_finite_window(clean, clean, 5, 5));  // empty window
  for (const double bad : {nan, inf, -inf}) {
    for (std::size_t pos : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                            std::size_t{3}, std::size_t{4}, std::size_t{33},
                            n - 2, n - 1}) {
      for (int component = 0; component < 2; ++component) {
        for (int buffer = 0; buffer < 2; ++buffer) {
          cvec x = clean, y = clean;
          cvec& target = buffer == 0 ? x : y;
          target[pos] = component == 0 ? cplx{bad, 0.0} : cplx{0.0, bad};
          EXPECT_FALSE(detail::all_finite_window(x, y, 0, n))
              << bad << " at " << pos;
          // Outside the scanned window the same value must not trip it.
          if (pos + 1 < n) {
            EXPECT_TRUE(detail::all_finite_window(x, y, 0, pos))
                << bad << " at " << pos;
          }
          EXPECT_TRUE(detail::all_finite_window(x, y, pos + 1, n))
              << bad << " at " << pos;
        }
      }
    }
  }
}

TEST(DecoderTest, SuccessfulDecodeReportsNoFailure) {
  const auto ex = make_exchange(default_tag(), 300, -120.0, 0, 20);
  const backfi_decoder decoder(default_tag());
  const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 300);
  ASSERT_TRUE(result.crc_ok);
  EXPECT_EQ(result.failure, decode_failure::none);
  EXPECT_STREQ(to_string(result.failure), "none");
}

TEST(DecoderTest, PhaseTrackingAbsorbsSlowResidualRotation) {
  // A slow phase ramp across the capture (stale canceller / residual CFO
  // at the front end): the single sync-word correction cannot follow it,
  // the decision-directed loop can.
  const tag::tag_config tag_cfg = default_tag();
  auto ex = make_exchange(tag_cfg, 300, -120.0, 0, 21);
  // ~2 rad of drift across the ~6000-sample payload: far beyond the QPSK
  // slicing margin (pi/4) of the single sync-anchored correction, yet only
  // ~6 mrad per symbol for the tracking loop.
  const double ramp = 3e-4;
  for (std::size_t n = 0; n < ex.y.size(); ++n)
    ex.y[n] *= std::polar(1.0, ramp * static_cast<double>(n));

  decoder_config no_tracking;
  no_tracking.phase_tracking = false;
  const backfi_decoder plain(tag_cfg, no_tracking);
  const backfi_decoder tracking(tag_cfg);
  const auto without = decode(plain, ex.x, ex.y, ex.nominal, 300);
  const auto with = decode(tracking, ex.x, ex.y, ex.nominal, 300);
  EXPECT_FALSE(without.crc_ok);
  EXPECT_TRUE(with.crc_ok);
}


TEST(DecoderTest, NonFiniteSamplesOutsideDecodeWindowStillDecode) {
  // The finite scan is restricted to the samples the pipeline actually
  // reads (estimation window through payload end plus the widest timing
  // search). Garbage in the wake region or far past the payload — which a
  // co-channel burst can easily leave in the capture — must not veto an
  // otherwise clean decode.
  auto ex = make_exchange(default_tag(), 300, -120.0, 0, 23);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ex.y[0] = cplx{nan, nan};                // wake region, before the window
  ex.y[ex.y.size() - 1] = cplx{nan, 0.0};  // far past the payload symbols
  ex.x[1] = cplx{0.0, nan};                // x is scanned over the same window
  const backfi_decoder decoder(default_tag());
  const auto result = decode(decoder, ex.x, ex.y, ex.nominal, 300);
  ASSERT_TRUE(result.decoded);
  EXPECT_EQ(result.failure, decode_failure::none);
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.payload, ex.payload);
}

TEST(DecoderTest, DirtyScratchDecodeBitIdenticalToFreshScratch) {
  const auto ex = make_exchange(default_tag(), 300, -112.0, 5, 24);
  const backfi_decoder decoder(default_tag());
  const auto plain = decode(decoder, ex.x, ex.y, ex.nominal, 300);
  ASSERT_TRUE(plain.crc_ok);

  // Dirty the scratch with a different exchange first: decode results must
  // be independent of scratch history.
  decoder_scratch scratch;
  const auto other = make_exchange(default_tag(), 200, -110.0, 3, 25);
  decoder.decode(other.x, other.y, other.nominal, 200, &scratch);

  const auto ws = decoder.decode(ex.x, ex.y, ex.nominal, 300, &scratch);
  EXPECT_EQ(ws.crc_ok, plain.crc_ok);
  EXPECT_EQ(ws.failure, plain.failure);
  EXPECT_EQ(ws.payload, plain.payload);
  EXPECT_EQ(ws.timing_offset, plain.timing_offset);
  EXPECT_EQ(ws.sync_attempts, plain.sync_attempts);
  EXPECT_EQ(ws.sync_correlation, plain.sync_correlation);
  EXPECT_EQ(ws.post_mrc_snr_db, plain.post_mrc_snr_db);
  EXPECT_EQ(ws.evm_rms, plain.evm_rms);
  ASSERT_EQ(ws.h_fb.size(), plain.h_fb.size());
  for (std::size_t i = 0; i < plain.h_fb.size(); ++i)
    ASSERT_EQ(ws.h_fb[i], plain.h_fb[i]) << i;
  ASSERT_EQ(ws.symbol_estimates.size(), plain.symbol_estimates.size());
  for (std::size_t i = 0; i < plain.symbol_estimates.size(); ++i)
    ASSERT_EQ(ws.symbol_estimates[i], plain.symbol_estimates[i]) << i;
}

std::uint64_t fnv1a_doubles(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// The soft path pinned below the decision level: FNV-1a 64 over the bit
// patterns of the demapped LLRs (decoder_scratch::soft) and the
// depunctured mother-code metrics (::mother), plus the Viterbi path metric
// of the same metrics, for one noisy decode per PSK order. Decoded bits,
// SNR and EVM are pinned elsewhere; an LLR change that flips no decision
// would pass those and fails here.
TEST(DecoderTest, SoftOutputsPinned) {
  struct pinned {
    std::uint64_t soft_fnv;
    std::uint64_t mother_fnv;
    double path_metric;
  };
  const std::pair<tag::tag_modulation, phy::code_rate> rates[] = {
      {tag::tag_modulation::bpsk, phy::code_rate::half},
      {tag::tag_modulation::qpsk, phy::code_rate::two_thirds},
      {tag::tag_modulation::psk8, phy::code_rate::half},
      {tag::tag_modulation::psk16, phy::code_rate::two_thirds},
  };
  // Hex-float literals: exact, no decimal round trip.
  const pinned want[] = {
      {0xb994a8b3a44c9e43ULL, 0xb994a8b3a44c9e43ULL, 0x1.5a81da034f92ap+17},
      {0x8380502f3bc9cf4aULL, 0xda858470fa41c68aULL, 0x1.8b1c5dd58dcfdp+16},
      {0xa75f940601943877ULL, 0xa75f940601943877ULL, 0x1.019938512b132p+16},
      {0x96b50d017a8a22a6ULL, 0x0e108a0ede274a86ULL, 0x1.e69382a15c5a3p+14},
  };
  constexpr std::size_t kPayload = 240;
  for (std::size_t i = 0; i < std::size(rates); ++i) {
    tag::tag_config cfg = default_tag();
    cfg.rate = {rates[i].first, rates[i].second, 1e6};
    const auto ex = make_exchange(cfg, kPayload, -108.0, 4, 60 + i);
    const backfi_decoder decoder(cfg);
    decoder_scratch scratch;
    const auto result =
        decoder.decode(ex.x, ex.y, ex.nominal, kPayload, &scratch);
    ASSERT_TRUE(result.decoded) << i;
    std::vector<std::uint64_t> decisions;
    phy::bitvec decoded;
    const double metric = phy::viterbi_decode(scratch.mother, kPayload + 32,
                                              decisions, decoded);
    EXPECT_EQ(fnv1a_doubles(scratch.soft), want[i].soft_fnv) << i;
    EXPECT_EQ(fnv1a_doubles(scratch.mother), want[i].mother_fnv) << i;
    EXPECT_EQ(metric, want[i].path_metric) << i;
  }
}

TEST(DecoderTest, NullScratchThrows) {
  const auto ex = make_exchange(default_tag(), 300, -112.0, 0, 26);
  const backfi_decoder decoder(default_tag());
  EXPECT_THROW(decoder.decode(ex.x, ex.y, ex.nominal, 300, nullptr),
               std::invalid_argument);
  const cvec symbols(64, cplx{0.7, 0.7});
  EXPECT_THROW(decoder.decode_from_symbols(symbols, 0.1, 300, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace backfi::reader
