#include "reader/excitation.h"

#include <gtest/gtest.h>
#include <cstdint>
#include <cstring>

#include "dsp/replay_cache.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "phy/prbs.h"

namespace backfi::reader {
namespace {

TEST(ExcitationTest, LayoutMatchesConfig) {
  const excitation_config cfg{.tag_id = 3, .wake_bits = 16, .ppdu_bytes = 500};
  const excitation ex = build_excitation(cfg);
  EXPECT_EQ(ex.wake_end, 16u * 20u);
  EXPECT_EQ(ex.ppdu_start, ex.wake_end);
  EXPECT_EQ(ex.samples.size(), excitation_length(cfg));
  EXPECT_EQ(ex.wake_preamble, phy::wake_preamble(3, 16));
}

TEST(ExcitationTest, WakeSectionIsOokOfPreamble) {
  const excitation ex = build_excitation({.tag_id = 5});
  for (std::size_t b = 0; b < ex.wake_preamble.size(); ++b) {
    for (std::size_t i = 0; i < 20; ++i) {
      const cplx v = ex.samples[b * 20 + i];
      if (ex.wake_preamble[b]) {
        EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
      } else {
        EXPECT_NEAR(std::abs(v), 0.0, 1e-12);
      }
    }
  }
}

TEST(ExcitationTest, PpduFollowsWakeSection) {
  const excitation_config cfg{.tag_id = 1, .ppdu_bytes = 100};
  const excitation ex = build_excitation(cfg);
  const std::size_t ppdu_len = wifi::ppdu_length_samples(100, cfg.rate);
  ASSERT_EQ(ex.samples.size(), ex.ppdu_start + ppdu_len);
  // PPDU 0 is the client packet for payload seed payload_seed + 0.
  dsp::rng gen(cfg.payload_seed);
  std::vector<std::uint8_t> psdu(cfg.ppdu_bytes);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(gen.uniform_int(256));
  const wifi::tx_ppdu ppdu = wifi::transmit(psdu, {.rate = cfg.rate});
  ASSERT_EQ(ppdu.samples.size(), ppdu_len);
  EXPECT_EQ(std::memcmp(ex.samples.data() + ex.ppdu_start, ppdu.samples.data(),
                        ppdu_len * sizeof(cplx)),
            0);
  EXPECT_EQ(ex.ppdu.payload, psdu);
  EXPECT_EQ(ex.ppdu.n_data_symbols, ppdu.n_data_symbols);
  EXPECT_EQ(ex.ppdu.data_start, ppdu.data_start);
}

TEST(ExcitationTest, MultiPpduBurstConcatenates) {
  excitation_config cfg{.ppdu_bytes = 200};
  cfg.n_ppdus = 3;
  const excitation ex = build_excitation(cfg);
  EXPECT_EQ(ex.samples.size(),
            16u * 20u + 3u * wifi::ppdu_length_samples(200, cfg.rate));
  // The PPDUs carry different payloads (different seeds).
  const std::size_t ppdu_len = wifi::ppdu_length_samples(200, cfg.rate);
  double diff = 0.0;
  for (std::size_t i = 500; i < ppdu_len; ++i)
    diff += std::abs(ex.samples[ex.ppdu_start + i] -
                     ex.samples[ex.ppdu_start + ppdu_len + i]);
  EXPECT_GT(diff, 1.0);
}

TEST(ExcitationTest, DeterministicForSameConfig) {
  const excitation a = build_excitation({.tag_id = 9, .payload_seed = 7});
  const excitation b = build_excitation({.tag_id = 9, .payload_seed = 7});
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    ASSERT_EQ(a.samples[i], b.samples[i]);
}


TEST(ExcitationTest, BuildIntoMatchesBuildAndReusesBuffers) {
  excitation_config cfg;
  cfg.tag_id = 3;
  cfg.ppdu_bytes = 600;
  cfg.n_ppdus = 2;
  cfg.payload_seed = 9;
  const excitation a = build_excitation(cfg);

  excitation out;
  build_excitation_into(cfg, out);
  EXPECT_EQ(out.wake_end, a.wake_end);
  EXPECT_EQ(out.ppdu_start, a.ppdu_start);
  EXPECT_EQ(out.wake_preamble, a.wake_preamble);
  ASSERT_EQ(out.samples.size(), a.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    ASSERT_EQ(out.samples[i], a.samples[i]) << i;
  EXPECT_EQ(out.ppdu.data_start, a.ppdu.data_start);
  EXPECT_EQ(out.ppdu.n_data_symbols, a.ppdu.n_data_symbols);
  EXPECT_EQ(out.ppdu.payload, a.ppdu.payload);

  // Same config into the warm buffers reproduces the waveform (the
  // allocation count of this re-run is asserted in tests/alloc).
  build_excitation_into(cfg, out);
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    ASSERT_EQ(out.samples[i], a.samples[i]) << i;
}

TEST(ExcitationTest, PrefixCacheRespondsToEveryKeyField) {
  // The full-synthesis cache is keyed on (tag_id, wake_bits, rate,
  // ppdu_bytes, payload_seed, n_ppdus): vary each field and check the
  // waveform changes where it must, while a repeated config stays identical
  // (a stale cache hit on a mutated key would reproduce the previous
  // waveform).
  excitation_config base;
  base.ppdu_bytes = 400;
  const excitation ref = build_excitation(base);
  const excitation same = build_excitation(base);
  ASSERT_EQ(ref.samples.size(), same.samples.size());
  for (std::size_t i = 0; i < ref.samples.size(); ++i)
    ASSERT_EQ(ref.samples[i], same.samples[i]) << i;

  excitation_config other_tag = base;
  other_tag.tag_id = base.tag_id + 5;
  const excitation tag_ex = build_excitation(other_tag);
  EXPECT_NE(tag_ex.wake_preamble, ref.wake_preamble);

  excitation_config other_wake = base;
  other_wake.wake_bits = base.wake_bits + 4;
  EXPECT_NE(build_excitation(other_wake).wake_end, ref.wake_end);

  excitation_config other_bytes = base;
  other_bytes.ppdu_bytes = base.ppdu_bytes + 100;
  EXPECT_NE(build_excitation(other_bytes).samples.size(), ref.samples.size());

  excitation_config other_rate = base;
  other_rate.rate = wifi::wifi_rate::mbps12;
  EXPECT_NE(build_excitation(other_rate).samples.size(), ref.samples.size());

  excitation_config other_seed = base;
  other_seed.payload_seed = base.payload_seed + 1;
  EXPECT_NE(build_excitation(other_seed).ppdu.payload, ref.ppdu.payload);

  excitation_config other_count = base;
  other_count.n_ppdus = base.n_ppdus + 1;
  EXPECT_NE(build_excitation(other_count).samples.size(), ref.samples.size());

  // And the original key still serves the original waveform.
  const excitation again = build_excitation(base);
  ASSERT_EQ(again.samples.size(), ref.samples.size());
  for (std::size_t i = 0; i < ref.samples.size(); ++i)
    ASSERT_EQ(again.samples[i], ref.samples[i]) << i;
}

TEST(ExcitationTest, FullSynthesisCacheHitIsBitwiseIdentical) {
  // A key this test alone uses, built three times. The first build is a
  // miss; the process-wide admission gate records it at once (open) or at
  // its second sighting (closed), so the third build is a hit either way.
  // All three must agree bitwise — samples, layout, and every field of the
  // embedded PPDU.
  const bool cached =
      dsp::cache_budget_bytes("BACKFI_EXCITATION_CACHE_MB", 64) > 0;
  excitation_config cfg;
  cfg.tag_id = 11;
  cfg.ppdu_bytes = 321;
  cfg.n_ppdus = 2;
  cfg.payload_seed = 0xFEED5EEDu;

  const excitation first = build_excitation(cfg);
  const excitation second = build_excitation(cfg);
  const auto before = excitation_cache_stats();
  const excitation third = build_excitation(cfg);
  const auto after = excitation_cache_stats();

  for (const excitation* again : {&second, &third}) {
    const char* which = again == &second ? "second" : "third";
    ASSERT_EQ(again->samples.size(), first.samples.size()) << which;
    for (std::size_t i = 0; i < first.samples.size(); ++i)
      ASSERT_EQ(again->samples[i], first.samples[i]) << which << " " << i;
    EXPECT_EQ(again->wake_end, first.wake_end) << which;
    EXPECT_EQ(again->ppdu_start, first.ppdu_start) << which;
    EXPECT_EQ(again->wake_preamble, first.wake_preamble) << which;
    EXPECT_EQ(again->ppdu.rate, first.ppdu.rate) << which;
    EXPECT_EQ(again->ppdu.psdu_bytes, first.ppdu.psdu_bytes) << which;
    EXPECT_EQ(again->ppdu.n_data_symbols, first.ppdu.n_data_symbols) << which;
    EXPECT_EQ(again->ppdu.data_start, first.ppdu.data_start) << which;
    EXPECT_EQ(again->ppdu.payload, first.ppdu.payload) << which;
  }

  if (cached) {
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
  } else {
    // BACKFI_EXCITATION_CACHE_MB=0: every build synthesized fresh, which
    // the bitwise comparisons above still pin.
    EXPECT_EQ(after.hits, 0u);
    EXPECT_EQ(after.entries, 0u);
  }
}

}  // namespace
}  // namespace backfi::reader
