// The tag packet frame (paper Fig. 4) has one derivation, tag::frame_layout.
// The tag emits it, the decoder reads it and scenario_for_point sizes the
// excitation burst around it; these tests check that the three agree at
// every operating point, and pin the default frame's sample offsets as
// literals worked out by hand.
#include <gtest/gtest.h>

#include <cstddef>

#include "reader/decoder.h"
#include "reader/excitation.h"
#include "sim/rate_adaptation.h"
#include "tag/tag_device.h"
#include "tag/wake_detector.h"

namespace backfi::sim {
namespace {

TEST(FrameLayoutTest, DefaultTagFrameOffsets) {
  // Origin 1000; 16 us silent and 32 us preamble at 20 samples/us; 16 QPSK
  // sync symbols at 1 MS/s (20 samples each); 256 payload bits + 32 CRC
  // bits at rate 1/2 = 2 * (288 + 6) = 588 coded bits = 294 QPSK symbols.
  const auto f = tag::frame_layout(tag::tag_config{}, 256, 1000);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->preamble_start, 1320u);
  EXPECT_EQ(f->sync_start, 1960u);
  EXPECT_EQ(f->data_start, 2280u);
  EXPECT_EQ(f->samples_per_symbol, 20u);
  EXPECT_EQ(f->payload_symbols, 294u);
  EXPECT_EQ(f->data_end, 8160u);

  // Long-preamble mode (96 us) moves only the sync word and what follows.
  tag::tag_config long_mode;
  long_mode.preamble_us = 96;
  const auto g = tag::frame_layout(long_mode, 256, 1000);
  ASSERT_TRUE(g);
  EXPECT_EQ(g->preamble_start, 1320u);
  EXPECT_EQ(g->sync_start, 3240u);
  EXPECT_EQ(g->data_end, 9440u);
}

TEST(FrameLayoutTest, TagDecoderAndExcitationAgreeAtEveryOperatingPoint) {
  tag::tag_transmission tx;
  std::size_t cases = 0;
  for (const std::size_t preamble_us : {32u, 96u}) {
    for (const std::size_t payload_bits : {8u, 256u, 1000u}) {
      scenario_config base;
      base.tag.preamble_us = preamble_us;
      base.payload_bits = payload_bits;
      for (const operating_point& point : all_operating_points()) {
        const scenario_config cfg = scenario_for_point(base, point.rate, 2.0);
        const std::size_t bits = cfg.payload_bits;
        const std::size_t wake_end =
            cfg.excitation.wake_bits * tag::samples_per_wake_bit;
        const std::size_t capture = reader::excitation_length(cfg.excitation);
        const auto frame = tag::frame_layout(cfg.tag, bits);
        ASSERT_TRUE(frame);
        SCOPED_TRACE(testing::Message()
                     << tag::modulation_name(point.rate.modulation) << " "
                     << point.rate.symbol_rate_hz << " S/s, preamble "
                     << preamble_us << " us, " << bits << " bits");

        // The burst holds the wake pulses, the frame and the timing search.
        EXPECT_GE(capture,
                  wake_end + frame->data_end +
                      static_cast<std::size_t>(cfg.decoder.timing_search));

        // The tag emits, at the nominal origin, the frame the decoder reads.
        const tag::tag_device device(cfg.tag);
        device.backscatter_into(phy::bitvec(bits, 1), capture, wake_end, tx);
        const reader::backfi_decoder decoder(cfg.tag, cfg.decoder);
        const auto read = decoder.layout(wake_end, bits);
        ASSERT_TRUE(read);
        EXPECT_EQ(tx.silent_start, wake_end);
        EXPECT_EQ(tx.preamble_start, read->preamble_start);
        EXPECT_EQ(tx.sync_start, read->sync_start);
        EXPECT_EQ(tx.data_start, read->data_start);
        EXPECT_EQ(tx.data_end, read->data_end);
        EXPECT_EQ(tx.samples_per_symbol, read->samples_per_symbol);
        EXPECT_EQ(tx.n_payload_symbols, read->payload_symbols);

        const dsp::sample_range window =
            decoder.read_window_bounds(capture, wake_end, bits);
        EXPECT_LE(window.begin, tx.preamble_start);
        EXPECT_GE(window.end, tx.data_end);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 2u * 3u * 36u);
}

}  // namespace
}  // namespace backfi::sim
