#include "tag/packet_coder.h"

#include <gtest/gtest.h>

#include "dsp/rng.h"

namespace backfi::tag {
namespace {

phy::erasure_spec make_spec() {
  phy::erasure_spec spec;
  spec.block_symbols = 4;
  spec.symbol_bytes = 8;
  spec.rs_repair_symbols = 2;
  return spec;
}

std::vector<std::uint8_t> block_bytes(const phy::erasure_spec& spec,
                                      std::uint64_t seed) {
  dsp::rng gen(seed);
  std::vector<std::uint8_t> data(spec.block_symbols * spec.symbol_bytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(gen.uniform_int(256));
  return data;
}

TEST(PacketCoderTest, RejectsDegenerateGeometry) {
  phy::erasure_spec spec = make_spec();
  spec.block_symbols = 0;
  EXPECT_THROW(packet_coder{spec}, std::invalid_argument);
  spec = make_spec();
  spec.symbol_bytes = 0;
  EXPECT_THROW(packet_coder{spec}, std::invalid_argument);
  spec = make_spec();
  spec.block_symbols = 250;
  spec.rs_repair_symbols = 20;  // 270 > 255 field points
  EXPECT_THROW(packet_coder{spec}, std::invalid_argument);
}

TEST(PacketCoderTest, SchedulesExactlyTheBudgetPerBlock) {
  const phy::erasure_spec spec = make_spec();
  packet_coder coder(spec);
  coder.push_block(block_bytes(spec, 1));
  std::size_t produced = 0;
  while (coder.has_packet()) {
    coder.next_packet();
    ++produced;
  }
  EXPECT_EQ(produced, spec.scheduled_symbols());
  EXPECT_EQ(coder.exhausted_block(), std::optional<std::uint32_t>{0});
  EXPECT_THROW(coder.next_packet(), std::logic_error);
}

TEST(PacketCoderTest, StripesAcrossOpenBlocks) {
  const phy::erasure_spec spec = make_spec();
  packet_coder coder(spec);
  coder.push_block(block_bytes(spec, 1));
  coder.push_block(block_bytes(spec, 2));
  std::vector<std::uint32_t> order;
  for (int i = 0; i < 6; ++i) order.push_back(coder.next_packet().block);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
}

TEST(PacketCoderTest, RepairGrantsRespectTheFieldLimit) {
  phy::erasure_spec spec = make_spec();
  spec.block_symbols = 250;
  spec.rs_repair_symbols = 3;  // scheduled 253 of 255
  packet_coder coder(spec);
  coder.push_block(block_bytes(spec, 3));
  EXPECT_EQ(coder.request_repair(0, 10), 2u);  // only 2 field points left
  EXPECT_EQ(coder.request_repair(0, 10), 0u);
  EXPECT_EQ(coder.stats().repair_symbols_granted, 2u);
}

TEST(PacketCoderTest, UncodedSchemeSendsEachSourceSymbolOnce) {
  // With no repair budget the systematic code is the uncoded scheme: the
  // k source symbols go out once each, verbatim and in order; nothing
  // else is scheduled, so the block is then exhausted.
  phy::erasure_spec spec = make_spec();
  spec.rs_repair_symbols = 0;
  packet_coder coder(spec);
  const auto data = block_bytes(spec, 6);
  coder.push_block(data);
  for (std::uint32_t esi = 0; esi < spec.block_symbols; ++esi) {
    ASSERT_FALSE(coder.exhausted_block().has_value());
    const phy::coded_packet packet = coder.next_packet();
    EXPECT_EQ(packet.esi, esi);
    const phy::bitvec verbatim = phy::pack_coded_packet(
        0, esi,
        std::span(data).subspan(esi * spec.symbol_bytes, spec.symbol_bytes));
    EXPECT_EQ(packet.bits, verbatim);
  }
  EXPECT_FALSE(coder.has_packet());
  EXPECT_EQ(coder.exhausted_block(), std::optional<std::uint32_t>(0));
}

TEST(PacketCoderTest, CompleteAndAbandonCloseBlocks) {
  const phy::erasure_spec spec = make_spec();
  packet_coder coder(spec);
  coder.push_block(block_bytes(spec, 7));
  coder.push_block(block_bytes(spec, 8));
  coder.complete_block(0);
  // Only block 1 is left to stripe over.
  EXPECT_EQ(coder.next_packet().block, 1u);
  EXPECT_EQ(coder.next_packet().block, 1u);
  coder.abandon_block(1);
  EXPECT_FALSE(coder.has_packet());
  EXPECT_EQ(coder.stats().blocks_completed, 1u);
  EXPECT_EQ(coder.stats().blocks_abandoned, 1u);
}

TEST(PacketCoderTest, PacketsCarryTheSpecLayout) {
  const phy::erasure_spec spec = make_spec();
  packet_coder coder(spec);
  coder.push_block(block_bytes(spec, 9));
  const phy::coded_packet packet = coder.next_packet();
  EXPECT_EQ(packet.bits.size(), spec.packet_payload_bits());
  std::uint32_t block = 0, esi = 0;
  std::vector<std::uint8_t> symbol;
  ASSERT_TRUE(phy::unpack_coded_packet(packet.bits, spec, block, esi, symbol));
  EXPECT_EQ(block, packet.block);
  EXPECT_EQ(esi, packet.esi);
}

TEST(PacketCoderTest, BlockIdsStopAtTheHeaderField) {
  // The packet header carries 16 bits of block id: the coder numbers
  // blocks 0..65535 and refuses the next one instead of wrapping to 0.
  phy::erasure_spec spec;
  spec.block_symbols = 1;
  spec.symbol_bytes = 1;
  spec.rs_repair_symbols = 0;
  packet_coder coder(spec);
  const std::uint8_t byte = 0x5a;
  phy::coded_packet last;
  for (std::size_t i = 0; i < phy::max_block_ids; ++i) {
    const std::uint32_t id = coder.push_block({&byte, 1});
    ASSERT_EQ(id, i);
    last = coder.next_packet();
    ASSERT_EQ(last.block, id);
    coder.complete_block(id);
  }
  // The last id still round-trips through the header.
  std::uint32_t block = 0, esi = 0;
  std::vector<std::uint8_t> symbol;
  ASSERT_TRUE(phy::unpack_coded_packet(last.bits, spec, block, esi, symbol));
  EXPECT_EQ(block, phy::max_block_ids - 1);
  EXPECT_THROW(coder.push_block({&byte, 1}), std::overflow_error);
  EXPECT_EQ(coder.stats().blocks_completed, phy::max_block_ids);
  EXPECT_FALSE(coder.has_packet());
}

}  // namespace
}  // namespace backfi::tag
