#include "reader/block_collector.h"

#include <gtest/gtest.h>

#include "dsp/rng.h"
#include "tag/packet_coder.h"

namespace backfi::reader {
namespace {

phy::erasure_spec make_spec() {
  phy::erasure_spec spec;
  spec.block_symbols = 6;
  spec.symbol_bytes = 8;
  spec.rs_repair_symbols = 3;
  return spec;
}

std::vector<std::uint8_t> block_bytes(const phy::erasure_spec& spec,
                                      std::uint64_t seed) {
  dsp::rng gen(seed);
  std::vector<std::uint8_t> data(spec.block_symbols * spec.symbol_bytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(gen.uniform_int(256));
  return data;
}

TEST(BlockCollectorTest, EndToEndRsSurvivesErasures) {
  const phy::erasure_spec spec = make_spec();
  tag::packet_coder coder(spec);
  block_collector collector(spec);
  const auto data = block_bytes(spec, 1);
  coder.push_block(data);
  // Drop every third packet of the coded stream; k of 9 still get through.
  std::size_t sent = 0;
  block_report last;
  while (coder.has_packet()) {
    const phy::coded_packet p = coder.next_packet();
    if (sent++ % 3 == 2) continue;  // erased
    last = collector.accept(p.bits);
    if (last.status == phy::block_status::decoded) break;
  }
  ASSERT_EQ(last.status, phy::block_status::decoded);
  EXPECT_EQ(last.data, data);
  EXPECT_EQ(collector.stats().blocks_decoded, 1u);
}

TEST(BlockCollectorTest, EndToEndRsRepairSurvivesBurstErasure) {
  const phy::erasure_spec spec = make_spec();
  tag::packet_coder coder(spec);
  block_collector collector(spec);
  const auto data = block_bytes(spec, 2);
  coder.push_block(data);
  // A burst kills the first 4 packets outright: 5 of the 9 scheduled
  // symbols survive, one short of k = 6, so only a repair grant made on
  // demand carries the block to decoded.
  std::size_t sent = 0, granted = 0;
  block_report last;
  while (last.status != phy::block_status::decoded) {
    if (!coder.has_packet()) {
      ASSERT_EQ(last.status, phy::block_status::pending);
      ASSERT_EQ(coder.exhausted_block(), std::optional<std::uint32_t>{0});
      const std::size_t grant = coder.request_repair(0, 4);
      ASSERT_GT(grant, 0u);
      granted += grant;
    }
    const phy::coded_packet p = coder.next_packet();
    ++sent;
    if (sent <= 4) continue;  // burst erasure
    last = collector.accept(p.bits);
  }
  EXPECT_EQ(sent, 10u);  // 4 erased + k delivered
  EXPECT_EQ(granted, 4u);
  EXPECT_EQ(last.symbols_received, spec.block_symbols);
  EXPECT_EQ(collector.status(0), phy::block_status::decoded);
  EXPECT_EQ(last.data, data);
}

TEST(BlockCollectorTest, UncodedNeedsEverySourceSymbol) {
  // With no repair budget the systematic code is the uncoded scheme: the
  // block decodes only once every one of its k source symbols arrived.
  phy::erasure_spec spec = make_spec();
  spec.rs_repair_symbols = 0;
  tag::packet_coder coder(spec);
  block_collector collector(spec);
  const auto data = block_bytes(spec, 3);
  coder.push_block(data);
  // Deliver all but the last symbol.
  for (std::size_t i = 0; i + 1 < spec.block_symbols; ++i) {
    const phy::coded_packet p = coder.next_packet();
    EXPECT_EQ(collector.accept(p.bits).status, phy::block_status::pending);
  }
  const phy::coded_packet p = coder.next_packet();
  const block_report report = collector.accept(p.bits);
  EXPECT_EQ(report.status, phy::block_status::decoded);
  EXPECT_EQ(report.data, data);
  EXPECT_FALSE(coder.has_packet());
}

TEST(BlockCollectorTest, DuplicatesAndLateSymbolsAreCounted) {
  const phy::erasure_spec spec = make_spec();
  tag::packet_coder coder(spec);
  block_collector collector(spec);
  coder.push_block(block_bytes(spec, 4));
  const phy::coded_packet p = coder.next_packet();
  collector.accept(p.bits);
  collector.accept(p.bits);  // duplicate ESI
  EXPECT_EQ(collector.stats().duplicate_symbols, 1u);
  EXPECT_EQ(collector.stats().packets_accepted, 2u);
}

TEST(BlockCollectorTest, MalformedPayloadIsRejected) {
  const phy::erasure_spec spec = make_spec();
  block_collector collector(spec);
  const phy::bitvec junk(spec.packet_payload_bits() - 4, 1);
  const block_report report = collector.accept(junk);
  EXPECT_EQ(report.block, 0xffffffffu);
  EXPECT_EQ(collector.stats().packets_rejected, 1u);
}

TEST(BlockCollectorTest, AbandonMarksUnrecoverableButNeverDowngrades) {
  const phy::erasure_spec spec = make_spec();
  tag::packet_coder coder(spec);
  block_collector collector(spec);
  const auto data = block_bytes(spec, 5);
  coder.push_block(data);
  collector.abandon(0);
  EXPECT_EQ(collector.status(0), phy::block_status::unrecoverable);
  EXPECT_EQ(collector.stats().blocks_abandoned, 1u);
  // A decoded block cannot be abandoned after the fact.
  coder.push_block(data);
  while (coder.has_packet()) {
    const phy::coded_packet p = coder.next_packet();
    if (p.block == 1) collector.accept(p.bits);
  }
  ASSERT_EQ(collector.status(1), phy::block_status::decoded);
  collector.abandon(1);
  EXPECT_EQ(collector.status(1), phy::block_status::decoded);
}

}  // namespace
}  // namespace backfi::reader
