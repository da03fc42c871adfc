#include "dsp/ring_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace backfi::dsp {
namespace {

TEST(RingBuffer, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ring_capacity_for(0), 2u);
  EXPECT_EQ(ring_capacity_for(1), 2u);
  EXPECT_EQ(ring_capacity_for(2), 2u);
  EXPECT_EQ(ring_capacity_for(3), 4u);
  EXPECT_EQ(ring_capacity_for(8), 8u);
  EXPECT_EQ(ring_capacity_for(9), 16u);
  EXPECT_EQ(spsc_ring<int>(5).capacity(), 8u);
}

TEST(RingBuffer, CapacityAboveTopPowerOfTwoThrows) {
  // Past the largest power of two a size_t holds, doubling would wrap to 0
  // and loop forever; the rounding rejects such requests instead.
  EXPECT_EQ(ring_capacity_for(max_ring_capacity), max_ring_capacity);
  EXPECT_EQ(ring_capacity_for(max_ring_capacity - 1), max_ring_capacity);
  EXPECT_THROW(ring_capacity_for(max_ring_capacity + 1), std::length_error);
  EXPECT_THROW(ring_capacity_for(SIZE_MAX), std::length_error);
}

TEST(RingBuffer, PushPopPreservesFifoOrderAcrossWraparound) {
  spsc_ring<std::size_t> ring(4);  // capacity 4; cursors wrap many times
  std::size_t next_in = 0;
  std::size_t next_out = 0;
  // Interleave pushes and pops so the cursors cross the capacity boundary
  // repeatedly with the ring near-full the whole time.
  for (int round = 0; round < 1000; ++round) {
    while (ring.try_push(std::size_t(next_in))) ++next_in;
    std::size_t got = 0;
    ASSERT_TRUE(ring.try_pop(got));
    ASSERT_EQ(got, next_out);
    ++next_out;
  }
  // Drain: everything pushed comes out exactly once, in order.
  std::size_t got = 0;
  while (ring.try_pop(got)) {
    ASSERT_EQ(got, next_out);
    ++next_out;
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, FullRingRefusesPushAndLeavesValueUntouched) {
  spsc_ring<std::string> ring(2);
  ASSERT_TRUE(ring.try_push(std::string("a")));
  ASSERT_TRUE(ring.try_push(std::string("b")));
  EXPECT_TRUE(ring.full());

  std::string rejected = "keep-me";
  EXPECT_FALSE(ring.try_push(std::move(rejected)));
  EXPECT_EQ(rejected, "keep-me");  // backpressure: value not consumed

  std::string out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, "a");
  EXPECT_TRUE(ring.try_push(std::string("c")));  // slot freed by the pop
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, "b");
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, "c");
  EXPECT_FALSE(ring.try_pop(out));  // empty
}

TEST(RingBuffer, HighWaterTracksMaxDepthSeenAtPushTime) {
  spsc_ring<int> ring(8);
  EXPECT_EQ(ring.high_water(), 0u);
  ring.try_push(1);
  ring.try_push(2);
  EXPECT_EQ(ring.high_water(), 2u);
  int out = 0;
  ring.try_pop(out);
  ring.try_pop(out);
  EXPECT_EQ(ring.high_water(), 2u);  // monotone: drains don't lower it
  for (int i = 0; i < 5; ++i) ring.try_push(i);
  EXPECT_EQ(ring.high_water(), 5u);
}

// Two-thread producer/consumer handoff (TSan-covered in CI): every value
// crosses the ring exactly once, in order, through a capacity far smaller
// than the item count so the cursors wrap thousands of times.
TEST(RingBufferThreaded, TwoThreadHandoffDeliversAllInOrder) {
  constexpr std::size_t kItems = 200000;
  spsc_ring<std::size_t> ring(8);

  std::vector<std::size_t> received;
  received.reserve(kItems);
  std::thread consumer([&] {
    std::size_t got = 0;
    while (received.size() < kItems) {
      if (ring.try_pop(got))
        received.push_back(got);
      else
        std::this_thread::yield();
    }
  });

  for (std::size_t i = 0; i < kItems; ++i) {
    while (!ring.try_push(std::size_t(i))) std::this_thread::yield();
  }
  consumer.join();

  ASSERT_EQ(received.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) ASSERT_EQ(received[i], i);
  EXPECT_TRUE(ring.empty());
  EXPECT_LE(ring.high_water(), ring.capacity());
  EXPECT_GE(ring.high_water(), 1u);
}

// Move-only payloads cross the boundary intact (the stream session moves
// decoded segments with owned buffers through its rings).
TEST(RingBufferThreaded, MoveOnlyPayloadOwnershipTransfers) {
  struct payload {
    std::unique_ptr<std::size_t> value;
  };
  constexpr std::size_t kItems = 20000;
  spsc_ring<payload> ring(4);

  std::size_t sum = 0;
  std::thread consumer([&] {
    std::size_t seen = 0;
    payload p;
    while (seen < kItems) {
      if (ring.try_pop(p)) {
        ASSERT_NE(p.value, nullptr);
        sum += *p.value;
        ++seen;
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (std::size_t i = 0; i < kItems; ++i) {
    payload p{std::make_unique<std::size_t>(i)};
    while (!ring.try_push(std::move(p))) std::this_thread::yield();
    EXPECT_EQ(p.value, nullptr);  // moved in on the successful push
  }
  consumer.join();
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

}  // namespace
}  // namespace backfi::dsp
