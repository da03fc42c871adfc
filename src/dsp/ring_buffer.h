// Bounded lock-free single-producer / single-consumer ring buffer.
//
// The streaming receive pipeline (reader/stream_session) connects its
// stages with these: exactly one thread pushes and exactly one thread pops,
// so the only synchronization needed is a pair of acquire/release cursors —
// no mutex, no CAS loop, one cache line per side. Capacity is fixed at
// construction (rounded up to a power of two) and the buffer never
// allocates after that, which is what makes the queue a *backpressure*
// boundary: a full ring tells the producer to stall or drop instead of
// growing without bound.
//
// Contract:
//  - try_push/emplace may be called by ONE producer thread, try_pop by ONE
//    consumer thread. Producer and consumer may be the same thread (the
//    single-threaded stream session drains inline).
//  - try_push moves the value in and returns false (value untouched) when
//    the ring is full; try_pop moves the value out and returns false when
//    empty.
//  - size() is exact when producer and consumer are the same thread, and a
//    conservative snapshot otherwise.
//  - high_water() is maintained by the producer side only: the maximum
//    occupancy observed at push time (the queue-depth probe the stream
//    session exports).
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace backfi::dsp {

/// The largest power of two a size_t holds: the largest ring capacity.
inline constexpr std::size_t max_ring_capacity =
    (std::numeric_limits<std::size_t>::max() >> 1) + 1;

/// Round up to the next power of two (minimum 2). A request above
/// max_ring_capacity has no such power and throws std::length_error.
constexpr std::size_t ring_capacity_for(std::size_t requested) {
  if (requested > max_ring_capacity)
    throw std::length_error("ring_capacity_for: no power-of-two capacity");
  std::size_t cap = 2;
  while (cap < requested) cap <<= 1;
  return cap;
}

template <typename T>
class spsc_ring {
 public:
  /// A ring holding up to ring_capacity_for(capacity) elements.
  explicit spsc_ring(std::size_t capacity)
      : slots_(ring_capacity_for(capacity)),
        mask_(ring_capacity_for(capacity) - 1) {}

  spsc_ring(const spsc_ring&) = delete;
  spsc_ring& operator=(const spsc_ring&) = delete;

  /// Producer: move `value` in. False (value untouched) when full.
  bool try_push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t depth = tail - head;
    if (depth >= slots_.size()) return false;
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    if (depth + 1 > high_water_) high_water_ = depth + 1;
    return true;
  }

  bool try_push(const T& value) {
    T copy = value;
    return try_push(std::move(copy));
  }

  /// Consumer: move the oldest element into `out`. False when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Occupancy snapshot (exact only when both sides run on one thread).
  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  bool empty() const { return size() == 0; }
  bool full() const { return size() >= slots_.size(); }
  std::size_t capacity() const { return slots_.size(); }

  /// Maximum occupancy ever observed by the producer at push time.
  /// Producer-thread read only while the consumer is live.
  std::size_t high_water() const { return high_water_; }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  /// Producer and consumer cursors on separate cache lines so the two
  /// sides never invalidate each other's line on their own updates.
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< next slot to write
  alignas(64) std::atomic<std::size_t> head_{0};  ///< next slot to read
  std::size_t high_water_ = 0;  ///< producer-owned
};

}  // namespace backfi::dsp
