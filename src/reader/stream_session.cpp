#include "reader/stream_session.h"

#include <chrono>
#include <stdexcept>

namespace backfi::reader {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

fd::receive_chain_result cancel_packet(std::span<const cplx> x,
                                       std::span<const cplx> y,
                                       const stream_packet& packet,
                                       const backfi_decoder& decoder,
                                       const post_cancel_fn& hook,
                                       fd::receive_chain_config& chain,
                                       fd::receive_chain_scratch& scratch) {
  const std::size_t len = packet.end - packet.begin;
  const auto xseg = x.subspan(packet.begin, len);
  const auto yseg = y.subspan(packet.begin, len);
  const std::size_t wake_end = packet.wake_end - packet.begin;
  const std::size_t silent_end = packet.silent_end - packet.begin;
  if (!hook)
    chain.roi = decoder.read_window_bounds(len, wake_end, packet.payload_bits);
  const fd::receive_chain_result result =
      fd::run_receive_chain(xseg, yseg, wake_end, silent_end, chain, &scratch);
  if (hook) hook(xseg, std::span<cplx>(scratch.cleaned), silent_end);
  return result;
}

stream_session::stream_session(std::span<const cplx> x,
                               std::span<const cplx> y,
                               std::span<const stream_packet> schedule,
                               const stream_config& config)
    : x_(x),
      y_(y),
      schedule_(schedule.begin(), schedule.end()),
      config_(config) {
  if (x_.size() != y_.size())
    throw std::invalid_argument("stream_session: tx/rx capture length mismatch");
  if (config_.threads < 1 || config_.threads > 2)
    throw std::invalid_argument("stream_session: threads must be 1 or 2");
  fd::validate_or_throw(config_.chain, "stream_session");
  std::size_t previous_begin = 0;
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const stream_packet& p = schedule_[i];
    const bool ordered = i == 0 || p.begin >= previous_begin;
    if (!ordered || p.begin >= p.end || p.begin > p.wake_end ||
        p.wake_end > p.silent_end || p.silent_end > p.end ||
        p.end > y_.size() || p.payload_bits == 0 ||
        p.payload_bits > tag::max_payload_bits)
      throw std::invalid_argument("stream_session: malformed schedule entry");
    previous_begin = p.begin;
  }

  if (config_.queue_capacity > dsp::max_ring_capacity)
    throw std::invalid_argument(
        "stream_session: queue_capacity has no power-of-two ring size");
  capture_ring_ = std::make_unique<dsp::spsc_ring<std::size_t>>(
      config_.queue_capacity > 0 ? config_.queue_capacity : 1);

  // Probe confinement: in 2-thread mode the stages run on the worker, so
  // they report to a session-private collector merged after the join.
  if (config_.collector != nullptr && config_.threads == 2) {
    worker_collector_ = std::make_unique<obs::collector>();
    stage_collector_ = worker_collector_.get();
  } else {
    stage_collector_ = config_.collector;
  }
  config_.chain.collector = stage_collector_;
  decoder_config dec_cfg = config_.decoder;
  dec_cfg.collector = stage_collector_;
  decoder_ = std::make_unique<backfi_decoder>(config_.tag, dec_cfg);

  results_.resize(schedule_.size());
  for (std::size_t i = 0; i < results_.size(); ++i) results_[i].index = i;
  t_feed_ns_.resize(schedule_.size(), 0);

  if (config_.threads == 2)
    worker_ = std::thread(&stream_session::worker_loop, this);
}

stream_session::~stream_session() {
  try {
    finish();
  } catch (...) {
    // A throwing drain (e.g. std::bad_alloc mid-decode) must not escape a
    // destructor. The worker may still be running if finish() threw before
    // its join; release and join it so ~thread doesn't terminate. Explicit
    // finish() calls keep the full throwing behavior.
    producer_done_.store(true, std::memory_order_release);
    if (worker_.joinable()) worker_.join();
    finished_ = true;
  }
}

void stream_session::feed(std::size_t n_samples) {
  if (finished_) return;
  watermark_ = std::min(watermark_ + n_samples, y_.size());
  push_ready_packets();
}

void stream_session::push_ready_packets() {
  while (next_packet_ < schedule_.size() &&
         schedule_[next_packet_].end <= watermark_) {
    produce(next_packet_);
    ++next_packet_;
  }
}

void stream_session::produce(std::size_t index) {
  ++stats_.packets_in;
  // Feed->decoded latency starts here, so time spent blocked on a full
  // ring and queued in the capture ring is counted. The ring push's
  // release store publishes the stamp to the worker's acquiring pop.
  t_feed_ns_[index] = now_ns();
  if (config_.threads == 1) {
    // Inline mode: the ring still carries every hand-off (identical
    // wraparound behavior), drained on this thread.
    std::size_t ready = 0;
    while (!capture_ring_->try_push(std::size_t(index)))
      if (capture_ring_->try_pop(ready)) process_packet(ready);
    while (capture_ring_->try_pop(ready)) process_packet(ready);
    return;
  }
  // 2-thread mode: the capture ring is the backpressure boundary.
  if (config_.overflow == stream_overflow::drop) {
    if (!capture_ring_->try_push(std::size_t(index))) {
      results_[index].dropped = true;
      ++stats_.packets_dropped;
    }
    return;
  }
  while (!capture_ring_->try_push(std::size_t(index)))
    std::this_thread::yield();
}

void stream_session::process_packet(std::size_t index) {
  // Only this stage's thread touches config_.chain (cancel_packet sets its
  // roi per packet) and the scratch, so both threading modes are
  // race-free.
  const stream_packet& p = schedule_[index];
  stream_packet_result& out = results_[index];
  const std::uint64_t t0 = now_ns();
  out.chain =
      cancel_packet(x_, y_, p, *decoder_, {}, config_.chain, chain_scratch_);
  worker_stats_.roi_samples_processed += out.chain.roi_samples_processed;
  worker_stats_.roi_samples_skipped += out.chain.roi_samples_skipped;
  const std::uint64_t t1 = now_ns();
  out.decoded = decoder_->decode(x_.subspan(p.begin, p.end - p.begin),
                                 chain_scratch_.cleaned, p.wake_end - p.begin,
                                 p.payload_bits, &decode_scratch_);
  const std::uint64_t t2 = now_ns();
  ++worker_stats_.packets_decoded;
  if (out.decoded.crc_ok) ++worker_stats_.crc_ok;

  const double cancel_us = static_cast<double>(t1 - t0) * 1e-3;
  const double decode_us = static_cast<double>(t2 - t1) * 1e-3;
  const double latency_us = static_cast<double>(t2 - t_feed_ns_[index]) * 1e-3;
  worker_stats_.cancel_us_total += cancel_us;
  worker_stats_.decode_us_total += decode_us;
  worker_stats_.latency_us_total += latency_us;
  if (latency_us > worker_stats_.latency_us_max)
    worker_stats_.latency_us_max = latency_us;
  obs::observe(stage_collector_, obs::probe::timing_stream_cancel,
               cancel_us * 1e-6);
  obs::observe(stage_collector_, obs::probe::timing_stream_decode,
               decode_us * 1e-6);
}

void stream_session::worker_loop() {
  for (;;) {
    std::size_t index = 0;
    if (capture_ring_->try_pop(index)) {
      process_packet(index);
    } else if (producer_done_.load(std::memory_order_acquire)) {
      // finish() pushes the schedule tail *before* its release store on
      // producer_done_, so this acquire guarantees the drain below sees
      // every prior push. Without it, a packet landing between the failed
      // pop above and the flag check would be silently lost.
      while (capture_ring_->try_pop(index)) process_packet(index);
      break;
    } else {
      std::this_thread::yield();
    }
  }
}

void stream_session::finish() {
  if (finished_) return;
  feed(y_.size() - watermark_);
  if (config_.threads == 2) {
    producer_done_.store(true, std::memory_order_release);
    if (worker_.joinable()) worker_.join();
  }
  finished_ = true;

  stats_.packets_decoded = worker_stats_.packets_decoded;
  stats_.crc_ok = worker_stats_.crc_ok;
  stats_.cancel_us_total = worker_stats_.cancel_us_total;
  stats_.decode_us_total = worker_stats_.decode_us_total;
  stats_.latency_us_max = worker_stats_.latency_us_max;
  stats_.latency_us_total = worker_stats_.latency_us_total;
  stats_.roi_samples_processed = worker_stats_.roi_samples_processed;
  stats_.roi_samples_skipped = worker_stats_.roi_samples_skipped;
  stats_.queue_high_water = capture_ring_->high_water();

  obs::collector* const c = config_.collector;
  if (worker_collector_ != nullptr && c != nullptr)
    c->merge(*worker_collector_);
  if (c != nullptr) {
    // Deterministic under the block policy (pure functions of the capture
    // and schedule); with drop overflow the decode counts become
    // execution-dependent, which CI/bench configurations avoid.
    c->count(obs::probe::stream_packets_in, stats_.packets_in);
    c->count(obs::probe::stream_packets_decoded, stats_.packets_decoded);
    c->count(obs::probe::stream_crc_ok, stats_.crc_ok);
    // Wall-clock / occupancy accounting: execution-dependent, runtime.*.
    c->set(obs::probe::stream_packets_dropped,
           static_cast<double>(stats_.packets_dropped));
    c->set(obs::probe::stream_queue_high_water,
           static_cast<double>(stats_.queue_high_water));
    c->set(obs::probe::stream_latency_us_max, stats_.latency_us_max);
    if (stats_.packets_decoded > 0) {
      const double n = static_cast<double>(stats_.packets_decoded);
      c->set(obs::probe::stream_latency_us_mean, stats_.latency_us_total / n);
      c->set(obs::probe::stream_cancel_us_mean, stats_.cancel_us_total / n);
      c->set(obs::probe::stream_decode_us_mean, stats_.decode_us_total / n);
    }
  }
}

}  // namespace backfi::reader
