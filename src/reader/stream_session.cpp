#include "reader/stream_session.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace backfi::reader {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// A cancelled packet in flight between the cancellation and decode
/// stages. `view` is what the decoder reads: the owned `cleaned` buffer in
/// 2-thread mode (ownership must cross the stage boundary ahead of the
/// next chain run), or a borrowed view of the chain scratch in inline mode
/// (the segment is decoded before the scratch is reused, so no copy — and
/// the one-shot batch wrapper keeps its workspace buffers).
struct stream_session::segment {
  std::size_t index = 0;
  fd::receive_chain_result chain;
  cvec cleaned;
  std::span<const cplx> view;
  std::uint64_t t_feed_ns = 0;
};

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
  validate_or_throw(config_.decoder, "stream_session");
  std::size_t previous_begin = 0;
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const stream_packet& p = schedule_[i];
    const bool ordered = i == 0 || p.begin >= previous_begin;
    if (!ordered || p.begin >= p.end || p.begin > p.wake_end ||
        p.wake_end > p.silent_end || p.silent_end > p.end ||
        p.end > y_.size() || p.payload_bits == 0)
      throw std::invalid_argument("stream_session: malformed schedule entry");
    previous_begin = p.begin;
  }

  const std::size_t capacity =
      config_.queue_capacity > 0 ? config_.queue_capacity : 1;
  capture_ring_ = std::make_unique<dsp::spsc_ring<std::size_t>>(capacity);
  decode_ring_ = std::make_unique<dsp::spsc_ring<segment>>(capacity);

  chain_scratch_ = config_.chain_scratch != nullptr ? config_.chain_scratch
                                                    : &own_chain_scratch_;
  decode_scratch_ = config_.decode_scratch != nullptr ? config_.decode_scratch
                                                      : &own_decode_scratch_;

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

  // ROI shrinking: a post_cancel_hook reads/mutates the whole cleaned
  // segment, so its presence forces the full-capture chain. A caller who
  // pre-set chain.roi keeps it (their contract with their own consumer).
  roi_active_ = config_.restrict_to_roi && !config_.post_cancel_hook;

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
  if (config_.emit_stream_metrics) t_feed_ns_[index] = now_ns();
  if (config_.threads == 1) {
    // Inline mode: the rings still carry every hand-off (identical
    // wraparound behavior), drained depth-first on this thread.
    while (!capture_ring_->try_push(std::size_t(index))) {
      std::size_t ready = 0;
      if (capture_ring_->try_pop(ready)) cancel_segment(ready);
      drain_decode_ring();
    }
    std::size_t ready = 0;
    while (capture_ring_->try_pop(ready)) {
      cancel_segment(ready);
      drain_decode_ring();
    }
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

void stream_session::cancel_segment(std::size_t index) {
  const stream_packet& p = schedule_[index];
  const std::size_t len = p.end - p.begin;
  const auto xseg = x_.subspan(p.begin, len);
  const auto yseg = y_.subspan(p.begin, len);
  const bool timed = config_.emit_stream_metrics;
  const std::uint64_t t0 = timed ? now_ns() : 0;

  segment seg;
  if (!free_segments_.empty()) {
    seg = std::move(free_segments_.back());
    free_segments_.pop_back();
  }
  seg.index = index;
  seg.t_feed_ns = t_feed_ns_[index];

  // Per-packet ROI: the decoder's exact read window for this segment. Only
  // this stage's thread touches config_.chain from here on, so the
  // mutation is race-free in both threading modes.
  if (roi_active_)
    config_.chain.roi = decoder_->read_window_bounds(
        len, p.wake_end - p.begin, p.payload_bits);

  seg.chain = fd::run_receive_chain(xseg, yseg, p.wake_end - p.begin,
                                    p.silent_end - p.begin, config_.chain,
                                    chain_scratch_);
  worker_stats_.roi_samples_processed += seg.chain.roi_samples_processed;
  worker_stats_.roi_samples_skipped += seg.chain.roi_samples_skipped;
  if (config_.post_cancel_hook)
    config_.post_cancel_hook(xseg, std::span<cplx>(chain_scratch_->cleaned),
                             p.silent_end - p.begin);
  if (config_.threads == 2) {
    // Hand the cleaned buffer itself across the stage boundary; the
    // scratch inherits the recycled segment's capacity for the next run.
    std::swap(seg.cleaned, chain_scratch_->cleaned);
    seg.view = std::span<const cplx>(seg.cleaned);
  } else {
    seg.view = std::span<const cplx>(chain_scratch_->cleaned);
  }

  if (timed) {
    const double us = static_cast<double>(now_ns() - t0) * 1e-3;
    worker_stats_.cancel_us_total += us;
    obs::observe(stage_collector_, obs::probe::timing_stream_cancel,
                 us * 1e-6);
  }

  while (!decode_ring_->try_push(std::move(seg))) drain_decode_ring();
}

void stream_session::drain_decode_ring() {
  segment seg;
  while (decode_ring_->try_pop(seg)) {
    const stream_packet& p = schedule_[seg.index];
    const std::size_t len = p.end - p.begin;
    const bool timed = config_.emit_stream_metrics;
    const std::uint64_t t0 = timed ? now_ns() : 0;

    stream_packet_result& out = results_[seg.index];
    out.chain = std::move(seg.chain);
    out.decoded =
        decoder_->decode(x_.subspan(p.begin, len), seg.view,
                         p.wake_end - p.begin, p.payload_bits, decode_scratch_);
    ++worker_stats_.packets_decoded;
    if (out.decoded.crc_ok) ++worker_stats_.crc_ok;

    if (timed) {
      const std::uint64_t t1 = now_ns();
      const double decode_us = static_cast<double>(t1 - t0) * 1e-3;
      const double latency_us =
          static_cast<double>(t1 - seg.t_feed_ns) * 1e-3;
      worker_stats_.decode_us_total += decode_us;
      worker_stats_.latency_us_total += latency_us;
      if (latency_us > worker_stats_.latency_us_max)
        worker_stats_.latency_us_max = latency_us;
      obs::observe(stage_collector_, obs::probe::timing_stream_decode,
                   decode_us * 1e-6);
    }

    seg.view = {};
    free_segments_.push_back(std::move(seg));
  }
}

void stream_session::worker_loop() {
  for (;;) {
    std::size_t index = 0;
    if (capture_ring_->try_pop(index)) {
      cancel_segment(index);
      drain_decode_ring();
    } else if (producer_done_.load(std::memory_order_acquire)) {
      // finish() pushes the schedule tail *before* its release store on
      // producer_done_, so this acquire guarantees the drain below sees
      // every prior push. Without it, a packet landing between the failed
      // pop above and the flag check would be silently lost.
      while (capture_ring_->try_pop(index)) {
        cancel_segment(index);
        drain_decode_ring();
      }
      break;
    } else {
      std::this_thread::yield();
    }
  }
  drain_decode_ring();
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
  if (c != nullptr && config_.emit_stream_metrics) {
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
