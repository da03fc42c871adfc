// Streaming receive pipeline: a continuously running reader session that
// consumes a capture through a bounded SPSC ring buffer instead of one
// batch call per packet (the BackFi AP is an always-on device; ROADMAP
// "streaming reader" item).
//
// Stage diagram (DESIGN.md "Streaming architecture"):
//
//   caller (capture)                    session pipeline
//   ----------------                    ----------------------------------
//   feed(chunk) ----------------------> open packet, as its samples arrive:
//       |                                 analog stage (adapt once its
//       |                                 silent window is in, then cancel
//       |                                 each new slice)
//       +-----> [capture ring] -------> per-packet stage, back to back:
//       |        bounded SPSC             rest of the chain (cancel_packet:
//       |        backpressure             last analog slice, AGC, ADC,
//       v        boundary                 digital), then decode (sync scan,
//   block / drop                          MRC, PSK demap, Viterbi, CRC)
//   when full
//
// With `threads == 1` the stage runs inline on the caller's thread (the
// capture ring still carries the hand-off, so wraparound/backpressure
// behave identically), and feed() runs the open packet's analog stage up
// to the new watermark before it pushes ready packets; with
// `threads == 2` it runs on one worker thread, the capture ring is the
// cross-thread boundary, and the worker advances the open packet whenever
// its ring is empty. The decoded bit-stream is bit-identical at 1 and 2
// threads, at any feed() chunking and to the batch per-packet path
// (pinned by tests/sim/stream_test.cpp): packets are decoded strictly in
// schedule order through the exact same run_receive_chain /
// backfi_decoder::decode calls on identical subspans, and the analog
// stage's slices carry its running energy (fd::advance_receive_chain).
//
// Probe confinement: obs::collector is not thread-safe, so in 2-thread
// mode the chain/decoder probes go to a session-private worker collector
// that finish() merges into the caller's after the join.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "dsp/ring_buffer.h"
#include "fd/receive_chain.h"
#include "obs/collector.h"
#include "reader/decoder.h"
#include "tag/tag_device.h"

namespace backfi::reader {

/// One packet's position on the continuous capture timeline. All indices
/// are absolute sample offsets into the session's (x, y) spans and must
/// satisfy begin <= wake_end <= silent_end <= end <= capture length, with
/// payload_bits in [1, tag::max_payload_bits]; the constructor rejects any
/// other entry. An empty silent window
/// (wake_end == silent_end) flows through to run_receive_chain's own
/// bypass handling, exactly as in the batch path.
struct stream_packet {
  std::size_t begin = 0;       ///< first sample of the packet's segment
  std::size_t end = 0;         ///< one past the last sample
  std::size_t wake_end = 0;    ///< nominal tag origin = silent-window start
  std::size_t silent_end = 0;  ///< end of the cancellation training window
  std::size_t payload_bits = 0;
};

/// Applied to a packet's cleaned segment between cancellation and decode
/// (arguments: aligned tx segment, cleaned segment, silent-window end
/// relative to the segment). The trial injects post-cancellation faults
/// here through cancel_packet.
using post_cancel_fn =
    std::function<void(std::span<const cplx>, std::span<cplx>, std::size_t)>;

/// What to do when the capture ring is full (2-thread mode: the decoder
/// fell behind the capture).
enum class stream_overflow : std::uint8_t {
  block,  ///< stall the producer until a slot frees (lossless, default)
  drop,   ///< drop the packet and count it (bounded-latency mode)
};

struct stream_config {
  tag::tag_config tag;
  decoder_config decoder;
  fd::receive_chain_config chain;
  /// 1 = the per-packet stage inline on the caller's thread; 2 = on a
  /// dedicated worker thread behind the capture ring.
  std::size_t threads = 1;
  /// Capacity of the capture ring [packets] (rounded up to a power of two;
  /// above dsp::max_ring_capacity the constructor throws). This bounds
  /// queue depth and therefore in-flight latency.
  std::size_t queue_capacity = 8;
  stream_overflow overflow = stream_overflow::block;
  /// Every packet's receive chain runs over the decoder's read window
  /// (cancel_packet without a hook), so cancellation compute scales with
  /// the tag packet span instead of the captured segment; decoded bits are
  /// those of the full-range chain by the roi contract. An installed
  /// chain.front_end_hook forces the full-range sweep inside the chain.
  /// A constant: bench/e2e's replay reads it.
  static constexpr bool restrict_to_roi = true;
  /// The stream injects no post-cancellation faults, so the session passes
  /// no hook. Kept only because bench/e2e's replay reads it; the benchmark
  /// half of ROADMAP item 7 deletes it.
  static inline const post_cancel_fn post_cancel_hook{};
  /// Observability sink (nullable), see probe confinement note above. It
  /// receives the chain/decoder probes, the per-stage timing spans and, in
  /// finish(), the session's reader.stream.* / runtime.stream.* metrics.
  obs::collector* collector = nullptr;
};

/// Per-packet outcome, in schedule order.
struct stream_packet_result {
  std::size_t index = 0;  ///< position in the session's schedule
  bool dropped = false;   ///< overflowed the capture ring (drop policy)
  fd::receive_chain_result chain;
  decode_result decoded;
};

/// The reader's per-packet cancellation stage, shared by stream_session and
/// sim::run_backscatter_trial: runs the receive chain over one packet of
/// the (x, y) timeline and leaves its cleaned segment (indexed from
/// packet.begin) in scratch.cleaned, ready for decoder.decode. Without a
/// hook, chain.roi is first set to the decoder's read window for the
/// packet, so cancellation compute scales with the tag packet span instead
/// of the captured segment; decoded bits are those of the full-range chain
/// (the roi contract). A hook reads and rewrites the whole cleaned segment,
/// so it keeps the caller's chain.roi and runs after the chain.
fd::receive_chain_result cancel_packet(std::span<const cplx> x,
                                       std::span<const cplx> y,
                                       const stream_packet& packet,
                                       const backfi_decoder& decoder,
                                       const post_cancel_fn& hook,
                                       fd::receive_chain_config& chain,
                                       fd::receive_chain_scratch& scratch);

/// Session accounting (valid after finish()). Latency numbers are wall
/// clock and therefore execution-dependent; counts are deterministic under
/// the block overflow policy.
struct stream_stats {
  std::size_t packets_in = 0;       ///< schedule entries fed
  std::size_t packets_decoded = 0;  ///< segments that reached the decoder
  std::size_t packets_dropped = 0;  ///< overflow drops (drop policy only)
  std::size_t crc_ok = 0;
  std::size_t queue_high_water = 0;  ///< max capture-ring depth observed
  /// Cancellation-stage wall time, including the analog slices run while
  /// each packet arrived.
  double cancel_us_total = 0.0;
  double decode_us_total = 0.0;      ///< decode-stage wall time
  /// Max feed->decoded packet latency, stamped when produce() pushes the
  /// packet, so ring-queueing (the dominant term under backpressure) and
  /// block-policy stalls are included.
  double latency_us_max = 0.0;
  double latency_us_total = 0.0;
  /// ROI accounting summed over the cancelled packets (zeros when no
  /// packet carried a usable window).
  std::size_t roi_samples_processed = 0;
  std::size_t roi_samples_skipped = 0;
};

/// A streaming decode session over one continuous capture. x is the
/// reader's transmit timeline, y the receive capture (equal length, both
/// alive for the session's lifetime), `schedule` the packet layout in
/// ascending begin order. Feed the capture in chunks of any size — the
/// next packet's analog stage runs over its samples as they arrive, the
/// rest of its processing fires when its last sample becomes available,
/// and results are invariant to the chunking.
class stream_session {
 public:
  stream_session(std::span<const cplx> x, std::span<const cplx> y,
                 std::span<const stream_packet> schedule,
                 const stream_config& config);
  ~stream_session();
  stream_session(const stream_session&) = delete;
  stream_session& operator=(const stream_session&) = delete;

  /// Advance the capture watermark by n samples (clamped to the capture
  /// length); every schedule entry now fully captured is pushed through
  /// the pipeline. At 1 thread the call first runs the next packet's
  /// analog stage up to the new watermark.
  void feed(std::size_t n_samples);

  /// Feed any remaining capture, drain the pipeline, join the worker and
  /// emit the session metrics. Idempotent; results()/stats() are valid
  /// (and stable) afterwards.
  void finish();

  /// Per-packet results in schedule order (after finish()).
  const std::vector<stream_packet_result>& results() const { return results_; }
  const stream_stats& stats() const { return stats_; }

 private:
  void push_ready_packets();
  void produce(std::size_t index);         // capture -> per-packet stage
  /// Runs the analog stage of the packet the stage takes next over its
  /// samples below `watermark`; false when there was nothing new to do.
  bool advance_open_packet(std::size_t watermark);
  void process_packet(std::size_t index);  // cancellation, then decode
  void worker_loop();

  std::span<const cplx> x_;
  std::span<const cplx> y_;
  std::vector<stream_packet> schedule_;
  stream_config config_;

  std::unique_ptr<dsp::spsc_ring<std::size_t>> capture_ring_;

  /// The stage's scratch (worker-owned in 2-thread mode).
  fd::receive_chain_scratch chain_scratch_;
  decoder_scratch decode_scratch_;

  std::unique_ptr<backfi_decoder> decoder_;
  std::unique_ptr<obs::collector> worker_collector_;
  obs::collector* stage_collector_ = nullptr;  ///< what the stages report to

  /// Samples fed so far: written by the producer, read by the worker to
  /// advance the open packet while its ring is empty.
  std::atomic<std::size_t> watermark_{0};
  std::size_t next_packet_ = 0;  ///< first schedule entry not yet pushed
  bool finished_ = false;

  /// Stage-side (worker-owned in 2-thread mode): the schedule entry the
  /// stage takes next, the packet whose analog stage has run ahead
  /// (chain_scratch_.cursor), the absolute sample it has run to, and the
  /// time spent doing so.
  static constexpr std::size_t no_packet = static_cast<std::size_t>(-1);
  std::size_t stage_next_ = 0;
  std::size_t open_packet_ = no_packet;
  std::size_t open_upto_ = 0;
  std::uint64_t open_ns_ = 0;

  /// Feed-time stamp per packet, written by the producer in produce()
  /// before the ring push (whose release store publishes it to the
  /// worker), so reported latency includes capture-ring queueing.
  std::vector<std::uint64_t> t_feed_ns_;

  std::vector<stream_packet_result> results_;
  stream_stats stats_;          ///< producer-side fields until finish()
  stream_stats worker_stats_;   ///< stage-side fields, folded in finish()

  std::thread worker_;
  std::atomic<bool> producer_done_{false};
};

}  // namespace backfi::reader
