// Heap-allocation contracts of the hot paths, asserted with a counting
// global allocator.
//
// This executable replaces the global operator new / delete with counting
// wrappers around malloc / free. Counting is armed per thread by
// count_allocations(), so gtest's own bookkeeping (and every other thread)
// is never counted. The replacement lives only in this binary: the other
// test executables keep the sanitizer's new/delete mismatch checks.
//
// The contracts:
//   - a warm stage call (same sizes as the call before) allocates nothing,
//     the receive chain included (plain and hardened);
//   - a warm decode allocates only what it returns: the payload, h_fb and
//     symbol-estimate vectors of its decode_result; a warm decode of a
//     combined symbol stream (the multi-antenna combiner's path) only the
//     payload;
//   - a warmed always-on stream session decodes packet after packet
//     allocating only those result vectors;
//   - a warm same-seed trial makes no allocation as large as its capture;
//   - building a collector, writing it and merging it allocates nothing,
//     and a collector_fork keeps its children in one buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "dsp/fir.h"
#include "dsp/rng.h"
#include "fd/receive_chain.h"
#include "obs/collector.h"
#include "reader/decoder.h"
#include "reader/excitation.h"
#include "reader/mrc.h"
#include "reader/stream_session.h"
#include "sim/backscatter_sim.h"
#include "sim/stream_sim.h"

namespace {

struct alloc_tally {
  std::size_t count = 0;    ///< operator new calls
  std::size_t bytes = 0;    ///< bytes requested, summed
  std::size_t largest = 0;  ///< largest single request [bytes]
};

thread_local bool tl_armed = false;
thread_local alloc_tally tl_tally;

void note_allocation(std::size_t n) {
  if (!tl_armed) return;
  ++tl_tally.count;
  tl_tally.bytes += n;
  tl_tally.largest = std::max(tl_tally.largest, n);
}

void* counted_new(std::size_t n) {
  note_allocation(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_new_aligned(std::size_t n, std::align_val_t alignment) {
  note_allocation(n);
  const auto a = static_cast<std::size_t>(alignment);
  // aligned_alloc wants the size to be a multiple of the alignment.
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

/// Run `body` with counting armed on the calling thread and return what it
/// allocated. The tally is also attached to the running test's XML record
/// (--gtest_output=xml).
template <typename F>
alloc_tally count_allocations(F&& body) {
  struct disarm {
    ~disarm() { tl_armed = false; }
  } guard;
  tl_tally = {};
  tl_armed = true;
  body();
  tl_armed = false;
  const alloc_tally t = tl_tally;
  ::testing::Test::RecordProperty("allocations", std::to_string(t.count));
  ::testing::Test::RecordProperty("allocated_bytes", std::to_string(t.bytes));
  ::testing::Test::RecordProperty("largest_bytes", std::to_string(t.largest));
  return t;
}

std::string describe(const alloc_tally& t) {
  return std::to_string(t.count) + " allocations, " + std::to_string(t.bytes) +
         " B in total, largest " + std::to_string(t.largest) + " B";
}

}  // namespace

// The nothrow forms' default definitions forward to these.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace backfi {
namespace {

cvec random_vec(std::size_t n, std::uint64_t seed) {
  dsp::rng gen(seed);
  cvec v(n);
  for (cplx& s : v) s = gen.complex_gaussian();
  return v;
}

sim::scenario_config fig08_mid(std::uint64_t seed) {
  // The fig08 single-link mid-range scenario (the point bench/e2e's
  // trial_fresh workload times).
  sim::scenario_config cfg;
  cfg.seed = seed;
  cfg.excitation.ppdu_bytes = 4000;
  cfg.payload_bits = 600;
  cfg.tag.preamble_us = 32;
  cfg.tag_distance_m = 2.0;
  cfg.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  return cfg;
}

std::size_t bytes_of(std::size_t samples) { return samples * sizeof(cplx); }

/// What a decode_result owns on the heap: one allocation per non-empty
/// vector, sized exactly (each is built or assigned once per decode).
alloc_tally owned_by(const reader::decode_result& r) {
  alloc_tally t;
  const std::size_t sizes[] = {r.payload.size(), bytes_of(r.h_fb.size()),
                               bytes_of(r.symbol_estimates.size())};
  for (const std::size_t n : sizes) {
    if (n == 0) continue;
    ++t.count;
    t.bytes += n;
    t.largest = std::max(t.largest, n);
  }
  return t;
}

TEST(AllocTest, CountsOnlyWhileArmedOnThisThread) {
  // Direct operator calls: a new-expression the optimizer could elide.
  const alloc_tally armed = count_allocations([] {
    ::operator delete(::operator new(1000));
    ::operator delete(::operator new(24));
  });
  EXPECT_EQ(armed.count, 2u);
  EXPECT_EQ(armed.bytes, 1024u);
  EXPECT_EQ(armed.largest, 1000u);
  ::operator delete(::operator new(5000));  // disarmed: not counted
  EXPECT_EQ(count_allocations([] {}).count, 0u);
}

TEST(AllocTest, WarmConvolveSameRangeIntoAllocatesNothing) {
  const cvec x = random_vec(256, 106);
  const cvec h = random_vec(6, 107);
  cvec out;
  dsp::convolve_same_range_into(x, h, 30, 90, out);
  const alloc_tally t = count_allocations(
      [&] { dsp::convolve_same_range_into(x, h, 30, 90, out); });
  EXPECT_EQ(t.count, 0u) << describe(t);
}

TEST(AllocTest, WarmMrcPrecomputeAllocatesNothing) {
  const cvec y = random_vec(400, 55);
  const cvec yhat = random_vec(400, 56);
  cvec products;
  std::vector<double> weights;
  reader::mrc_precompute(y, yhat, 30, 400, products, weights);
  const alloc_tally t = count_allocations(
      [&] { reader::mrc_precompute(y, yhat, 30, 400, products, weights); });
  EXPECT_EQ(t.count, 0u) << describe(t);
}

TEST(AllocTest, WarmBuildExcitationIntoAllocatesNothing) {
  // Same config twice: the second call is served by the replay cache into
  // the warm buffers.
  reader::excitation_config cfg;
  cfg.tag_id = 3;
  cfg.ppdu_bytes = 600;
  cfg.n_ppdus = 2;
  cfg.payload_seed = 9;
  reader::excitation out;
  reader::build_excitation_into(cfg, out);
  const alloc_tally t =
      count_allocations([&] { reader::build_excitation_into(cfg, out); });
  EXPECT_EQ(t.count, 0u) << describe(t);
}

/// One fig08 packet of a synthesized capture, with its segment spans.
struct one_packet {
  sim::stream_capture cap;
  reader::stream_packet p;
  std::span<const cplx> x;
  std::span<const cplx> y;
};

one_packet fig08_packet(std::uint64_t seed) {
  sim::stream_scenario_config cfg;
  cfg.scenario = fig08_mid(seed);
  cfg.n_packets = 1;
  one_packet out{sim::build_stream_capture(cfg), {}, {}, {}};
  out.p = out.cap.schedule.front();
  const std::size_t len = out.p.end - out.p.begin;
  out.x = std::span<const cplx>(out.cap.x).subspan(out.p.begin, len);
  out.y = std::span<const cplx>(out.cap.y).subspan(out.p.begin, len);
  return out;
}

TEST(AllocTest, WarmReceiveChainMakesNoCaptureSizedAllocation) {
  // The fig08 chain and the hardened one (widely-linear + DC removal +
  // residual-gain tracking): both cancellers' taps persist in the scratch.
  const one_packet pk = fig08_packet(5);
  const sim::scenario_config sc = fig08_mid(5);
  const std::size_t silent_begin = pk.p.wake_end - pk.p.begin;
  const std::size_t silent_end = pk.p.silent_end - pk.p.begin;
  fd::receive_chain_config robust = sc.chain;
  robust.digital.widely_linear = true;
  robust.digital.remove_dc = true;
  robust.track_residual_gain = true;
  for (const fd::receive_chain_config& cfg : {sc.chain, robust}) {
    fd::receive_chain_scratch scratch;
    fd::run_receive_chain(pk.x, pk.y, silent_begin, silent_end, cfg, &scratch);
    const alloc_tally t = count_allocations([&] {
      fd::run_receive_chain(pk.x, pk.y, silent_begin, silent_end, cfg,
                            &scratch);
    });
    EXPECT_EQ(t.count, 0u) << describe(t);
  }
}

TEST(AllocTest, WarmDecodeMakesNoReadWindowSizedAllocation) {
  const one_packet pk = fig08_packet(6);
  const sim::scenario_config sc = fig08_mid(6);
  const std::size_t origin = pk.p.wake_end - pk.p.begin;
  fd::receive_chain_scratch chain;
  fd::run_receive_chain(pk.x, pk.y, origin, pk.p.silent_end - pk.p.begin,
                        sc.chain, &chain);
  const reader::backfi_decoder decoder(sc.tag, sc.decoder);
  reader::decoder_scratch scratch;
  decoder.decode(pk.x, chain.cleaned, origin, pk.p.payload_bits, &scratch);
  reader::decode_result result;
  const alloc_tally t = count_allocations([&] {
    result = decoder.decode(pk.x, chain.cleaned, origin, pk.p.payload_bits,
                            &scratch);
  });
  ASSERT_TRUE(result.crc_ok);  // the full decode path ran
  const alloc_tally owned = owned_by(result);
  EXPECT_EQ(owned.count, 3u);
  EXPECT_EQ(t.count, owned.count) << describe(t);
  EXPECT_EQ(t.bytes, owned.bytes) << describe(t);
}

TEST(AllocTest, WarmDecodeFromSymbolsAllocatesOnlyThePayload) {
  // The multi-antenna combiner's tail: demap, Viterbi and CRC of a symbol
  // stream through the caller's scratch.
  const one_packet pk = fig08_packet(6);
  const sim::scenario_config sc = fig08_mid(6);
  const std::size_t origin = pk.p.wake_end - pk.p.begin;
  fd::receive_chain_scratch chain;
  fd::run_receive_chain(pk.x, pk.y, origin, pk.p.silent_end - pk.p.begin,
                        sc.chain, &chain);
  const reader::backfi_decoder decoder(sc.tag, sc.decoder);
  reader::decoder_scratch scratch;
  const reader::decode_result full = decoder.decode(
      pk.x, chain.cleaned, origin, pk.p.payload_bits, &scratch);
  const double noise_var = std::pow(10.0, -full.post_mrc_snr_db / 10.0);
  decoder.decode_from_symbols(full.symbol_estimates, noise_var,
                              pk.p.payload_bits, &scratch);
  reader::decode_result result;
  const alloc_tally t = count_allocations([&] {
    result = decoder.decode_from_symbols(full.symbol_estimates, noise_var,
                                         pk.p.payload_bits, &scratch);
  });
  ASSERT_TRUE(result.crc_ok);
  EXPECT_EQ(t.count, 1u) << describe(t);
  EXPECT_EQ(t.bytes, result.payload.size()) << describe(t);
}

TEST(AllocTest, CollectorBuildWriteAndMergeAllocateNothing) {
  const alloc_tally t = count_allocations([] {
    obs::collector parent;
    obs::collector c;
    c.count(obs::probe::trials);
    c.observe(obs::probe::evm_rms, 0.1);
    c.set(obs::probe::roi_coverage, 0.5);
    parent.merge(c);
  });
  EXPECT_EQ(t.count, 0u) << describe(t);
}

TEST(AllocTest, CollectorForkOfEightAllocatesOneBuffer) {
  obs::collector parent;
  const alloc_tally t = count_allocations([&] {
    obs::collector_fork fork(&parent, 8);
    for (std::size_t i = 0; i < 8; ++i)
      fork.child(i)->count(obs::probe::trials, i + 1);
    fork.join();
  });
  EXPECT_LE(t.count, 1u) << describe(t);
  EXPECT_EQ(parent.registry().get_counter("sim.trials").value, 36u);
}

TEST(AllocTest, WarmSameSeedTrialMakesNoCaptureSizedAllocation) {
  // The first run warms the workspace and inserts this seed's excitation
  // and noise into the replay caches; the re-run hits both.
  sim::trial_workspace ws;
  const sim::scenario_config cfg = fig08_mid(1);
  const sim::trial_result first = sim::run_backscatter_trial(cfg, ws);
  ASSERT_TRUE(first.crc_ok);
  sim::trial_result again;
  const alloc_tally t =
      count_allocations([&] { again = sim::run_backscatter_trial(cfg, ws); });
  EXPECT_EQ(again.link.post_mrc_snr_db, first.link.post_mrc_snr_db);
  EXPECT_LT(t.largest, bytes_of(ws.rx.size())) << describe(t);
}

TEST(AllocTest, WarmStreamSessionMakesNoSegmentSizedAllocation) {
  // The always-on reader's steady state: a 64-packet drifting capture
  // through a single-threaded session. The first two packets warm the
  // session's scratch; the remaining 62 (and finish()) are counted.
  sim::stream_scenario_config cfg;
  cfg.scenario = fig08_mid(11);
  cfg.n_packets = 64;
  cfg.gap_us = 8;
  cfg.forward_drift.coherence_packets = 16.0;
  cfg.lo_drift.step_std_rad = 0.02;
  const sim::stream_capture cap = sim::build_stream_capture(cfg);
  ASSERT_EQ(cap.schedule.size(), 64u);

  reader::stream_config scfg;
  scfg.tag = cfg.scenario.tag;
  scfg.decoder = cfg.scenario.decoder;
  scfg.chain = cfg.scenario.chain;
  scfg.threads = 1;
  reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
  const std::size_t warm = cap.schedule[1].end;
  session.feed(warm);

  constexpr std::size_t kChunk = 4096;
  const alloc_tally t = count_allocations([&] {
    for (std::size_t fed = warm; fed < cap.y.size(); fed += kChunk)
      session.feed(std::min(kChunk, cap.y.size() - fed));
    session.finish();
  });

  // Exactly the result vectors the 62 counted packets stored.
  alloc_tally stored;
  for (std::size_t i = 2; i < session.results().size(); ++i) {
    const alloc_tally r = owned_by(session.results()[i].decoded);
    stored.count += r.count;
    stored.bytes += r.bytes;
  }
  EXPECT_EQ(session.stats().packets_decoded, 64u);
  EXPECT_EQ(t.count, stored.count) << describe(t);
  EXPECT_EQ(t.bytes, stored.bytes) << describe(t);
}

}  // namespace
}  // namespace backfi
