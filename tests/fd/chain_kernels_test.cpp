// The hardened-chain kernels against test-local copies of the std::complex
// loops they replaced, compared bitwise (memcmp): the residual-gain
// tracker's three passes, the fused widely-linear/DC sweep, and
// digital_canceller::cancel_into with its NaN fallback. The inputs cover
// the shapes whose edges the kernels re-derive (odd lengths, one block, a
// short last block, integer block centres, disjoint apply ranges) and
// hostile captures: NaN, +/-Inf, denormals and values near 1e300, whose
// overflows turn into inf - inf and the __muldc3 call of a complex product
// whose parts are both NaN.
#include "fd/chain_kernels.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "dsp/fir.h"
#include "dsp/fir_kernels.h"
#include "dsp/rng.h"
#include "fd/canceller.h"

namespace backfi::fd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bit-identical, except that a NaN matches a NaN of either sign. GCC does
/// not keep a NaN's sign across compilations of one std::complex
/// expression: the reference loops below, compiled in this file, flip the
/// sign of some inf - inf NaNs depending on the code around them. So no
/// two builds of the replaced loops agree on NaN signs, and the kernels
/// are held to everything else: every non-NaN bit, and NaN in the same
/// places.
bool same_bits(const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  }
  return true;
}

bool same_bits(std::span<const cplx> a, std::span<const cplx> b) {
  return a.size() == b.size() &&
         same_bits(reinterpret_cast<const double*>(a.data()),
                   reinterpret_cast<const double*>(b.data()), 2 * a.size());
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

cvec gaussian(std::size_t n, double scale, std::uint64_t seed) {
  dsp::rng gen(seed);
  cvec out(n);
  for (cplx& v : out) v = scale * gen.complex_gaussian();
  return out;
}

/// The residual-gain tracker in std::complex loops, one per pass: the
/// definition the kernels must match (its (n + block - 1) / block block
/// count wraps near SIZE_MAX, so the tests keep gain_block small).
void track_reference(const cvec& digitized, cvec& cleaned,
                     std::size_t gain_block,
                     std::span<const dsp::sample_range> apply_ranges,
                     cvec& gain_a, std::vector<double>& centre) {
  const std::size_t n = cleaned.size();
  cplx a0, b0;
  {
    double p = 0.0;
    cplx s{0.0, 0.0};
    cplx r1{0.0, 0.0};
    cplx r2{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const cplx m = digitized[i] - cleaned[i];
      p += std::norm(m);
      s += std::conj(m * m);
      r1 += cleaned[i] * std::conj(m);
      r2 += cleaned[i] * m;
    }
    const double loaded = p * (1.0 + 1e-3) + 1e-30;
    const double det = loaded * loaded - std::norm(s);
    a0 = (loaded * r1 - s * r2) / det;
    b0 = (loaded * r2 - std::conj(s) * r1) / det;
  }
  const std::size_t block = std::max<std::size_t>(gain_block, 2);
  const std::size_t n_blocks = (n + block - 1) / block;
  gain_a.resize(n_blocks);
  centre.resize(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t begin = b * block;
    const std::size_t end = std::min(begin + block, n);
    double p = 0.0;
    cplx r1{0.0, 0.0};
    for (std::size_t i = begin; i < end; ++i) {
      const cplx m = digitized[i] - cleaned[i];
      cleaned[i] -= a0 * m + b0 * std::conj(m);
      const cplx m2 = digitized[i] - cleaned[i];
      p += std::norm(m2);
      r1 += cleaned[i] * std::conj(m2);
    }
    gain_a[b] = r1 / (p * (1.0 + 1e-3) + 1e-30);
    centre[b] = 0.5 * static_cast<double>(begin + end - 1);
  }
  for (const dsp::sample_range& ar : apply_ranges) {
    const std::size_t end = std::min(ar.end, n);
    for (std::size_t i = ar.begin; i < end; ++i) {
      const double pos = static_cast<double>(i);
      std::size_t b = std::min(i / block, n_blocks - 1);
      cplx a;
      if (pos <= centre[0] || n_blocks == 1) {
        a = gain_a[0];
      } else if (pos >= centre[n_blocks - 1]) {
        a = gain_a[n_blocks - 1];
      } else {
        if (pos < centre[b] && b > 0) --b;
        const std::size_t hi = std::min(b + 1, n_blocks - 1);
        const double span_len = centre[hi] - centre[b];
        const double frac =
            span_len > 0.0 ? (pos - centre[b]) / span_len : 0.0;
        a = gain_a[b] + (gain_a[hi] - gain_a[b]) * frac;
      }
      const cplx m = digitized[i] - cleaned[i];
      cleaned[i] -= a * m;
    }
  }
}

/// A tracker input: a strong model m = digitized - cleaned with a slow
/// gain drift and an image, over a small residual.
struct tracker_case {
  cvec digitized;
  cvec cleaned;
};

tracker_case make_tracker_case(std::size_t n, std::uint64_t seed) {
  tracker_case t;
  const cvec model = gaussian(n, 1e-2, seed);
  t.cleaned = gaussian(n, 1e-4, seed + 1);
  t.digitized.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const cplx drift{1.0 + 1e-3 * static_cast<double>(i % 97), 2e-3};
    t.cleaned[i] += 0.01 * drift * model[i] + 3e-3 * std::conj(model[i]);
    t.digitized[i] = t.cleaned[i] + model[i];
  }
  return t;
}

void expect_tracker_matches(const tracker_case& t, std::size_t gain_block,
                            std::span<const dsp::sample_range> ranges,
                            const char* what) {
  cvec want = t.cleaned;
  cvec want_gain;
  std::vector<double> want_centre;
  track_reference(t.digitized, want, gain_block, ranges, want_gain,
                  want_centre);
  cvec got = t.cleaned;
  cvec got_gain;
  std::vector<double> got_centre;
  detail::track_residual_gain(t.digitized, got, gain_block, ranges, got_gain,
                              got_centre);
  EXPECT_TRUE(same_bits(got, want)) << what << " n=" << t.cleaned.size()
                                    << " block=" << gain_block;
  EXPECT_TRUE(same_bits(got_gain, want_gain)) << what;
  EXPECT_TRUE(same_bits(got_centre, want_centre)) << what;
}

TEST(ChainKernelsTest, TrackerMatchesReferenceOverShapes) {
  // Odd lengths, n < gain_block (one block), n == gain_block, a short last
  // block, odd blocks (integer centres: the pos == centre edge), and the
  // clamp of gain_block below 2.
  const std::size_t lengths[] = {2, 3, 17, 79, 80, 81, 333, 1000, 1001, 4096};
  const std::size_t blocks[] = {0, 1, 2, 3, 7, 63, 80, 81, 500, 5000};
  std::uint64_t seed = 10;
  for (const std::size_t n : lengths) {
    for (const std::size_t block : blocks) {
      const tracker_case t = make_tracker_case(n, ++seed);
      const std::array<dsp::sample_range, 1> whole{{{0, n}}};
      expect_tracker_matches(t, block, whole, "whole");
    }
  }
}

TEST(ChainKernelsTest, TrackerMatchesReferenceOnApplyRanges) {
  const tracker_case t = make_tracker_case(2400, 3);
  // Two disjoint ranges (the silent window and a roi), ranges that start
  // or end on a block centre, one past the capture (clamped) and an empty
  // one: pass 3 writes only inside them.
  const std::vector<std::vector<dsp::sample_range>> cases = {
      {{0, 320}, {900, 2101}},
      {{31, 32}, {94, 158}, {2300, 9999}},
      {{0, 1}, {2399, 2400}},
      {{5, 5}},
      {{1200, 1201}},
  };
  for (const std::size_t block : {63, 80}) {
    for (const auto& ranges : cases)
      expect_tracker_matches(t, block, ranges, "ranges");
  }
}

TEST(ChainKernelsTest, TrackerMatchesReferenceOnHostileCaptures) {
  // Each poison sits in its own sample pair, so pass 1 keeps the vector
  // path on clean pairs and runs the reference loop on poisoned ones; once
  // the fit is NaN, every later pair takes the reference. 1e300 squares to
  // inf and inf - inf to NaN; a (NaN, NaN) gain makes every later complex
  // product a __muldc3 call.
  const double denormal = 4.9e-320;
  const std::vector<std::vector<std::pair<std::size_t, cplx>>> poisons = {
      {{40, {kNaN, 0.0}}},
      {{100, {kInf, -kInf}}, {700, {0.0, kInf}}},
      {{5, {denormal, -denormal}}, {300, {denormal, 0.0}}},
      {{64, {1e300, 1e300}}, {65, {-1e300, 1e300}}},
      {{640, {1e300, -1e300}}},
      {{0, {kNaN, kNaN}}, {999, {kInf, kInf}}},
      {{330, {kInf, kNaN}}},
  };
  std::uint64_t seed = 200;
  for (const auto& poison : poisons) {
    for (const bool in_model : {false, true}) {
      tracker_case t = make_tracker_case(1000, ++seed);
      for (const auto& [i, v] : poison) {
        if (in_model)
          t.digitized[i] = v;
        else
          t.cleaned[i] = v;
      }
      const std::array<dsp::sample_range, 2> ranges{{{0, 320}, {500, 1000}}};
      expect_tracker_matches(t, 80, ranges, "hostile");
      expect_tracker_matches(t, 63, ranges, "hostile");
    }
  }
  // A capture near the bottom of the double range: its products underflow
  // through the subnormals, which neither path flushes to zero.
  tracker_case tiny = make_tracker_case(500, 7);
  for (std::size_t i = 0; i < 500; ++i) {
    tiny.cleaned[i] *= 1e-300;
    tiny.digitized[i] *= 1e-300;
  }
  const std::array<dsp::sample_range, 1> whole{{{0, 500}}};
  expect_tracker_matches(tiny, 80, whole, "denormal");
}

// The block count used to be (n + block - 1) / block, which wraps to 0
// near SIZE_MAX and sent the gain-application pass past an empty centre
// vector. A block longer than the capture is one block: the same output as
// a block of n.
TEST(ChainKernelsTest, HugeGainBlockIsOneBlock) {
  const std::size_t n = 4000;
  const tracker_case t = make_tracker_case(n, 14);
  const std::array<dsp::sample_range, 2> ranges{{{0, 320}, {900, 2101}}};
  cvec one_block = t.cleaned;
  cvec one_gain;
  std::vector<double> one_centre;
  detail::track_residual_gain(t.digitized, one_block, n, ranges, one_gain,
                              one_centre);
  ASSERT_EQ(one_gain.size(), 1u);
  for (const std::size_t block : {n + 1, SIZE_MAX / 2, SIZE_MAX}) {
    cvec huge = t.cleaned;
    cvec gain;
    std::vector<double> centre;
    detail::track_residual_gain(t.digitized, huge, block, ranges, gain,
                                centre);
    EXPECT_TRUE(same_bits(huge, one_block)) << block;
    EXPECT_TRUE(same_bits(gain, one_gain)) << block;
    EXPECT_TRUE(same_bits(centre, one_centre)) << block;
  }
}

TEST(ChainKernelsTest, GainBlockCountDoesNotWrap) {
  EXPECT_EQ(detail::gain_block_count(0, 80), 0u);
  EXPECT_EQ(detail::gain_block_count(80, 80), 1u);
  EXPECT_EQ(detail::gain_block_count(81, 80), 2u);
  EXPECT_EQ(detail::gain_block_count(4000, SIZE_MAX), 1u);
  EXPECT_EQ(detail::gain_block_count(SIZE_MAX, SIZE_MAX), 1u);
  EXPECT_EQ(detail::gain_block_count(SIZE_MAX, 2), SIZE_MAX / 2 + 1);
}

/// The widely-linear/DC branch as three passes: the linear cancel, the
/// conj-tap convolution of a materialized conj(x) subtracted, then the DC.
cvec wl_reference(const cvec& x, const cvec& h, const cvec& hc, cplx dc,
                  const cvec& src, std::size_t o0, std::size_t o1) {
  cvec out(src.size());
  dsp::detail::convolve_same_gather_subtract(x.data(), x.size(), h.data(),
                                             h.size(), src.data(),
                                             out.data() + o0, o0, o1);
  if (!hc.empty()) {
    cvec cx(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) cx[i] = std::conj(x[i]);
    cvec conv;
    dsp::convolve_same_range_into(cx, hc, o0, o1, conv);
    for (std::size_t j = o0; j < o1; ++j) out[j] -= conv[j];
  }
  if (dc != cplx{0.0, 0.0})
    for (std::size_t j = o0; j < o1; ++j) out[j] -= dc;
  return out;
}

TEST(ChainKernelsTest, WidelyLinearSweepMatchesUnfusedPasses) {
  const std::size_t n = 301;
  const cvec x = gaussian(n, 1.0, 1);
  const cvec src = gaussian(n, 1.0, 2);
  std::uint64_t seed = 50;
  // Tap counts on both sides of each other (the left edge follows the
  // longer branch), a dropped conj branch, windows shorter than one vector
  // block, odd ends, and zero / signed-zero / non-zero DC.
  for (const std::size_t nh : {1, 3, 8}) {
    for (const std::size_t nhc : {0, 1, 5, 8, 12}) {
      const cvec h = gaussian(nh, 0.3, ++seed);
      const cvec hc = gaussian(nhc, 0.05, ++seed);
      for (const cplx dc : {cplx{0.0, 0.0}, cplx{-0.0, -0.0},
                            cplx{1e-3, -0.0}, cplx{2e-3, -1e-3}}) {
        for (const auto& [o0, o1] :
             {std::pair<std::size_t, std::size_t>{0, n},
              {0, 3},
              {5, 6},
              {7, 300},
              {100, 257},
              {11, 11}}) {
          const cvec want = wl_reference(x, h, hc, dc, src, o0, o1);
          cvec got(n);
          ASSERT_TRUE(detail::cancel_widely_linear(
              x.data(), h.data(), nh, hc.data(), nhc, dc, src.data(),
              got.data(), o0, o1));
          EXPECT_TRUE(same_bits(std::span(got).subspan(o0, o1 - o0),
                                std::span(want).subspan(o0, o1 - o0)))
              << nh << " " << nhc << " [" << o0 << ", " << o1 << ")";
        }
      }
    }
  }
}

TEST(ChainKernelsTest, WidelyLinearSweepReportsEveryNaN) {
  // Either the fused outputs equal the unfused passes bit for bit, or the
  // kernel declined (returned false) because an output is NaN.
  const std::size_t n = 200;
  const cvec h = gaussian(8, 0.3, 3);
  const cvec hc = gaussian(8, 0.05, 4);
  for (const cplx poison : {cplx{kNaN, 0.0}, cplx{kInf, 0.0},
                            cplx{1e300, -1e300}, cplx{4.9e-320, 0.0}}) {
    for (const std::size_t at : {0, 2, 50, 199}) {
      for (const bool in_x : {false, true}) {
        cvec x = gaussian(n, 1.0, 5);
        cvec src = gaussian(n, 1.0, 6);
        (in_x ? x : src)[at] = poison;
        const cvec want = wl_reference(x, h, hc, {1e-3, 2e-3}, src, 0, n);
        cvec got(n);
        const bool exact = detail::cancel_widely_linear(
            x.data(), h.data(), 8, hc.data(), 8, {1e-3, 2e-3}, src.data(),
            got.data(), 0, n);
        const bool any_nan = std::any_of(got.begin(), got.end(), [](cplx v) {
          return std::isnan(v.real()) || std::isnan(v.imag());
        });
        EXPECT_EQ(exact, !any_nan);
        if (exact) {
          EXPECT_TRUE(same_bits(got, want)) << at;
        }
      }
    }
  }
}

/// digital_canceller::cancel_into as it ran before the fused sweep: the
/// linear cancel in 256-sample chunks, the conj branch over each range,
/// then the DC.
cvec cancel_reference(const digital_canceller& d, const cvec& tx,
                      const cvec& in,
                      std::span<const dsp::sample_range> ranges) {
  const std::size_t n = in.size();
  cvec out(n);
  const cvec& taps = d.taps();
  const std::size_t overlap = std::min(n, tx.size());
  for (const dsp::sample_range& r : ranges) {
    const std::size_t e = std::min(r.end, n);
    const std::size_t b = std::min(r.begin, e);
    const std::size_t eo = std::max(b, std::min(e, overlap));
    for (std::size_t c0 = b; c0 < eo; c0 += 256)
      dsp::detail::convolve_same_gather_subtract(
          tx.data(), tx.size(), taps.data(), taps.size(), in.data(),
          out.data() + c0, c0, std::min(c0 + 256, eo));
    std::copy(in.begin() + eo, in.begin() + e, out.begin() + eo);
  }
  cvec ctx(tx.size()), conv;
  for (std::size_t i = 0; i < tx.size(); ++i) ctx[i] = std::conj(tx[i]);
  for (const dsp::sample_range& r : ranges) {
    const std::size_t e = std::min({r.end, n, tx.size()});
    const std::size_t b = std::min(r.begin, e);
    if (b >= e) continue;
    dsp::convolve_same_range_into(ctx, d.conjugate_taps(), b, e, conv);
    for (std::size_t j = b; j < e; ++j) out[j] -= conv[j];
  }
  for (const dsp::sample_range& r : ranges) {
    const std::size_t e = std::min(r.end, n);
    for (std::size_t j = std::min(r.begin, e); j < e; ++j) out[j] -= d.dc();
  }
  return out;
}

TEST(ChainKernelsTest, CancelIntoMatchesUnfusedPassesOnHostileCaptures) {
  // Adapt a widely-linear + DC canceller on an IQ-imbalanced leakage so
  // both hardening branches are live, then cancel captures poisoned in the
  // input and in tx: a NaN output sends the sweep through the unfused
  // passes, so the bits match in every case.
  const std::size_t n = 1500;
  const cvec tx = gaussian(n, 1.0, 11);
  const cvec h_true = gaussian(4, 0.2, 12);
  cvec rx;
  dsp::convolve_same_into(tx, h_true, rx);
  const cvec noise = gaussian(n, 1e-5, 13);
  for (std::size_t i = 0; i < n; ++i)
    rx[i] += 0.05 * std::conj(rx[i]) + cplx{2e-3, -1e-3} + noise[i];
  digital_canceller d;
  canceller_scratch scratch;
  d.adapt({.widely_linear = true, .remove_dc = true}, std::span(tx).first(400),
          std::span(rx).first(400), scratch);
  ASSERT_FALSE(d.conjugate_taps().empty());
  ASSERT_NE(d.dc(), (cplx{0.0, 0.0}));

  const std::array<dsp::sample_range, 2> ranges{{{0, 400}, {700, 1500}}};
  const std::vector<std::pair<std::size_t, cplx>> poisons = {
      {3, {kNaN, 1.0}},     {450, {kNaN, kNaN}},  {800, {kInf, 0.0}},
      {801, {-kInf, 0.0}},  {1200, {1e300, 1e300}}, {1499, {4.9e-320, 0.0}},
      // In the scalar build the replaced passes multiply with std::complex,
      // whose __muldc3 recovers (inf, NaN) * h to infinities.
      {900, {kInf, kNaN}}};
  for (const auto& [at, v] : poisons) {
    for (const bool in_tx : {false, true}) {
      cvec tx_p = tx, rx_p = rx;
      (in_tx ? tx_p : rx_p)[at] = v;
      const cvec want = cancel_reference(d, tx_p, rx_p, ranges);
      cvec got;
      d.cancel_into(tx_p, rx_p, ranges, got, scratch);
      for (const dsp::sample_range& r : ranges)
        EXPECT_TRUE(same_bits(std::span(got).subspan(r.begin, r.size()),
                              std::span(want).subspan(r.begin, r.size())))
            << at << (in_tx ? " tx" : " rx");
    }
  }
}

}  // namespace
}  // namespace backfi::fd
