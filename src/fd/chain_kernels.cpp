#include "fd/chain_kernels.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::fd::detail {

namespace {

#if defined(__AVX2__)

// Packed complex pairs: two complex values per __m256d, [re0, im0, re1, im1].

inline __m256d load2(const cplx* p) {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void store2(cplx* p, __m256d v) {
  _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}

/// [re0, re0, re1, re1], [im0, im0, im1, im1] and [im0, re0, im1, re1]
/// of a complex pair.
inline __m256d re_dup(__m256d v) { return _mm256_permute_pd(v, 0b0000); }
inline __m256d im_dup(__m256d v) { return _mm256_permute_pd(v, 0b1111); }
inline __m256d swap_ri(__m256d v) { return _mm256_permute_pd(v, 0b0101); }

/// Sign flips: of the odd lanes (conj of a pair, the flip std::conj
/// applies), of the even lanes (conj of a swap_ri pair) and of all lanes.
inline __m256d flip_odd(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set_pd(-0.0, 0.0, -0.0, 0.0));
}
inline __m256d flip_even(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set_pd(0.0, -0.0, 0.0, -0.0));
}
inline __m256d flip_all(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
}

/// x * y per pair, x given with its swap_ri and y as re_dup(y), im_dup(y):
/// (xr*yr - xi*yi, xi*yr + xr*yi).
inline __m256d cmul(__m256d x, __m256d x_sw, __m256d yr, __m256d yi) {
  return _mm256_addsub_pd(_mm256_mul_pd(x, yr), _mm256_mul_pd(x_sw, yi));
}

/// |v|^2 per pair in lanes 0 and 2: xr*xr + xi*xi, one rounded add.
inline __m256d norm2(__m256d v) {
  const __m256d sq = _mm256_mul_pd(v, v);
  return _mm256_add_pd(sq, swap_ri(sq));
}

/// Lanes where a or b is NaN.
inline __m256d nan_lanes(__m256d a, __m256d b) {
  return _mm256_cmp_pd(a, b, _CMP_UNORD_Q);
}

inline bool any_set(__m256d mask) { return _mm256_movemask_pd(mask) != 0; }

inline double lane0(__m256d v) { return _mm256_cvtsd_f64(v); }
inline double lane2(__m256d v) {
  return _mm_cvtsd_f64(_mm256_extractf128_pd(v, 1));
}

/// acc + t[0], then + t[1]: a complex running sum over a pair in order.
inline __m128d add_pair(__m128d acc, __m256d t) {
  acc = _mm_add_pd(acc, _mm256_castpd256_pd128(t));
  return _mm_add_pd(acc, _mm256_extractf128_pd(t, 1));
}

inline __m128d load1(const cplx& v) {
  return _mm_loadu_pd(reinterpret_cast<const double*>(&v));
}

inline cplx to_cplx(__m128d v) {
  cplx out;
  _mm_storeu_pd(reinterpret_cast<double*>(&out), v);
  return out;
}

/// acc + x * h on two packed complex values, the textbook product of
/// dsp::detail::convolve_same_gather's vector blocks.
inline __m256d cmul_acc(__m256d acc, __m256d x, const cplx& h) {
  return _mm256_add_pd(acc, cmul(x, swap_ri(x), _mm256_set1_pd(h.real()),
                                 _mm256_set1_pd(h.imag())));
}

#endif  // __AVX2__

// --- Residual-gain tracking -------------------------------------------
//
// Each pass has a reference loop, written in std::complex expressions that
// define its result, and (with AVX2) a vector loop over sample
// pairs, two complex values per __m256d. The vector loop computes each
// pair's per-sample terms with the same operations as the reference (a
// product's two partial products may swap places in its one addition,
// which leaves every non-NaN value unchanged), checks them for NaN, and
// only then stores the pair and adds its terms to the running sums in
// ascending sample order: the scalar sums one value at a time, the complex
// sums as a two-lane [re, im] add per sample. A pair holding a NaN goes
// through the reference instead. NaN propagates through every +, - and *,
// so a NaN-free pair went through no NaN at all, and there the two agree
// bit for bit: no __muldc3 call, no operand-order-dependent NaN sign. An
// odd last sample, and the whole pass in a build without AVX2, run the
// reference.

/// Running sums of pass 1: the widely-linear normal equations.
struct fit_sums {
  double p = 0.0;     // sum |m|^2
  cplx s{0.0, 0.0};   // sum conj(m)^2 — cross term of the two columns
  cplx r1{0.0, 0.0};  // sum cleaned * conj(m)
  cplx r2{0.0, 0.0};  // sum cleaned * m
};

void fit_reference(const cplx* d, const cplx* c, std::size_t len,
                   fit_sums& f) {
  for (std::size_t i = 0; i < len; ++i) {
    const cplx m = d[i] - c[i];
    f.p += std::norm(m);
    f.s += std::conj(m * m);
    f.r1 += c[i] * std::conj(m);
    f.r2 += c[i] * m;
  }
}

/// Pass 2 on [0, len): apply the pass-1 correction in place and add the
/// corrected model's statistics to the block's running sums.
void correct_reference(const cplx* d, cplx* c, std::size_t len, cplx a0,
                       cplx b0, double& p, cplx& r1) {
  for (std::size_t i = 0; i < len; ++i) {
    const cplx m = d[i] - c[i];
    c[i] -= a0 * m + b0 * std::conj(m);
    const cplx m2 = d[i] - c[i];
    p += std::norm(m2);
    r1 += c[i] * std::conj(m2);
  }
}

/// One stretch of pass 3 whose gain is either the constant g0 (span_len
/// == 0: the head and tail of the capture, or a single block) or
/// g0 + dg * (pos - c0) / span_len at sample position pos. Adjacent block
/// centres are at least 1.5 samples apart, so an interpolated stretch
/// never has a zero span.
struct gain_segment {
  cplx g0;
  cplx dg;
  double c0 = 0.0;
  double span_len = 0.0;
};

/// Pass 3 on samples [begin, end) of the capture (d and c its base).
void apply_reference(const cplx* d, cplx* c, std::size_t begin,
                     std::size_t end, const gain_segment& g) {
  for (std::size_t i = begin; i < end; ++i) {
    cplx a = g.g0;
    if (g.span_len > 0.0) {
      const double frac = (static_cast<double>(i) - g.c0) / g.span_len;
      a = g.g0 + g.dg * frac;
    }
    const cplx m = d[i] - c[i];
    c[i] -= a * m;
  }
}

#if defined(__AVX2__)

void fit(const cplx* d, const cplx* c, std::size_t n, fit_sums& f) {
  double p = f.p;
  __m128d s = load1(f.s), r1 = load1(f.r1), r2 = load1(f.r2);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d cv = load2(c + i), c_sw = swap_ri(cv);
    const __m256d m = _mm256_sub_pd(load2(d + i), cv);
    const __m256d mr = re_dup(m), mi = im_dup(m);
    const __m256d nrm = norm2(m);
    const __m256d mm = flip_odd(cmul(m, swap_ri(m), mr, mi));  // conj(m * m)
    const __m256d t1 = cmul(cv, c_sw, mr, flip_all(mi));       // c * conj(m)
    const __m256d t2 = cmul(cv, c_sw, mr, mi);                 // c * m
    if (any_set(_mm256_or_pd(nan_lanes(nrm, mm), nan_lanes(t1, t2)))) {
      f = {p, to_cplx(s), to_cplx(r1), to_cplx(r2)};
      fit_reference(d + i, c + i, 2, f);
      p = f.p;
      s = load1(f.s);
      r1 = load1(f.r1);
      r2 = load1(f.r2);
      continue;
    }
    p += lane0(nrm);
    p += lane2(nrm);
    s = add_pair(s, mm);
    r1 = add_pair(r1, t1);
    r2 = add_pair(r2, t2);
  }
  f = {p, to_cplx(s), to_cplx(r1), to_cplx(r2)};
  fit_reference(d + i, c + i, n - i, f);
}

void correct(const cplx* d, cplx* c, std::size_t len, cplx a0, cplx b0,
             double& p_out, cplx& r1_out) {
  const __m256d ar = _mm256_set1_pd(a0.real()), ai = _mm256_set1_pd(a0.imag());
  const __m256d br = _mm256_set1_pd(b0.real()), bi = _mm256_set1_pd(b0.imag());
  double p = p_out;
  __m128d r1 = load1(r1_out);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2) {
    const __m256d dv = load2(d + i), cv = load2(c + i);
    const __m256d m = _mm256_sub_pd(dv, cv), m_sw = swap_ri(m);
    // c -= a0 * m + b0 * conj(m)
    const __m256d c2 = _mm256_sub_pd(
        cv, _mm256_add_pd(cmul(m, m_sw, ar, ai),
                          cmul(flip_odd(m), flip_even(m_sw), br, bi)));
    const __m256d m2 = _mm256_sub_pd(dv, c2);
    const __m256d nrm = norm2(m2);
    const __m256d t1 =  // c * conj(m2)
        cmul(c2, swap_ri(c2), re_dup(m2), flip_all(im_dup(m2)));
    // A NaN in m2 or nrm reaches c2 or t1 too.
    if (any_set(nan_lanes(c2, t1))) {
      r1_out = to_cplx(r1);
      correct_reference(d + i, c + i, 2, a0, b0, p, r1_out);
      r1 = load1(r1_out);
      continue;
    }
    store2(c + i, c2);
    p += lane0(nrm);
    p += lane2(nrm);
    r1 = add_pair(r1, t1);
  }
  r1_out = to_cplx(r1);
  correct_reference(d + i, c + i, len - i, a0, b0, p, r1_out);
  p_out = p;
}

/// Pass 3 on one pair at a: c -= a * m, a given as re_dup/im_dup.
inline void apply_pair(const cplx* d, cplx* c, std::size_t i, __m256d ar,
                       __m256d ai, const gain_segment& g) {
  const __m256d cv = load2(c + i);
  const __m256d m = _mm256_sub_pd(load2(d + i), cv);
  const __m256d out = _mm256_sub_pd(cv, cmul(m, swap_ri(m), ar, ai));
  if (any_set(nan_lanes(out, out)))
    apply_reference(d, c, i, i + 2, g);
  else
    store2(c + i, out);
}

void apply(const cplx* d, cplx* c, std::size_t begin, std::size_t end,
           const gain_segment& g) {
  std::size_t i = begin;
  if (g.span_len > 0.0) {
    // Four positions per divide: frac = (pos - c0) / span_len, then
    // a = g0 + dg * frac per pair.
    const __m256d c0 = _mm256_set1_pd(g.c0), span = _mm256_set1_pd(g.span_len);
    const __m256d g0 = _mm256_set_pd(g.g0.imag(), g.g0.real(), g.g0.imag(),
                                     g.g0.real());
    const __m256d dg = _mm256_set_pd(g.dg.imag(), g.dg.real(), g.dg.imag(),
                                     g.dg.real());
    for (; i + 4 <= end; i += 4) {
      const double pos = static_cast<double>(i);
      const __m256d frac = _mm256_div_pd(
          _mm256_sub_pd(_mm256_set_pd(pos + 3.0, pos + 2.0, pos + 1.0, pos),
                        c0),
          span);
      const __m256d a01 = _mm256_add_pd(
          g0, _mm256_mul_pd(dg, _mm256_permute4x64_pd(frac, 0b01010000)));
      const __m256d a23 = _mm256_add_pd(
          g0, _mm256_mul_pd(dg, _mm256_permute4x64_pd(frac, 0b11111010)));
      apply_pair(d, c, i, re_dup(a01), im_dup(a01), g);
      apply_pair(d, c, i + 2, re_dup(a23), im_dup(a23), g);
    }
  } else {
    const __m256d ar = _mm256_set1_pd(g.g0.real());
    const __m256d ai = _mm256_set1_pd(g.g0.imag());
    for (; i + 2 <= end; i += 2) apply_pair(d, c, i, ar, ai, g);
  }
  apply_reference(d, c, i, end, g);
}

#else  // !__AVX2__

void fit(const cplx* d, const cplx* c, std::size_t n, fit_sums& f) {
  fit_reference(d, c, n, f);
}

void correct(const cplx* d, cplx* c, std::size_t len, cplx a0, cplx b0,
             double& p, cplx& r1) {
  correct_reference(d, c, len, a0, b0, p, r1);
}

void apply(const cplx* d, cplx* c, std::size_t begin, std::size_t end,
           const gain_segment& g) {
  apply_reference(d, c, begin, end, g);
}

#endif  // __AVX2__

// --- Widely-linear / DC cancellation ----------------------------------

/// One output of the sweep in plain doubles: both gathers accumulate in
/// descending tap order exactly like the scalar edge of
/// convolve_same_gather (ar*br - ai*bi, ar*bi + ai*br per product).
cplx wl_one(const cplx* x, const cplx* h, std::size_t nh, const cplx* hc,
            std::size_t nhc, cplx dc, const cplx* src, std::size_t j) {
  double lr = 0.0, li = 0.0;
  for (std::size_t k = std::min(j, nh - 1) + 1; k-- > 0;) {
    const double xr = x[j - k].real(), xi = x[j - k].imag();
    lr += xr * h[k].real() - xi * h[k].imag();
    li += xr * h[k].imag() + xi * h[k].real();
  }
  double vr = src[j].real() - lr, vi = src[j].imag() - li;
  if (nhc > 0) {
    double cr = 0.0, ci = 0.0;
    for (std::size_t k = std::min(j, nhc - 1) + 1; k-- > 0;) {
      const double xr = x[j - k].real(), xi = -x[j - k].imag();
      cr += xr * hc[k].real() - xi * hc[k].imag();
      ci += xr * hc[k].imag() + xi * hc[k].real();
    }
    vr -= cr;
    vi -= ci;
  }
  return {vr - dc.real(), vi - dc.imag()};
}

#if defined(__AVX2__)

/// Outputs [j, j + 2R) of the sweep, R packed pairs per branch, each pair
/// accumulated over the same descending-k sequence as wl_one; NaN outputs
/// are OR-ed into nan_acc.
template <int R>
inline void wl_block(const cplx* x, const cplx* h, std::size_t nh,
                     const cplx* hc, std::size_t nhc, __m256d dcv,
                     const cplx* src, cplx* out, std::size_t j,
                     __m256d& nan_acc) {
  const double* xb = reinterpret_cast<const double*>(x + j);
  __m256d lin[R], cnj[R];
  for (int r = 0; r < R; ++r) lin[r] = cnj[r] = _mm256_setzero_pd();
  for (std::size_t k = nh; k-- > 0;)
    for (int r = 0; r < R; ++r)
      lin[r] = cmul_acc(lin[r], _mm256_loadu_pd(xb - 2 * k + 4 * r), h[k]);
  for (std::size_t k = nhc; k-- > 0;)
    for (int r = 0; r < R; ++r)
      cnj[r] = cmul_acc(cnj[r], flip_odd(_mm256_loadu_pd(xb - 2 * k + 4 * r)),
                        hc[k]);
  for (int r = 0; r < R; ++r) {
    __m256d v = _mm256_sub_pd(load2(src + j + 2 * r), lin[r]);
    if (nhc > 0) v = _mm256_sub_pd(v, cnj[r]);
    v = _mm256_sub_pd(v, dcv);
    store2(out + j + 2 * r, v);
    nan_acc = _mm256_or_pd(nan_acc, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
  }
}

#endif  // __AVX2__

}  // namespace

std::size_t gain_block_count(std::size_t n, std::size_t block) {
  return n / block + (n % block != 0 ? 1 : 0);
}

void track_residual_gain(std::span<const cplx> digitized,
                         std::span<cplx> cleaned, std::size_t gain_block,
                         std::span<const dsp::sample_range> apply_ranges,
                         cvec& gain, std::vector<double>& centre) {
  const std::size_t n = cleaned.size();
  const cplx* d = digitized.data();
  cplx* c = cleaned.data();

  // Pass 1: static widely-linear residual fit.
  fit_sums f;
  fit(d, c, n, f);
  const double loaded = f.p * (1.0 + 1e-3) + 1e-30;
  const double det = loaded * loaded - std::norm(f.s);
  const cplx a0 = (loaded * f.r1 - f.s * f.r2) / det;
  const cplx b0 = (loaded * f.r2 - std::conj(f.s) * f.r1) / det;

  // Pass 2: apply the pass-1 correction and fit each block's gain on the
  // corrected model, block by block. Pass 3 interpolates the gain between
  // block centres: position i takes gain[0] up to and including
  // centre[0], gain[last] from centre[last] on, and between them the
  // segment b-1 with centre[b-1] <= i < centre[b]. Centres are integers or
  // half-integers, so the segment boundaries are the ceilings of the
  // centres. Segment b-1 only needs gain[b] and samples of blocks b-1 and
  // b, so it runs right after block b's pass 2 (every sample still gets
  // pass 3 after its own pass 2), and its divides overlap the next block's
  // running sums.
  const std::size_t block = std::max<std::size_t>(gain_block, 2);
  const std::size_t n_blocks = gain_block_count(n, block);
  gain.resize(n_blocks);
  centre.resize(n_blocks);
  const auto apply_clipped = [&](std::size_t begin, std::size_t end,
                                 const gain_segment& g) {
    for (const dsp::sample_range& r : apply_ranges) {
      const std::size_t lo = std::max(begin, r.begin);
      const std::size_t hi = std::min({end, r.end, n});
      if (lo < hi) apply(d, c, lo, hi, g);
    }
  };
  std::size_t seg_begin = 0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t begin = b * block;
    const std::size_t end = begin + std::min(block, n - begin);
    double p = 0.0;
    cplx r1{0.0, 0.0};
    correct(d + begin, c + begin, end - begin, a0, b0, p, r1);
    gain[b] = r1 / (p * (1.0 + 1e-3) + 1e-30);
    centre[b] = 0.5 * static_cast<double>(begin + end - 1);
    if (b == 0) {
      seg_begin = n_blocks == 1 ? n : static_cast<std::size_t>(centre[0]) + 1;
      apply_clipped(0, seg_begin, {gain[0], {0.0, 0.0}});
    } else {
      const std::size_t seg_end = std::max(
          seg_begin, static_cast<std::size_t>(std::ceil(centre[b])));
      apply_clipped(seg_begin, seg_end,
                    {gain[b - 1], gain[b] - gain[b - 1], centre[b - 1],
                     centre[b] - centre[b - 1]});
      seg_begin = seg_end;
    }
  }
  apply_clipped(seg_begin, n, {gain[n_blocks - 1], {0.0, 0.0}});
}

bool cancel_widely_linear(const cplx* x, const cplx* h, std::size_t nh,
                          const cplx* hc, std::size_t nhc, cplx dc,
                          const cplx* src, cplx* out, std::size_t o0,
                          std::size_t o1) {
  // The unfused sweep skips an all-zero DC; subtracting +0 is the identity
  // on every non-NaN value, while -0 would turn a -0 output into +0.
  if (dc == cplx{0.0, 0.0}) dc = {0.0, 0.0};
  bool nan = false;
  const auto scalar_one = [&](std::size_t j) {
    out[j] = wl_one(x, h, nh, hc, nhc, dc, src, j);
    nan |= std::isnan(out[j].real()) | std::isnan(out[j].imag());
  };
  std::size_t j = o0;
  // Left edge: outputs whose tap range is clipped by the start of x.
  const std::size_t full_from = std::max(nh, nhc) - 1;
  for (; j < std::min(o1, full_from); ++j) scalar_one(j);
#if defined(__AVX2__)
  const __m256d dcv = _mm256_set_pd(dc.imag(), dc.real(), dc.imag(), dc.real());
  __m256d nan_acc = _mm256_setzero_pd();
  for (; j + 8 <= o1; j += 8)
    wl_block<4>(x, h, nh, hc, nhc, dcv, src, out, j, nan_acc);
  for (; j + 4 <= o1; j += 4)
    wl_block<2>(x, h, nh, hc, nhc, dcv, src, out, j, nan_acc);
  nan |= _mm256_movemask_pd(nan_acc) != 0;
#endif
  for (; j < o1; ++j) scalar_one(j);
  return !nan;
}

bool chain_kernels_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::fd::detail
