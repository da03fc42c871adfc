// Maximal-ratio combining estimation of the tag's per-symbol phase
// (paper Section 4.3.2, Eq. 7 and Fig. 6).
//
// Within one tag symbol the phase e^{j theta_c} is constant and the
// combined forward-backward channel is short, so every sample in the
// (guard-trimmed) symbol window is an independent noisy observation of
// theta_c scaled by the known quantity yhat[n] = x_{n,L+M}^T h_fb. MRC
// weights and sums them:
//
//   m = sum_n y[n] * conj(yhat[n]) / sum_n |yhat[n]|^2   ~   e^{j theta_c}
#pragma once

#include <span>
#include <vector>

#include "dsp/types.h"

namespace backfi::reader {

/// MRC estimate over samples [begin, end) of y against the expected
/// unmodulated backscatter yhat (same indexing). Returns ~e^{j theta}.
/// Returns 0 when the window carries no usable energy. Throws
/// std::invalid_argument unless y and yhat have equal length and
/// begin <= end <= y.size().
cplx mrc_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                  std::size_t begin, std::size_t end);

/// Precompute the per-sample MRC terms over the absolute index window
/// [begin, end): products[i - begin] = y[i] * conj(yhat[i]) and
/// weights[i - begin] = |yhat[i]|^2. The sync scan evaluates all timing
/// offsets as contiguous sums over these buffers instead of recomputing
/// the products per offset. Throws std::invalid_argument on the spans and
/// window mrc_estimate rejects.
void mrc_precompute(std::span<const cplx> y, std::span<const cplx> yhat,
                    std::size_t begin, std::size_t end, cvec& products,
                    std::vector<double>& weights);

/// MRC estimates for a run of `n_symbols` symbols of `samples_per_symbol`
/// starting at `first_symbol_start`, trimming `guard` samples at the head
/// of each symbol (channel-memory transition region, "sample ignored" in
/// the paper's Fig. 6), evaluated from precomputed products/weights whose
/// index 0 corresponds to absolute sample `window_begin`, writing into the
/// caller's span (sized n_symbols). `capture_size` is the length of the
/// original y/yhat vectors: a symbol that runs past it, and every symbol
/// after it, is left 0. Every other symbol window must lie inside the
/// precomputed window. Each estimate is bit-identical to mrc_estimate over
/// the symbol's window: same per-sample accumulation order. Throws
/// std::invalid_argument, before writing anything, unless
/// guard < samples_per_symbol, products and weights have equal length,
/// out holds n_symbols, and every symbol inside the capture lies inside
/// the precomputed window.
void mrc_symbol_estimates_from_products(
    std::span<const cplx> products, std::span<const double> weights,
    std::size_t window_begin, std::size_t capture_size,
    std::size_t first_symbol_start, std::size_t samples_per_symbol,
    std::size_t n_symbols, std::size_t guard, std::span<cplx> out);

/// Naive alternative the paper rejects (Section 4.3.2): divide y by yhat
/// sample-wise and average. Amplifies noise wherever |yhat| is small;
/// exists for the MRC-superiority tests and the ablation bench. Throws
/// std::invalid_argument on the spans and window mrc_estimate rejects.
cplx naive_division_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                             std::size_t begin, std::size_t end);

}  // namespace backfi::reader
