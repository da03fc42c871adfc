#include "reader/mrc.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace backfi::reader {

cplx mrc_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                  std::size_t begin, std::size_t end) {
  assert(y.size() == yhat.size());
  assert(begin <= end && end <= y.size());
  cplx numerator{0.0, 0.0};
  double denominator = 0.0;
  for (std::size_t n = begin; n < end; ++n) {
    numerator += y[n] * std::conj(yhat[n]);
    denominator += std::norm(yhat[n]);
  }
  if (denominator <= 0.0) return {0.0, 0.0};
  return numerator / denominator;
}

void mrc_precompute(std::span<const cplx> y, std::span<const cplx> yhat,
                    std::size_t begin, std::size_t end, cvec& products,
                    std::vector<double>& weights) {
  assert(y.size() == yhat.size());
  assert(begin <= end && end <= y.size());
  const std::size_t n = end - begin;
  products.resize(n);
  weights.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    products[i] = y[begin + i] * std::conj(yhat[begin + i]);
    weights[i] = std::norm(yhat[begin + i]);
  }
}

void mrc_symbol_estimates_from_products(
    std::span<const cplx> products, std::span<const double> weights,
    std::size_t window_begin, std::size_t capture_size,
    std::size_t first_symbol_start, std::size_t samples_per_symbol,
    std::size_t n_symbols, std::size_t guard, std::span<cplx> out) {
  assert(guard < samples_per_symbol);
  assert(products.size() == weights.size());
  assert(out.size() >= n_symbols);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n_symbols),
            cplx{0.0, 0.0});
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::size_t start = first_symbol_start + s * samples_per_symbol;
    const std::size_t begin = start + guard;
    const std::size_t end = start + samples_per_symbol;
    if (end > capture_size) break;
    assert(begin >= window_begin && end - window_begin <= products.size());
    // Each stored product/weight is the exact value mrc_estimate would
    // compute in place; summing them in the same ascending-sample order
    // reproduces its result to the bit.
    cplx numerator{0.0, 0.0};
    double denominator = 0.0;
    for (std::size_t n = begin - window_begin; n < end - window_begin; ++n) {
      numerator += products[n];
      denominator += weights[n];
    }
    out[s] = denominator <= 0.0 ? cplx{0.0, 0.0} : numerator / denominator;
  }
}

cplx naive_division_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                             std::size_t begin, std::size_t end) {
  assert(begin <= end && end <= y.size());
  cplx acc{0.0, 0.0};
  std::size_t count = 0;
  for (std::size_t n = begin; n < end; ++n) {
    if (std::norm(yhat[n]) <= 0.0) continue;
    acc += y[n] / yhat[n];
    ++count;
  }
  if (count == 0) return {0.0, 0.0};
  return acc / static_cast<double>(count);
}

}  // namespace backfi::reader
