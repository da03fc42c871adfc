#include "reader/mrc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace backfi::reader {

namespace {

/// The checks every windowed MRC entry point makes on its caller's spans:
/// equal lengths and begin <= end <= y.size(), in every build type.
void check_window(std::span<const cplx> y, std::span<const cplx> yhat,
                  std::size_t begin, std::size_t end, const char* who) {
  if (y.size() != yhat.size())
    throw std::invalid_argument(std::string(who) +
                                ": y and yhat must have equal length");
  if (begin > end || end > y.size())
    throw std::invalid_argument(std::string(who) +
                                ": need begin <= end <= y.size()");
}

}  // namespace

cplx mrc_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                  std::size_t begin, std::size_t end) {
  check_window(y, yhat, begin, end, "mrc_estimate");
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
  check_window(y, yhat, begin, end, "mrc_precompute");
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
  if (guard >= samples_per_symbol)
    throw std::invalid_argument(
        "mrc_symbol_estimates_from_products: guard must be < "
        "samples_per_symbol");
  if (products.size() != weights.size())
    throw std::invalid_argument(
        "mrc_symbol_estimates_from_products: products and weights must have "
        "equal length");
  if (out.size() < n_symbols)
    throw std::invalid_argument(
        "mrc_symbol_estimates_from_products: out holds fewer than n_symbols");
  // The symbols that end inside the capture are a prefix; the rest stay 0.
  const std::size_t n_inside =
      first_symbol_start > capture_size
          ? 0
          : std::min(n_symbols,
                     (capture_size - first_symbol_start) / samples_per_symbol);
  // Their windows rise with s, so the first and last bound them all.
  if (n_inside > 0 &&
      (first_symbol_start + guard < window_begin ||
       first_symbol_start + n_inside * samples_per_symbol - window_begin >
           products.size()))
    throw std::invalid_argument(
        "mrc_symbol_estimates_from_products: a symbol inside the capture "
        "lies outside the precomputed window");
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n_symbols),
            cplx{0.0, 0.0});
  for (std::size_t s = 0; s < n_inside; ++s) {
    const std::size_t start = first_symbol_start + s * samples_per_symbol;
    const std::size_t begin = start + guard;
    const std::size_t end = start + samples_per_symbol;
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
  check_window(y, yhat, begin, end, "naive_division_estimate");
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
