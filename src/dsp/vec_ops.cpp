#include "dsp/vec_ops.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace backfi::dsp {

namespace {

void require_equal_sizes(std::size_t a, std::size_t b, const char* where) {
  if (a != b)
    throw std::invalid_argument(std::string(where) + ": span sizes differ");
}

}  // namespace

double energy(std::span<const cplx> x) {
  double acc = 0.0;
  for (const cplx& v : x) acc += std::norm(v);
  return acc;
}

double mean_power(std::span<const cplx> x) {
  if (x.empty()) return 0.0;
  return energy(x) / static_cast<double>(x.size());
}

double rms(std::span<const cplx> x) { return std::sqrt(mean_power(x)); }

void add_in_place(std::span<cplx> y, std::span<const cplx> x) {
  require_equal_sizes(y.size(), x.size(), "add_in_place");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

cvec hadamard(std::span<const cplx> x, std::span<const cplx> y) {
  require_equal_sizes(x.size(), y.size(), "hadamard");
  cvec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * y[i];
  return out;
}

void hadamard_into(std::span<const cplx> x, std::span<const cplx> y,
                   cvec& out) {
  require_equal_sizes(x.size(), y.size(), "hadamard_into");
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * y[i];
}

}  // namespace backfi::dsp
