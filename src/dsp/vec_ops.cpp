#include "dsp/vec_ops.h"

#include <cassert>
#include <cmath>

namespace backfi::dsp {

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
  assert(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

cvec hadamard(std::span<const cplx> x, std::span<const cplx> y) {
  assert(x.size() == y.size());
  cvec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * y[i];
  return out;
}

void hadamard_into(std::span<const cplx> x, std::span<const cplx> y,
                   cvec& out) {
  assert(x.size() == y.size());
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * y[i];
}

}  // namespace backfi::dsp
