// Deterministic random number generation for the whole simulator.
//
// All stochastic behaviour (channel taps, noise, payloads, trace arrivals)
// flows through explicitly seeded rng instances so that every test, example
// and benchmark is reproducible run-to-run and machine-to-machine.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace backfi::dsp {

/// xoshiro256++ PRNG with Gaussian / uniform / complex-Gaussian draws.
/// Not cryptographic; chosen for speed and cross-platform determinism
/// (std::normal_distribution is implementation-defined, so we roll our own
/// Box-Muller on top of a fixed bit generator).
///
/// Two families of draw APIs share one stream:
///  - scalar methods (next_u64, uniform, gaussian, ...): the seed
///    implementation, whose exact draw order every pinned literal in the
///    test suite depends on;
///  - block methods (fill_gaussian, add_scaled_complex_gaussian): the noise
///    synthesis kernels. They consume the stream in the *same order* with
///    the *same per-value arithmetic* as the equivalent scalar loop, so
///    their output is bit-identical; they only restructure the work into
///    staged passes (batched and reordered libm calls, vectorized
///    combines). They live in rng_kernels.cpp, the per-TU SIMD unit (see
///    src/dsp/CMakeLists.txt); equivalence is pinned by
///    tests/dsp/rng_kernels_test.cpp.
class rng {
 public:
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() {
    const std::uint64_t result =
        rotl_(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal N(0, 1).
  double gaussian();

  /// Circularly-symmetric complex Gaussian, E|z|^2 = 1.
  cplx complex_gaussian();

  /// Bernoulli(p) draw.
  bool bernoulli(double p);

  /// Exponential with given mean.
  double exponential(double mean);

  /// n random bits, one per byte (0 or 1). Legacy draw order: one full
  /// next_u64() is consumed *per bit* (bit 0 of each draw). Pinned trial
  /// literals (tag payloads) depend on these stream positions, so this
  /// method must never change.
  std::vector<std::uint8_t> random_bits(std::size_t n);

  /// Derive an independent child generator (for per-trial streams).
  rng fork();

  /// Complete generator state: stream position plus the Box-Muller spare.
  /// Replay caches key on a snapshot (two generators with equal snapshots
  /// produce identical draw sequences forever) and restore one to reproduce
  /// the exact stream position a cached generation pass ended at.
  struct state_snapshot {
    std::array<std::uint64_t, 4> state;
    bool have_spare = false;
    double spare = 0.0;

    bool operator==(const state_snapshot&) const = default;
  };

  state_snapshot save() const {
    // Normalize the dead spare: once consumed, the residual value can
    // differ between draw paths without being observable, and snapshots of
    // logically identical states must compare (and hash) equal.
    return {{state_[0], state_[1], state_[2], state_[3]}, have_spare_gaussian_,
            have_spare_gaussian_ ? spare_gaussian_ : 0.0};
  }

  void restore(const state_snapshot& snapshot) {
    state_[0] = snapshot.state[0];
    state_[1] = snapshot.state[1];
    state_[2] = snapshot.state[2];
    state_[3] = snapshot.state[3];
    have_spare_gaussian_ = snapshot.have_spare;
    spare_gaussian_ = snapshot.spare;
  }

  // --- Block API (rng_kernels.cpp) ---------------------------------------
  // Each call consumes the stream exactly as the equivalent scalar loop
  // and produces bit-identical values (including Box-Muller spare
  // carry-in/-out and the u1 > 0 rejection redraws).

  /// out[i] = gaussian() in order (Box-Muller pairs, spare carried in/out).
  void fill_gaussian(std::span<double> out);

  /// inout[i] += amp * complex_gaussian(), fused — the AWGN inner loop
  /// without materializing the noise. Identical per-sample arithmetic:
  /// z = complex_gaussian(), then amp * z added once per component. A
  /// non-empty `record` (2 * inout.size() doubles, interleaved re/im)
  /// receives every z, so a later dsp::add_scaled_in_place(y, record, a)
  /// reproduces `y[i] += a * complex_gaussian()` bit for bit at any a.
  /// A record of any other size throws std::invalid_argument before a
  /// single draw is consumed.
  void add_scaled_complex_gaussian(std::span<cplx> inout, double amp,
                                   std::span<double> record = {});

 private:
  static std::uint64_t rotl_(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

namespace detail {
/// True when rng_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/dsp/CMakeLists.txt took effect.
bool rng_kernels_avx2();
}  // namespace detail

}  // namespace backfi::dsp
