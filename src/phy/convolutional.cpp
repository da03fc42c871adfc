#include "phy/convolutional.h"

#include <array>
#include <limits>
#include <stdexcept>
#include <utility>

#include "phy/viterbi_kernels.h"

namespace backfi::phy {

namespace {

// Generators in binary, constraint length 7 (current bit + 6 memory bits).
constexpr std::uint32_t kG0 = 0b1011011;  // 133 octal
constexpr std::uint32_t kG1 = 0b1111001;  // 171 octal
constexpr int kMemory = 6;
constexpr int kStates = 1 << kMemory;

std::uint8_t parity(std::uint32_t v) {
  v ^= v >> 16;
  v ^= v >> 8;
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return static_cast<std::uint8_t>(v & 1u);
}

struct trellis_tables {
  // For each state s and input bit b: next state and the two output bits.
  std::array<std::array<std::uint8_t, 2>, kStates> next_state;
  std::array<std::array<std::uint8_t, 2>, kStates> out0;
  std::array<std::array<std::uint8_t, 2>, kStates> out1;
};

const trellis_tables& tables() {
  static const trellis_tables t = [] {
    trellis_tables tt{};
    for (int s = 0; s < kStates; ++s) {
      for (int b = 0; b < 2; ++b) {
        // Register = [input, memory bits]; state stores memory (newest in MSB).
        const std::uint32_t reg =
            (static_cast<std::uint32_t>(b) << kMemory) | static_cast<std::uint32_t>(s);
        tt.out0[s][b] = parity(reg & kG0);
        tt.out1[s][b] = parity(reg & kG1);
        tt.next_state[s][b] = static_cast<std::uint8_t>(reg >> 1);
      }
    }
    return tt;
  }();
  return t;
}

// Byte-at-a-time encoder table: entry [state][byte] is the 16 mother bits
// the trellis emits for the byte's 8 input bits (LSB first) from `state`.
// The state after a byte needs no table: the register keeps the newest 6
// inputs with the newest in the MSB, i.e. byte >> 2.
using byte_encoder_table = std::array<std::array<std::uint16_t, 256>, kStates>;

const byte_encoder_table& byte_encoder() {
  static const byte_encoder_table table = [] {
    const auto& t = tables();
    byte_encoder_table out{};
    for (int s = 0; s < kStates; ++s) {
      for (int v = 0; v < 256; ++v) {
        std::uint8_t state = static_cast<std::uint8_t>(s);
        std::uint16_t word = 0;
        for (int i = 0; i < 8; ++i) {
          const int bit = (v >> i) & 1;
          word = static_cast<std::uint16_t>(word | (t.out0[state][bit] << (2 * i)) |
                                            (t.out1[state][bit] << (2 * i + 1)));
          state = t.next_state[state][bit];
        }
        out[s][v] = word;
      }
    }
    return out;
  }();
  return table;
}

}  // namespace

std::span<const std::uint8_t> puncture_pattern(code_rate rate) {
  static constexpr std::uint8_t kHalf[] = {1, 1};
  static constexpr std::uint8_t kTwoThirds[] = {1, 1, 1, 0};
  static constexpr std::uint8_t kThreeQuarters[] = {1, 1, 1, 0, 0, 1};
  switch (rate) {
    case code_rate::half: return {kHalf, 2};
    case code_rate::two_thirds: return {kTwoThirds, 4};
    case code_rate::three_quarters: return {kThreeQuarters, 6};
  }
  throw std::logic_error("unknown code rate");
}

double code_rate_value(code_rate rate) {
  switch (rate) {
    case code_rate::half: return 0.5;
    case code_rate::two_thirds: return 2.0 / 3.0;
    case code_rate::three_quarters: return 0.75;
  }
  throw std::logic_error("unknown code rate");
}

const char* code_rate_name(code_rate rate) {
  switch (rate) {
    case code_rate::half: return "1/2";
    case code_rate::two_thirds: return "2/3";
    case code_rate::three_quarters: return "3/4";
  }
  throw std::logic_error("unknown code rate");
}

bitvec conv_encode(std::span<const std::uint8_t> info) {
  const auto& t = tables();
  // Indexed writes into a presized buffer: per-bit push_back capacity checks
  // dominate the encoder on long PPDUs. Output values are unchanged.
  bitvec out(2 * (info.size() + conv_tail_bits));
  std::uint8_t state = 0;
  std::size_t w = 0;
  auto push = [&](std::uint8_t bit) {
    out[w] = t.out0[state][bit];
    out[w + 1] = t.out1[state][bit];
    w += 2;
    state = t.next_state[state][bit];
  };
  for (std::uint8_t bit : info) push(bit & 1u);
  for (std::size_t i = 0; i < conv_tail_bits; ++i) push(0);
  return out;
}

void conv_encode_packed(std::span<const std::uint8_t> in,
                        std::span<std::uint16_t> out) {
  if (out.size() < in.size())
    throw std::invalid_argument("conv_encode_packed: output too short");
  const auto& table = byte_encoder();
  std::uint8_t state = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = table[state][in[i]];
    state = static_cast<std::uint8_t>(in[i] >> 2);
  }
}

bitvec puncture(std::span<const std::uint8_t> coded, code_rate rate) {
  // Rate 1/2 transmits every mother bit: a straight copy.
  if (rate == code_rate::half) return bitvec(coded.begin(), coded.end());

  const auto pattern = puncture_pattern(rate);
  const std::size_t period = pattern.size();
  std::size_t kept_per_period = 0;
  for (std::uint8_t keep : pattern) kept_per_period += keep;
  const std::size_t full = coded.size() / period;
  std::size_t total = full * kept_per_period;
  for (std::size_t k = full * period; k < coded.size(); ++k)
    total += pattern[k % period];

  bitvec out(total);
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + period <= coded.size(); i += period)
    for (std::size_t k = 0; k < period; ++k)
      if (pattern[k]) out[w++] = coded[i + k];
  for (std::size_t k = 0; i < coded.size(); ++i, ++k)
    if (pattern[k]) out[w++] = coded[i];
  return out;
}

void depuncture_into(std::span<const double> soft, code_rate rate,
                     std::size_t mother_length, std::vector<double>& out) {
  const auto pattern = puncture_pattern(rate);
  out.resize(mother_length);
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < mother_length; ++i) {
    if (pattern[i % pattern.size()]) {
      if (consumed >= soft.size())
        throw std::invalid_argument("depuncture: soft stream too short");
      out[i] = soft[consumed++];
    } else {
      out[i] = 0.0;  // erasure: no information about this mother bit
    }
  }
  if (consumed != soft.size())
    throw std::invalid_argument("depuncture: soft stream too long");
}

double viterbi_decode(std::span<const double> soft, std::size_t n_info,
                      std::vector<std::uint64_t>& decisions, bitvec& decoded) {
  // soft.size() >= 2 * (n_info + tail), checked without forming either sum.
  if (n_info > soft.size() / 2 || soft.size() / 2 - n_info < conv_tail_bits)
    throw std::invalid_argument("viterbi_decode: soft stream too short");
  const std::size_t n_steps = n_info + conv_tail_bits;

  decisions.resize(n_steps);

  // Gather form of the scatter update: next state ns has exactly two
  // predecessors 2*(ns & 31) and 2*(ns & 31) + 1, both via input bit
  // ns >> 5, so one bit per state records the survivor. The select is
  // branchless — the data-dependent winner made the scatter loop mispredict
  // heavily. `c1 > c0` picks the second predecessor only on strict
  // improvement, matching the original first-writer-wins tie break; -inf
  // propagates through the sums, so an unreachable predecessor never beats
  // a reachable one and fully unreachable states keep -inf. Their decision
  // bits are written too, but traceback starts at state 0 (finite metric,
  // trellis is terminated) and only ever follows winners — on tail steps
  // only states with input bit 0 — so decoded output is unchanged. The
  // whole forward pass runs in viterbi_kernels.cpp (per-TU flags,
  // contraction off), whose AVX2 body is bit-identical to the scalar
  // fallback there.
  const double final_metric =
      detail::viterbi_trellis(soft.data(), n_steps, n_info, decisions.data());

  // Trace back from the zero state (trellis was terminated).
  decoded.resize(n_steps);
  unsigned state = 0;
  for (std::size_t step = n_steps; step-- > 0;) {
    decoded[step] = static_cast<std::uint8_t>(state >> (kMemory - 1));
    state = 2 * (state & (kStates / 2 - 1)) +
            static_cast<unsigned>((decisions[step] >> state) & 1u);
  }
  decoded.resize(n_info);  // strip tail
  return final_metric;
}

std::size_t coded_length(std::size_t n_info, code_rate rate) {
  // The mother stream 2 * (n_info + tail) is `full` whole puncturing periods
  // plus 2 * `rem` bits — puncture()'s count, without walking the stream.
  // Every period is even, so the split comes from (n_info + tail) by half
  // periods and never forms the (possibly overflowing) doubled length.
  const auto pattern = puncture_pattern(rate);
  const std::size_t half = pattern.size() / 2;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::size_t extra = n_info % half + conv_tail_bits;
  const std::size_t rem = extra % half;
  std::size_t kept_per_period = 0;
  for (std::uint8_t keep : pattern) kept_per_period += keep;
  std::size_t partial = 0;
  for (std::size_t k = 0; k < 2 * rem; ++k) partial += pattern[k];
  const std::size_t full = n_info / half;
  if (full > kMax - extra / half ||
      full + extra / half > (kMax - partial) / kept_per_period)
    throw std::overflow_error("coded_length: coded length not representable");
  return (full + extra / half) * kept_per_period + partial;
}

}  // namespace backfi::phy
