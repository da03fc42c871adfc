#include "phy/erasure_code.h"

#include <algorithm>
#include <stdexcept>

namespace backfi::phy {

namespace {

// exp/log tables of GF(256) under 0x11d, generator 2. exp is doubled so
// products index without a modular reduction.
struct gf256_tables {
  std::uint8_t exp[512];
  std::uint8_t log[256];

  gf256_tables() {
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;  // never read: callers guard zero operands
  }
};

const gf256_tables& tables() {
  static const gf256_tables t;
  return t;
}

}  // namespace

std::uint8_t gf256_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] + t.log[b]];
}

std::uint8_t gf256_div(std::uint8_t a, std::uint8_t b) {
  if (b == 0) throw std::invalid_argument("gf256_div: division by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] + 255 - t.log[b]];
}

const char* to_string(erasure_scheme scheme) {
  switch (scheme) {
    case erasure_scheme::none: return "none";
    case erasure_scheme::reed_solomon: return "reed_solomon";
  }
  return "unknown";
}

std::size_t erasure_spec::scheduled_symbols() const {
  return block_symbols + rs_repair_symbols;
}

std::size_t erasure_spec::packet_payload_bits() const {
  return erasure_header_bits + 8 * symbol_bytes;
}

std::size_t erasure_spec::block_payload_bits() const {
  return 8 * block_symbols * symbol_bytes;
}

bitvec pack_coded_packet(std::uint32_t block, std::uint32_t esi,
                         std::span<const std::uint8_t> symbol) {
  bitvec out;
  out.reserve(erasure_header_bits + 8 * symbol.size());
  append_uint(out, block & 0xffffu, 16);
  append_uint(out, esi & 0xffffu, 16);
  const bitvec payload = bytes_to_bits(symbol);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool unpack_coded_packet(std::span<const std::uint8_t> bits,
                         const erasure_spec& spec, std::uint32_t& block,
                         std::uint32_t& esi,
                         std::vector<std::uint8_t>& symbol) {
  if (bits.size() != spec.packet_payload_bits()) return false;
  block = bits_to_uint(bits, 0, 16);
  esi = bits_to_uint(bits, 16, 16);
  symbol = bits_to_bytes(bits.subspan(erasure_header_bits));
  return true;
}

// --- Reed-Solomon --------------------------------------------------------

std::vector<std::uint8_t> rs_encode_symbol(std::span<const std::uint8_t> data,
                                           std::size_t k,
                                           std::size_t symbol_bytes,
                                           std::size_t esi) {
  if (k == 0 || k > 255)
    throw std::invalid_argument("rs_encode_symbol: k must be in [1, 255]");
  if (esi >= 255)
    throw std::invalid_argument("rs_encode_symbol: the GF(256) field admits "
                                "at most 255 distinct symbols");
  if (data.size() != k * symbol_bytes)
    throw std::invalid_argument("rs_encode_symbol: data size mismatch");
  if (esi < k) {
    const auto row = data.subspan(esi * symbol_bytes, symbol_bytes);
    return {row.begin(), row.end()};
  }
  // Lagrange evaluation of the interpolating polynomial at x = esi: the
  // data rows are its values at x = 0..k-1 (field subtraction is XOR).
  const auto x = static_cast<std::uint8_t>(esi);
  std::vector<std::uint8_t> coeff(k);
  for (std::size_t j = 0; j < k; ++j) {
    std::uint8_t num = 1, den = 1;
    for (std::size_t m = 0; m < k; ++m) {
      if (m == j) continue;
      num = gf256_mul(num, x ^ static_cast<std::uint8_t>(m));
      den = gf256_mul(den, static_cast<std::uint8_t>(j) ^
                               static_cast<std::uint8_t>(m));
    }
    coeff[j] = gf256_div(num, den);
  }
  std::vector<std::uint8_t> out(symbol_bytes, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint8_t c = coeff[j];
    if (c == 0) continue;
    const auto row = data.subspan(j * symbol_bytes, symbol_bytes);
    for (std::size_t b = 0; b < symbol_bytes; ++b)
      out[b] ^= gf256_mul(c, row[b]);
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> rs_decode_block(
    std::span<const std::uint32_t> esis,
    std::span<const std::vector<std::uint8_t>> symbols, std::size_t k,
    std::size_t symbol_bytes) {
  if (k == 0 || k > 255)
    throw std::invalid_argument("rs_decode_block: k must be in [1, 255]");
  if (esis.size() != symbols.size())
    throw std::invalid_argument("rs_decode_block: esi/symbol count mismatch");
  // Deduplicate and keep the first k distinct coded symbols.
  std::vector<std::uint8_t> have(255, 0);
  std::vector<std::uint32_t> xs;
  std::vector<std::span<const std::uint8_t>> vs;
  for (std::size_t i = 0; i < esis.size() && xs.size() < k; ++i) {
    const std::uint32_t e = esis[i];
    if (e >= 255 || have[e]) continue;
    if (symbols[i].size() != symbol_bytes)
      throw std::invalid_argument("rs_decode_block: symbol size mismatch");
    have[e] = 1;
    xs.push_back(e);
    vs.push_back(symbols[i]);
  }
  if (xs.size() < k) return std::nullopt;

  std::vector<std::uint8_t> data(k * symbol_bytes, 0);
  // Received data symbols copy straight through; missing ones interpolate.
  std::vector<std::size_t> direct(k, k);  // data index -> xs position
  for (std::size_t j = 0; j < k; ++j)
    if (xs[j] < k) direct[xs[j]] = j;
  for (std::size_t i = 0; i < k; ++i) {
    auto row = std::span(data).subspan(i * symbol_bytes, symbol_bytes);
    if (direct[i] < k) {
      const auto& v = vs[direct[i]];
      std::copy(v.begin(), v.end(), row.begin());
      continue;
    }
    const auto x = static_cast<std::uint8_t>(i);
    for (std::size_t j = 0; j < k; ++j) {
      std::uint8_t num = 1, den = 1;
      const auto xj = static_cast<std::uint8_t>(xs[j]);
      for (std::size_t m = 0; m < k; ++m) {
        if (m == j) continue;
        const auto xm = static_cast<std::uint8_t>(xs[m]);
        num = gf256_mul(num, x ^ xm);
        den = gf256_mul(den, xj ^ xm);
      }
      const std::uint8_t c = gf256_div(num, den);
      if (c == 0) continue;
      for (std::size_t b = 0; b < symbol_bytes; ++b)
        row[b] ^= gf256_mul(c, vs[j][b]);
    }
  }
  return data;
}

}  // namespace backfi::phy
